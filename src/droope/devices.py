"""Dynamic device models and controllers.

Two device types are modelled, all in machine (device-MVA) per unit:

* a 9th-order synchronous generator: two-axis machine with flux decay,
  Type-1 rotating exciter with exponential saturation, first-order
  governor and no-reheat steam-chest turbine;
* a 2nd-order grid-forming inverter (constant internal voltage behind a
  coupling impedance) whose frequency-power law comes with its
  parameters: the exponential droop (``GfmDroopEParams``) or a
  conventional linear droop (``GfmStaticParams``).

An inverter can carry the secondary power-sharing controller as a third
state ``omega_ps``, an integrator that nudges its frequency until the
device settles on the static-droop share of a disturbance.  Its input is
gated: the gate is a discrete mode, checked at step boundaries, that
closes once the primary response has settled.

Machine dq quantities map to the network frame through
``(F_d + jF_q) * exp(j*(delta - pi/2))``, so ``v_d = V sin(delta - theta)``
and ``v_q = V cos(delta - theta)`` at a terminal ``V`` at angle ``theta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InitializationError, ScenarioError

SG_STATE_SYMBOLS = ("delta", "omega", "eq_p", "ed_p", "e_fd", "v_r", "r_f",
                    "p_m", "p_sv")
# the third only with power sharing
GFM_STATE_SYMBOLS = ("delta", "p_m", "omega_ps")


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SgParams:
    """Synchronous generator constants (machine pu, seconds)."""
    h: float = 3.01
    x_d: float = 1.3125
    x_d_p: float = 0.1813
    x_q: float = 1.2578
    x_q_p: float = 0.25
    t_do_p: float = 5.89
    t_qo_p: float = 0.6
    k_a: float = 20.0
    t_a: float = 0.2
    k_e: float = 1.0
    t_e: float = 0.314
    k_f: float = 0.063
    t_f: float = 0.35
    sat_gamma: float = 0.0039
    sat_epsilon: float = 1.555
    d_droop: float = 0.05
    # Governor/turbine lags are not part of the published machine set; these
    # no-reheat defaults are deliberate and overridable per scenario.
    t_sv: float = 0.2
    t_ch: float = 0.3
    r_s: float = 0.0
    rating_mva: float = 100.0

    def __post_init__(self):
        for attr in ("h", "t_do_p", "t_qo_p", "t_a", "t_e", "t_f", "t_sv",
                     "t_ch", "d_droop", "rating_mva"):
            if getattr(self, attr) <= 0:
                raise ScenarioError(f"SgParams.{attr} must be > 0")
        if not 0 < self.x_d_p < self.x_d:
            raise ScenarioError("SgParams requires 0 < x_d_p < x_d")


@dataclass(frozen=True)
class GfmDroopEParams:
    """Exponential-droop grid-forming inverter constants (device pu)."""
    kind = "gfm_droop_e"
    alpha: float = 0.002       # pu frequency scalar
    beta: float = 3.0          # 1/pu power argument scale
    t_fil: float = 0.0167
    x_gfm: float = 0.15
    r_gfm: float = 0.005
    rating_mva: float = 50.0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.t_fil, self.rating_mva) <= 0:
            raise ScenarioError(
                "GfmDroopEParams requires alpha, beta, t_fil, rating_mva > 0")

    def offset(self, p_set, p_m, omega_b, exp=np.exp):
        """Frequency offset (rad/s) of the law at filtered power ``p_m``
        for dispatch ``p_set`` and base speed ``omega_b``; ``exp=math.exp``
        evaluates one float faster."""
        return droop_e_offset(p_set, p_m, self.alpha, self.beta, omega_b, exp)

    def slope(self, p):
        """Local droop (pu frequency per pu power) of the law at ``p``."""
        return self.alpha * self.beta * np.exp(self.beta * p)


@dataclass(frozen=True)
class GfmStaticParams:
    """Linear-droop grid-forming inverter constants (device pu)."""
    kind = "gfm_static"
    droop: float = 0.05        # pu frequency per pu power; 0 is allowed
    t_fil: float = 0.0167
    x_gfm: float = 0.15
    r_gfm: float = 0.005
    rating_mva: float = 50.0

    def __post_init__(self):
        if self.droop < 0 or self.t_fil <= 0 or self.rating_mva <= 0:
            raise ScenarioError(
                "GfmStaticParams requires droop >= 0, t_fil, rating_mva > 0")

    def offset(self, p_set, p_m, omega_b, exp=np.exp):
        """Frequency offset (rad/s) ``omega_b * droop * (p_set - p_m)``; the
        law is linear, so ``exp`` goes unused."""
        return omega_b * self.droop * (p_set - p_m)

    def slope(self, p):
        """Local droop (pu frequency per pu power): the constant ``droop``."""
        return self.droop


@dataclass(frozen=True)
class PowerSharingSpec:
    """Secondary power-sharing controller settings of one inverter."""
    enabled: bool = False
    k: float = 0.3             # integrator gain, 1/s
    eps_p: float = 0.01        # pu power disturbance threshold
    eps_dp: float = 0.001      # pu power/s quiescence threshold
    d_static: float = 0.05     # droop share target


# ---------------------------------------------------------------------------
# frequency-power laws
# ---------------------------------------------------------------------------

def droop_e_offset(p_set, p_m, alpha, beta, omega_b, exp=np.exp):
    """Exponential-droop frequency offset in rad/s.

    Returns ``omega_b * alpha * (exp(beta*p_set) - exp(beta*p_m))``: zero at
    the dispatch point and strictly decreasing in ``p_m``.  Accepts scalars
    or arrays; ``exp=math.exp`` takes floats only.
    """
    return omega_b * alpha * (exp(beta * p_set) - exp(beta * p_m))


# ---------------------------------------------------------------------------
# frame, terminal and coupling equations
# ---------------------------------------------------------------------------

def network_to_dq(phasor: complex, delta: float) -> tuple[float, float]:
    """Project a network-frame phasor onto the machine dq axes."""
    rot = phasor * np.exp(-1j * (delta - 0.5 * np.pi))
    return rot.real, rot.imag

def terminal_power(state, v_mag, theta, i_d, i_q):
    """Active power leaving the device terminal (device pu).

    Accepts one sample or a block of samples along the first axis.  The
    angle is taken as ``state.T[0]`` so that one sample stays a numpy
    scalar: arithmetic on the 0-d array ``state[..., 0]`` would be several
    times slower in the per-step power-sharing update.
    """
    delta = state.T[0]
    v_d, v_q = v_mag * np.sin(delta - theta), v_mag * np.cos(delta - theta)
    return v_d * i_d + v_q * i_q


def _coupling_residual(e_d, e_q, v_mag, angle, i_d, i_q, r, x_q, x_d):
    """The two coupling equations of an EMF ``(e_d, e_q)`` behind the
    impedance ``r`` (with reactance ``x_q`` in the d row and ``x_d`` in the q
    row), zero when (V, theta, I) are consistent; ``angle`` is
    ``delta - theta``."""
    v_d, v_q = v_mag * math.sin(angle), v_mag * math.cos(angle)
    return (e_d - v_d - r * i_d + x_q * i_q, e_q - v_q - r * i_q - x_d * i_d)


def _coupling_partials(jac, n_s, v_mag, angle, i_d, i_q, r, x_q, x_d):
    """Fill rows ``n_s`` and ``n_s + 1`` of a local Jacobian: the equations
    of ``_coupling_residual`` with respect to delta (column 0) and (theta, v,
    i_d, i_q) (columns ``n_s`` on).  The EMF columns are the caller's."""
    s, c = math.sin(angle), math.cos(angle)
    d, q = n_s, n_s + 1
    jac[d, 0], jac[q, 0] = -v_mag * c, v_mag * s
    jac[d, n_s:] = v_mag * c, -s, -r, x_q
    jac[q, n_s:] = -v_mag * s, -c, -x_d, -r


# ---------------------------------------------------------------------------
# device models bound to the DAE assembly
# ---------------------------------------------------------------------------

class SgDevice:
    """Synchronous generator bound to a network bus.

    ``omega_s`` is the synchronous speed (rad/s), the network base speed
    that device angles are measured against.  ``partials`` returns the
    local Jacobian ``(jac, jac_u)`` shared by every device type: ``jac`` has
    the derivative rows, then the two stator rows, against the device's own
    states, then (theta, v, i_d, i_q) at its terminal; ``jac_u`` has the
    same rows against ``input_symbols``.
    """

    kind = "sg"
    n_states = 9
    state_symbols = SG_STATE_SYMBOLS
    input_symbols = ("p_set", "v_ref")

    def __init__(self, name: str, bus: int, params: SgParams, omega_s: float):
        self.name = name
        self.bus = bus
        self.params = params
        self.omega_s = omega_s
        self.p_set = 0.0
        self.v_ref = 1.0

    @property
    def rating_mva(self) -> float:
        return self.params.rating_mva

    def derivatives(self, xs, v_mag, theta, i_d, i_q):
        """Nine state derivatives, as a tuple, of the states ordered
        (delta, omega, eq_p, ed_p, e_fd, v_r, r_f, p_m, p_sv).  The swing
        equation carries no explicit damping term; damping emerges from the
        controls."""
        delta, omega, eq_p, ed_p, e_fd, v_r, r_f, p_m, p_sv = xs
        pr, omega_s = self.params, self.omega_s
        p_e = ed_p * i_d + eq_p * i_q + (pr.x_q_p - pr.x_d_p) * i_d * i_q
        s_e = pr.sat_gamma * math.exp(pr.sat_epsilon * e_fd)
        return (
            omega - omega_s,
            (omega_s / (2.0 * pr.h)) * (p_m - p_e),
            (-eq_p - (pr.x_d - pr.x_d_p) * i_d + e_fd) / pr.t_do_p,
            (-ed_p + (pr.x_q - pr.x_q_p) * i_q) / pr.t_qo_p,
            (-(pr.k_e + s_e) * e_fd + v_r) / pr.t_e,
            (-v_r + pr.k_a * r_f - (pr.k_a * pr.k_f / pr.t_f) * e_fd
             + pr.k_a * (self.v_ref - v_mag)) / pr.t_a,
            (-r_f + (pr.k_f / pr.t_f) * e_fd) / pr.t_f,
            (-p_m + p_sv) / pr.t_ch,
            (-p_sv + self.p_set
             - (1.0 / pr.d_droop) * (omega / omega_s - 1.0)) / pr.t_sv,
        )

    def stator_residual(self, xs, v_mag, theta, i_d, i_q):
        """Two-axis stator equations behind the transient EMFs."""
        pr = self.params
        return _coupling_residual(xs[3], xs[2], v_mag, xs[0] - theta, i_d,
                                  i_q, pr.r_s, pr.x_q_p, pr.x_d_p)

    def partials(self, xs, v_mag, theta, i_d, i_q):
        pr = self.params
        jac = np.zeros((11, 13))
        # columns: delta omega eq_p ed_p e_fd v_r r_f p_m p_sv | theta v i_d i_q
        k = self.omega_s / (2.0 * pr.h)
        dx = pr.x_q_p - pr.x_d_p
        s_e = pr.sat_gamma * math.exp(pr.sat_epsilon * xs[4])
        jac[0, 1] = 1.0
        jac[1, 2], jac[1, 3], jac[1, 7] = -k * i_q, -k * i_d, k
        jac[1, 11] = -k * (xs[3] + dx * i_q)
        jac[1, 12] = -k * (xs[2] + dx * i_d)
        jac[2, 2], jac[2, 4] = -1.0 / pr.t_do_p, 1.0 / pr.t_do_p
        jac[2, 11] = -(pr.x_d - pr.x_d_p) / pr.t_do_p
        jac[3, 3] = -1.0 / pr.t_qo_p
        jac[3, 12] = (pr.x_q - pr.x_q_p) / pr.t_qo_p
        jac[4, 4] = -(pr.k_e + s_e * (1.0 + pr.sat_epsilon * xs[4])) / pr.t_e
        jac[4, 5] = 1.0 / pr.t_e
        jac[5, 4] = -pr.k_a * pr.k_f / (pr.t_f * pr.t_a)
        jac[5, 5], jac[5, 6] = -1.0 / pr.t_a, pr.k_a / pr.t_a
        jac[5, 10] = -pr.k_a / pr.t_a
        jac[6, 4], jac[6, 6] = pr.k_f / pr.t_f ** 2, -1.0 / pr.t_f
        jac[7, 7], jac[7, 8] = -1.0 / pr.t_ch, 1.0 / pr.t_ch
        jac[8, 1] = -1.0 / (pr.d_droop * self.omega_s * pr.t_sv)
        jac[8, 8] = -1.0 / pr.t_sv
        _coupling_partials(jac, 9, v_mag, xs[0] - theta, i_d, i_q,
                           pr.r_s, pr.x_q_p, pr.x_d_p)
        jac[9, 3] = jac[10, 2] = 1.0     # the transient EMFs ed_p, eq_p
        jac_u = np.zeros((11, 2))
        jac_u[8, 0], jac_u[5, 1] = 1.0 / pr.t_sv, pr.k_a / pr.t_a
        return jac, jac_u

    def initialize(self, v_ph: complex, s_dev: complex) -> np.ndarray:
        """Back-solve all nine states, ``p_set`` and ``v_ref`` from the
        solved terminal voltage and injection, so that every derivative
        vanishes at synchronous speed."""
        pr = self.params
        i_ph = np.conj(s_dev / v_ph)
        delta = float(np.angle(v_ph + complex(pr.r_s, pr.x_q) * i_ph))
        v_d, v_q = network_to_dq(v_ph, delta)
        i_d, i_q = network_to_dq(i_ph, delta)
        eq_p = v_q + pr.r_s * i_q + pr.x_d_p * i_d
        ed_p = v_d + pr.r_s * i_d - pr.x_q_p * i_q
        e_fd = eq_p + (pr.x_d - pr.x_d_p) * i_d
        if e_fd <= 0:
            raise InitializationError(f"needed field voltage {e_fd:.4f} <= 0")
        s_e = pr.sat_gamma * math.exp(pr.sat_epsilon * e_fd)
        v_r = (pr.k_e + s_e) * e_fd
        r_f = (pr.k_f / pr.t_f) * e_fd
        self.v_ref = abs(v_ph) + v_r / pr.k_a
        self.p_set = ed_p * i_d + eq_p * i_q + (pr.x_q_p - pr.x_d_p) * i_d * i_q
        return np.array([delta, self.omega_s, eq_p, ed_p, e_fd, v_r, r_f,
                         self.p_set, self.p_set])

    def frequency_deviation(self, xs):
        """Device frequency minus synchronous speed, rad/s, per sample of
        ``xs``."""
        return xs.T[1] - self.omega_s

    def output_power(self, xs, v_mag, theta, i_d, i_q):
        """Electrical power at the machine terminal (device pu)."""
        return terminal_power(xs, v_mag, theta, i_d, i_q)


class GfmDevice:
    """Grid-forming inverter bound to a network bus.

    The droop law (``offset``, ``slope``) and ``kind`` come from the
    params class; ``omega_b`` is the network base speed (rad/s) and
    ``p_set`` the dispatch (device pu), ``None`` at the slack bus until
    ``initialize`` back-solves it.  The internal EMF ``(e_d, e_q)`` is set
    by ``initialize``.  An enabled PowerSharingSpec adds the secondary
    controller's offset as a third state, ``omega_ps' = k (gate (omega_5 -
    omega_delta) - omega_ps)``: ``omega_5`` is the static-droop frequency
    deviation and ``omega_delta`` the law's own.  With the gate open the
    offset decays to, and from a release stays at, exactly zero.
    """

    input_symbols = ("p_set",)

    def __init__(self, name: str, bus: int, params, omega_b: float,
                 p_set: float | None,
                 sharing: PowerSharingSpec | None = None):
        self.name = name
        self.bus = bus
        self.params = params
        self.omega_b = omega_b
        self.p_set = p_set
        self.e_d, self.e_q = 0.0, 1.0
        self.sharing = sharing if sharing and sharing.enabled else None
        self.n_states = 2 if self.sharing is None else 3
        self.state_symbols = GFM_STATE_SYMBOLS[:self.n_states]
        self.gate_closed = False
        self.p_ref = None      # filtered power when the gate was first checked

    @property
    def kind(self) -> str:
        return self.params.kind

    @property
    def rating_mva(self) -> float:
        return self.params.rating_mva

    def derivatives(self, xs, v_mag, theta, i_d, i_q):
        """State derivatives (delta, p_m[, omega_ps]) as a tuple."""
        pr = self.params
        delta, p_m = xs[0], xs[1]
        v_d, v_q = v_mag * math.sin(delta - theta), v_mag * math.cos(delta - theta)
        omega_delta = pr.offset(self.p_set, p_m, self.omega_b, math.exp)
        d_p = (v_d * i_d + v_q * i_q - p_m) / pr.t_fil
        if self.sharing is None:
            return omega_delta, d_p
        ps, omega_ps = self.sharing, xs[2]
        error = 0.0
        if self.gate_closed:
            error = (self.omega_b * ps.d_static * (self.p_set - p_m)
                     - omega_delta)
        return omega_delta + omega_ps, d_p, ps.k * (error - omega_ps)

    def stator_residual(self, xs, v_mag, theta, i_d, i_q):
        """Constant-voltage-behind-impedance coupling equations."""
        pr = self.params
        return _coupling_residual(self.e_d, self.e_q, v_mag, xs[0] - theta,
                                  i_d, i_q, pr.r_gfm, pr.x_gfm, pr.x_gfm)

    def partials(self, xs, v_mag, theta, i_d, i_q):
        """Local Jacobian ``(jac, jac_u)``; see SgDevice."""
        pr = self.params
        n = self.n_states
        jac = np.zeros((n + 2, n + 4))
        # columns: delta p_m [omega_ps] | theta v i_d i_q
        jac[0, 1] = -self.omega_b * pr.slope(xs[1])
        angle = xs[0] - theta
        s, c = math.sin(angle), math.cos(angle)
        dp_dangle = v_mag * (c * i_d - s * i_q) / pr.t_fil
        jac[1, :2] = dp_dangle, -1.0 / pr.t_fil
        jac[1, n:] = (-dp_dangle, (s * i_d + c * i_q) / pr.t_fil,
                      v_mag * s / pr.t_fil, v_mag * c / pr.t_fil)
        _coupling_partials(jac, n, v_mag, angle, i_d, i_q, pr.r_gfm,
                           pr.x_gfm, pr.x_gfm)
        jac_u = np.zeros((n + 2, 1))
        jac_u[0, 0] = self.omega_b * pr.slope(self.p_set)
        if self.sharing is not None:
            k, d_static = self.sharing.k, self.sharing.d_static
            jac[0, 2], jac[2, 2] = 1.0, -k
            if self.gate_closed:
                jac[2, 1] = k * self.omega_b * (pr.slope(xs[1]) - d_static)
                jac_u[2, 0] = k * self.omega_b * (d_static
                                                  - pr.slope(self.p_set))
        return jac, jac_u

    def initialize(self, v_ph: complex, s_dev: complex) -> np.ndarray:
        """Back-solve the angle, the filtered power, the internal EMF and,
        at the slack bus, ``p_set`` from the solved terminal condition.

        The EMF is aligned with the q axis (``e_d = 0``), so the device
        angle is the angle of the EMF phasor.
        """
        pr = self.params
        i_ph = np.conj(s_dev / v_ph)
        e_ph = v_ph + complex(pr.r_gfm, pr.x_gfm) * i_ph
        self.e_d, self.e_q = 0.0, float(np.abs(e_ph))
        if self.p_set is None:
            self.p_set = float(s_dev.real)
            if self.kind == GfmDroopEParams.kind and not 0 <= self.p_set <= 1:
                raise InitializationError(f"{self.name}: droop-e p_set "
                                          f"{self.p_set:.4f} outside [0, 1]")
        self.gate_closed = False
        self.p_ref = None
        state = [float(np.angle(e_ph)), float(s_dev.real)]
        return np.array(state if self.sharing is None else state + [0.0])

    def frequency_deviation(self, xs):
        """Device frequency minus the base speed, rad/s, per sample of
        ``xs``."""
        dev = self.params.offset(self.p_set, xs.T[1], self.omega_b)
        return dev if self.sharing is None else dev + xs.T[2]

    def output_power(self, xs, v_mag, theta, i_d, i_q):
        """Filtered power measurement (device pu).

        The raw algebraic terminal power can jump when the network topology
        or load changes discontinuously; the measurement filter state is the
        continuous observable the droop law acts on, matching the power a
        switching-level model would deliver through its output filter.
        """
        return xs.T[1]

    def update_power_sharing(self, xs, v_mag, theta, i_d, i_q) -> bool:
        """Check the power-sharing gate at an accepted step.

        The first check captures the pre-disturbance filtered power
        ``p_ref``.  The gate closes once the filtered power has moved more
        than ``eps_p`` from it and settled (``|dp/dt| < eps_dp``), and then
        stays closed.  Returns whether it has just closed; the derivative
        and its partials change with it.
        """
        if self.sharing is None or self.gate_closed:
            return False
        p_m = xs[1]
        if self.p_ref is None:
            self.p_ref = p_m
        p_meas = terminal_power(xs, v_mag, theta, i_d, i_q)
        dp_dt = (p_meas - p_m) / self.params.t_fil
        self.gate_closed = bool(abs(p_m - self.p_ref) > self.sharing.eps_p
                                and abs(dp_dt) < self.sharing.eps_dp)
        return self.gate_closed
