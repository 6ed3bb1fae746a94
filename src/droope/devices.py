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

from .errors import InitializationError

OMEGA_B_DEFAULT = 377.0

SG_STATE_SYMBOLS = ("delta", "omega", "eq_p", "ed_p", "e_fd", "v_r", "r_f",
                    "p_m", "p_sv")
# the third only with power sharing
GFM_STATE_SYMBOLS = ("delta", "p_m", "omega_ps")


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass
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
    omega_s: float = OMEGA_B_DEFAULT

    def __post_init__(self):
        for attr in ("h", "t_do_p", "t_qo_p", "t_a", "t_e", "t_f", "t_sv",
                     "t_ch", "d_droop", "rating_mva"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"SgParams.{attr} must be > 0")
        if not 0 < self.x_d_p < self.x_d:
            raise ValueError("SgParams requires 0 < x_d_p < x_d")


@dataclass
class GfmDroopEParams:
    """Exponential-droop grid-forming inverter constants (device pu)."""
    kind = "gfm_droop_e"
    alpha: float = 0.002       # pu frequency scalar
    beta: float = 3.0          # 1/pu power argument scale
    omega_b: float = OMEGA_B_DEFAULT
    t_fil: float = 0.0167
    p_set: float = 0.0         # dispatch, device pu
    omega_set: float = OMEGA_B_DEFAULT
    e_d: float = 0.0           # constant internal voltage, set at release
    e_q: float = 1.0
    x_gfm: float = 0.15
    r_gfm: float = 0.005
    rating_mva: float = 50.0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.t_fil, self.rating_mva) <= 0:
            raise ValueError(
                "GfmDroopEParams requires alpha, beta, t_fil, rating_mva > 0")
        if not 0.0 <= self.p_set <= 1.0:
            raise ValueError("GfmDroopEParams.p_set must lie in [0, 1]")

    def offset(self, p_m, exp=np.exp):
        """Frequency offset (rad/s) of the law at filtered power ``p_m``;
        ``exp=math.exp`` evaluates one float faster."""
        return droop_e_offset(self.p_set, p_m, self.alpha, self.beta,
                              self.omega_b, exp)

    def slope(self, p):
        """Local droop (pu frequency per pu power) of the law at ``p``."""
        return droop_e_slope(p, self.alpha, self.beta)


@dataclass
class GfmStaticParams:
    """Linear-droop grid-forming inverter constants (device pu)."""
    kind = "gfm_static"
    droop: float = 0.05        # pu frequency per pu power; 0 is allowed
    omega_b: float = OMEGA_B_DEFAULT
    t_fil: float = 0.0167
    p_set: float = 0.0
    omega_set: float = OMEGA_B_DEFAULT
    e_d: float = 0.0
    e_q: float = 1.0
    x_gfm: float = 0.15
    r_gfm: float = 0.005
    rating_mva: float = 50.0

    def __post_init__(self):
        if self.droop < 0 or self.t_fil <= 0 or self.rating_mva <= 0:
            raise ValueError(
                "GfmStaticParams requires droop >= 0, t_fil, rating_mva > 0")

    def offset(self, p_m, exp=np.exp):
        """Frequency offset (rad/s) of the law at filtered power ``p_m``;
        the law is linear, so ``exp`` goes unused."""
        return static_droop_offset(self.p_set, p_m, self.droop, self.omega_b)

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


def static_droop_offset(p_set, p_m, droop, omega_b):
    """Linear-droop frequency offset in rad/s: ``omega_b*droop*(p_set-p_m)``."""
    return omega_b * droop * (p_set - p_m)


def droop_e_slope(p_m, alpha, beta):
    """Local droop value (pu frequency per pu power) of the exponential law."""
    return alpha * beta * np.exp(beta * p_m)


# ---------------------------------------------------------------------------
# frame helpers
# ---------------------------------------------------------------------------

def dq_to_network(f_d: float, f_q: float, delta: float) -> complex:
    """Rotate a machine dq phasor into the network frame."""
    return complex(f_d, f_q) * np.exp(1j * (delta - 0.5 * np.pi))


def network_to_dq(phasor: complex, delta: float) -> tuple[float, float]:
    """Project a network-frame phasor onto the machine dq axes."""
    rot = phasor * np.exp(-1j * (delta - 0.5 * np.pi))
    return rot.real, rot.imag


# ---------------------------------------------------------------------------
# derivative functions
# ---------------------------------------------------------------------------

def sg_derivatives(state, v_mag, theta, i_d, i_q, params: SgParams,
                   p_set, v_ref, omega_frame=None):
    """Nine state derivatives of the synchronous generator, as a tuple.

    ``state`` is ordered (delta, omega, eq_p, ed_p, e_fd, v_r, r_f, p_m,
    p_sv).  ``omega_frame`` is the rotating-frame speed the angle is
    measured against (defaults to synchronous speed).  The swing equation
    carries no explicit damping term; damping emerges from the controls.
    """
    delta, omega, eq_p, ed_p, e_fd, v_r, r_f, p_m, p_sv = state
    pr = params
    if omega_frame is None:
        omega_frame = pr.omega_s
    p_e = ed_p * i_d + eq_p * i_q + (pr.x_q_p - pr.x_d_p) * i_d * i_q
    s_e = pr.sat_gamma * math.exp(pr.sat_epsilon * e_fd)
    return (
        omega - omega_frame,
        (pr.omega_s / (2.0 * pr.h)) * (p_m - p_e),
        (-eq_p - (pr.x_d - pr.x_d_p) * i_d + e_fd) / pr.t_do_p,
        (-ed_p + (pr.x_q - pr.x_q_p) * i_q) / pr.t_qo_p,
        (-(pr.k_e + s_e) * e_fd + v_r) / pr.t_e,
        (-v_r + pr.k_a * r_f - (pr.k_a * pr.k_f / pr.t_f) * e_fd
         + pr.k_a * (v_ref - v_mag)) / pr.t_a,
        (-r_f + (pr.k_f / pr.t_f) * e_fd) / pr.t_f,
        (-p_m + p_sv) / pr.t_ch,
        (-p_sv + p_set - (1.0 / pr.d_droop) * (omega / pr.omega_s - 1.0)) / pr.t_sv,
    )


def sg_stator_residual(state, v_mag, theta, i_d, i_q, params: SgParams):
    """Two-axis stator equations; zero when (V, theta, I) are consistent."""
    delta, eq_p, ed_p = state[0], state[2], state[3]
    v_d, v_q = v_mag * math.sin(delta - theta), v_mag * math.cos(delta - theta)
    return (
        ed_p - v_d - params.r_s * i_d + params.x_q_p * i_q,
        eq_p - v_q - params.r_s * i_q - params.x_d_p * i_d,
    )


def gfm_stator_residual(state, v_mag, theta, i_d, i_q, params):
    """Constant-voltage-behind-impedance coupling equations."""
    delta = state[0]
    v_d, v_q = v_mag * math.sin(delta - theta), v_mag * math.cos(delta - theta)
    return (
        params.e_d - v_d - params.r_gfm * i_d + params.x_gfm * i_q,
        params.e_q - v_q - params.r_gfm * i_q - params.x_gfm * i_d,
    )


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


def _coupling_partials(jac, n_s, v_mag, angle, i_d, i_q, r, x):
    """Fill rows ``n_s`` and ``n_s + 1`` of a local Jacobian: the coupling
    equations ``e_d - v_d - r i_d + x i_q`` and ``e_q - v_q - r i_q - x i_d``
    with respect to delta (column 0) and (theta, v, i_d, i_q) (columns
    ``n_s`` on).  ``angle`` is ``delta - theta``; the EMF columns are the
    caller's."""
    s, c = math.sin(angle), math.cos(angle)
    d, q = n_s, n_s + 1
    jac[d, 0], jac[q, 0] = -v_mag * c, v_mag * s
    jac[d, n_s:] = v_mag * c, -s, -r, x
    jac[q, n_s:] = -v_mag * s, -c, -x, -r


def device_emf_interface(state, params):
    """Internal EMF and coupling impedance in machine coordinates.

    Returns ``(e_d, e_q, delta, z)``; the network-frame phasor is
    ``dq_to_network(e_d, e_q, delta)`` and ``z`` is the series impedance
    (device pu) between the EMF and the terminal.
    """
    if isinstance(params, SgParams):
        return (state[3], state[2], state[0],
                complex(params.r_s, params.x_d_p))
    return (params.e_d, params.e_q, state[0],
            complex(params.r_gfm, params.x_gfm))


# ---------------------------------------------------------------------------
# equilibrium construction
# ---------------------------------------------------------------------------

def sg_init_from_terminal(v_ph: complex, s_dev: complex, params: SgParams):
    """Back-solve all nine SG states from the solved terminal condition.

    Returns ``(state, p_set, v_ref)`` such that every derivative vanishes
    at synchronous speed.
    """
    i_ph = np.conj(s_dev / v_ph)
    delta = float(np.angle(v_ph + complex(params.r_s, params.x_q) * i_ph))
    v_d, v_q = network_to_dq(v_ph, delta)
    i_d, i_q = network_to_dq(i_ph, delta)
    eq_p = v_q + params.r_s * i_q + params.x_d_p * i_d
    ed_p = v_d + params.r_s * i_d - params.x_q_p * i_q
    e_fd = eq_p + (params.x_d - params.x_d_p) * i_d
    if e_fd <= 0:
        raise InitializationError(f"needed field voltage {e_fd:.4f} <= 0")
    s_e = params.sat_gamma * math.exp(params.sat_epsilon * e_fd)
    v_r = (params.k_e + s_e) * e_fd
    r_f = (params.k_f / params.t_f) * e_fd
    v_ref = abs(v_ph) + v_r / params.k_a
    p_e = ed_p * i_d + eq_p * i_q + (params.x_q_p - params.x_d_p) * i_d * i_q
    state = np.array([delta, params.omega_s, eq_p, ed_p, e_fd, v_r, r_f,
                      p_e, p_e])
    return state, p_e, v_ref


def gfm_init_from_terminal(v_ph: complex, s_dev: complex, params):
    """Back-solve the inverter angle, filtered power and internal voltage.

    The constant internal EMF is aligned with the q axis (e_d = 0), so the
    device angle is the angle of the EMF phasor.  Returns
    ``(state, e_d, e_q)``.
    """
    i_ph = np.conj(s_dev / v_ph)
    e_ph = v_ph + complex(params.r_gfm, params.x_gfm) * i_ph
    delta = float(np.angle(e_ph))
    state = np.array([delta, float(s_dev.real)])
    return state, 0.0, float(np.abs(e_ph))


# ---------------------------------------------------------------------------
# device wrappers used by the DAE assembly
# ---------------------------------------------------------------------------

class SgDevice:
    """Synchronous generator bound to a network bus.

    ``partials`` returns the local Jacobian ``(jac, jac_u)`` shared by every
    device type: ``jac`` has the derivative rows, then the two stator rows,
    against the device's own states, then (theta, v, i_d, i_q) at its
    terminal; ``jac_u`` has the same rows against ``input_symbols``.
    """

    kind = "sg"
    n_states = 9
    state_symbols = SG_STATE_SYMBOLS
    input_symbols = ("p_set", "v_ref")

    def __init__(self, name: str, bus: int, params: SgParams):
        self.name = name
        self.bus = bus
        self.params = params
        self.p_set = 0.0
        self.v_ref = 1.0

    @property
    def rating_mva(self) -> float:
        return self.params.rating_mva

    def derivatives(self, xs, v_mag, theta, i_d, i_q, omega_frame):
        return sg_derivatives(xs, v_mag, theta, i_d, i_q, self.params,
                              self.p_set, self.v_ref, omega_frame)

    def stator_residual(self, xs, v_mag, theta, i_d, i_q):
        return sg_stator_residual(xs, v_mag, theta, i_d, i_q, self.params)

    def partials(self, xs, v_mag, theta, i_d, i_q):
        pr = self.params
        jac = np.zeros((11, 13))
        # columns: delta omega eq_p ed_p e_fd v_r r_f p_m p_sv | theta v i_d i_q
        k = pr.omega_s / (2.0 * pr.h)
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
        jac[8, 1] = -1.0 / (pr.d_droop * pr.omega_s * pr.t_sv)
        jac[8, 8] = -1.0 / pr.t_sv
        _coupling_partials(jac, 9, v_mag, xs[0] - theta, i_d, i_q,
                           pr.r_s, pr.x_q_p)
        jac[10, 11] = -pr.x_d_p          # the d-axis reactance differs
        jac[9, 3] = jac[10, 2] = 1.0     # the transient EMFs ed_p, eq_p
        jac_u = np.zeros((11, 2))
        jac_u[8, 0], jac_u[5, 1] = 1.0 / pr.t_sv, pr.k_a / pr.t_a
        return jac, jac_u

    def initialize(self, v_ph: complex, s_dev: complex) -> np.ndarray:
        state, p_set, v_ref = sg_init_from_terminal(v_ph, s_dev, self.params)
        self.p_set = p_set
        self.v_ref = v_ref
        return state

    def frequency_deviation(self, xs, omega_nominal: float):
        """Device frequency minus nominal, rad/s, per sample of ``xs``."""
        return xs.T[1] - omega_nominal

    def output_power(self, xs, v_mag, theta, i_d, i_q):
        """Electrical power at the machine terminal (device pu)."""
        return terminal_power(xs, v_mag, theta, i_d, i_q)

    def emf_interface(self, xs):
        return device_emf_interface(xs, self.params)


class GfmDevice:
    """Grid-forming inverter bound to a network bus.

    The droop law (``offset``, ``slope``) and ``kind`` come from the
    params class.  An enabled PowerSharingSpec adds the secondary
    controller's offset as a third state, ``omega_ps' = k (gate (omega_5 -
    omega_delta) - omega_ps)``: ``omega_5`` is the static-droop frequency
    deviation and ``omega_delta`` the law's own.  With the gate open the
    offset decays to, and from a release stays at, exactly zero.
    """

    input_symbols = ("p_set",)

    def __init__(self, name: str, bus: int, params,
                 sharing: PowerSharingSpec | None = None):
        self.name = name
        self.bus = bus
        self.params = params
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

    @property
    def p_set(self) -> float:
        return self.params.p_set

    @p_set.setter
    def p_set(self, value: float) -> None:
        self.params.p_set = value

    def derivatives(self, xs, v_mag, theta, i_d, i_q, omega_frame):
        """State derivatives (delta, p_m[, omega_ps]) as a tuple."""
        pr = self.params
        delta, p_m = xs[0], xs[1]
        v_d, v_q = v_mag * math.sin(delta - theta), v_mag * math.cos(delta - theta)
        omega_delta = pr.offset(p_m, math.exp)
        d_delta = omega_delta + pr.omega_set - omega_frame
        d_p = (v_d * i_d + v_q * i_q - p_m) / pr.t_fil
        if self.sharing is None:
            return d_delta, d_p
        ps, omega_ps = self.sharing, xs[2]
        error = 0.0
        if self.gate_closed:
            error = pr.omega_b * ps.d_static * (pr.p_set - p_m) - omega_delta
        return d_delta + omega_ps, d_p, ps.k * (error - omega_ps)

    def stator_residual(self, xs, v_mag, theta, i_d, i_q):
        return gfm_stator_residual(xs, v_mag, theta, i_d, i_q, self.params)

    def partials(self, xs, v_mag, theta, i_d, i_q):
        """Local Jacobian ``(jac, jac_u)``; see SgDevice."""
        pr = self.params
        n = self.n_states
        jac = np.zeros((n + 2, n + 4))
        # columns: delta p_m [omega_ps] | theta v i_d i_q
        jac[0, 1] = -pr.omega_b * pr.slope(xs[1])
        angle = xs[0] - theta
        s, c = math.sin(angle), math.cos(angle)
        dp_dangle = v_mag * (c * i_d - s * i_q) / pr.t_fil
        jac[1, :2] = dp_dangle, -1.0 / pr.t_fil
        jac[1, n:] = (-dp_dangle, (s * i_d + c * i_q) / pr.t_fil,
                      v_mag * s / pr.t_fil, v_mag * c / pr.t_fil)
        _coupling_partials(jac, n, v_mag, angle, i_d, i_q, pr.r_gfm, pr.x_gfm)
        jac_u = np.zeros((n + 2, 1))
        jac_u[0, 0] = pr.omega_b * pr.slope(pr.p_set)
        if self.sharing is not None:
            k, d_static = self.sharing.k, self.sharing.d_static
            jac[0, 2], jac[2, 2] = 1.0, -k
            if self.gate_closed:
                jac[2, 1] = k * pr.omega_b * (pr.slope(xs[1]) - d_static)
                jac_u[2, 0] = k * pr.omega_b * (d_static - pr.slope(pr.p_set))
        return jac, jac_u

    def initialize(self, v_ph: complex, s_dev: complex) -> np.ndarray:
        state, e_d, e_q = gfm_init_from_terminal(v_ph, s_dev, self.params)
        self.params.e_d = e_d
        self.params.e_q = e_q
        self.gate_closed = False
        self.p_ref = None
        return state if self.sharing is None else np.append(state, 0.0)

    def frequency_deviation(self, xs, omega_nominal: float):
        """Device frequency minus nominal, rad/s, per sample of ``xs``."""
        pr = self.params
        dev = pr.offset(xs.T[1]) + pr.omega_set - omega_nominal
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

    def emf_interface(self, xs):
        return device_emf_interface(xs, self.params)
