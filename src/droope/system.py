"""Differential-algebraic assembly of devices on a network.

The composed model is ``dx/dt = f(x, y)``, ``0 = g(x, y)`` with

* ``x``: concatenated device states (device pu, absolute angles measured
  in a frame rotating at the network base speed);
* ``y``: bus angles, bus voltage magnitudes, then one (i_d, i_q) pair per
  device in machine coordinates and device base.

The algebraic set is Kirchhoff current balance at every bus (system base),
real parts then imaginary, plus each device's stator/coupling equations.
The bus currents are ``-(Y V) - conj(S_load / V)`` at the phasors
``V = v exp(j theta)`` plus each device's current rotated into the network
frame, so constant-power loads are current injections re-evaluated at the
present voltage and hold exactly at any solved point.  ``f`` and the device
rows read Python floats and return tuples: on 3- to 9-bus systems numpy's
per-call overhead, not arithmetic, is the cost.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .devices import terminal_power
from .errors import AlgebraicSolveError, InitializationError
from .network import NetworkModel, build_admittance

# Largest change of the slack set-point (device pu) that find_equilibrium
# accepts as the power flow's own mismatch.
_SLACK_CORRECTION_MAX = 1e-6


@dataclass
class SystemState:
    """Dynamic states, algebraic variables and the simulation clock."""
    x: np.ndarray
    y: np.ndarray
    t: float = 0.0

    def copy(self) -> "SystemState":
        return SystemState(self.x.copy(), self.y.copy(), self.t)


class PowerSystemDae:
    """Devices + network bound into one differential-algebraic system."""

    def __init__(self, network: NetworkModel, devices, f_nominal_hz: float = 60.0):
        self.network = network
        self.devices = list(devices)
        self.f_nominal_hz = f_nominal_hz

        ybus = build_admittance(network)
        self.ybus = ybus
        self._neg_ybus = -ybus
        self._g = np.ascontiguousarray(ybus.real)
        self._b = np.ascontiguousarray(ybus.imag)

        n = network.n_bus
        self.n_bus = n
        # Constant-power load per bus; p_load and q_load are views of it.
        self.s_load = network.load_vector()
        self.p_load = self.s_load.real
        self.q_load = self.s_load.imag

        self.dev_bus = [network.bus_index(d.bus) for d in self.devices]
        self.dev_ratio = [d.rating_mva / network.bases.system_mva
                          for d in self.devices]
        self.x_offsets = []
        off = 0
        for d in self.devices:
            self.x_offsets.append(off)
            off += d.n_states
        self.n_x = off
        self.n_y = 2 * n + 2 * len(self.devices)
        # per device: itself, its bus, its first and past-last state, the
        # index of its i_d in y and its rating over the system base
        self._dev_slots = [
            (d, b, o, o + d.n_states, 2 * n + 2 * k, c) for k, (d, b, o, c)
            in enumerate(zip(self.devices, self.dev_bus, self.x_offsets,
                             self.dev_ratio))]

        self.input_labels = [f"{d.name}.{sym}" for d in self.devices
                             for sym in d.input_symbols]
        # Rows and columns of [f; g] and [x; y] (and of the inputs) that
        # each device's local partials land on.
        self._local_index = []
        self._input_index = []
        u_off = 0
        for k, (d, b) in enumerate(zip(self.devices, self.dev_bus)):
            states = list(range(self.x_offsets[k],
                                self.x_offsets[k] + d.n_states))
            idq = [self.n_x + 2 * n + 2 * k, self.n_x + 2 * n + 2 * k + 1]
            self._local_index.append(np.ix_(
                states + idq, states + [self.n_x + b, self.n_x + n + b] + idq))
            n_u = len(d.input_symbols)
            self._input_index.append(np.ix_(states + idq,
                                            range(u_off, u_off + n_u)))
            u_off += n_u

        self.x_labels = [f"{d.name}.{sym}" for d in self.devices
                         for sym in d.state_symbols]
        self.y_labels = ([f"theta.{b.id}" for b in network.buses]
                         + [f"v.{b.id}" for b in network.buses]
                         + [f"{d.name}.{sym}" for d in self.devices
                            for sym in ("i_d", "i_q")])

    # -- load bookkeeping (events mutate these) --------------------------

    def apply_load_step(self, bus_id: int, dp: float, dq: float) -> None:
        i = self.network.bus_index(bus_id)
        self.p_load[i] += dp
        self.q_load[i] += dq

    # -- residuals --------------------------------------------------------

    def split_y(self, y):
        n = self.n_bus
        return y[:n], y[n:2 * n], y[2 * n:]

    def device_state(self, x, k: int):
        off = self.x_offsets[k]
        return x[off:off + self.devices[k].n_states]

    def f(self, x, y) -> np.ndarray:
        """Time derivatives of all device states."""
        n = self.n_bus
        xl, yl = x.tolist(), y.tolist()
        out = []
        for dev, b, lo, hi, i, _ in self._dev_slots:
            out += dev.derivatives(xl[lo:hi], yl[n + b], yl[b], yl[i],
                                   yl[i + 1])
        return np.array(out)

    def g(self, x, y) -> np.ndarray:
        """Algebraic residuals: bus current balance plus stator equations."""
        n = self.n_bus
        xl, yl = x.tolist(), y.tolist()
        v_ph = [cmath.rect(r, phi) for r, phi in zip(yl[n:2 * n], yl[:n])]
        cur = self._neg_ybus.dot(v_ph).tolist()
        for b, s in enumerate(self.s_load.tolist()):
            if s:
                cur[b] -= (s / v_ph[b]).conjugate()
        stator = []
        for dev, b, lo, hi, i, c in self._dev_slots:
            xs = xl[lo:hi]
            i_d, i_q = yl[i], yl[i + 1]
            cur[b] += c * complex(i_d, i_q) * complex(math.sin(xs[0]),
                                                       -math.cos(xs[0]))
            stator += dev.stator_residual(xs, yl[n + b], yl[b], i_d, i_q)
        return np.array([z.real for z in cur] + [z.imag for z in cur]
                        + stator)

    def full_residual(self, x, y) -> np.ndarray:
        return np.concatenate([self.f(x, y), self.g(x, y)])

    # -- Jacobians --------------------------------------------------------

    def _device_partials(self, x, y, k: int):
        off, b = self.x_offsets[k], self.dev_bus[k]
        n = self.n_bus
        dev = self.devices[k]
        return dev.partials(x[off:off + dev.n_states], y[n + b], y[b],
                            y[2 * n + 2 * k], y[2 * n + 2 * k + 1])

    def jacobian(self, x, y) -> np.ndarray:
        """Analytic Jacobian of ``[f; g]`` with respect to ``[x; y]``.

        Device blocks come from each device's ``partials``; the network
        part is the bus current balance at ``(v cos(theta), v sin(theta))``
        with the constant-power loads as they stand now.
        """
        n, n_x = self.n_bus, self.n_x
        theta, v = y[:n], y[n:2 * n]
        jac = np.zeros((n_x + self.n_y, n_x + self.n_y))
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        vc, vs = v * cos_t, v * sin_t
        gm, bm = self._g, self._b
        # rows: real then imaginary bus currents; columns: theta then v
        lo, hi = slice(n_x, n_x + n), slice(n_x + n, n_x + 2 * n)
        jac[lo, lo] = gm * vs + bm * vc
        jac[lo, hi] = bm * sin_t - gm * cos_t
        jac[hi, lo] = bm * vs - gm * vc
        jac[hi, hi] = -(gm * sin_t + bm * cos_t)
        p, q = self.p_load, self.q_load
        load_a = (p * sin_t - q * cos_t) / v
        load_b = (p * cos_t + q * sin_t) / v
        diag = np.arange(n_x, n_x + n)
        jac[diag, diag] += load_a
        jac[diag, diag + n] += load_b / v
        jac[diag + n, diag] -= load_b
        jac[diag + n, diag + n] += load_a / v
        idq = y[2 * n:]
        for k in range(len(self.devices)):
            jac[self._local_index[k]] = self._device_partials(x, y, k)[0]
            # the device current injected at its bus, rotated by delta
            off = self.x_offsets[k]
            row, col = n_x + self.dev_bus[k], n_x + 2 * n + 2 * k
            i_d, i_q = idq[2 * k], idq[2 * k + 1]
            sd, cd = math.sin(x[off]), math.cos(x[off])
            c = self.dev_ratio[k]
            jac[row, off] = (i_d * cd - i_q * sd) * c
            jac[row, col:col + 2] = sd * c, cd * c
            jac[row + n, off] = (i_d * sd + i_q * cd) * c
            jac[row + n, col:col + 2] = -cd * c, sd * c
        return jac

    def input_jacobian(self, x, y) -> np.ndarray:
        """Columns of ``d[f; g]/du`` for the set-points ``input_labels``."""
        jac_u = np.zeros((self.n_x + self.n_y, len(self.input_labels)))
        for k in range(len(self.devices)):
            jac_u[self._input_index[k]] = self._device_partials(x, y, k)[1]
        return jac_u

    # -- observations -----------------------------------------------------
    #
    # Each observation accepts one (x, y) or a block of samples stacked
    # along a leading axis, and returns one value (or row) per sample.

    def _sample_columns(self, x, y, k: int):
        """Device k's states and (v, theta, i_d, i_q) for every sample."""
        n = self.n_bus
        b = self.dev_bus[k]
        off = self.x_offsets[k]
        return (x[..., off:off + self.devices[k].n_states], y[..., n + b],
                y[..., b], y[..., 2 * n + 2 * k], y[..., 2 * n + 2 * k + 1])

    def device_frequencies_hz(self, x) -> np.ndarray:
        """Device frequencies in Hz, one column per device: nominal plus
        each device's deviation from the network base speed."""
        dev = np.stack([
            dev.frequency_deviation(x[..., off:off + dev.n_states])
            for dev, off in zip(self.devices, self.x_offsets)], axis=-1)
        return self.f_nominal_hz + dev / (2.0 * math.pi)

    def device_powers(self, x, y):
        """Reported output power per device: (device pu, system pu).

        Synchronous machines report terminal electrical power; inverters
        report their filtered power measurement (see GfmDevice.output_power).
        """
        p_dev = np.stack([
            dev.output_power(*self._sample_columns(x, y, k))
            for k, dev in enumerate(self.devices)], axis=-1)
        return p_dev, p_dev * np.array(self.dev_ratio)

    def power_balance_residual(self, x, y):
        """Generation minus load minus series losses (system pu)."""
        n = self.n_bus
        theta, v = y[..., :n], y[..., n:2 * n]
        vc = v * np.cos(theta)
        vs = v * np.sin(theta)
        g_t, b_t = self._g.T, self._b.T
        losses = np.sum(vc * (vc @ g_t - vs @ b_t)
                        + vs * (vs @ g_t + vc @ b_t), axis=-1)
        gen = 0.0
        for k in range(len(self.devices)):
            gen = gen + self.dev_ratio[k] * terminal_power(
                *self._sample_columns(x, y, k))
        return gen - np.sum(self.p_load) - losses


def find_equilibrium(dae: PowerSystemDae, x0, y0, tol: float = 1e-10,
                     max_iter: int = 25):
    """Polish (x, y) until the full DAE residual vanishes.

    Newton on the full DAE with its analytic Jacobian, bordered to a square
    system.  The Jacobian is rank-deficient by one along the uniform
    angle-shift direction, so a gauge row pins the first device angle at
    its start value.  With every set-point fixed, generation can miss load
    plus losses by the power flow's own mismatch, which no fixed-frequency
    equilibrium absorbs; so the slack device's power set-point is freed as
    one extra unknown, as the power-flow slack it is.  The device keeps the
    polished set-point.  Raises InitializationError if it moved by more
    than 1e-6 pu, which means a bad power flow rather than its round-off.
    """
    n_x = dae.n_x
    slack = next((d for d, b in zip(dae.devices, dae.dev_bus)
                  if b == dae.network.slack_index), None)
    if slack is None:
        raise InitializationError("no device at the slack bus")
    p_col = dae.input_labels.index(f"{slack.name}.p_set")
    p_start = slack.p_set
    z = np.concatenate([x0, y0])
    n = len(z)
    anchor_idx = dae.x_offsets[0]
    anchor = z[anchor_idx]
    aug = np.zeros((n + 1, n + 1))
    aug[n, anchor_idx] = 1.0
    rhs = np.empty(n + 1)
    rhs[:n] = dae.full_residual(z[:n_x], z[n_x:])
    for _ in range(max_iter):
        if np.max(np.abs(rhs[:n])) < tol:
            correction = slack.p_set - p_start
            if abs(correction) > _SLACK_CORRECTION_MAX:
                raise InitializationError(
                    f"slack set-point {slack.name}.p_set moved by "
                    f"{correction:.3e} pu to balance the power flow")
            return z[:n_x], z[n_x:]
        x, y = z[:n_x], z[n_x:]
        aug[:n, :n] = dae.jacobian(x, y)
        aug[:n, n] = dae.input_jacobian(x, y)[:, p_col]
        rhs[n] = z[anchor_idx] - anchor
        try:
            step = np.linalg.solve(aug, rhs)
        except np.linalg.LinAlgError as exc:
            raise AlgebraicSolveError(f"singular equilibrium Jacobian: {exc}")
        z = z - step[:n]
        slack.p_set -= step[n]
        rhs[:n] = dae.full_residual(z[:n_x], z[n_x:])
    raise AlgebraicSolveError(f"equilibrium refinement stalled at residual "
                              f"{np.max(np.abs(rhs[:n])):.3e}")
