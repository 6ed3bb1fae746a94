"""Implicit time-domain simulation of the device/network DAE.

Integration is the trapezoidal rule with the algebraic constraints solved
simultaneously (a partitioned scheme is unreliable with constant-power
loads).  The Newton matrix is built from the analytic DAE Jacobian
(``PowerSystemDae.jacobian``), reused across steps and refreshed when the
model or ``dt`` changes or when Newton's measured contraction rate degrades
(see ``TrapezoidalStepper._advance``); a failing step falls back to halving
the internal step size up to four times before aborting.  Events are
applied at grid boundaries only so traces are deterministic.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from .devices import GfmDevice
from .errors import InitializationError, ScenarioError, StepError
from .network import PowerFlowSolution, solve_power_flow
from .scenario import Event
from .system import (PowerSystemDae, SystemState, find_equilibrium,
                     solve_network_algebraic)

log = logging.getLogger(__name__)

# Rows per block in which run_case observes accepted states and to_csv
# formats the trace: enough to spread each call's fixed cost over many
# samples, few enough that the block buffers stay far below a megabyte.
_OBSERVE_ROWS = 256
_CSV_ROWS = 128

# A step of two or more Newton solves whose last contraction rate exceeds
# this marks the Newton matrix stale.  0.1 took 3bus-caseB from 1.52 to 0.82
# solves per step (3bus-sharing 1.85 -> 1.10), ~20 % off the load-step wall
# time, for 2-2.5x the refreshes; 0.3 and 0.03 were no faster.
_THETA_REFRESH = 0.1


@dataclass
class SimulationTrace:
    """Uniformly sampled per-device and per-bus series plus the event log."""
    t: np.ndarray
    dev_names: list[str]
    bus_ids: list[int]
    freq_hz: np.ndarray        # (n_samples, n_dev)
    p_dev: np.ndarray          # device-base pu
    p_sys: np.ndarray          # system-base pu
    v: np.ndarray              # (n_samples, n_bus)
    theta: np.ndarray
    events: list[Event]
    dt: float
    rocof_window: float = 0.1
    name: str = ""
    balance_residual: np.ndarray = field(default=None)
    final_state: "SystemState" = None

    def device_index(self, name: str) -> int:
        return self.dev_names.index(name)

    def device_frequency(self, name: str) -> np.ndarray:
        return self.freq_hz[:, self.device_index(name)]

    def device_power(self, name: str, base: str = "device") -> np.ndarray:
        col = self.device_index(name)
        return (self.p_dev if base == "device" else self.p_sys)[:, col]

    def first_event_time(self, kind: str = "load_step") -> float | None:
        for ev in self.events:
            if ev.kind == kind:
                return ev.t
        return None

    def to_csv(self, path) -> None:
        """One row per sample in ``column_names()`` order, every value
        written as ``repr(float)`` so it reads back exactly."""
        n_dev = len(self.dev_names)
        c_bus = 1 + 3 * n_dev
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.column_names()) + "\n")
            for i in range(0, len(self.t), _CSV_ROWS):
                rows = slice(i, i + _CSV_ROWS)
                t = self.t[rows]
                block = np.empty((len(t), c_bus + 2 * len(self.bus_ids)))
                block[:, 0] = t
                block[:, 1:c_bus:3] = self.freq_hz[rows]
                block[:, 2:c_bus:3] = self.p_dev[rows]
                block[:, 3:c_bus:3] = self.p_sys[rows]
                block[:, c_bus::2] = self.v[rows]
                block[:, c_bus + 1::2] = self.theta[rows]
                fh.write("".join(",".join(map(repr, row)) + "\n"
                                 for row in block.tolist()))

    def column_names(self) -> list[str]:
        cols = ["t"]
        for name in self.dev_names:
            cols += [f"dev_{name}_f_hz", f"dev_{name}_p_pu_dev",
                     f"dev_{name}_p_pu_sys"]
        for b in self.bus_ids:
            cols += [f"bus_{b}_v", f"bus_{b}_theta"]
        return cols


def lu_solve(lu_and_piv, b) -> np.ndarray:
    """Solve ``a x = b`` from ``lu_factor(a)`` by LAPACK getrs.

    Unlike ``scipy.linalg.lu_solve`` it does not check ``b`` for finite
    values; the stepper checks its residual instead.
    """
    lu, piv = lu_and_piv
    x, info = dgetrs(lu, piv, b)
    if info != 0:
        raise ValueError(f"getrs rejected argument {-info}")
    return x


class TrapezoidalStepper:
    """Simultaneous trapezoidal/Newton integrator with a reused Jacobian.

    Newton starts the states at the explicit Euler point and the algebraic
    unknowns at the linear extrapolation ``2*y0 - y_prev`` through the last
    two accepted grid points.  It falls back to ``y0`` when there is no such
    pair at the current ``dt``: on the first step, after ``mark_stale()`` (a
    load event), inside and after step halving, and when the step does not
    continue from the state the previous step returned.

    The derivative ``f(x1, y1)`` evaluated at a converged Newton iterate is
    kept and reused as ``f0`` when the next step starts from exactly that
    state (matched by identity, so returned states must not be mutated).
    ``mark_stale()`` drops it along with the Jacobian whenever the model
    changes between steps.

    ``solves`` counts the Newton solves and ``refreshes`` the Newton-matrix
    factorizations by cause: ``stale`` (first step or ``mark_stale()``),
    ``dt``, ``halving``, ``slow`` and ``diverging`` (see ``_advance``).
    """

    def __init__(self, dae: PowerSystemDae, dt: float, tol: float = 1e-9,
                 max_newton: int = 8):
        self.dae = dae
        self.dt = dt
        self.tol = tol
        self.max_newton = max_newton
        self.solves = 0
        self.refreshes = Counter()
        self._lu = None
        self._jac_dt = None
        self._stale = "stale"  # why the next step refreshes, or None
        self._history = None   # (dt, y0, y1) of the last accepted full step
        self._f_end = None     # (x1, y1, f(x1, y1)) of the last converged step

    def mark_stale(self) -> None:
        self._stale = "stale"
        self._history = None
        self._f_end = None

    def _refresh_jacobian(self, x, y, dt, cause) -> None:
        """Factorize ``[[I - dt/2 f_x, -dt/2 f_y], [g_x, g_y]]`` at (x, y)."""
        n_x = self.dae.n_x
        jac = self.dae.jacobian(x, y)
        jac[:n_x] *= -0.5 * dt
        jac[:n_x, :n_x] += np.eye(n_x)
        try:
            self._lu = lu_factor(jac)
        except ValueError as exc:   # lu_factor rejects a non-finite matrix
            raise StepError(f"non-finite Newton matrix: {exc}",
                            residual=math.nan) from exc
        self.refreshes[cause] += 1
        self._jac_dt = dt
        self._stale = None

    def _advance(self, x0, y0, dt, y_prev=None):
        """One trapezoidal step of size dt; returns (x1, y1).

        ``y_prev`` is the algebraic vector one step of the same ``dt``
        before ``y0``; when given, Newton starts from the extrapolation.
        The Newton matrix follows the contraction rate ``theta_k = |r_k| /
        |r_(k-1)|`` of the residual's infinity norm (Hairer & Wanner,
        *Solving ODEs II*, IV.8): a step whose iterate stops contracting,
        or whose rate puts ``tol`` out of reach within ``max_newton``
        solves, refreshes it once at the current iterate (``diverging``); a
        step of two or more solves that ends above ``_THETA_REFRESH`` marks
        it stale for the next step (``slow``; a one-solve step spent the
        least a refresh could buy).  Raises StepError carrying the worst
        residual norm when Newton does not converge or the residual is not
        finite (a float overflow in the model counts as infinite).
        """
        dae = self.dae
        n_x = dae.n_x
        try:
            end = self._f_end
            if end is not None and end[0] is x0 and end[1] is y0:
                f0 = end[2]
            else:
                f0 = dae.f(x0, y0)
            cause = self._stale or ("dt" if self._jac_dt != dt else None)
            if cause:
                self._refresh_jacobian(x0, y0, dt, cause)
            x1 = x0 + dt * f0
            y1 = y0.copy() if y_prev is None else 2.0 * y0 - y_prev
            rebuilt = False
            worst = prev = theta = 0.0
            for it in range(2 * self.max_newton):
                f1 = dae.f(x1, y1)
                res = np.concatenate([x1 - x0 - 0.5 * dt * (f0 + f1),
                                      dae.g(x1, y1)])
                norm = np.abs(res).max()
                if it:
                    theta = norm / prev
                if norm < self.tol:
                    if it > 1 and theta > _THETA_REFRESH:
                        self._stale = "slow"
                    self._f_end = (x1, y1, f1)
                    return x1, y1
                if not math.isfinite(norm):
                    raise StepError("non-finite residual",
                                    residual=float(norm))
                worst = max(worst, float(norm))
                if not rebuilt and (theta >= 1.0 or norm * theta ** (
                        self.max_newton - it) >= self.tol):
                    self._refresh_jacobian(x1, y1, dt, "diverging")
                    rebuilt = True
                step = lu_solve(self._lu, res)
                self.solves += 1
                x1 = x1 - step[:n_x]
                y1 = y1 - step[n_x:]
                prev = norm
        except OverflowError as exc:
            raise StepError(f"residual overflow: {exc}",
                            residual=math.inf) from exc
        raise StepError("Newton did not converge", residual=worst)

    def step(self, state: SystemState, t1: float) -> SystemState:
        """Advance one grid interval to time ``t1``, halving the internal
        dt on failure."""
        x, y = state.x, state.y
        hist = self._history
        y_prev = (hist[1] if hist is not None and hist[0] == self.dt
                  and hist[2] is y else None)
        n_sub = 1
        for _ in range(5):
            xs, ys = x, y
            try:
                for _ in range(n_sub):
                    xs, ys = self._advance(xs, ys, self.dt / n_sub,
                                           y_prev if n_sub == 1 else None)
            except StepError as exc:
                failure = exc
                n_sub *= 2
                self._stale = "halving"
                continue
            if n_sub > 1:
                self._stale = "halving"
            self._history = (self.dt, y, ys) if n_sub == 1 else None
            return SystemState(xs, ys, t1)
        raise StepError(
            f"Newton failed at t={state.t:.6f}s even at dt/{n_sub // 2}: "
            f"{failure}, residual {failure.residual:.3e}",
            t=state.t, residual=failure.residual)


def release_dynamics(dae: PowerSystemDae, pf: PowerFlowSolution) -> SystemState:
    """Turn a power-flow point into a consistent dynamic equilibrium.

    Every device back-solves its internal states and setpoints from the
    solved terminal voltage and injection, the whole point is polished by
    ``find_equilibrium`` (which frees the slack device's power set-point to
    absorb the power flow's mismatch), and the start is verified stationary
    (all derivatives below 1e-8).
    """
    net = dae.network
    n = net.n_bus
    x = np.empty(dae.n_x)
    y = np.empty(dae.n_y)
    y[:n] = pf.theta
    y[n:2 * n] = pf.v
    for k, dev in enumerate(dae.devices):
        b = dae.dev_bus[k]
        v_ph = pf.v[b] * np.exp(1j * pf.theta[b])
        s_dev = pf.injections[dev.bus] / dae.dev_ratio[k]
        off = dae.x_offsets[k]
        xs = dev.initialize(v_ph, s_dev)
        x[off:off + dev.n_states] = xs
        i_ph = np.conj(s_dev / v_ph)
        rot = i_ph * np.exp(-1j * (xs[0] - 0.5 * math.pi))
        y[2 * n + 2 * k] = rot.real
        y[2 * n + 2 * k + 1] = rot.imag
    y = solve_network_algebraic(dae, x, y, tol=1e-12)
    try:
        x, y = find_equilibrium(dae, x, y, tol=1e-10)
    except Exception as exc:
        raise InitializationError(f"equilibrium refinement failed: {exc}")
    fnorm = np.max(np.abs(dae.f(x, y)))
    if fnorm > 1e-8:
        raise InitializationError(
            f"release left a non-stationary start, max|dx/dt| = {fnorm:.3e}")
    return SystemState(x, y, 0.0)


def _grid_index(t: float, dt: float) -> int:
    k = round(t / dt)
    if abs(t - k * dt) > 1e-9:
        raise ScenarioError(f"event at t={t} does not fall on the {dt}s grid")
    return k


def run_case(scenario, events=None, t_end=None, dt=None) -> SimulationTrace:
    """Initialize from power flow, release dynamics and integrate events.

    ``scenario`` is a Scenario (see droope.scenario); ``events``, ``t_end``
    and ``dt`` default to the scenario's own definitions.  Accepted states
    and logged events carry the grid times of ``SimulationTrace.t``.
    """
    dae = scenario.build_dae()
    dt = scenario.sim.dt if dt is None else dt
    t_end = scenario.sim.t_end if t_end is None else t_end
    events = list(scenario.events) if events is None else list(events)

    pf = solve_power_flow(scenario.network, scenario.dispatch_map())
    state = release_dynamics(dae, pf)

    n_steps = int(round(t_end / dt))
    event_log: list[Event] = [Event(t=0.0, kind="release_dynamics")]
    pending: dict[int, list[Event]] = {}
    for ev in events:
        if ev.kind == "release_dynamics":
            continue  # release happens at t=0 regardless
        if ev.kind != "load_step":
            raise ScenarioError(f"unsupported scheduled event kind {ev.kind!r}")
        pending.setdefault(_grid_index(ev.t, dt), []).append(ev)

    n_dev, n_bus = len(dae.devices), dae.n_bus
    tr = SimulationTrace(
        t=np.arange(n_steps + 1) * dt,
        dev_names=[d.name for d in dae.devices],
        bus_ids=[b.id for b in dae.network.buses],
        freq_hz=np.empty((n_steps + 1, n_dev)),
        p_dev=np.empty((n_steps + 1, n_dev)),
        p_sys=np.empty((n_steps + 1, n_dev)),
        v=np.empty((n_steps + 1, n_bus)),
        theta=np.empty((n_steps + 1, n_bus)),
        events=event_log,
        dt=dt,
        rocof_window=scenario.sim.rocof_window,
        name=scenario.name,
        balance_residual=np.zeros(n_steps + 1),
    )

    log.info("simulating %s: %d devices, dt=%gs, t_end=%gs",
             scenario.name, n_dev, dt, t_end)
    sharing = [k for k, dev in enumerate(dae.devices)
               if isinstance(dev, GfmDevice) and dev.sharing is not None]
    stepper = TrapezoidalStepper(dae, dt)
    recorder = _TraceRecorder(tr, dae)
    recorder.add(state)
    for k in range(n_steps):
        for ev in pending.get(k, ()):
            if ev.dp != 0.0 or ev.dq != 0.0:
                recorder.flush()   # observe earlier samples at their load
                dae.apply_load_step(ev.bus, ev.dp, ev.dq)
                stepper.mark_stale()
            event_log.append(replace(ev, t=float(tr.t[k])))
        state = stepper.step(state, float(tr.t[k + 1]))
        if _update_sharing(dae, sharing, state, event_log):
            stepper.mark_stale()
        recorder.add(state)
    recorder.flush()
    log.info("%s: %d steps, %d Newton solves, Newton-matrix refreshes %s",
             scenario.name, n_steps, stepper.solves, dict(stepper.refreshes))
    event_log.sort(key=lambda ev: ev.t)
    tr.final_state = state
    return tr


def _update_sharing(dae: PowerSystemDae, sharing: list[int],
                    state: SystemState, event_log: list[Event]) -> bool:
    """Check the power-sharing gates of the devices with indices
    ``sharing`` at an accepted step, logging each gate that closes.

    Returns whether any gate closed, which changes ``f`` and its Jacobian.
    """
    theta, v, idq = dae.split_y(state.y)
    closed = False
    for k in sharing:
        dev = dae.devices[k]
        b = dae.dev_bus[k]
        if dev.update_power_sharing(dae.device_state(state.x, k), v[b],
                                    theta[b], idq[2 * k], idq[2 * k + 1]):
            event_log.append(
                Event(t=state.t, kind="gate_armed", device=dev.name))
            closed = True
    return closed


class _TraceRecorder:
    """Fills a trace from accepted states, observed a block at a time.

    Holds at most ``_OBSERVE_ROWS`` states.  The load is not copied with
    them, so ``flush`` must run before the load changes.
    """

    def __init__(self, tr: SimulationTrace, dae: PowerSystemDae):
        self.tr = tr
        self.dae = dae
        self.x = np.empty((_OBSERVE_ROWS, dae.n_x))
        self.y = np.empty((_OBSERVE_ROWS, dae.n_y))
        self.start = 0     # trace row of the first buffered state
        self.rows = 0

    def add(self, state: SystemState) -> None:
        i = self.rows
        self.x[i] = state.x
        self.y[i] = state.y
        self.rows = i + 1
        if self.rows == _OBSERVE_ROWS:
            self.flush()

    def flush(self) -> None:
        m = self.rows
        if m == 0:
            return
        dae, tr = self.dae, self.tr
        x, y = self.x[:m], self.y[:m]
        rows = slice(self.start, self.start + m)
        tr.freq_hz[rows] = dae.device_frequencies_hz(x)
        tr.p_dev[rows], tr.p_sys[rows] = dae.device_powers(x, y)
        tr.theta[rows] = y[:, :dae.n_bus]
        tr.v[rows] = y[:, dae.n_bus:2 * dae.n_bus]
        tr.balance_residual[rows] = dae.power_balance_residual(x, y)
        self.start += m
        self.rows = 0
