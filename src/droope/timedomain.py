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

from .devices import GfmDevice, network_to_dq
from .errors import InitializationError, ScenarioError, StepError
from .network import PowerFlowSolution, solve_power_flow
from .scenario import Event
from .system import PowerSystemDae, SystemState, find_equilibrium

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
    # the stepper's steps, Newton solves, Newton-matrix refreshes by cause,
    # step halvings and largest accepted residual norm
    steps: int = 0
    solves: int = 0
    refreshes: dict[str, int] = field(default_factory=dict)
    halvings: int = 0
    worst_residual: float = 0.0

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

    Newton starts from a ``_Predictor``, restarted on the first step, after
    ``mark_stale()`` (a load event), inside and after a halved step, when
    ``dt`` changes and when a step starts from a state it did not return.

    The derivative ``f(x1, y1)`` evaluated at a converged Newton iterate is
    kept and reused as ``f0`` when the next step starts from exactly that
    state (matched by identity, so returned states must not be mutated).
    ``mark_stale()`` drops it along with the Jacobian whenever the model
    changes between steps.

    ``solves`` counts the Newton solves, ``refreshes`` the Newton-matrix
    factorizations by cause: ``stale`` (first step or ``mark_stale()``),
    ``dt``, ``halving``, ``slow`` and ``diverging`` (see ``_advance``),
    ``halvings`` the times ``step`` halved its internal dt, and
    ``worst_residual`` is the largest residual norm Newton accepted.
    """

    def __init__(self, dae: PowerSystemDae, dt: float, tol: float = 1e-9,
                 max_newton: int = 8):
        self.dae = dae
        self.dt = dt
        self.tol = tol
        self.max_newton = max_newton
        self.solves = 0
        self.refreshes = Counter()
        self.halvings = 0
        self.worst_residual = 0.0
        self._lu = None
        self._jac_dt = None
        self._stale = "stale"  # why the next step refreshes, or None
        self._pred = None      # _Predictor after the last accepted full step
        self._f_end = None     # (x1, y1, f(x1, y1)) of the last converged step

    def mark_stale(self) -> None:
        self._stale = "stale"
        self._pred = None
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

    def _advance(self, x0, y0, dt, pred=None):
        """One trapezoidal step of size dt; returns (x1, y1).

        ``pred`` (a fresh ``_Predictor`` when None) gives Newton's start and
        takes the accepted point.  The Newton matrix follows the contraction
        rate ``theta_k = |r_k| / |r_(k-1)|`` of the residual's infinity norm
        (Hairer & Wanner, *Solving ODEs II*, IV.8): a step whose iterate
        stops contracting, or whose rate puts ``tol`` out of reach within
        ``max_newton`` solves, refreshes it once at the current iterate
        (``diverging``); a step of two or more solves that ends above
        ``_THETA_REFRESH`` marks it stale for the next step (``slow``; a
        one-solve step spent the least a refresh could buy).  Raises
        StepError carrying the worst residual norm when Newton does not
        converge or the residual is not finite (a float overflow in the
        model counts as infinite).
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
            pred = _Predictor(dt, y0) if pred is None else pred
            x1, y1 = pred.start(x0, y0, f0)
            h = 0.5 * dt
            base = x0 + h * f0   # the step constant of the trapezoidal rule
            rebuilt = False
            worst = prev = theta = 0.0
            for it in range(2 * self.max_newton):
                f1 = dae.f(x1, y1)
                res = np.concatenate((x1 - base - h * f1, dae.g(x1, y1)))
                norm = np.maximum.reduce(np.abs(res))
                if it:
                    theta = norm / prev
                if norm < self.tol:
                    if it > 1 and theta > _THETA_REFRESH:
                        self._stale = "slow"
                    if norm > self.worst_residual:
                        self.worst_residual = float(norm)
                    self._f_end = (x1, y1, f1)
                    pred.add(y1, f0, it > 0)
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
        pred = self._pred
        if pred is None or pred.dt != self.dt or pred.y is not y:
            pred = _Predictor(self.dt, y)
        n_sub = 1
        for _ in range(5):
            xs, ys = x, y
            try:
                for _ in range(n_sub):
                    xs, ys = self._advance(xs, ys, self.dt / n_sub,
                                           pred if n_sub == 1 else None)
            except StepError as exc:
                failure = exc
                n_sub *= 2
                self.halvings += 1
                self._stale = "halving"
                continue
            if n_sub > 1:
                self._stale = "halving"
            self._pred = pred
            return SystemState(xs, ys, t1)
        raise StepError(
            f"Newton failed at t={state.t:.6f}s even at dt/{n_sub // 2}: "
            f"{failure}, residual {failure.residual:.3e}",
            t=state.t, residual=failure.residual)


class _Predictor:
    """Newton's start for steps of one ``dt`` that continue from ``y``: for
    the states second-order Adams-Bashforth, ``x0 + dt*(1.5*f0 - 0.5*f_prev)``
    (explicit Euler on the first step), for the algebraic unknowns the
    quadratic through the last three grid points Newton corrected (the first
    point counts; with fewer it is ``2*y0 - y_prev`` or ``y0``), held as
    forward differences ``dy`` and ``d2y``.  A point accepted at its own
    prediction lies on it already; as a node it would feed its residual (up
    to ``tol``) into the next start.  Brenan, Campbell & Petzold, DASSL.
    """

    def __init__(self, dt, y):
        self.dt, self.y, self.f_prev = dt, y, None
        self.k, self.node, self.k_a, self.dd = 0, (0, y), None, None
        self.dy = self.d2y = 0.0

    def start(self, x0, y0, f0):
        h, f_prev = 0.5 * self.dt, (f0 if self.f_prev is None else self.f_prev)
        return x0 + (3.0 * h) * f0 - h * f_prev, y0 + self.dy

    def add(self, y1, f0, corrected):
        """Take the accepted point ``y1``; a corrected one becomes a node."""
        self.k, self.y, self.f_prev = self.k + 1, y1, f0
        if not corrected:
            self.dy = self.dy + self.d2y
            return
        (k_b, y_b), k = self.node, self.k
        dd = (y1 - y_b) / (k - k_b)
        dd2 = 0.0 if self.dd is None else (dd - self.dd) / (k - self.k_a)
        self.dy, self.d2y = dd + (k + 1 - k_b) * dd2, 2.0 * dd2
        self.node, self.k_a, self.dd = (k, y1), k_b, dd


def release_dynamics(dae: PowerSystemDae, pf: PowerFlowSolution) -> SystemState:
    """Turn a power-flow point into a consistent dynamic equilibrium.

    Two steps.  Every device back-solves its internal states, set-points
    and dq current from the solved terminal voltage and injection; then one
    bordered Newton, ``find_equilibrium``, polishes the whole point (it
    frees the slack device's power set-point to absorb the power flow's
    mismatch).  A failed polish, or a start that is not stationary (some
    derivative above 1e-8), raises InitializationError.
    """
    n = dae.n_bus
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
        y[2 * n + 2 * k:2 * n + 2 * k + 2] = network_to_dq(
            np.conj(s_dev / v_ph), xs[0])
    try:
        x, y = find_equilibrium(dae, x, y, tol=1e-10)
    except Exception as exc:
        raise InitializationError(f"equilibrium refinement failed: {exc}")
    fnorm = np.max(np.abs(dae.f(x, y)))
    if fnorm > 1e-8:
        raise InitializationError(
            f"release left a non-stationary start, max|dx/dt| = {fnorm:.3e}")
    return SystemState(x, y, 0.0)


def _grid_index(t: float, dt: float, what: str) -> int:
    """The grid index of time ``t``; ScenarioError, naming ``what``, if
    ``t`` is off the ``dt`` grid."""
    k = t / dt
    if not math.isfinite(k) or abs(t - round(k) * dt) > 1e-9:
        raise ScenarioError(f"{what}={t} does not fall on the dt={dt}s grid")
    return round(k)


def run_case(scenario, events=None, t_end=None, dt=None) -> SimulationTrace:
    """Initialize from power flow, release dynamics and integrate events.

    ``scenario`` is a Scenario (see droope.scenario); ``events``, ``t_end``
    and ``dt`` default to the scenario's own definitions; ``t_end`` must
    lie on the ``dt`` grid and give at least one step, or ScenarioError is
    raised.  Accepted states and logged events carry the grid times of
    ``SimulationTrace.t``.
    """
    dae = scenario.build_dae()
    dt = scenario.sim.dt if dt is None else dt
    t_end = scenario.sim.t_end if t_end is None else t_end
    events = list(scenario.events) if events is None else list(events)

    n_steps = _grid_index(t_end, dt, "t_end")
    if n_steps < 1:
        raise ScenarioError(f"t_end={t_end} gives no step of dt={dt}s")

    pf = solve_power_flow(scenario.network, scenario.dispatch_map())
    state = release_dynamics(dae, pf)
    event_log: list[Event] = [Event(t=0.0, kind="release_dynamics")]
    pending: dict[int, list[Event]] = {}
    for ev in events:
        if ev.kind == "release_dynamics":
            continue  # release happens at t=0 regardless
        if ev.kind != "load_step":
            raise ScenarioError(f"unsupported scheduled event kind {ev.kind!r}")
        pending.setdefault(_grid_index(ev.t, dt, "event at t"), []).append(ev)

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
    open_gates = [k for k, dev in enumerate(dae.devices)
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
            event_log.append(replace(ev, t=k * dt))
        state = stepper.step(state, (k + 1) * dt)
        if open_gates and _update_sharing(dae, open_gates, state, event_log):
            stepper.mark_stale()
        recorder.add(state)
    recorder.flush()
    tr.steps, tr.solves = n_steps, stepper.solves
    tr.refreshes = dict(stepper.refreshes)
    tr.halvings, tr.worst_residual = stepper.halvings, stepper.worst_residual
    log.info("%s: %d steps, %d Newton solves, Newton-matrix refreshes %s, "
             "%d halvings, worst accepted residual %.3e", scenario.name,
             tr.steps, tr.solves, tr.refreshes, tr.halvings,
             tr.worst_residual)
    event_log.sort(key=lambda ev: ev.t)
    tr.final_state = state
    return tr


def _update_sharing(dae: PowerSystemDae, open_gates: list[int],
                    state: SystemState, event_log: list[Event]) -> bool:
    """Check the open power-sharing gates of the devices with indices
    ``open_gates`` at an accepted step, logging each gate that closes and
    removing it from ``open_gates``.

    Returns whether any gate closed, which changes ``f`` and its Jacobian.
    """
    theta, v, idq = dae.split_y(state.y)
    closed = False
    for k in list(open_gates):
        dev = dae.devices[k]
        b = dae.dev_bus[k]
        if dev.update_power_sharing(dae.device_state(state.x, k), v[b],
                                    theta[b], idq[2 * k], idq[2 * k + 1]):
            event_log.append(
                Event(t=state.t, kind="gate_armed", device=dev.name))
            open_gates.remove(k)
            closed = True
    return closed


class _TraceRecorder:
    """Fills a trace from accepted states, observed a block at a time.

    Holds references to at most ``_OBSERVE_ROWS`` states' arrays, which
    the stepper never mutates, and stacks them at ``flush``.  The load is
    not kept with them, so ``flush`` must run before the load changes.
    """

    def __init__(self, tr: SimulationTrace, dae: PowerSystemDae):
        self.tr = tr
        self.dae = dae
        self.xs, self.ys = [], []
        self.start = 0     # trace row of the first buffered state

    def add(self, state: SystemState) -> None:
        self.xs.append(state.x)
        self.ys.append(state.y)
        if len(self.xs) == _OBSERVE_ROWS:
            self.flush()

    def flush(self) -> None:
        m = len(self.xs)
        if m == 0:
            return
        dae, tr = self.dae, self.tr
        x, y = np.array(self.xs), np.array(self.ys)
        self.xs.clear()
        self.ys.clear()
        rows = slice(self.start, self.start + m)
        tr.freq_hz[rows] = dae.device_frequencies_hz(x)
        tr.p_dev[rows], tr.p_sys[rows] = dae.device_powers(x, y)
        tr.theta[rows] = y[:, :dae.n_bus]
        tr.v[rows] = y[:, dae.n_bus:2 * dae.n_bus]
        tr.balance_residual[rows] = dae.power_balance_residual(x, y)
        self.start += m
