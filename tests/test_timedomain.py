import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from droope import timedomain
from droope.devices import GfmDevice, GfmStaticParams
from droope.errors import InitializationError, ScenarioError, StepError
from droope.metrics import compute_frequency_stats
from droope.network import BusKind, solve_power_flow
from droope.scenario import BUILTINS, load_scenario
from droope.system import PowerSystemDae, SystemState
from droope.timedomain import (Event, TrapezoidalStepper, release_dynamics,
                               run_case)
from fd_oracle import OracleJacobian

W_B = 377.0


class DecayOde(OracleJacobian):
    """dx/dt = -x with no algebraic part; exact solution exp(-t)."""

    n_x, n_y = 1, 0
    x_labels, y_labels = ["x"], []
    devices = []

    def f(self, x, y):
        return -x

    def g(self, x, y):
        return np.zeros(0)


class RampDae(OracleJacobian):
    """dx/dt = 1, 0 = y - x.  The algebraic unknown is linear in time, so the
    extrapolating predictor lands on the solution and Newton needs no solve;
    from ``y0`` it needs one.  ``poison`` makes that many f calls NaN."""

    n_x, n_y = 1, 1
    x_labels, y_labels = ["x"], ["y"]
    devices = []
    poison = 0

    def f(self, x, y):
        if self.poison:
            self.poison -= 1
            return np.full(1, np.nan)
        return np.ones(1)

    def g(self, x, y):
        return y - x


class CliffOde(DecayOde):
    """dx/dt = -1 while x >= 0; the derivative is NaN below zero."""

    def f(self, x, y):
        return np.where(x >= 0.0, -1.0, np.nan)


class RidgeOde(DecayOde):
    """dx/dt = 1 while x <= 0; the derivative is NaN above zero, and so is
    the Jacobian within the oracle's step of it."""

    def f(self, x, y):
        return np.where(x <= 0.0, 1.0, np.nan)


class DriftOde(OracleJacobian):
    """dx/dt = -(1 + drift s) x and ds/dt = 1.  The Jacobian drifts with
    the clock s, so Newton on the matrix factorized at a step's start
    contracts at about ``drift * dt**2 / 2`` per solve."""

    n_x, n_y = 2, 0
    x_labels, y_labels = ["x", "s"], []
    devices = []

    def __init__(self, drift):
        self.drift = drift

    def f(self, x, y):
        return np.array([-(1.0 + self.drift * x[1]) * x[0], 1.0])

    def g(self, x, y):
        return np.zeros(0)


class SineDae:
    """ds/dt = 1, dz/dt = y and 0 = y - sin(s): the algebraic unknown
    follows a known smooth path, and f moves with it.  The Jacobian is
    analytic, so ``g`` runs only on Newton iterates, each logged in
    ``iterates``; ``poison`` makes that many f calls NaN."""

    n_x, n_y = 2, 1
    poison = 0

    def __init__(self):
        self.iterates = []

    def f(self, x, y):
        if self.poison:
            self.poison -= 1
            return np.full(2, np.nan)
        return np.array([1.0, y[0]])

    def g(self, x, y):
        self.iterates.append((x.copy(), y.copy()))
        return y - np.sin(x[:1])

    def jacobian(self, x, y):
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                         [-math.cos(x[0]), 0.0, 1.0]])


def polynomial_at(nodes, k):
    """Value at step ``k`` of the Lagrange polynomial through the
    ``(step, y)`` nodes."""
    total = 0.0
    for i, (k_i, y_i) in enumerate(nodes):
        weight = 1.0
        for j, (k_j, _) in enumerate(nodes):
            if j != i:
                weight *= (k - k_j) / (k_i - k_j)
        total = total + weight * y_i
    return total


@pytest.fixture
def newton_solves(monkeypatch):
    """Per-call log of the stepper's LU solves."""
    calls = []
    real = timedomain.lu_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(timedomain, "lu_solve", counting)
    return calls


def solves_per_step(stepper, st, calls, n=1):
    """Step n times; return the state and the Newton solves of each step."""
    counts = []
    for _ in range(n):
        before = len(calls)
        st = stepper.step(st, st.t + stepper.dt)
        counts.append(len(calls) - before)
    return st, counts


class TestPredictor:
    def test_extrapolates_after_first_step(self, newton_solves):
        stepper = TrapezoidalStepper(RampDae(), 1e-3)
        st = SystemState(np.zeros(1), np.zeros(1))
        st, counts = solves_per_step(stepper, st, newton_solves, 3)
        assert counts == [1, 0, 0]
        assert st.y[0] == pytest.approx(3e-3, abs=1e-12)

    def test_restarts_after_mark_stale(self, newton_solves):
        stepper = TrapezoidalStepper(RampDae(), 1e-3)
        st, _ = solves_per_step(stepper, SystemState(np.zeros(1), np.zeros(1)),
                                newton_solves, 2)
        stepper.mark_stale()
        _, counts = solves_per_step(stepper, st, newton_solves, 2)
        assert counts == [1, 0]

    def test_restarts_inside_and_after_halved_step(self, newton_solves):
        dae = RampDae()
        stepper = TrapezoidalStepper(dae, 1e-3)
        st, _ = solves_per_step(stepper, SystemState(np.zeros(1), np.zeros(1)),
                                newton_solves, 2)
        dae.poison = 1  # the full-dt attempt fails, the halves succeed
        st, counts = solves_per_step(stepper, st, newton_solves, 3)
        assert counts == [2, 1, 0]
        assert st.t == pytest.approx(5e-3)
        assert st.y[0] == pytest.approx(5e-3, abs=1e-12)

    def test_restarts_after_dt_change(self, newton_solves):
        stepper = TrapezoidalStepper(RampDae(), 1e-3)
        st, _ = solves_per_step(stepper, SystemState(np.zeros(1), np.zeros(1)),
                                newton_solves, 2)
        stepper.dt = 2e-3
        _, counts = solves_per_step(stepper, st, newton_solves, 2)
        assert counts == [1, 0]

    def test_restarts_from_a_foreign_state(self, newton_solves):
        stepper = TrapezoidalStepper(RampDae(), 1e-3)
        st, _ = solves_per_step(stepper, SystemState(np.zeros(1), np.zeros(1)),
                                newton_solves, 2)
        _, counts = solves_per_step(stepper, st.copy(), newton_solves, 2)
        assert counts == [1, 0]


class TestPredictorRule:
    """Newton's start on SineDae, recomputed from the accepted points.  At
    dt = 1e-3 and tol = 3e-9 the steps alternate between one solve and
    none, so some starts follow a point accepted at its prediction."""

    DT, TOL = 1e-3, 3e-9

    def start(self):
        dae = SineDae()
        stepper = TrapezoidalStepper(dae, self.DT, tol=self.TOL)
        return dae, stepper, SystemState(np.array([0.3, 0.0]), np.sin([0.3]))

    def test_quadratic_through_corrected_points_and_adams_bashforth(
            self, newton_solves):
        dae, stepper, st = self.start()
        nodes = [(0, st.y)]      # the first point of a history counts
        accepted, f_prev = [st.y], None
        discriminating = 0
        for k in range(1, 41):
            dae.iterates.clear()
            before = len(newton_solves)
            x0, f0 = st.x, dae.f(st.x, st.y)
            st = stepper.step(st, k * self.DT)
            x_start, y_start = dae.iterates[0]
            rate = f0 if f_prev is None else 1.5 * f0 - 0.5 * f_prev
            np.testing.assert_allclose(x_start, x0 + self.DT * rate,
                                       rtol=0, atol=1e-15)
            want = polynomial_at(nodes[-3:], k)
            np.testing.assert_allclose(y_start, want, rtol=0, atol=1e-14)
            # the quadratic through the last three accepted points instead
            adjacent = polynomial_at(list(enumerate(accepted))[-3:], k)
            if len(nodes) >= 3 and k - 1 != nodes[-1][0]:
                discriminating += abs(adjacent - want)[0] > 1e-11
            if len(newton_solves) > before:
                nodes.append((k, st.y))
            else:
                assert np.array_equal(st.y, y_start)
            accepted.append(st.y)
            f_prev = f0
        # starts after a point accepted at its prediction, where the last
        # three points would have given another start
        assert discriminating >= 10
        assert 10 <= len(nodes) <= 35

    @pytest.mark.parametrize("restart", ["mark_stale", "halving"])
    def test_falls_back_to_euler_and_y0(self, restart):
        dae, stepper, st = self.start()
        for k in range(1, 6):
            st = stepper.step(st, k * self.DT)
        if restart == "mark_stale":
            stepper.mark_stale()
        else:
            dae.poison = 1   # the full-dt attempt fails, the halves succeed
            dae.iterates.clear()
            before = st
            st = stepper.step(st, 6 * self.DT)
            assert stepper.refreshes["halving"] == 1
            # the first half starts afresh at dt/2
            x_half, y_half = dae.iterates[1]
            np.testing.assert_allclose(
                x_half, before.x + 0.5 * self.DT * dae.f(before.x, before.y),
                rtol=0, atol=1e-15)
            assert np.array_equal(y_half, before.y)
        dae.iterates.clear()
        x0, y0 = st.x, st.y
        stepper.step(st, st.t + self.DT)
        x_start, y_start = dae.iterates[0]
        np.testing.assert_allclose(x_start, x0 + self.DT * dae.f(x0, y0),
                                   rtol=0, atol=1e-15)
        assert np.array_equal(y_start, y0)


@pytest.fixture
def f_calls(monkeypatch):
    """Per-call log of RampDae's derivative evaluations."""
    calls = []
    real = RampDae.f

    def counting(self, x, y):
        calls.append(1)
        return real(self, x, y)

    monkeypatch.setattr(RampDae, "f", counting)
    return calls


def fresh_f_per_step(monkeypatch, dae_cls):
    """Per step: the f evaluations at the step's own start state, which is
    where f0 comes from when it is not carried over."""
    fresh = []
    start = {"x": None, "y": None}
    real_f, real_step = dae_cls.f, TrapezoidalStepper.step

    def f(self, x, y):
        if x is start["x"] and y is start["y"]:
            fresh[-1] += 1
        return real_f(self, x, y)

    def step(self, state, t1):
        start.update(x=state.x, y=state.y)
        fresh.append(0)
        return real_step(self, state, t1)

    monkeypatch.setattr(dae_cls, "f", f)
    monkeypatch.setattr(TrapezoidalStepper, "step", step)
    return fresh


class TestCarriedDerivative:
    """f at the converged iterate is reused as the next step's f0."""

    def test_reused_when_continuing(self, f_calls):
        stepper = TrapezoidalStepper(RampDae(), 1e-3)
        st = SystemState(np.zeros(1), np.zeros(1))
        # after the first step (f0, the Jacobian build, two residuals) the
        # predictor lands on the solution: one residual, f0 carried over
        _, counts = solves_per_step(stepper, st, f_calls, 3)
        assert counts[1:] == [1, 1]

    def test_dropped_after_mark_stale(self, monkeypatch):
        fresh = fresh_f_per_step(monkeypatch, RampDae)
        stepper = TrapezoidalStepper(RampDae(), 1e-3)
        st = SystemState(np.zeros(1), np.zeros(1))
        for k in range(4):
            if k == 2:
                stepper.mark_stale()
            st = stepper.step(st, (k + 1) * 1e-3)
        assert fresh == [1, 0, 1, 0]

    def test_not_reused_from_a_foreign_state(self, f_calls):
        stepper = TrapezoidalStepper(RampDae(), 1e-3)
        st, _ = solves_per_step(stepper, SystemState(np.zeros(1), np.zeros(1)),
                                f_calls, 2)
        # same values, other arrays: f0 is evaluated and the predictor
        # restarts from y0, so one solve adds two residual evaluations
        _, counts = solves_per_step(stepper, st.copy(), f_calls, 1)
        assert counts == [3]

    def test_reevaluated_only_at_load_step_and_gate(self, monkeypatch):
        """On 3bus-sharing, f0 is carried on every step except the first,
        the one after the load event and the one after the power-sharing
        gate closes: both change the model and mark the stepper stale.
        The offset in between is a state, so its motion needs nothing."""
        fresh = fresh_f_per_step(monkeypatch, PowerSystemDae)
        tr = run_case(load_scenario("3bus-sharing"), t_end=1.7)
        grid = tr.t.tolist()
        load = grid.index(tr.first_event_time())
        gate = grid.index(tr.first_event_time("gate_armed"))
        assert load < gate < len(fresh) - 100
        assert max(fresh) == 1
        assert [k for k, n in enumerate(fresh) if n] == [0, load, gate]


def run_case_per_sample(scen, t_end, tol=1e-9):
    """``run_case`` as it was before block observation: each accepted state
    observed on its own right after its step, Newton converged below
    ``tol``.  Returns the observed series by name."""
    dae = scen.build_dae()
    dt = scen.sim.dt
    state = release_dynamics(
        dae, solve_power_flow(scen.network, scen.dispatch_map()))
    load_steps = {round(ev.t / dt): ev for ev in scen.events}
    sharing = [k for k, dev in enumerate(dae.devices)
               if getattr(dev, "sharing", None) is not None]
    out = {key: [] for key in ("freq_hz", "p_dev", "p_sys", "v", "theta",
                               "balance_residual")}

    def record(state):
        out["freq_hz"].append(dae.device_frequencies_hz(state.x))
        p_dev, p_sys = dae.device_powers(state.x, state.y)
        out["p_dev"].append(p_dev)
        out["p_sys"].append(p_sys)
        theta, v, _ = dae.split_y(state.y)
        out["v"].append(v)
        out["theta"].append(theta)
        out["balance_residual"].append(
            dae.power_balance_residual(state.x, state.y))

    stepper = TrapezoidalStepper(dae, dt, tol=tol)
    record(state)
    for k in range(int(round(t_end / dt))):
        ev = load_steps.get(k)
        if ev is not None:
            dae.apply_load_step(ev.bus, ev.dp, ev.dq)
            stepper.mark_stale()
        state = stepper.step(state, (k + 1) * dt)
        if timedomain._update_sharing(dae, sharing, state, []):
            stepper.mark_stale()
        record(state)
    return {key: np.array(vals) for key, vals in out.items()}


def row_wise_csv(tr) -> str:
    """The trace CSV as written one value at a time."""
    lines = [",".join(tr.column_names())]
    for i in range(len(tr.t)):
        vals = [tr.t[i]]
        for k in range(len(tr.dev_names)):
            vals += [tr.freq_hz[i, k], tr.p_dev[i, k], tr.p_sys[i, k]]
        for k in range(len(tr.bus_ids)):
            vals += [tr.v[i, k], tr.theta[i, k]]
        lines.append(",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


class TestBlockRecording:
    def test_matches_per_sample_observation(self):
        # 1701 samples: six full blocks and a tail, the load step at 1 s
        # (mid-block) and the sharing gate closing at 1.55 s
        scen = load_scenario("3bus-sharing")
        tr = run_case(scen, t_end=1.7)
        ref = run_case_per_sample(scen, 1.7)
        assert len(tr.t) > 6 * timedomain._OBSERVE_ROWS
        assert tr.first_event_time() % (timedomain._OBSERVE_ROWS * tr.dt)
        assert tr.first_event_time("gate_armed") is not None
        for key in ("freq_hz", "p_dev", "p_sys", "v", "theta"):
            assert np.array_equal(getattr(tr, key), ref[key]), key
        np.testing.assert_allclose(tr.balance_residual,
                                   ref["balance_residual"], rtol=0,
                                   atol=1e-13)

    def test_observations_accept_one_sample_or_a_block(self,
                                                       case_a_equilibrium):
        dae, state = case_a_equilibrium
        rng = np.random.default_rng(3)
        x = state.x + rng.normal(scale=1e-2, size=(5, dae.n_x))
        y = state.y + rng.normal(scale=1e-2, size=(5, dae.n_y))
        freq = dae.device_frequencies_hz(x)
        p_dev, p_sys = dae.device_powers(x, y)
        bal = dae.power_balance_residual(x, y)
        assert freq.shape == p_dev.shape == p_sys.shape == (5, 2)
        assert bal.shape == (5,)
        for i in range(5):
            assert np.array_equal(dae.device_frequencies_hz(x[i]), freq[i])
            one_dev, one_sys = dae.device_powers(x[i], y[i])
            assert np.array_equal(one_dev, p_dev[i])
            assert np.array_equal(one_sys, p_sys[i])
            assert dae.power_balance_residual(x[i], y[i]) == pytest.approx(
                bal[i], rel=0, abs=1e-13)

    def test_csv_matches_row_wise_writer(self, trace_case_a, tmp_path):
        assert len(trace_case_a.t) % timedomain._CSV_ROWS
        path = tmp_path / "trace.csv"
        trace_case_a.to_csv(path)
        assert path.read_bytes() == row_wise_csv(trace_case_a).encode()

    def test_csv_writes_special_values_exactly(self, trace_case_a, tmp_path):
        n = timedomain._CSV_ROWS + 3
        tr = dataclasses.replace(
            trace_case_a, t=trace_case_a.t[:n],
            **{key: getattr(trace_case_a, key)[:n].copy()
               for key in ("freq_hz", "p_dev", "p_sys", "v", "theta")})
        tr.p_dev[0] = [-0.0, np.nan]
        tr.v[1] = [np.inf, -np.inf, 5e-324]
        tr.theta[n - 1] = [1e300, -1.0 / 3.0, 0.1]
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        assert path.read_bytes() == row_wise_csv(tr).encode()


def test_lu_solve_matches_scipy():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(21, 21)) + 5.0 * np.eye(21)
    b = rng.normal(size=21)
    lu_piv = scipy.linalg.lu_factor(a)
    got = timedomain.lu_solve(lu_piv, b)
    want = scipy.linalg.lu_solve(lu_piv, b)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(a @ got, b, rtol=0, atol=1e-12)


class TestStepper:
    def test_equilibrium_preserved_over_1000_steps(self, case_a_equilibrium):
        dae, state = case_a_equilibrium
        stepper = TrapezoidalStepper(dae, 1e-3)
        st = state.copy()
        for k in range(1000):
            st = stepper.step(st, (k + 1) * 1e-3)
        assert np.max(np.abs(st.x - state.x)) < 1e-10
        assert np.max(np.abs(st.y - state.y)) < 1e-10

    def test_trapezoidal_matches_exponential_to_second_order(self):
        ode = DecayOde()
        dt = 1e-3
        stepper = TrapezoidalStepper(ode, dt, tol=1e-14)
        st = SystemState(np.array([1.0]), np.zeros(0))
        for k in range(1000):
            st = stepper.step(st, (k + 1) * dt)
        assert st.x[0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_second_order_convergence_rate(self):
        errs = []
        for dt in (2e-3, 1e-3):
            stepper = TrapezoidalStepper(DecayOde(), dt, tol=1e-14)
            st = SystemState(np.array([1.0]), np.zeros(0))
            for k in range(int(round(1.0 / dt))):
                st = stepper.step(st, (k + 1) * dt)
            errs.append(abs(st.x[0] - math.exp(-1.0)))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.3)

    def test_time_reversal_near_equilibrium(self):
        scen = load_scenario("3bus-caseA")
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        dae.apply_load_step(2, 1e-3, 0.0)
        stepper = TrapezoidalStepper(dae, 1e-3, tol=1e-13)
        # one step lands on a point consistent with the stepped load
        x0, y0 = stepper._advance(state.x, state.y, 1e-3)
        x1, y1 = stepper._advance(x0, y0, 1e-3)
        stepper.mark_stale()
        x0b, y0b = stepper._advance(x1, y1, -1e-3)
        assert np.max(np.abs(x0b - x0)) < 1e-9
        assert np.max(np.abs(y0b - y0)) < 1e-9

    def test_derivatives_match_integrator_differences_after_step(self):
        # central difference of integrated states brackets the reported
        # derivative vector right after the load step
        scen = load_scenario("3bus-caseA")
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        dae.apply_load_step(2, 0.075, 0.025)
        h = 1e-5
        stepper = TrapezoidalStepper(dae, h, tol=1e-13)
        # one step lands on a point consistent with the stepped load
        s0 = stepper.step(state, h)
        s1 = stepper.step(s0, 2 * h)
        s2 = stepper.step(s1, 3 * h)
        fd = (s2.x - s0.x) / (2 * h)
        f_mid = dae.f(s1.x, s1.y)
        scale = np.maximum(1.0, np.abs(f_mid))
        assert np.max(np.abs(fd - f_mid) / scale) < 1e-6

    def test_step_failure_carries_time(self, case_a_equilibrium):
        scen = load_scenario("3bus-caseA")
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        dae.apply_load_step(2, 60.0, 20.0)
        stepper = TrapezoidalStepper(dae, 1e-3)
        with pytest.raises(StepError) as err:
            stepper.step(state, 1e-3)
        assert err.value.t == pytest.approx(0.0)

    # a diverging iterate overflows math.exp in the SG saturation
    @pytest.mark.parametrize("dq", [0.0, 20.0])
    @pytest.mark.parametrize("dp", [5.0, 10.0, 20.0])
    def test_residual_overflow_is_a_step_error(self, dp, dq):
        scen = load_scenario("3bus-caseA")
        dae = scen.build_dae()
        state = release_dynamics(
            dae, solve_power_flow(scen.network, scen.dispatch_map()))
        dae.apply_load_step(2, dp, dq)
        with pytest.raises(StepError) as err:
            TrapezoidalStepper(dae, 1e-3).step(state, 1e-3)
        assert err.value.t == pytest.approx(0.0)

    # dt = 0.1: drift 30 contracts at about 0.14, drift 5 at about 0.024;
    # from x = 1e-4, drift 100 would not reach tol within max_newton on the
    # matrix from the step's start
    @pytest.mark.parametrize("x0, drift, cause, solves", [
        (1e-6, 30.0, "slow", 3), (1.0, 5.0, None, 5),
        (1e-4, 100.0, "diverging", 2)])
    def test_refresh_follows_contraction_rate(self, newton_solves, x0, drift,
                                              cause, solves):
        stepper = TrapezoidalStepper(DriftOde(drift), 0.1)
        st = SystemState(np.array([x0, 0.0]), np.zeros(0))
        st, counts = solves_per_step(stepper, st, newton_solves)
        assert counts == [solves]
        assert stepper.solves == solves
        assert stepper.refreshes["diverging"] == (cause == "diverging")
        assert stepper.refreshes["slow"] == 0
        solves_per_step(stepper, st, newton_solves)
        assert stepper.refreshes["slow"] == (cause == "slow")
        assert stepper.refreshes["stale"] == 1

    # the residual turns NaN ten steps in; the Newton matrix at the start
    @pytest.mark.parametrize("ode, x0, t_fail", [
        (CliffOde(), 0.0105, 0.010), (RidgeOde(), -5e-8, 0.0)])
    def test_non_finite_values_raise_step_error(self, ode, x0, t_fail):
        stepper = TrapezoidalStepper(ode, 1e-3)
        st = SystemState(np.array([x0]), np.zeros(0))
        with pytest.raises(StepError) as err:
            for k in range(20):
                st = stepper.step(st, (k + 1) * 1e-3)
        assert err.value.t == pytest.approx(t_fail)
        assert not math.isfinite(err.value.residual)


class TestRelease:
    @pytest.mark.parametrize("name", ["3bus-caseB", "9bus-caseC"])
    def test_stationary_start(self, name):
        scen = load_scenario(name)
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        assert np.max(np.abs(dae.f(state.x, state.y))) < 1e-8

    def test_gfm_filtered_power_equals_dispatch(self):
        scen = load_scenario("3bus-caseB")
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        assert state.x[dae.x_offsets[1] + 1] == pytest.approx(0.50, abs=1e-9)

    # low 9-bus dispatches, then every built-in as defined
    @pytest.mark.parametrize("name, p_set", [
        *(pytest.param("9bus-caseC", p, id=str(p))
          for p in (0.01, 0.02, 0.03, 0.04, 0.05)),
        *(pytest.param(name, None, id=name) for name in BUILTINS)])
    def test_low_dispatch_nine_bus_releases(self, name, p_set):
        # the power flow's mismatch is left to the slack set-point; with
        # every set-point fixed the polish stalled at 9-bus dispatches
        # 0.01-0.05 above 1e-10
        scen = load_scenario(name)
        if p_set is not None:
            scen = scen.with_gfm_dispatch(p_set)
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        assert np.max(np.abs(dae.full_residual(state.x, state.y))) < 1e-10

    def test_power_flow_imbalance_is_not_absorbed(self):
        # the slack machine back-solves its set-point from an injection
        # 1e-4 pu off the network's
        scen = load_scenario("3bus-caseB")
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        injections = dict(pf.injections)
        injections[1] += 1e-4
        with pytest.raises(InitializationError, match="slack set-point"):
            release_dynamics(dae, dataclasses.replace(pf,
                                                      injections=injections))

    @staticmethod
    def slack_inverter(kind, sg_p_set=0.5):
        """3bus-caseB with the slack moved to the inverter's bus 3, the
        inverter's law set by ``kind`` and the machine at ``sg_p_set``."""
        scen = load_scenario("3bus-caseB")
        sg, gfm = scen.devices
        params = gfm.params
        if kind == "gfm_static":
            params = GfmStaticParams(x_gfm=params.x_gfm, r_gfm=params.r_gfm,
                                     rating_mva=params.rating_mva)
        b1, b2, b3 = scen.network.buses
        network = dataclasses.replace(scen.network, buses=(
            dataclasses.replace(b1, kind=BusKind.DEVICE), b2,
            dataclasses.replace(b3, kind=BusKind.SLACK)))
        return dataclasses.replace(scen, network=network, devices=(
            dataclasses.replace(sg, p_set=sg_p_set),
            dataclasses.replace(gfm, kind=kind, params=params, p_set=None)))

    @pytest.mark.parametrize("kind", ["gfm_droop_e", "gfm_static"])
    def test_inverter_at_the_slack_releases(self, kind):
        # the slack inverter back-solves its dispatch from the power flow
        scen = self.slack_inverter(kind)
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        assert np.max(np.abs(dae.full_residual(state.x, state.y))) < 1e-10
        gfm = dae.devices[1]
        assert gfm.p_set == pytest.approx(
            pf.injections[3].real / dae.dev_ratio[1], abs=1e-6)
        assert state.x[dae.x_offsets[1] + 1] == pytest.approx(gfm.p_set,
                                                             abs=1e-9)
        trace = run_case(scen, t_end=1.5)
        assert np.max(np.abs(trace.balance_residual)) < 1e-8

    # the machine at 0.05 leaves the inverter 1.40 device pu, at 0.9 -0.30
    @pytest.mark.parametrize("kind, sg_p_set, error", [
        ("gfm_droop_e", 0.05, "1.4000"), ("gfm_droop_e", 0.9, "-0.3000"),
        ("gfm_static", 0.05, None), ("gfm_static", 0.9, None)])
    def test_slack_inverter_dispatch_range(self, kind, sg_p_set, error):
        # a back-solved droop-e dispatch is held to the range a given one
        # is; the linear law has none
        scen = self.slack_inverter(kind, sg_p_set)
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        if error is None:
            release_dynamics(dae, pf)
            return
        with pytest.raises(InitializationError,
                           match=rf"gfm3: droop-e p_set {error} outside"):
            release_dynamics(dae, pf)

    @pytest.mark.parametrize("name", ["3bus-caseB", "3bus-sharing",
                                      "9bus-caseB"])
    def test_every_param_field_reaches_the_released_model(self, name):
        # a 1 % change of a parameter that neither the released point nor
        # its Jacobian sees marks a field the model overwrites or ignores
        def released(scen):
            dae = scen.build_dae()
            pf = solve_power_flow(scen.network, scen.dispatch_map())
            state = release_dynamics(dae, pf)
            return (np.concatenate([state.x, state.y]),
                    dae.jacobian(state.x, state.y))

        scen = load_scenario(name)
        z0, jac0 = released(scen)
        inert = []
        for k, d in enumerate(scen.devices):
            for field in dataclasses.fields(d.params):
                value = getattr(d.params, field.name)
                if not isinstance(value, float):
                    continue
                params = dataclasses.replace(
                    d.params, **{field.name: 1.01 * value if value else 0.01})
                devices = list(scen.devices)
                devices[k] = dataclasses.replace(d, params=params)
                z, jac = released(dataclasses.replace(scen,
                                                      devices=tuple(devices)))
                if np.array_equal(z, z0) and np.array_equal(jac, jac0):
                    inert.append(f"{d.name}.{field.name}")
        assert inert == []

    def test_infeasible_backsolve_raises(self):
        # deep under-excitation demands a negative field voltage
        from droope.devices import SgDevice, SgParams
        with pytest.raises(InitializationError):
            SgDevice("g", 1, SgParams(), 377.0).initialize(
                1.0 + 0j, complex(0.0, -0.78))


class TestRunCase:
    def test_zero_magnitude_event_is_bitwise_noop(self):
        scen = load_scenario("3bus-caseA")
        quiet = dataclasses.replace(scen, events=())
        null_ev = dataclasses.replace(
            scen, events=(Event(t=0.5, kind="load_step", bus=2, dp=0.0,
                                dq=0.0),))
        tr_a = run_case(quiet, t_end=1.0)
        tr_b = run_case(null_ev, t_end=1.0)
        assert np.array_equal(tr_a.freq_hz, tr_b.freq_hz)
        assert np.array_equal(tr_a.p_dev, tr_b.p_dev)
        assert np.array_equal(tr_a.v, tr_b.v)
        assert np.array_equal(tr_a.theta, tr_b.theta)

    def test_steady_run_stays_at_sixty_hertz(self):
        scen = load_scenario("3bus-caseA")
        tr = run_case(dataclasses.replace(scen, events=()), t_end=0.5)
        assert np.max(np.abs(tr.freq_hz - 60.0)) < 1e-9

    def test_event_off_grid_rejected(self):
        scen = load_scenario("3bus-caseA")
        bad = dataclasses.replace(
            scen, events=(Event(t=0.0005001, kind="load_step", bus=2,
                                dp=0.01, dq=0.0),))
        with pytest.raises(ScenarioError):
            run_case(bad, t_end=0.1)

    @pytest.mark.parametrize("t_end", [1.0004, 0.0004, 1e-12])
    def test_t_end_off_the_grid_or_without_a_step_rejected(self, t_end):
        # 1.0004 s used to stop at 1.0 s, 0.0004 s to fail with IndexError
        with pytest.raises(ScenarioError, match=rf"t_end={t_end} .*dt=0.001"):
            run_case(load_scenario("3bus-caseB"), t_end=t_end)

    def test_sharing_gate_checked_only_while_open(self, monkeypatch):
        # the gate of gfm3 closes at 1.55 s; after it no step checks it
        calls = []
        check = GfmDevice.update_power_sharing

        def counted(dev, *args):
            calls.append(dev.name)
            return check(dev, *args)

        monkeypatch.setattr(GfmDevice, "update_power_sharing", counted)
        tr = run_case(load_scenario("3bus-sharing"), t_end=2.0)
        gates = [(ev.t, ev.device) for ev in tr.events
                 if ev.kind == "gate_armed"]
        assert gates == [(1.55, "gfm3")]
        assert calls == ["gfm3"] * 1550

    def test_nadir_insensitive_to_step_refinement(self):
        scen = load_scenario("3bus-caseB")
        nadirs = []
        for dt in (1e-3, 5e-4):
            tr = run_case(scen, t_end=6.0, dt=dt)
            nadirs.append(np.min(tr.device_frequency("sg1")))
        assert abs(nadirs[0] - nadirs[1]) < 1e-3

    # (nadir Hz, nadir time s, peak ROCOF Hz/s, settling Hz) of the machine
    # speed as computed when every Newton solve started from y0; the
    # algebraic predictor may move them by no more than 1e-8
    @pytest.mark.parametrize("fixture, expected", [
        ("trace_case_b", (59.82015355364463, 1.567, 0.5973604238865704,
                          59.87755588466132)),
        ("trace_case_c", (59.70705397483994, 1.72, 0.7008508880488051,
                          59.817215301169504)),
    ])
    def test_case_statistics_pinned(self, fixture, expected, request):
        tr = request.getfixturevalue(fixture)
        st = compute_frequency_stats(tr.t, tr.device_frequency("sg1"),
                                     tr.first_event_time(), tr.rocof_window)
        got = (st.nadir, st.nadir_time, st.peak_rocof, st.settling)
        assert got == pytest.approx(expected, rel=0, abs=1e-8)

    def test_case_b_needs_under_one_solve_per_step(self, newton_solves,
                                                   caplog):
        # a refresh only after a step of five or more solves averaged 1.52
        with caplog.at_level(logging.INFO, logger="droope.timedomain"):
            tr = run_case(load_scenario("3bus-caseB"))
        assert len(newton_solves) / (len(tr.t) - 1) < 1.0
        counted = [r.getMessage() for r in caplog.records
                   if "Newton solves" in r.getMessage()]
        assert len(counted) == 1
        assert f" {len(newton_solves)} Newton solves" in counted[0]
        # the trace carries the counts the log line reads
        assert (tr.steps, tr.solves) == (len(tr.t) - 1, len(newton_solves))
        assert counted[0].endswith(
            f": {tr.steps} steps, {tr.solves} Newton solves, Newton-matrix "
            f"refreshes {tr.refreshes}, {tr.halvings} halvings, worst "
            f"accepted residual {tr.worst_residual:.3e}")
        assert tr.halvings == 0 and 0 < tr.worst_residual < 1e-9

    # a start by Euler and the linear y extrapolation took 0.81 (3bus-caseB)
    # and 1.10 (3bus-sharing) solves per step, and 50 and 506 refreshes
    @pytest.mark.parametrize("fixture, refreshes", [
        ("trace_case_b", 50), ("trace_sharing", 506)])
    def test_third_order_start_needs_few_solves(self, fixture, refreshes,
                                                request):
        tr = request.getfixturevalue(fixture)
        assert tr.steps == len(tr.t) - 1
        assert tr.solves / tr.steps <= 0.4
        assert 1 <= tr.refreshes["stale"] and tr.refreshes.get("dt", 0) == 0
        assert sum(tr.refreshes.values()) < refreshes

    def test_sharing_within_newton_noise_of_a_tight_tolerance(self):
        # Newton stops below tol = 1e-9 from any start; each column must stay
        # as close to a tol = 1e-12 run as the first-order start's did
        scen = load_scenario("3bus-sharing")
        tr = run_case(scen, t_end=5.0)
        ref = run_case_per_sample(scen, 5.0, tol=1e-12)
        for key in ("freq_hz", "p_dev", "p_sys", "v", "theta"):
            np.testing.assert_allclose(getattr(tr, key), ref[key], rtol=0,
                                       atol=2e-7, err_msg=key)
        assert np.max(np.abs(tr.balance_residual)) < 1e-8

    def test_power_balance_every_step(self, trace_case_a):
        assert np.max(np.abs(trace_case_a.balance_residual)) < 1e-6

    def test_frequency_coherence_at_settle(self, trace_case_a):
        f_end = trace_case_a.freq_hz[-1]
        assert np.ptp(f_end) < 1e-6

    def test_settling_matches_droop_equilibrium_oracle(self, trace_case_a):
        # common frequency deviation solving both droop laws and the
        # (lossless) power balance for the stepped load
        p_set_i, ratio_i, d_g = 0.05, 0.5, 0.05
        dstep = 0.075

        def balance(dw):
            p_i = math.log(math.exp(3 * p_set_i) - dw / (W_B * 0.002)) / 3.0
            dp_g = -dw / (W_B * d_g)
            return dp_g + ratio_i * (p_i - p_set_i) - dstep

        dw = brentq(balance, -10.0, -1e-12, xtol=1e-14)
        f_oracle = 60.0 + dw / (2 * math.pi)
        tail = trace_case_a.device_frequency("sg1")[-1000:]
        assert abs(tail.mean() - f_oracle) < 1e-3

    def test_trace_columns_follow_contract(self, trace_case_a, tmp_path):
        path = tmp_path / "trace.csv"
        trace_case_a.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "t,dev_sg1_f_hz,dev_sg1_p_pu_dev,dev_sg1_p_pu_sys,"
            "dev_gfm3_f_hz,dev_gfm3_p_pu_dev,dev_gfm3_p_pu_sys,"
            "bus_1_v,bus_1_theta,bus_2_v,bus_2_theta,bus_3_v,bus_3_theta")
        # full-precision round trip on a sample row
        row = path.read_text().splitlines()[2].split(",")
        assert float(row[1]) == trace_case_a.freq_hz[1, 0]

    def test_events_sorted_and_logged(self, trace_sharing):
        kinds = [ev.kind for ev in trace_sharing.events]
        assert kinds[0] == "release_dynamics"
        assert "load_step" in kinds and "gate_armed" in kinds
        times = [ev.t for ev in trace_sharing.events]
        assert times == sorted(times)

    def test_event_and_state_times_on_the_grid(self, trace_sharing,
                                               traces_9bus):
        for tr in (trace_sharing, traces_9bus["9bus-caseC"]):
            assert [ev.kind for ev in tr.events].count("gate_armed") >= 1
            for ev in tr.events:
                assert ev.t in tr.t, (tr.name, ev)
            assert tr.final_state.t == tr.t[-1]
