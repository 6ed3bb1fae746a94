import numpy as np
import pytest
from scipy.optimize import least_squares

from droope.errors import DroopeError, NumericError
from droope.network import solve_power_flow
from droope.scenario import load_scenario
from droope.smallsignal import (eigen_decompose, find_oscillatory_band_track,
                                find_real_to_complex_track, linearize,
                                modal_point, participation_factors,
                                participation_share)
from droope.system import find_equilibrium
from droope.timedomain import TrapezoidalStepper, release_dynamics
from fd_oracle import OracleJacobian, blocks, dae_jacobian, relative_error


class MiniDae(OracleJacobian):
    """Hand-specified linear DAE for exercising the block elimination."""

    def __init__(self, f_fn, g_fn, n_x, n_y):
        self.f_fn, self.g_fn = f_fn, g_fn
        self.n_x, self.n_y = n_x, n_y
        self.x_labels = [f"x{i}.delta" if i == 0 else f"x{i}" for i in range(n_x)]
        self.y_labels = [f"y{i}" for i in range(n_y)]
        self.devices = []

    def f(self, x, y):
        return np.atleast_1d(self.f_fn(x, y))

    def g(self, x, y):
        return np.atleast_1d(self.g_fn(x, y))


class TestLinearize:
    def test_scalar_dae_elimination(self):
        dae = MiniDae(lambda x, y: -x[0] + y[0], lambda x, y: x[0] - 2 * y[0],
                      1, 1)
        lin = linearize(dae, np.zeros(1), np.zeros(1), with_inputs=False)
        assert lin.a_sys[0, 0] == pytest.approx(-0.5, abs=1e-9)

    def test_decoupled_system_reduces_to_f_x(self):
        dae = MiniDae(lambda x, y: np.array([-2 * x[0] + x[1], -3 * x[1]]),
                      lambda x, y: np.array([y[0]]), 2, 1)
        lin = linearize(dae, np.zeros(2), np.zeros(1), with_inputs=False)
        assert np.allclose(lin.a_sys, lin.f_x, atol=1e-9)
        assert np.allclose(lin.a_sys, [[-2, 1], [0, -3]], atol=1e-8)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_algebraic_block_names_pivot(self):
        dae = MiniDae(lambda x, y: -x[0] + y[0],
                      lambda x, y: np.array([0.0 * y[0]]), 1, 1)
        with pytest.raises(NumericError, match="y0"):
            linearize(dae, np.zeros(1), np.zeros(1), with_inputs=False)

    def test_rejects_off_equilibrium_point(self):
        dae = MiniDae(lambda x, y: -x[0] + 1.0, lambda x, y: y, 1, 1)
        with pytest.raises(DroopeError):
            linearize(dae, np.zeros(1), np.zeros(1), with_inputs=False)

    def test_jacobian_against_refined_difference(self, case_a_equilibrium):
        # analytic blocks against the Richardson-refined central difference
        dae, state = case_a_equilibrium
        lin = linearize(dae, state.x, state.y, with_inputs=False)
        oracle = blocks(dae_jacobian(dae, state.x, state.y), dae.n_x)
        for blk, refined in oracle.items():
            assert relative_error(getattr(lin, blk), refined) < 1e-6, blk

    def test_input_matrix_exposed(self, case_a_equilibrium):
        dae, state = case_a_equilibrium
        lin = linearize(dae, state.x, state.y, with_inputs=True)
        assert lin.b_matrix.shape == (dae.n_x, 3)
        assert lin.input_labels == ("sg1.p_set", "sg1.v_ref", "gfm3.p_set")
        # a power setpoint nudge enters the governor valve equation
        row = lin.state_labels.index("sg1.p_sv")
        col = lin.input_labels.index("sg1.p_set")
        assert lin.b_matrix[row, col] == pytest.approx(1 / 0.2, rel=1e-4)


class TestEigenDecompose:
    def test_diagonal(self):
        mr = eigen_decompose(np.diag([-1.0, -2.0]))
        assert sorted(mr.eigenvalues.real) == pytest.approx([-2, -1])
        assert np.allclose(mr.damping, 1.0)

    def test_canonical_second_order(self):
        zeta, omega = 0.5, 2.0
        a = np.array([[0.0, 1.0], [-omega**2, -2 * zeta * omega]])
        mr = eigen_decompose(a)
        lam = mr.eigenvalues[np.argmax(mr.eigenvalues.imag)]
        assert lam == pytest.approx(-1.0 + np.sqrt(3.0) * 1j, abs=1e-9)
        assert np.allclose(mr.damping, zeta, atol=1e-12)

    def test_constructed_spectrum_recovered(self):
        rng = np.random.default_rng(42)
        lam_true = np.array([-1, -2, -3, -4 + 5j, -4 - 5j, -0.5 + 1j,
                             -0.5 - 1j, -6, -7], dtype=complex)
        q = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        a = (q @ np.diag(lam_true) @ np.linalg.inv(q)).real
        # make it exactly real-representable: build from a real similarity
        q = rng.normal(size=(9, 9))
        blocks = np.zeros((9, 9))
        blocks[0, 0], blocks[1, 1], blocks[2, 2] = -1, -2, -3
        blocks[3:5, 3:5] = [[-4, 5], [-5, -4]]
        blocks[5:7, 5:7] = [[-0.5, 1], [-1, -0.5]]
        blocks[7, 7], blocks[8, 8] = -6, -7
        a = q @ blocks @ np.linalg.inv(q)
        mr = eigen_decompose(a)
        got = np.sort_complex(mr.eigenvalues)
        assert np.allclose(got, np.sort_complex(lam_true), atol=1e-8)

    def test_residuals_and_conjugacy_on_power_system(self, case_a_equilibrium):
        dae, state = case_a_equilibrium
        lin = linearize(dae, state.x, state.y, with_inputs=False)
        mr = eigen_decompose(lin.a_sys, state_labels=lin.state_labels)
        a = lin.a_sys
        for i, lam in enumerate(mr.eigenvalues):
            v = mr.right[:, i]
            assert np.linalg.norm(a @ v - lam * v) < 1e-9
        cplx = mr.eigenvalues[np.abs(mr.eigenvalues.imag) > 1e-9]
        assert np.allclose(np.sort_complex(cplx),
                           np.sort_complex(cplx.conj()), atol=1e-12)

    def test_damping_against_arg_formula(self, case_a_equilibrium):
        dae, state = case_a_equilibrium
        lin = linearize(dae, state.x, state.y, with_inputs=False)
        mr = eigen_decompose(lin.a_sys, state_labels=lin.state_labels)
        for i, lam in enumerate(mr.eigenvalues):
            if lam.real < -1e-6:
                assert mr.damping[i] == pytest.approx(
                    np.cos(np.pi - np.angle(lam)), abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            eigen_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_residual_failure_is_one_line(self):
        # the message names the worst eigenpair, not the whole matrix
        a = np.random.default_rng(0).normal(size=(11, 11))
        with pytest.raises(NumericError, match="at eigenvalue") as err:
            eigen_decompose(a, residual_tol=0.0)
        assert "\n" not in str(err.value)


class TestParticipation:
    def test_diagonal_matrix_identity(self):
        mr = eigen_decompose(np.diag([-1.0, -2.0, -3.0]))
        order = np.argsort(-mr.eigenvalues.real)
        assert np.allclose(mr.participation[:, order], np.eye(3), atol=1e-12)

    def test_symmetric_two_state_split(self):
        mr = eigen_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(mr.participation, 0.5, atol=1e-12)

    def test_top_states_leave_out_non_participating(self):
        mr = eigen_decompose(np.diag([-1.0, -2.0, -3.0]),
                             state_labels=("a", "b", "c"))
        order = np.argsort(-mr.eigenvalues.real)
        assert [mr.top_states(i, 3) for i in order] == [["a"], ["b"], ["c"]]
        # each power-sharing mode at -k lives on one omega_ps state alone
        mr = modal_point(load_scenario("9bus-caseC"), 0.5)
        at_k = [i for i, lam in enumerate(mr.eigenvalues)
                if abs(lam + 0.3) < 1e-12]
        assert len(at_k) == 2
        assert sorted(mr.top_states(i, 3)[0] for i in at_k) == [
            "gen1.omega_ps", "gen3.omega_ps"]
        assert all(len(mr.top_states(i, 3)) == 1 for i in at_k)

    def test_columns_sum_to_one(self, case_a_equilibrium):
        dae, state = case_a_equilibrium
        lin = linearize(dae, state.x, state.y, with_inputs=False)
        mr = eigen_decompose(lin.a_sys, state_labels=lin.state_labels)
        assert np.allclose(mr.participation.sum(axis=0), 1.0, atol=1e-12)

    def test_defective_mode_flagged(self):
        right = np.array([[1.0, 1.0], [0.0, 1e-14]], dtype=complex)
        left = np.array([[1e-14, 1.0], [1.0, 0.0]], dtype=complex)
        p, defective = participation_factors(right, left)
        assert 0 in defective
        assert np.all(np.isnan(p[:, 0]))

    def test_slow_mode_involves_both_machine_angles_and_speed(self):
        mr = modal_point(load_scenario("3bus-caseA"), 0.2)
        # the in-band oscillatory mode with inverter content
        idx = None
        for i, lam in enumerate(mr.eigenvalues):
            f = abs(lam.imag) / (2 * np.pi)
            if lam.imag > 0 and 0.1 <= f <= 1.0:
                share = participation_share(mr, i, {"gfm3.delta", "gfm3.p_m"})
                if share > 0.1:
                    idx = i
        assert idx is not None
        top5 = mr.top_states(idx, 5)
        assert {"gfm3.delta", "sg1.delta", "sg1.omega"} <= set(top5)


class TestSweep:
    def test_reference_mode_is_tiny_everywhere(self, sweep_3bus):
        for mr in sweep_3bus.points:
            assert mr.reference_index is not None
            assert abs(mr.eigenvalues[mr.reference_index]) < 1e-5

    def test_track_continuity(self, sweep_3bus):
        sw = sweep_3bus
        for tid in range(sw.n_tracks):
            lam = sw.track_eigenvalues(tid)
            jumps = np.abs(np.diff(lam))
            for j in range(len(jumps)):
                lo = max(0, j - 3)
                local = np.median(jumps[lo:j + 4]) + 1e-6
                assert jumps[j] < 10 * local, (
                    f"track {tid} jumps {jumps[j]:.3e} at point {j}")

    def test_family_helpers_find_disjoint_tracks(self, sweep_3bus):
        labels = {"gfm3.delta", "gfm3.p_m"}
        t12 = find_real_to_complex_track(sweep_3bus, labels)
        t56 = find_oscillatory_band_track(sweep_3bus, labels)
        assert t12 != t56
        lam56 = sweep_3bus.track_eigenvalues(t56)
        assert np.all(np.abs(lam56.imag) > 1e-6)

    def test_partial_result_on_power_flow_failure(self):
        # dispatches beyond the deliverable range fail power flow but the
        # sweep still returns the feasible points with annotations
        from droope.smallsignal import dispatch_sweep
        scen = load_scenario("3bus-caseA")
        sw = dispatch_sweep(scen, p_grid=[0.2, 0.5])
        assert len(sw.points) == 2 and not sw.failures

    def test_worker_processes_match_one_process(self):
        from droope.smallsignal import dispatch_sweep
        scen = load_scenario("3bus-caseA")
        grid = [0.2, 0.4, 0.6, 0.8]
        one = dispatch_sweep(scen, p_grid=grid)
        two = dispatch_sweep(scen, p_grid=grid, jobs=2)
        assert len(one.points) == len(two.points) == 4
        assert np.array_equal(one.dispatches, two.dispatches)
        for a, b in zip(one.points, two.points):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
        for a, b in zip(one.track_ids, two.track_ids):
            assert np.array_equal(a, b)
        assert one.failures == two.failures


class TestRingdownOracle:
    def test_eigenvalue_matches_time_domain_decay(self):
        # a small load step rings the slow mode; fitting the decaying
        # oscillation in the machine speed must recover the eigenvalue
        scen = load_scenario("3bus-caseB")
        dae = scen.build_dae()
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        state = release_dynamics(dae, pf)
        x0, y0 = find_equilibrium(dae, state.x, state.y)
        lin = linearize(dae, x0, y0, with_inputs=False)
        mr = eigen_decompose(lin.a_sys, state_labels=lin.state_labels)

        dt = 1e-3
        stepper = TrapezoidalStepper(dae, dt)
        from droope.system import SystemState
        st = SystemState(x0.copy(), y0.copy(), 0.0)
        dae.apply_load_step(2, 0.001, 0.0)
        stepper.mark_stale()
        n = 4000
        omega = np.empty(n + 1)
        omega[0] = st.x[1]
        for k in range(n):
            st = stepper.step(st, (k + 1) * dt)
            omega[k + 1] = st.x[1]
        t = np.arange(n + 1) * dt

        # fit A*exp(s t)*cos(w t + phi) + c on a window that isolates the
        # slow mode (fast modes are dead, slower exciter content is weak)
        lo, hi = np.searchsorted(t, 0.8), np.searchsorted(t, 3.0)
        tw, yw = t[lo:hi], omega[lo:hi]
        yw = yw - yw.mean()
        spec = np.fft.rfft(yw * np.hanning(len(yw)))
        freqs = 2 * np.pi * np.fft.rfftfreq(len(yw), dt)
        w0 = freqs[np.argmax(np.abs(spec[1:])) + 1]

        def model(p):
            a, s, w, phi, c = p
            return a * np.exp(s * tw) * np.cos(w * tw + phi) + c - yw

        fit = least_squares(model, [np.ptp(yw), -1.0, w0, 0.0, 0.0],
                            xtol=1e-14, ftol=1e-14)
        s_fit, w_fit = fit.x[1], abs(fit.x[2])
        lam_fit = complex(s_fit, w_fit)
        dist = np.abs(mr.eigenvalues - lam_fit)
        lam_eig = mr.eigenvalues[np.argmin(dist)]
        assert abs(lam_fit - lam_eig) <= 0.05 * abs(lam_eig), (
            f"fit {lam_fit} vs eigenvalue {lam_eig}")
