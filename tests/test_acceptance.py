"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines alongside the pytest report.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from droope.devices import droop_e_offset
from droope.metrics import (aggregate_inertia, compute_frequency_stats,
                            headroom_table, weighted_frequency)
from droope.scenario import load_scenario
from droope.smallsignal import (eigen_decompose, find_oscillatory_band_track,
                                find_real_to_complex_track, linearize,
                                modal_point)
from droope.system import SystemState
from droope.timedomain import TrapezoidalStepper

from conftest import suffix_within
from fd_oracle import OracleJacobian, blocks, dae_jacobian, relative_error

GFM_LABELS = {"gfm3.delta", "gfm3.p_m"}


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {title}")
        raise
    print(f"[criterion {num}] PASS: {title}")


def _stats(trace, device="sg1"):
    return compute_frequency_stats(trace.t, trace.device_frequency(device),
                                   trace.first_event_time(),
                                   trace.rocof_window)


def _weighted_stats(trace, scen):
    mva = [d.params.rating_mva for d in scen.devices]
    wf = weighted_frequency(
        [trace.device_frequency(d.name) for d in scen.devices], mva)
    return compute_frequency_stats(trace.t, wf, trace.first_event_time(),
                                   trace.rocof_window)


def test_criterion_1_headroom_table():
    with criterion(1, "headroom comparison rows round to the reference "
                      "values in under a second"):
        t0 = time.perf_counter()
        rows = headroom_table(p_set=0.2, delta_f_hz=[0.25, 0.50, 0.75])
        elapsed = time.perf_counter() - t0
        assert [round(r.dp_droop_e, 2) for r in rows] == [0.26, 0.40, 0.50]
        assert [round(r.dp_static, 2) for r in rows] == [0.08, 0.17, 0.25]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_stability_sweep(sweep_3bus):
    with criterion(2, "every physical eigenvalue stays in the left half "
                      "plane across dispatches 0.01..0.99, sweep < 30 s"):
        assert len(sweep_3bus.points) == 99
        for p, mr in zip(sweep_3bus.dispatches, sweep_3bus.points):
            assert mr.reference_index is not None, f"no datum mode at {p}"
            lam_ref = mr.eigenvalues[mr.reference_index]
            assert abs(lam_ref) < 1e-5, f"datum mode |{lam_ref}| at p={p}"
            for i in mr.physical_indices():
                assert mr.eigenvalues[i].real < 0.0, (
                    f"unstable eigenvalue {mr.eigenvalues[i]} at p_set={p}")
        assert sweep_3bus.wall_seconds < 30.0, (
            f"sweep took {sweep_3bus.wall_seconds:.1f}s")


def test_criterion_3_bifurcation_structure(sweep_3bus):
    with criterion(3, "local mode bifurcates from real to oscillatory "
                      "inside [0.3, 0.5]; slow mode stays oscillatory in "
                      "band with monotonically decreasing damping"):
        sw = sweep_3bus
        t12 = find_real_to_complex_track(sw, GFM_LABELS)
        lam12 = sw.track_eigenvalues(t12)
        im = np.abs(lam12.imag)
        assert np.all(im[sw.dispatches <= 0.3] < 1e-6)
        assert np.all(im[sw.dispatches >= 0.5] > 1e-6)
        transition = float(sw.dispatches[np.argmax(im > 1e-6)])
        assert 0.3 <= transition <= 0.5, f"transition at {transition}"

        t56 = find_oscillatory_band_track(sw, GFM_LABELS, band=(0.1, 1.0))
        lam56 = sw.track_eigenvalues(t56)
        freq = np.abs(lam56.imag) / (2 * np.pi)
        assert np.all(freq >= 0.1) and np.all(freq <= 1.0)
        zeta = sw.track_damping(t56)
        assert np.all(zeta > 0)
        violations = int(np.sum(np.diff(zeta) > 1e-9))
        assert violations <= 2, f"{violations} non-monotone damping points"


def test_criterion_4_case_orderings(trace_case_a, trace_case_b, trace_case_c,
                                    sim_timings):
    with criterion(4, "load-step nadir and ROCOF orderings and magnitudes "
                      "for the three dispatch cases, each run < 10 s wall"):
        st = {name: _stats(tr) for name, tr in
              (("A", trace_case_a), ("B", trace_case_b), ("C", trace_case_c))}
        assert st["A"].nadir > st["B"].nadir > st["C"].nadir
        assert st["A"].peak_rocof < st["B"].peak_rocof < st["C"].peak_rocof
        for name, ref in (("A", 59.93), ("B", 59.82), ("C", 59.70)):
            assert abs(st[name].nadir - ref) <= 0.1, (
                f"case {name} nadir {st[name].nadir:.3f} vs {ref}")
        for name, ref in (("A", 0.44), ("B", 0.61), ("C", 0.93)):
            assert abs(st[name].peak_rocof - ref) <= 0.30 * ref, (
                f"case {name} rocof {st[name].peak_rocof:.3f} vs {ref}")
        for case in ("3bus-caseA", "3bus-caseB", "3bus-caseC"):
            assert sim_timings[case] < 10.0, (
                f"{case} took {sim_timings[case]:.1f}s wall")


def test_criterion_5_natural_limiting(trace_case_c):
    with criterion(5, "inverter output never exceeds 1.0 pu device base "
                      "when dispatched at 0.95"):
        p = trace_case_c.device_power("gfm3", base="device")
        assert np.max(p) <= 1.0, f"max output {np.max(p):.5f}"


def test_criterion_6_power_sharing(trace_sharing):
    with criterion(6, "secondary controller reaches the 5% droop share "
                      "within 15 s and lands on the static-droop frequency"):
        tr = trace_sharing
        t_step = tr.first_event_time()
        i15 = int(np.searchsorted(tr.t, t_step + 15.0))
        share = 0.375 / (1.0 + 0.5)          # equal device-pu pickup
        p_target = 0.05 + share
        p = tr.device_power("gfm3", base="device")
        ok = suffix_within(p, p_target, 0.01)
        assert ok[i15], (
            f"share not held from +15s: p={p[i15]:.4f} vs {p_target}")
        # total frequency deviation on the static-droop equilibrium
        f_eq = 60.0 + (-377.0 * 0.05 * share) / (2 * math.pi)
        f = tr.device_frequency("sg1")
        assert abs(f[i15] - f_eq) < 1e-3
        assert abs(f[-1] - f_eq) < 1e-3


def test_criterion_7_nine_bus(traces_9bus):
    with criterion(7, "mesh-network cases settle identically; inverter "
                      "cases reorder nadir/ROCOF as required; aggregate "
                      "inertia reports 3.0/1.0/1.0 s"):
        stats = {}
        inertia = {}
        for name, tr in traces_9bus.items():
            scen = load_scenario(name)
            stats[name] = _weighted_stats(tr, scen)
            inertia[name] = aggregate_inertia(
                [d.params.h if d.kind == "sg" else 0.0 for d in scen.devices],
                [d.params.rating_mva for d in scen.devices])
        settle = [stats[n].settling for n in
                  ("9bus-caseA", "9bus-caseB", "9bus-caseC")]
        assert max(settle) - min(settle) <= 0.02, f"settling spread {settle}"
        c = stats["9bus-caseC"]
        assert abs(c.nadir - c.settling) <= 0.05
        assert stats["9bus-caseB"].peak_rocof > stats["9bus-caseA"].peak_rocof
        assert abs(stats["9bus-caseC"].peak_rocof
                   - stats["9bus-caseA"].peak_rocof) <= 0.15
        assert stats["9bus-caseA"].nadir < stats["9bus-caseB"].nadir
        assert [round(inertia[n], 1) for n in
                ("9bus-caseA", "9bus-caseB", "9bus-caseC")] == [3.0, 1.0, 1.0]


def test_criterion_8_property_suites(case_a_equilibrium, trace_case_a,
                                     trace_case_b, trace_case_c,
                                     trace_sharing, traces_9bus):
    with criterion(8, "droop monotonicity, eigen residuals, Jacobian "
                      "refinement, per-step power balance and integrator "
                      "order hold everywhere"):
        # droop law strictly decreasing over 10^4 random pairs
        rng = np.random.default_rng(2024)
        p_set = rng.uniform(0.0, 1.0, 10000)
        a = rng.uniform(0.0, 1.0, 10000)
        b = rng.uniform(0.0, 1.0, 10000)
        lo, hi = np.minimum(a, b), np.maximum(a, b) + 1e-12
        off_lo = droop_e_offset(p_set, lo, 0.002, 3.0, 377.0)
        off_hi = droop_e_offset(p_set, hi, 0.002, 3.0, 377.0)
        assert np.all(off_lo > off_hi)

        # eigen residuals below 1e-9 at representative operating points
        mr = modal_point(load_scenario("3bus-caseA"), 0.2)
        dae, state = case_a_equilibrium
        lin = linearize(dae, state.x, state.y, with_inputs=False)
        mr2 = eigen_decompose(lin.a_sys, state_labels=lin.state_labels)
        res = np.linalg.norm(
            lin.a_sys @ mr2.right - mr2.right * mr2.eigenvalues[None, :],
            axis=0)
        assert np.max(res) < 1e-9
        assert mr.reference_index is not None

        # analytic Jacobian blocks against the refined difference oracle
        oracle = blocks(dae_jacobian(dae, state.x, state.y), dae.n_x)
        for blk, refined in oracle.items():
            assert relative_error(getattr(lin, blk), refined) < 1e-6, blk

        # power balance on every accepted step of every acceptance run
        runs = [trace_case_a, trace_case_b, trace_case_c, trace_sharing,
                *traces_9bus.values()]
        for tr in runs:
            worst = float(np.max(np.abs(tr.balance_residual)))
            assert worst < 1e-6, f"{tr.name}: balance residual {worst:.2e}"

        # trapezoidal rule shows second-order convergence on dx/dt = -x
        class Decay(OracleJacobian):
            n_x, n_y = 1, 0
            x_labels, y_labels, devices = ["x"], [], []

            def f(self, x, y):
                return -x

            def g(self, x, y):
                return np.zeros(0)

        errs = []
        for dt in (2e-3, 1e-3):
            stepper = TrapezoidalStepper(Decay(), dt, tol=1e-14)
            st = SystemState(np.array([1.0]), np.zeros(0))
            for k in range(int(round(1.0 / dt))):
                st = stepper.step(st, (k + 1) * dt)
            errs.append(abs(st.x[0] - math.exp(-1.0)))
        assert 3.5 < errs[0] / errs[1] < 4.5
