"""Each benchmark check passes on good outputs and fails on a doctored one.

    python3 -m pytest benchmark/test_checks.py
"""

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from droope import dispatch_sweep, load_scenario, run_case  # noqa: E402

# Last-sample frequencies (sg1, gfm3) of the full-length runs.
MEASURED_SETTLED_HZ = {
    "3bus-caseA": (59.94395079, 59.94395094),
    "3bus-caseB": (59.87755588, 59.87755592),
    "3bus-caseC": (59.81721531, 59.81721535),
}


@pytest.fixture(scope="module")
def scens():
    names = [*checks.NADIR_REF_HZ, "3bus-sharing", "9bus-caseC"]
    return {n: load_scenario(n) for n in names}


@pytest.fixture(scope="module")
def short_trace():
    return run_case(load_scenario("3bus-caseA"), t_end=1.5)


@pytest.fixture(scope="module")
def sweep():
    return dispatch_sweep(load_scenario("3bus-caseA"), workloads.SWEEP_GRID)


def summary(name, final_hz, pickup_pu, max_p=0.5, nadir=59.9):
    return checks.CaseSummary(name=name, final_hz=dict(final_hz),
                              pickup_pu=dict(pickup_pu),
                              max_p_pu={k: max_p for k in final_hz},
                              nadir_hz=nadir, nonfinite=0, worst_balance=1e-9)


def good_loadstep(scens):
    out = {}
    for name, ref in checks.NADIR_REF_HZ.items():
        f = checks.loadstep_settled_hz(scens[name])
        out[name] = summary(name, {"sg1": f, "gfm3": f},
                            {"sg1": 0.05, "gfm3": 0.05},
                            max_p=0.99 if name.endswith("C") else 0.6,
                            nadir=ref + 0.01)
    return out


def good_sharing(scens):
    share, f_eq = checks.static_share(scens["3bus-sharing"])
    three = summary("3bus-sharing", {"sg1": f_eq, "gfm3": f_eq},
                    {"sg1": share, "gfm3": share})
    nine = summary("9bus-caseC", {g: 59.83 for g in ("gen1", "gen2", "gen3")},
                   {g: 0.05 for g in ("gen1", "gen2", "gen3")})
    return {"3bus-sharing": three, "9bus-caseC": nine}


def test_analytic_settled_frequency_matches_full_runs(scens):
    for name, finals in MEASURED_SETTLED_HZ.items():
        f = checks.loadstep_settled_hz(scens[name])
        assert all(abs(f - m) < 1e-6 for m in finals), (name, f, finals)


def test_loadstep_checks_pass_on_good_outputs(scens):
    assert checks.loadstep_faults(good_loadstep(scens), scens) == []


@pytest.mark.parametrize("doctor, expect", [
    (lambda s: s["3bus-caseB"].final_hz.update(sg1=s["3bus-caseB"]
                                               .final_hz["sg1"] + 1e-4),
     "analytic steady state"),
    (lambda s: setattr(s["3bus-caseA"], "nadir_hz", 59.70), "ordering"),
    (lambda s: setattr(s["3bus-caseC"], "nadir_hz", 59.55), "paper"),
    (lambda s: s["3bus-caseC"].max_p_pu.update(gfm3=1.0001), "peaks"),
    (lambda s: setattr(s["3bus-caseA"], "worst_balance", 2e-6), "balance"),
    (lambda s: setattr(s["3bus-caseA"], "nonfinite", 1), "non-finite"),
])
def test_loadstep_checks_fail_on_doctored_outputs(scens, doctor, expect):
    sums = good_loadstep(scens)
    doctor(sums)
    faults = checks.loadstep_faults(sums, scens)
    assert any(expect in f for f in faults), faults


def test_summary_of_a_real_trace_passes(short_trace):
    s = checks.summarize(short_trace, nadir_hz=59.95)
    assert s.nonfinite == 0
    assert checks.trace_faults(s) == []


def test_summary_sees_a_nan_and_a_balance_breach(short_trace):
    tr = copy.copy(short_trace)
    tr.v = short_trace.v.copy()
    tr.v[700, 1] = np.nan
    tr.balance_residual = short_trace.balance_residual.copy()
    tr.balance_residual[1200] = -3e-6
    faults = checks.trace_faults(checks.summarize(tr, nadir_hz=59.95))
    assert any("non-finite" in f for f in faults), faults
    assert any("balance" in f for f in faults), faults


def test_sharing_checks_pass_on_good_outputs(scens):
    share, f_eq = checks.static_share(scens["3bus-sharing"])
    assert share == pytest.approx(0.25)
    assert f_eq == pytest.approx(60 - 377 * 0.05 * 0.25 / (2 * np.pi))
    assert checks.sharing_faults(good_sharing(scens), scens) == []


@pytest.mark.parametrize("doctor, expect", [
    (lambda s: s["3bus-sharing"].final_hz.update(gfm3=59.251),
     "static-droop frequency"),
    (lambda s: s["3bus-sharing"].pickup_pu.update(gfm3=0.249), "droop share"),
    (lambda s: s["9bus-caseC"].pickup_pu.update(gen3=0.0501), "unequal"),
    (lambda s: s["9bus-caseC"].final_hz.update(gen1=59.8301),
     "different frequencies"),
])
def test_sharing_checks_fail_on_doctored_outputs(scens, doctor, expect):
    sums = good_sharing(scens)
    doctor(sums)
    faults = checks.sharing_faults(sums, scens)
    assert any(expect in f for f in faults), faults


def sweep_faults(sw):
    return checks.sweep_faults("3bus-caseA", sw, workloads.SWEEP_GRID, None,
                               transition_band=(0.3, 0.5))


def doctored(sw, index, **changes):
    out = copy.copy(sw)
    out.points = list(sw.points)
    out.points[index] = dataclasses.replace(sw.points[index], **changes)
    return out


def test_sweep_checks_pass_on_the_real_sweep(sweep):
    assert sweep_faults(sweep) == []


def test_flipped_eigenvalue_sign_is_unstable(sweep):
    mr = sweep.points[40]
    lam = mr.eigenvalues.copy()
    k = next(i for i in mr.physical_indices() if lam[i].imag == 0)
    lam[k] = -lam[k]
    faults = sweep_faults(doctored(sweep, 40, eigenvalues=lam))
    assert any("unstable" in f for f in faults), faults


def test_broken_conjugate_pair(sweep):
    lam = sweep.points[10].eigenvalues.copy()
    k = int(np.argmax(lam.imag))
    lam[k] += 1e-3j
    faults = sweep_faults(doctored(sweep, 10, eigenvalues=lam))
    assert any("conjugate" in f for f in faults), faults


def test_missing_datum_mode(sweep):
    faults = sweep_faults(doctored(sweep, 5, reference_index=None))
    assert any("datum" in f for f in faults), faults


def test_local_mode_that_never_turns_complex(sweep):
    out = copy.copy(sweep)
    out.points = [dataclasses.replace(mr, eigenvalues=mr.eigenvalues.real
                                      + 0j) for mr in sweep.points]
    faults = sweep_faults(out)
    assert any("local mode" in f for f in faults), faults


def test_unexpected_failed_point(sweep):
    out = copy.copy(sweep)
    out.points = sweep.points[1:]
    out.dispatches = sweep.dispatches[1:]
    out.failures = [(0.01, "equilibrium refinement stalled")]
    assert any("failed" in f for f in sweep_faults(out))
    assert checks.sweep_faults("9bus-caseC", out, workloads.SWEEP_GRID,
                               0.05) == []


def test_trace_identity(sweep):
    a = workloads.separate_a_sys(load_scenario("3bus-caseA"), 0.5)
    assert checks.trace_identity_faults("3bus-caseA", sweep, {0.5: a}) == []
    shifted = a + 1e-3 * np.eye(len(a))
    faults = checks.trace_identity_faults("3bus-caseA", sweep, {0.5: shifted})
    assert any("trace" in f for f in faults), faults
