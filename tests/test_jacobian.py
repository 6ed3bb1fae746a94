"""The analytic DAE Jacobian against the finite-difference oracle.

Every built-in case is checked at its released equilibrium and at a state
0.2 s after its load step, which covers both grid-forming droop laws, the
machine's exciter saturation and a loaded network away from equilibrium.
"""

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from droope.network import solve_power_flow
from droope.scenario import BUILTINS, load_scenario
from droope.smallsignal import eigen_decompose, linearize
from droope.timedomain import release_dynamics, run_case
from fd_oracle import blocks, dae_jacobian, input_jacobian, relative_error

CASES = sorted(BUILTINS)


def released(name, p_set=None):
    """(scenario, dae, released state) of a built-in case."""
    scen = load_scenario(name)
    if p_set is not None:
        scen = scen.with_gfm_dispatch(p_set)
    dae = scen.build_dae()
    pf = solve_power_flow(scen.network, scen.dispatch_map())
    return scen, dae, release_dynamics(dae, pf)


def assert_matches_oracle(dae, x, y):
    """Check every block against the oracle; return the oracle's blocks
    and input columns."""
    n_x = dae.n_x
    got, oracle = blocks(dae.jacobian(x, y), n_x), blocks(
        dae_jacobian(dae, x, y), n_x)
    for name in got:
        assert relative_error(got[name], oracle[name]) < 1e-6, name
    jac_u, oracle_u = dae.input_jacobian(x, y), input_jacobian(dae, x, y)
    assert relative_error(jac_u[:n_x], oracle_u[:n_x]) < 1e-6, "f_u"
    assert relative_error(jac_u[n_x:], oracle_u[n_x:]) < 1e-6, "g_u"
    return oracle, oracle_u


@pytest.mark.parametrize("name", CASES)
def test_blocks_at_release(name):
    _, dae, state = released(name)
    oracle, oracle_u = assert_matches_oracle(dae, state.x, state.y)

    lin = linearize(dae, state.x, state.y, with_inputs=True)
    lu = scipy.linalg.lu_factor(oracle["g_y"])
    b_oracle = (oracle_u[:dae.n_x]
                - oracle["f_y"] @ scipy.linalg.lu_solve(lu, oracle_u[dae.n_x:]))
    assert lin.input_labels == tuple(dae.input_labels)
    assert relative_error(lin.b_matrix, b_oracle) < 1e-6


@pytest.mark.parametrize("name", CASES)
def test_blocks_mid_transient(name):
    scen, dae, _ = released(name)
    steps = [ev for ev in scen.events if ev.kind == "load_step"]
    for ev in steps:
        dae.apply_load_step(ev.bus, ev.dp, ev.dq)
    state = run_case(scen, t_end=steps[-1].t + 0.2).final_state
    assert np.max(np.abs(dae.f(state.x, state.y))) > 1e-3  # off equilibrium
    assert_matches_oracle(dae, state.x, state.y)


@pytest.mark.parametrize("name", ["3bus-caseA", "9bus-caseC"])
@pytest.mark.parametrize("p_set", [0.1, 0.5, 0.9])
def test_physical_eigenvalues_match_oracle_path(name, p_set):
    _, dae, state = released(name, p_set)
    mr = eigen_decompose(linearize(dae, state.x, state.y,
                                   with_inputs=False).a_sys,
                         state_labels=dae.x_labels)
    oracle = blocks(dae_jacobian(dae, state.x, state.y), dae.n_x)
    a_oracle = oracle["f_x"] - oracle["f_y"] @ np.linalg.solve(
        oracle["g_y"], oracle["g_x"])
    want = np.linalg.eigvals(a_oracle)
    got = mr.eigenvalues
    rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    for i, j in zip(rows, cols):
        if i == mr.reference_index:
            continue
        assert abs(got[i] - want[j]) < 1e-8 * abs(want[j]), (got[i], want[j])


def sharing_devices(dae):
    return [dev for dev in dae.devices if getattr(dev, "sharing", None)]


@pytest.mark.parametrize("name", ["3bus-sharing", "9bus-caseC"])
def test_closed_gate_blocks(name):
    """Past the closing of every gate, the omega_ps rows carry the
    static-droop error, against p_m and against the p_set input."""
    scen, dae, _ = released(name)
    for ev in scen.events:
        dae.apply_load_step(ev.bus, ev.dp, ev.dq)
    tr = run_case(scen, t_end=1.8)
    sharing = sharing_devices(dae)
    armed = {ev.device for ev in tr.events if ev.kind == "gate_armed"}
    assert sharing and armed == {dev.name for dev in sharing}
    for dev in sharing:
        dev.gate_closed = True
    x, y = tr.final_state.x, tr.final_state.y
    rows = [i for i, lbl in enumerate(dae.x_labels)
            if lbl.endswith(".omega_ps")]
    assert np.all(np.abs(x[rows]) > 1e-3)   # the offsets have moved
    oracle, oracle_u = assert_matches_oracle(dae, x, y)
    jac, jac_u = dae.jacobian(x, y), dae.input_jacobian(x, y)
    for i, dev in zip(rows, sharing):
        p_m = dae.x_labels.index(f"{dev.name}.p_m")
        p_set = dae.input_labels.index(f"{dev.name}.p_set")
        assert jac[i, p_m] != 0.0 and jac_u[i, p_set] != 0.0
        assert relative_error(jac[i, :dae.n_x], oracle["f_x"][i]) < 1e-9
        assert relative_error(jac_u[i], oracle_u[i]) < 1e-9


def test_sharing_states_add_two_modes_at_minus_k():
    """With the gates open, each omega_ps state only decays at -k: the
    spectrum is that of the model without them plus two modes at -k."""
    scen, dae, state = released("9bus-caseC")
    k = {dev.sharing.k for dev in sharing_devices(dae)}
    assert len(k) == 1
    k = k.pop()
    lin = linearize(dae, state.x, state.y, with_inputs=False)
    mr = eigen_decompose(lin.a_sys, state_labels=lin.state_labels)
    keep = [i for i, lbl in enumerate(lin.state_labels)
            if not lbl.endswith(".omega_ps")]
    assert len(keep) == len(lin.state_labels) - 2
    want = np.linalg.eigvals(lin.a_sys[np.ix_(keep, keep)])

    at_k = [i for i, lam in enumerate(mr.eigenvalues) if abs(lam + k) < 1e-12]
    assert len(at_k) == 2 and mr.reference_index not in at_k
    for i in at_k:
        assert mr.top_states(i, 1)[0].endswith(".omega_ps")
    got = np.delete(mr.eigenvalues, at_k)
    rows, cols = linear_sum_assignment(np.abs(got[:, None] - want[None, :]))
    assert len(rows) == len(want)
    for i, j in zip(rows, cols):
        assert abs(got[i] - want[j]) < 1e-9 * max(1.0, abs(want[j]))
