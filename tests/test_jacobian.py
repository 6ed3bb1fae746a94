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
