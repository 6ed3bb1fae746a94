"""``PowerSystemDae.f`` and ``g`` against the real-arithmetic reference
passes of ``fd_oracle``: at the released point, at random states around
it, with every power-sharing gate closed, and after a load step."""

import numpy as np
import pytest

from droope.network import solve_power_flow
from droope.scenario import BUILTINS, load_scenario
from droope.timedomain import release_dynamics
from fd_oracle import reference_f, reference_g, relative_error

TOL = 1e-12


def assert_matches_reference(dae, x, y):
    assert relative_error(dae.f(x, y), reference_f(dae, x, y)) < TOL
    assert relative_error(dae.g(x, y), reference_g(dae, x, y)) < TOL


def perturbed(state, dae, rng, count=5):
    """States around ``state``: angles, powers and voltages off by about
    1e-2, speeds (rad/s) by about 1."""
    scale = np.where(np.abs(state.x) > 10.0, 1.0, 1e-2)
    for _ in range(count):
        yield (state.x + scale * rng.normal(size=dae.n_x),
               state.y + 1e-2 * rng.normal(size=dae.n_y))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_residuals_match_reference(name):
    scen = load_scenario(name)
    dae = scen.build_dae()
    state = release_dynamics(
        dae, solve_power_flow(scen.network, scen.dispatch_map()))
    rng = np.random.default_rng(9)
    assert_matches_reference(dae, state.x, state.y)
    for x, y in perturbed(state, dae, rng):
        assert_matches_reference(dae, x, y)

    sharing = [dev for dev in dae.devices
               if getattr(dev, "sharing", None) is not None]
    for dev in sharing:
        dev.gate_closed = True
    for x, y in perturbed(state, dae, rng, count=2 if sharing else 0):
        assert_matches_reference(dae, x, y)

    # the reference reads p_load/q_load, the pass reads s_load
    s_before = dae.s_load.copy()
    for ev in scen.events:
        dae.apply_load_step(ev.bus, ev.dp, ev.dq)
    assert not np.array_equal(dae.s_load, s_before)
    assert np.array_equal(dae.s_load, dae.p_load + 1j * dae.q_load)
    assert_matches_reference(dae, state.x, state.y)
    for x, y in perturbed(state, dae, rng):
        assert_matches_reference(dae, x, y)


@pytest.mark.parametrize("name", ["3bus-caseB", "9bus-caseC"])
def test_g_follows_loads_on_unloaded_buses(name):
    # g subtracts a load current only where the load is nonzero, read anew
    # on every call: a bus that had no load must count once it has one
    scen = load_scenario(name)
    dae = scen.build_dae()
    state = release_dynamics(
        dae, solve_power_flow(scen.network, scen.dispatch_map()))
    empty = [b.id for i, b in enumerate(dae.network.buses)
             if dae.s_load[i] == 0]
    assert empty
    before = dae.g(state.x, state.y)
    dae.apply_load_step(empty[0], 0.1, 0.02)
    assert not np.array_equal(dae.g(state.x, state.y), before)
    assert_matches_reference(dae, state.x, state.y)
    i = dae.network.bus_index(empty[-1])
    dae.p_load[i] = 0.3
    assert dae.s_load[i] == 0.3
    rng = np.random.default_rng(15)
    assert_matches_reference(dae, state.x, state.y)
    for x, y in perturbed(state, dae, rng, count=2):
        assert_matches_reference(dae, x, y)
