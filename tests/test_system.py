import numpy as np
import pytest

from droope.devices import (GfmDevice, GfmDroopEParams, SgDevice, SgParams,
                            network_to_dq)
from droope.errors import AlgebraicSolveError
from droope.network import (Branch, Bus, BusKind, NetworkModel, PerUnitBases,
                            solve_power_flow)
from droope.scenario import load_scenario
from droope.system import PowerSystemDae, find_equilibrium
from droope.timedomain import TrapezoidalStepper, release_dynamics


def test_open_circuit_terminal_equals_internal_voltage():
    net = NetworkModel(
        buses=(Bus(1, BusKind.SLACK, 1.02),), branches=(), loads=(),
        bases=PerUnitBases(system_mva=100.0))
    gfm = GfmDevice("g", 1, GfmDroopEParams(rating_mva=100.0), 377.0, None)
    gfm.e_d, gfm.e_q = 0.0, 1.02
    dae = PowerSystemDae(net, [gfm])
    x = np.array([0.1, 0.0])
    # the open terminal carries no current and sits at the internal EMF
    y = np.array([0.1, 1.02, 0.0, 0.0])
    assert np.max(np.abs(dae.g(x, y))) < 1e-12


def test_two_bus_phasor_divider_oracle():
    # stiff machine at bus 1 approximates an ideal source; the direct
    # complex voltage-divider arithmetic must satisfy the algebraic set
    net = NetworkModel(
        buses=(Bus(1, BusKind.SLACK, 1.0), Bus(2, BusKind.DEVICE, 1.02)),
        branches=(Branch(1, 2, 0.05),), loads=(),
        bases=PerUnitBases(system_mva=100.0))
    sg = SgDevice("ib", 1, SgParams(x_d_p=1e-6, x_q_p=1e-6, rating_mva=100.0),
                  377.0)
    gfm = GfmDevice("g", 2, GfmDroopEParams(rating_mva=100.0, x_gfm=0.15,
                                            r_gfm=0.005), 377.0, 0.0)
    gfm.e_d, gfm.e_q = 0.0, 1.02
    dae = PowerSystemDae(net, [sg, gfm])
    x = np.zeros(11)
    x[0], x[1], x[2], x[3] = 0.0, 377.0, 1.0, 0.0   # E' = 1.0 at angle 0
    x[9], x[10] = 0.1, 0.0                           # inverter angle 0.1

    e_gfm = 1.02 * np.exp(1j * 0.1)
    z_total = 0.005 + 1j * (0.15 + 0.05 + 1e-6)
    i_oracle = (e_gfm - 1.0) / z_total
    v1_oracle = 1.0 + 1e-6j * i_oracle   # the machine draws -i_oracle
    v2_oracle = e_gfm - (0.005 + 0.15j) * i_oracle
    v_ph = np.array([v1_oracle, v2_oracle])
    y = np.concatenate([np.angle(v_ph), np.abs(v_ph),
                        network_to_dq(-i_oracle, x[0]),
                        network_to_dq(i_oracle, x[9])])
    assert np.max(np.abs(dae.g(x, y))) < 1e-12
    # injected power agrees with the reactance-dominated estimate
    p = (e_gfm * np.conj(i_oracle)).real
    assert p == pytest.approx(1.02 * np.sin(0.1) / 0.2, abs=0.03)


def test_current_balance_below_tolerance(case_a_equilibrium):
    dae, state = case_a_equilibrium
    res = dae.g(state.x, state.y)
    assert np.max(np.abs(res)) < 1e-9


def test_constant_power_load_satisfied(case_a_equilibrium):
    dae, state = case_a_equilibrium
    theta, v, _ = dae.split_y(state.y)
    # net power flowing out of bus 2 equals the specified load
    vph = v * np.exp(1j * theta)
    s_net = vph * np.conj(dae.ybus @ vph)
    assert -s_net[1] == pytest.approx(0.75 - 0.25j, abs=1e-9)


def test_settled_trace_satisfies_post_step_network(trace_case_a):
    state = trace_case_a.final_state
    scen = load_scenario("3bus-caseA")
    dae = scen.build_dae()
    # release fixes the inverter's internal voltage constants; the trace's
    # settled point is only consistent with an identically released model
    release_dynamics(dae, solve_power_flow(scen.network, scen.dispatch_map()))
    dae.apply_load_step(2, 0.075, 0.025)
    # the trace's own step Newton ran at 1e-9 residual
    assert np.max(np.abs(dae.g(state.x, state.y))) < 1e-9


def test_power_balance_residual_at_equilibrium(case_a_equilibrium):
    dae, state = case_a_equilibrium
    assert abs(dae.power_balance_residual(state.x, state.y)) < 1e-9


def test_power_balance_residual_matches_phasor_form(case_a_equilibrium):
    dae, state = case_a_equilibrium
    rng = np.random.default_rng(5)
    x = state.x + rng.normal(scale=1e-2, size=state.x.shape)
    y = state.y + rng.normal(scale=1e-2, size=state.y.shape)
    theta, v, idq = dae.split_y(y)
    vph = v * np.exp(1j * theta)
    losses = np.sum((vph * np.conj(dae.ybus @ vph)).real)
    gen = 0.0
    for k, b in enumerate(dae.dev_bus):
        i_ph = complex(idq[2 * k], idq[2 * k + 1]) * np.exp(
            1j * (dae.device_state(x, k)[0] - 0.5 * np.pi))
        gen += dae.dev_ratio[k] * (vph[b] * np.conj(i_ph)).real
    expected = gen - np.sum(dae.p_load) - losses
    assert dae.power_balance_residual(x, y) == pytest.approx(expected,
                                                             abs=1e-13)


def test_find_equilibrium_pins_gauge(case_a_equilibrium):
    dae, state = case_a_equilibrium
    x, y = find_equilibrium(dae, state.x, state.y)
    assert np.max(np.abs(dae.full_residual(x, y))) < 1e-10
    assert x[0] == pytest.approx(state.x[0], abs=1e-8)


def test_algebraic_collapse_raises():
    scen = load_scenario("3bus-caseA")
    dae = scen.build_dae()
    pf = solve_power_flow(scen.network, scen.dispatch_map())
    state = release_dynamics(dae, pf)
    dae.apply_load_step(2, 60.0, 20.0)  # far beyond any deliverable power
    with pytest.raises(AlgebraicSolveError):
        TrapezoidalStepper(dae, 1e-3).step(state, 1e-3)


def test_state_labels_follow_declared_order():
    scen = load_scenario("3bus-caseA")
    dae = scen.build_dae()
    assert dae.x_labels == [
        "sg1.delta", "sg1.omega", "sg1.eq_p", "sg1.ed_p", "sg1.e_fd",
        "sg1.v_r", "sg1.r_f", "sg1.p_m", "sg1.p_sv",
        "gfm3.delta", "gfm3.p_m"]
    assert dae.y_labels[:3] == ["theta.1", "theta.2", "theta.3"]
