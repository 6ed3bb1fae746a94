import numpy as np
import pytest

from droope.errors import PowerFlowError, ScenarioError, TopologyError
from droope.network import (Branch, Bus, BusKind, ConstantPowerLoad,
                            NetworkModel, PerUnitBases, build_admittance,
                            power_injections, solve_power_flow)
from droope.scenario import BUILTINS, load_scenario


def _net(buses, branches, loads=()):
    return NetworkModel(buses=tuple(buses), branches=tuple(branches),
                        loads=tuple(loads), bases=PerUnitBases(system_mva=100.0))


def two_bus(x=0.05, r=0.0):
    return _net(
        [Bus(1, BusKind.SLACK, 1.0), Bus(2, BusKind.PQ)],
        [Branch(1, 2, reactance=x, resistance=r)])


def three_bus_chain():
    return _net(
        [Bus(1, BusKind.SLACK, 1.02), Bus(2, BusKind.PQ),
         Bus(3, BusKind.DEVICE, 1.02)],
        [Branch(1, 2, 0.05), Branch(2, 3, 0.05)],
        [ConstantPowerLoad(2, 0.75, -0.25)])


class TestAdmittance:
    def test_two_bus_pure_reactance(self):
        y = build_admittance(two_bus())
        assert y[0, 1] == pytest.approx(0 + 20j)
        assert y[1, 0] == pytest.approx(0 + 20j)
        assert y[0, 0] == pytest.approx(0 - 20j)
        assert y[1, 1] == pytest.approx(0 - 20j)

    def test_three_bus_chain(self):
        y = build_admittance(three_bus_chain())
        assert y[1, 1] == pytest.approx(0 - 40j)
        assert y[0, 1] == pytest.approx(0 + 20j)
        assert y[1, 2] == pytest.approx(0 + 20j)
        assert y[0, 2] == 0

    def test_series_resistance(self):
        y = build_admittance(two_bus(x=0.15, r=0.005))
        assert y[0, 1] == pytest.approx(-1.0 / (0.005 + 0.15j))

    def test_symmetry(self):
        for scen in ("3bus-caseA", "9bus-caseA"):
            net = load_scenario(scen).network
            y = build_admittance(net)
            assert np.array_equal(y, y.T)

    def test_row_sums_zero_without_shunts(self):
        y = build_admittance(load_scenario("9bus-caseA").network)
        assert np.max(np.abs(y.sum(axis=1))) < 1e-12

    def test_disconnected_raises(self):
        net = _net(
            [Bus(1, BusKind.SLACK, 1.0), Bus(2, BusKind.PQ),
             Bus(3, BusKind.PQ), Bus(4, BusKind.PQ)],
            [Branch(1, 2, 0.1), Branch(3, 4, 0.1)])
        with pytest.raises(TopologyError):
            build_admittance(net)

    def test_branch_validation(self):
        with pytest.raises(ScenarioError):
            Branch(1, 1, 0.1)
        with pytest.raises(ScenarioError):
            Branch(1, 2, -0.1)


# -- independent Gauss-Seidel oracle ----------------------------------------

def gauss_seidel_3bus(p_gfm_sys, v1=1.02, v3=1.02, load=complex(0.75, -0.25),
                      iters=100000, tol=1e-12):
    y = build_admittance(three_bus_chain())
    v = np.array([v1 + 0j, 1.0 + 0j, v3 + 0j])
    s2 = -load
    for _ in range(iters):
        v_old = v.copy()
        v[1] = (np.conj(s2 / v[1]) - (y[1, 0] * v[0] + y[1, 2] * v[2])) / y[1, 1]
        q3 = float(np.imag(v[2] * np.conj(y[2] @ v)))
        vt = (np.conj(complex(p_gfm_sys, q3) / v[2])
              - (y[2, 0] * v[0] + y[2, 1] * v[1])) / y[2, 2]
        v[2] = v3 * vt / abs(vt)
        if np.max(np.abs(v - v_old)) < tol:
            break
    return v


def power_flow_by_blocks(network, dispatch, tol=1e-8):
    """Newton-Raphson power flow whose Jacobian is assembled from four
    ``np.ix_`` gathers by ``np.block``; otherwise ``solve_power_flow``'s
    arithmetic.  Returns (v, theta, iterations)."""
    n = network.n_bus
    ybus = build_admittance(network)
    kinds = [b.kind for b in network.buses]
    pq = [i for i in range(n) if kinds[i] is BusKind.PQ]
    non_slack = [i for i in range(n) if i != network.slack_index]
    v = np.array([b.voltage_setpoint if b.kind is not BusKind.PQ else 1.0
                  for b in network.buses])
    theta = np.zeros(n)
    s_spec = -network.load_vector()
    for bus_id, p in dispatch.items():
        s_spec[network.bus_index(bus_id)] += p

    def mismatch(v, theta):
        ds = s_spec - power_injections(ybus, v, theta)
        return np.concatenate([ds.real[non_slack], ds.imag[pq]])

    f = mismatch(v, theta)
    it = 0
    while np.max(np.abs(f)) >= tol:
        vph = v * np.exp(1j * theta)
        ibus = ybus @ vph
        dv = np.diag(vph)
        dvn = np.diag(vph / v)
        di = np.diag(ibus)
        ds_dva = 1j * dv @ np.conj(di - ybus @ dv)
        ds_dvm = dv @ np.conj(ybus @ dvn) + np.conj(di) @ dvn
        jac = np.block([
            [ds_dva.real[np.ix_(non_slack, non_slack)],
             ds_dvm.real[np.ix_(non_slack, pq)]],
            [ds_dva.imag[np.ix_(pq, non_slack)],
             ds_dvm.imag[np.ix_(pq, pq)]],
        ])
        dx = np.linalg.solve(jac, f)
        theta[non_slack] += dx[:len(non_slack)]
        v[pq] += dx[len(non_slack):]
        f = mismatch(v, theta)
        it += 1
    return v, theta, it


class TestPowerFlow:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_jacobian_gather_matches_block_assembly(self, name):
        # the one-gather Jacobian holds the same entries as the block one
        scen = load_scenario(name)
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        v, theta, it = power_flow_by_blocks(scen.network, scen.dispatch_map())
        assert np.array_equal(pf.v, v)
        assert np.array_equal(pf.theta, theta)
        assert pf.iterations == it >= 2

    def test_flat_no_load(self):
        net = _net(
            [Bus(1, BusKind.SLACK, 1.0), Bus(2, BusKind.PQ),
             Bus(3, BusKind.DEVICE, 1.0)],
            [Branch(1, 2, 0.05), Branch(2, 3, 0.05)])
        pf = solve_power_flow(net, {3: 0.0})
        assert np.allclose(pf.v, 1.0, atol=1e-12)
        assert np.allclose(pf.theta, 0.0, atol=1e-12)
        assert pf.injections[1] == pytest.approx(0.0, abs=1e-10)

    def test_case_b_slack_balance(self):
        # lossless X-only network: slack carries load minus inverter dispatch
        scen = load_scenario("3bus-caseB")
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        assert pf.injections[1].real == pytest.approx(0.50, abs=1e-8)

    def test_case_b_against_gauss_seidel_oracle(self):
        scen = load_scenario("3bus-caseB")
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        # frozen oracle output (hand-run Gauss-Seidel, 1e-12 sweep tolerance)
        assert pf.v[1] == pytest.approx(1.025910196224, abs=1e-6)
        assert pf.theta[1] == pytest.approx(-0.023893062167, abs=1e-6)
        assert pf.theta[2] == pytest.approx(-0.011947383616, abs=1e-6)
        v = gauss_seidel_3bus(0.25)
        assert pf.v[1] == pytest.approx(abs(v[1]), abs=1e-6)
        assert pf.theta[1] == pytest.approx(np.angle(v[1]), abs=1e-6)
        assert pf.theta[2] == pytest.approx(np.angle(v[2]), abs=1e-6)

    @pytest.mark.parametrize("name", ["3bus-caseA", "3bus-caseC", "9bus-caseA"])
    def test_resubstitution(self, name):
        scen = load_scenario(name)
        net = scen.network
        pf = solve_power_flow(net, scen.dispatch_map())
        s = power_injections(build_admittance(net), pf.v, pf.theta)
        s_load = net.load_vector()
        dispatch = scen.dispatch_map()
        for i, b in enumerate(net.buses):
            spec = -s_load[i] + dispatch.get(b.id, 0.0)
            if b.kind is BusKind.PQ:
                assert abs(s[i] - spec) < 1e-8
            elif i != net.slack_index:
                assert abs(s[i].real - spec.real) < 1e-8

    def test_lossless_balance(self):
        scen = load_scenario("3bus-caseA")
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        gen = sum(s.real for s in pf.injections.values())
        assert gen - 0.75 == pytest.approx(0.0, abs=1e-8)

    def test_nine_bus_converges_with_losses(self):
        scen = load_scenario("9bus-caseA")
        pf = solve_power_flow(scen.network, scen.dispatch_map())
        ybus = build_admittance(scen.network)
        losses = power_injections(ybus, pf.v, pf.theta).real.sum()
        assert losses > 0
        gen = sum(s.real for s in pf.injections.values())
        assert gen == pytest.approx(3.15 + losses, abs=1e-8)
        # slack machine lands near its nameplate dispatch
        assert pf.injections[2].real * 100 == pytest.approx(163.0, abs=8.0)

    def test_divergence_error(self):
        net = _net(
            [Bus(1, BusKind.SLACK, 1.0), Bus(2, BusKind.PQ)],
            [Branch(1, 2, 0.5)],
            [ConstantPowerLoad(2, 40.0, 10.0)])
        with pytest.raises(PowerFlowError) as err:
            solve_power_flow(net, {})
        assert err.value.mismatch is not None

    def test_missing_voltage_setpoint(self):
        net = _net(
            [Bus(1, BusKind.SLACK, 1.0), Bus(2, BusKind.DEVICE)],
            [Branch(1, 2, 0.05)])
        with pytest.raises(ScenarioError):
            solve_power_flow(net, {2: 0.1})


class TestModelValidation:
    def test_one_slack_required(self):
        with pytest.raises(ScenarioError):
            _net([Bus(1, BusKind.PQ), Bus(2, BusKind.PQ)], [Branch(1, 2, 0.1)])

    def test_unknown_bus_in_branch(self):
        with pytest.raises(ScenarioError):
            _net([Bus(1, BusKind.SLACK, 1.0)], [Branch(1, 9, 0.1)])

    def test_load_vector_accumulates(self):
        net = _net(
            [Bus(1, BusKind.SLACK, 1.0), Bus(2, BusKind.PQ)],
            [Branch(1, 2, 0.1)],
            [ConstantPowerLoad(2, 0.5, 0.1), ConstantPowerLoad(2, 0.25, -0.2)])
        assert net.load_vector()[1] == pytest.approx(0.75 - 0.1j)
