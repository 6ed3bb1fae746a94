import math

import numpy as np
import pytest

from droope.devices import (GfmDevice, GfmDroopEParams, GfmStaticParams,
                            PowerSharingSpec, SgDevice, SgParams,
                            droop_e_offset, network_to_dq)
from droope.errors import ScenarioError
from droope.scenario import load_scenario

W_B = 377.0


def gfm_derivatives(params, p_set, state, i_d, i_q, sharing=None,
                    gate_closed=False):
    """Derivatives of an inverter dispatched at ``p_set`` at a unit
    terminal voltage at angle 0."""
    dev = GfmDevice("g", 1, params, W_B, p_set, sharing)
    dev.gate_closed = gate_closed
    return dev.derivatives(np.asarray(state), 1.0, 0.0, i_d, i_q)


def sg_derivatives(state, p_set, v_ref):
    """Derivatives of a default machine at a unit terminal voltage at
    angle 0 carrying no current."""
    dev = SgDevice("g", 1, SgParams(), W_B)
    dev.p_set, dev.v_ref = p_set, v_ref
    return dev.derivatives(state, 1.0, 0.0, 0.0, 0.0)


class TestDroopELaw:
    def test_zero_at_setpoint(self):
        assert droop_e_offset(0.2, 0.2, 0.002, 3.0, W_B) == 0.0

    def test_half_pu_pickup_is_three_quarter_hz(self):
        off = droop_e_offset(0.2, 0.696, 0.002, 3.0, W_B)
        assert off == pytest.approx(-4.70997, abs=1e-4)
        assert off / (2 * math.pi) == pytest.approx(-0.75, abs=1e-3)

    def test_quarter_hz_ray(self):
        off = droop_e_offset(0.2, 0.454, 0.002, 3.0, W_B)
        assert off == pytest.approx(-1.56973, abs=1e-4)
        assert off / (2 * math.pi) == pytest.approx(-0.25, abs=1e-3)

    def test_formula_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p_set, p_m = rng.uniform(0, 1, 2)
            expected = W_B * 0.002 * (math.exp(3 * p_set) - math.exp(3 * p_m))
            assert droop_e_offset(p_set, p_m, 0.002, 3.0, W_B) == pytest.approx(
                expected, rel=1e-14)

    def test_local_slope_five_percent_at_high_dispatch(self):
        assert GfmDroopEParams(alpha=0.002, beta=3.0).slope(0.73) == (
            pytest.approx(0.0536, abs=2e-4))

    def test_monotone_decreasing_in_power(self):
        rng = np.random.default_rng(7)
        p_set = rng.uniform(0, 1, 2000)
        a, b = rng.uniform(0, 1, (2, 2000))
        lo, hi = np.minimum(a, b), np.maximum(a, b) + 1e-9
        assert np.all(droop_e_offset(p_set, lo, 0.002, 3.0, W_B)
                      > droop_e_offset(p_set, hi, 0.002, 3.0, W_B))

    def test_first_order_match_with_equivalent_static_droop(self):
        # complex-step derivative of the exponential law at the setpoint
        # against the tangent static droop, to machine precision
        for p_set in (0.05, 0.2, 0.5, 0.73, 0.95):
            h = 1e-200
            slope = np.imag(droop_e_offset(p_set, p_set + 1j * h, 0.002, 3.0,
                                           W_B)) / h
            d_eq = GfmDroopEParams(alpha=0.002, beta=3.0).slope(p_set)
            static_slope = -W_B * d_eq
            assert abs(slope - static_slope) <= 1e-12 * abs(static_slope)


class TestStaticDroop:
    def test_quarter_pu_is_three_quarter_hz(self):
        off = GfmStaticParams(droop=0.05).offset(0.25, 0.0, W_B)
        assert off == pytest.approx(4.7125, abs=1e-6)
        assert off / (2 * math.pi) == pytest.approx(0.75, abs=1e-3)

    def test_zero_gain_is_feasible(self):
        st = np.array([0.3, 0.6])
        params = GfmStaticParams(droop=0.0)
        d = gfm_derivatives(params, 0.1, st, 0.1, 0.1)
        # off the dispatch point, the zero-gain law's offset is still zero
        assert d[0] == params.offset(0.1, st[1], W_B) == 0.0

    def test_small_gain(self):
        assert GfmStaticParams(droop=0.01).offset(0.1, 0.0, W_B) / W_B == (
            pytest.approx(0.001))


class TestSgModel:
    def test_swing_acceleration(self):
        # dp = p_m - p_e = 0.1 with H = 3.01 accelerates at 6.2625 rad/s^2
        state = np.array([0.0, 377.0, 1.0, 0.0, 1.0, 1.0, 0.018, 0.6, 0.6])
        # no current -> p_e = 0, so set p_m = 0.1 via the state
        state[7] = 0.1
        d = sg_derivatives(state, p_set=0.1, v_ref=1.0)
        assert d[1] == pytest.approx(0.1 * 377.0 / (2 * 3.01), rel=1e-12)

    def test_governor_response(self):
        params = SgParams()
        omega = 377.0 * (1 + 0.00125)
        state = np.array([0.0, omega, 1.0, 0.0, 1.0, 1.0, 0.018, 0.5, 0.5])
        d = sg_derivatives(state, p_set=0.5, v_ref=1.0)
        assert d[8] == pytest.approx(-0.025 / params.t_sv, rel=1e-9)

    def test_initialization_is_equilibrium(self):
        dev = SgDevice("g", 1, SgParams(), W_B)
        v_ph = 1.02 * np.exp(0.05j)
        s_dev = 0.7 + 0.2j
        state = dev.initialize(v_ph, s_dev)
        i_ph = np.conj(s_dev / v_ph)
        i_d, i_q = network_to_dq(i_ph, state[0])
        v_mag, theta = abs(v_ph), float(np.angle(v_ph))
        res = dev.stator_residual(state, v_mag, theta, i_d, i_q)
        assert max(abs(r) for r in res) < 1e-12
        d = dev.derivatives(state, v_mag, theta, i_d, i_q)
        assert np.max(np.abs(d)) < 1e-12


class TestGfmModel:
    def test_equilibrium_derivatives(self):
        params = GfmDroopEParams()
        # delta = pi/2, theta = 0 puts all power on the d axis
        state = np.array([0.5 * math.pi, 0.2])
        d = gfm_derivatives(params, 0.2, state, 0.2, 0.0)
        # the law's offset at its dispatch point
        assert d[0] == params.offset(0.2, 0.2, W_B) == 0.0
        assert d[1] == pytest.approx(0.0, abs=1e-15)

    def test_filter_response(self):
        state = np.array([0.5 * math.pi, 0.2])
        d = gfm_derivatives(GfmDroopEParams(), 0.2, state, 0.3, 0.0)
        assert d[1] == pytest.approx(0.1 / 0.0167, rel=1e-9)
        assert d[0] == pytest.approx(0.0, abs=1e-12)

    def test_initialization_matches_dispatch(self):
        dev = GfmDevice("g", 1, GfmDroopEParams(x_gfm=0.30, r_gfm=0.01), W_B,
                        0.35)
        v_ph = 1.02 * np.exp(-0.02j)
        s_dev = 0.35 - 0.1j
        state = dev.initialize(v_ph, s_dev)
        assert dev.e_d == 0.0
        assert state[1] == pytest.approx(0.35)
        i_d, i_q = network_to_dq(np.conj(s_dev / v_ph), state[0])
        res = dev.stator_residual(state, abs(v_ph), float(np.angle(v_ph)),
                                  i_d, i_q)
        assert max(abs(r) for r in res) < 1e-12


class TestEmfInterface:
    """``network_to_dq`` against the explicit rotation by ``delta - pi/2``."""

    def test_rotation_identity_at_quarter_turn(self):
        assert network_to_dq(0.3 + 0.4j, 0.5 * math.pi) == pytest.approx(
            (0.3, 0.4))

    def test_round_trip(self):
        ph = 0.8 * np.exp(0.37j)
        f_d, f_q = network_to_dq(ph, 1.1)
        assert complex(f_d, f_q) * np.exp(1j * (1.1 - 0.5 * math.pi)) == (
            pytest.approx(ph))


class TestPowerSharing:
    """The gate, checked at step boundaries, and the omega_ps state row.

    At ``delta = pi/2`` on a unit terminal voltage at angle 0 the terminal
    power is ``i_d``, so ``dp/dt = (i_d - p_m) / t_fil``.
    """

    SPEC = PowerSharingSpec(enabled=True)

    def sharing_device(self):
        return GfmDevice("g", 1, GfmDroopEParams(), W_B, 0.2, self.SPEC)

    @staticmethod
    def check(dev, p_m, dp_dt):
        i_d = p_m + dp_dt * dev.params.t_fil
        return dev.update_power_sharing(np.array([0.5 * math.pi, p_m, 0.0]),
                                        1.0, 0.0, i_d, 0.0)

    def test_quiescent_gate_stays_open(self):
        dev = self.sharing_device()
        assert dev.n_states == 3
        assert not any(self.check(dev, 0.2, 0.0) for _ in range(10))
        assert not dev.gate_closed
        assert dev.p_ref == 0.2
        # the open gate leaves only the decay, which holds omega_ps at 0
        d = gfm_derivatives(dev.params, 0.2, [0.5 * math.pi, 0.2, 0.0], 0.2,
                            0.0, self.SPEC)
        assert d[2] == 0.0
        d = gfm_derivatives(dev.params, 0.2, [0.5 * math.pi, 0.2, 0.5], 0.2,
                            0.0, self.SPEC)
        assert d[2] == pytest.approx(-0.3 * 0.5, rel=1e-15)
        assert d[0] == pytest.approx(0.5, rel=1e-12)

    def test_closed_gate_integrates_error(self):
        state = [0.5 * math.pi, 0.45, 0.5]
        d = gfm_derivatives(GfmDroopEParams(), 0.2, state, 0.45, 0.0,
                            self.SPEC, gate_closed=True)
        # a quarter-pu pickup on the 5 % static droop is -4.7125 rad/s
        omega_5 = W_B * 0.05 * (0.2 - 0.45)
        assert omega_5 == pytest.approx(-4.7125)
        omega_delta = droop_e_offset(0.2, 0.45, 0.002, 3.0, W_B)
        assert d[2] == pytest.approx(0.3 * (omega_5 - omega_delta - 0.5),
                                     rel=1e-12)
        assert d[0] == pytest.approx(omega_delta + 0.5, rel=1e-12)

    def test_gate_closes_only_when_settled(self):
        dev = self.sharing_device()
        assert not self.check(dev, 0.2, 0.0)
        # big power move but still in transient: stays open
        assert not self.check(dev, 0.3, 0.5)
        assert not dev.gate_closed
        # transient settled: closes, reported once
        assert self.check(dev, 0.3, 1e-5)
        assert dev.gate_closed

    def test_gate_stays_closed(self):
        dev = self.sharing_device()
        self.check(dev, 0.2, 0.0)
        assert self.check(dev, 0.3, 0.0)
        # back at the pre-disturbance power: no second close, still closed
        assert not self.check(dev, 0.2, 0.0)
        assert dev.gate_closed

    def test_fixed_point_is_static_droop(self):
        # drive the integrator to convergence against a static plant
        params, p_m, dt = GfmDroopEParams(), 0.45, 0.1
        state = np.array([0.5 * math.pi, p_m, 0.0])
        for _ in range(1000):
            d = gfm_derivatives(params, 0.2, state, p_m, 0.0, self.SPEC,
                                gate_closed=True)
            state[2] += dt * d[2]
        # the device frequency deviation, d[0] in the nominal frame
        total = droop_e_offset(0.2, p_m, 0.002, 3.0, W_B) + state[2]
        assert abs(total - W_B * 0.05 * (0.2 - p_m)) < 1e-6
        assert d[0] == pytest.approx(total, rel=1e-12)

    def test_disabled_spec_adds_no_state(self):
        dev = GfmDevice("g", 1, GfmStaticParams(), W_B, 0.0,
                        PowerSharingSpec())
        assert dev.sharing is None and dev.n_states == 2
        assert dev.kind == "gfm_static"
        assert not dev.update_power_sharing(np.array([0.0, 0.2]), 1.0, 0.0,
                                            0.0, 0.0)


class TestParamValidation:
    def test_sg_reactance_ordering(self):
        with pytest.raises(ScenarioError):
            SgParams(x_d_p=2.0)

    def test_gfm_dispatch_range(self):
        with pytest.raises(ScenarioError, match=r"devices\[1\] \(gfm3\)"):
            load_scenario("3bus-caseA").with_gfm_dispatch(1.2)

    def test_negative_droop_rejected(self):
        with pytest.raises(ScenarioError):
            GfmStaticParams(droop=-0.01)

    @pytest.mark.parametrize("cls", [SgParams, GfmDroopEParams,
                                     GfmStaticParams])
    @pytest.mark.parametrize("rating", [0.0, -50.0])
    def test_non_positive_rating_rejected(self, cls, rating):
        with pytest.raises(ScenarioError, match="rating_mva"):
            cls(rating_mva=rating)
