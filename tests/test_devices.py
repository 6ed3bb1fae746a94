import math

import numpy as np
import pytest

from droope.devices import (GfmDevice, GfmDroopEParams, GfmStaticParams,
                            PowerSharingSpec, SgParams, device_emf_interface,
                            dq_to_network, droop_e_offset, droop_e_slope,
                            gfm_init_from_terminal, gfm_stator_residual,
                            network_to_dq, sg_derivatives,
                            sg_init_from_terminal, sg_stator_residual,
                            static_droop_offset)

W_B = 377.0


def gfm_derivatives(params, state, i_d, i_q, omega_frame, sharing=None,
                    gate_closed=False):
    """Derivatives of an inverter at a unit terminal voltage at angle 0."""
    dev = GfmDevice("g", 1, params, sharing)
    dev.gate_closed = gate_closed
    return dev.derivatives(np.asarray(state), 1.0, 0.0, i_d, i_q, omega_frame)


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
        assert droop_e_slope(0.73, 0.002, 3.0) == pytest.approx(0.0536, abs=2e-4)

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
            d_eq = droop_e_slope(p_set, 0.002, 3.0)
            static_slope = -W_B * d_eq
            assert abs(slope - static_slope) <= 1e-12 * abs(static_slope)


class TestStaticDroop:
    def test_quarter_pu_is_three_quarter_hz(self):
        off = static_droop_offset(0.25, 0.0, 0.05, W_B)
        assert off == pytest.approx(4.7125, abs=1e-6)
        assert off / (2 * math.pi) == pytest.approx(0.75, abs=1e-3)

    def test_zero_gain_is_feasible(self):
        st = np.array([0.3, 0.6])
        d = gfm_derivatives(GfmStaticParams(droop=0.0, p_set=0.1), st, 0.1,
                            0.1, omega_frame=0.0)
        assert d[0] == pytest.approx(W_B)

    def test_small_gain(self):
        assert static_droop_offset(0.1, 0.0, 0.01, W_B) / W_B == pytest.approx(
            0.001)


class TestSgModel:
    def test_swing_acceleration(self):
        # dp = p_m - p_e = 0.1 with H = 3.01 accelerates at 6.2625 rad/s^2
        params = SgParams()
        state = np.array([0.0, 377.0, 1.0, 0.0, 1.0, 1.0, 0.018, 0.6, 0.6])
        # no current -> p_e = 0, so set p_m = 0.1 via the state
        state[7] = 0.1
        d = sg_derivatives(state, 1.0, 0.0, 0.0, 0.0, params, p_set=0.1,
                           v_ref=1.0)
        assert d[1] == pytest.approx(0.1 * 377.0 / (2 * 3.01), rel=1e-12)

    def test_governor_response(self):
        params = SgParams()
        omega = 377.0 * (1 + 0.00125)
        state = np.array([0.0, omega, 1.0, 0.0, 1.0, 1.0, 0.018, 0.5, 0.5])
        d = sg_derivatives(state, 1.0, 0.0, 0.0, 0.0, params, p_set=0.5,
                           v_ref=1.0)
        assert d[8] == pytest.approx(-0.025 / params.t_sv, rel=1e-9)

    def test_initialization_is_equilibrium(self):
        params = SgParams()
        v_ph = 1.02 * np.exp(0.05j)
        s_dev = 0.7 + 0.2j
        state, p_set, v_ref = sg_init_from_terminal(v_ph, s_dev, params)
        i_ph = np.conj(s_dev / v_ph)
        i_d, i_q = network_to_dq(i_ph, state[0])
        v_mag, theta = abs(v_ph), float(np.angle(v_ph))
        res = sg_stator_residual(state, v_mag, theta, i_d, i_q, params)
        assert max(abs(r) for r in res) < 1e-12
        d = sg_derivatives(state, v_mag, theta, i_d, i_q, params, p_set, v_ref)
        assert np.max(np.abs(d)) < 1e-12


class TestGfmModel:
    def test_equilibrium_derivatives(self):
        params = GfmDroopEParams(p_set=0.2)
        # delta = pi/2, theta = 0 puts all power on the d axis
        state = np.array([0.5 * math.pi, 0.2])
        d = gfm_derivatives(params, state, 0.2, 0.0, omega_frame=0.0)
        assert d[0] == pytest.approx(params.omega_set)
        assert d[1] == pytest.approx(0.0, abs=1e-15)

    def test_filter_response(self):
        params = GfmDroopEParams(p_set=0.2)
        state = np.array([0.5 * math.pi, 0.2])
        d = gfm_derivatives(params, state, 0.3, 0.0,
                            omega_frame=params.omega_set)
        assert d[1] == pytest.approx(0.1 / 0.0167, rel=1e-9)
        assert d[0] == pytest.approx(0.0, abs=1e-12)

    def test_initialization_matches_dispatch(self):
        params = GfmDroopEParams(p_set=0.35, x_gfm=0.30, r_gfm=0.01)
        v_ph = 1.02 * np.exp(-0.02j)
        s_dev = 0.35 - 0.1j
        state, e_d, e_q = gfm_init_from_terminal(v_ph, s_dev, params)
        assert e_d == 0.0
        assert state[1] == pytest.approx(0.35)
        params.e_d, params.e_q = e_d, e_q
        i_d, i_q = network_to_dq(np.conj(s_dev / v_ph), state[0])
        res = gfm_stator_residual(state, abs(v_ph), float(np.angle(v_ph)),
                                  i_d, i_q, params)
        assert max(abs(r) for r in res) < 1e-12


class TestEmfInterface:
    def test_gfm_constants_and_impedance(self):
        params = GfmDroopEParams(e_d=0.0, e_q=1.03)
        e_d, e_q, delta, z = device_emf_interface(np.array([0.3, 0.5]), params)
        assert (e_d, e_q, delta) == (0.0, 1.03, 0.3)
        assert z == 0.005 + 0.15j

    def test_sg_two_axis(self):
        params = SgParams()
        state = np.array([0.7, 377.0, 0.95, 0.31, 1.2, 1.2, 0.02, 0.5, 0.5])
        e_d, e_q, delta, z = device_emf_interface(state, params)
        assert (e_d, e_q, delta) == (0.31, 0.95, 0.7)
        assert z == complex(0.0, params.x_d_p)

    def test_rotation_identity_at_quarter_turn(self):
        assert dq_to_network(0.3, 0.4, 0.5 * math.pi) == pytest.approx(
            0.3 + 0.4j)

    def test_round_trip(self):
        ph = 0.8 * np.exp(0.37j)
        f_d, f_q = network_to_dq(ph, 1.1)
        assert dq_to_network(f_d, f_q, 1.1) == pytest.approx(ph)


class TestPowerSharing:
    """The gate, checked at step boundaries, and the omega_ps state row.

    At ``delta = pi/2`` on a unit terminal voltage at angle 0 the terminal
    power is ``i_d``, so ``dp/dt = (i_d - p_m) / t_fil``.
    """

    SPEC = PowerSharingSpec(enabled=True)

    def sharing_device(self):
        return GfmDevice("g", 1, GfmDroopEParams(p_set=0.2), self.SPEC)

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
        d = gfm_derivatives(dev.params, [0.5 * math.pi, 0.2, 0.0], 0.2, 0.0,
                            W_B, self.SPEC)
        assert d[2] == 0.0
        d = gfm_derivatives(dev.params, [0.5 * math.pi, 0.2, 0.5], 0.2, 0.0,
                            W_B, self.SPEC)
        assert d[2] == pytest.approx(-0.3 * 0.5, rel=1e-15)
        assert d[0] == pytest.approx(0.5, rel=1e-12)

    def test_closed_gate_integrates_error(self):
        state = [0.5 * math.pi, 0.45, 0.5]
        d = gfm_derivatives(GfmDroopEParams(p_set=0.2), state, 0.45, 0.0, W_B,
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
        params, p_m, dt = GfmDroopEParams(p_set=0.2), 0.45, 0.1
        state = np.array([0.5 * math.pi, p_m, 0.0])
        for _ in range(1000):
            d = gfm_derivatives(params, state, p_m, 0.0, W_B, self.SPEC,
                                gate_closed=True)
            state[2] += dt * d[2]
        # the device frequency deviation, d[0] in the nominal frame
        total = droop_e_offset(0.2, p_m, 0.002, 3.0, W_B) + state[2]
        assert abs(total - W_B * 0.05 * (0.2 - p_m)) < 1e-6
        assert d[0] == pytest.approx(total, rel=1e-12)

    def test_disabled_spec_adds_no_state(self):
        dev = GfmDevice("g", 1, GfmStaticParams(), PowerSharingSpec())
        assert dev.sharing is None and dev.n_states == 2
        assert dev.kind == "gfm_static"
        assert not dev.update_power_sharing(np.array([0.0, 0.2]), 1.0, 0.0,
                                            0.0, 0.0)


class TestParamValidation:
    def test_sg_reactance_ordering(self):
        with pytest.raises(ValueError):
            SgParams(x_d_p=2.0)

    def test_gfm_dispatch_range(self):
        with pytest.raises(ValueError):
            GfmDroopEParams(p_set=1.2)

    def test_negative_droop_rejected(self):
        with pytest.raises(ValueError):
            GfmStaticParams(droop=-0.01)

    @pytest.mark.parametrize("cls", [SgParams, GfmDroopEParams,
                                     GfmStaticParams])
    @pytest.mark.parametrize("rating", [0.0, -50.0])
    def test_non_positive_rating_rejected(self, cls, rating):
        with pytest.raises(ValueError, match="rating_mva"):
            cls(rating_mva=rating)
