import math

import numpy as np
import pytest

from droope.devices import droop_e_offset
from droope.metrics import (TABLE_V, TABLE_VII, FrequencyStats,
                            aggregate_inertia, case_table,
                            compute_frequency_stats, headroom_csv,
                            headroom_markdown, headroom_table, peak_rocof,
                            weighted_frequency)


class TestPeakRocof:
    def test_constant_signal(self):
        f = np.full(1000, 60.0)
        assert peak_rocof(f, 0.1, 1e-3) == 0.0

    def test_linear_ramp_independent_of_window(self):
        t = np.arange(0, 5, 1e-3)
        f = 60.0 - 1.0 * t
        for w in (0.05, 0.1, 0.5):
            assert peak_rocof(f, w, 1e-3) == pytest.approx(1.0, rel=1e-9)

    def test_offset_invariance(self):
        rng = np.random.default_rng(5)
        f = 60 + np.cumsum(rng.normal(scale=1e-3, size=2000))
        a = peak_rocof(f, 0.1, 1e-3)
        b = peak_rocof(f + 17.3, 0.1, 1e-3)
        assert a == b

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            peak_rocof(np.ones(50), 0.1, 1e-3)


class TestWeightedFrequency:
    def test_identical_series(self):
        f = np.linspace(60, 59, 100)
        assert np.allclose(weighted_frequency([f, f, f], [100, 50, 10]), f)

    def test_two_device_average(self):
        out = weighted_frequency([np.array([60.0]), np.array([59.0])],
                                 [100.0, 50.0])
        assert out[0] == pytest.approx(59.666666666666664)

    def test_equal_ratings_is_plain_mean(self):
        a, b, c = (np.array([59.5]), np.array([60.0]), np.array([60.4]))
        out = weighted_frequency([a, b, c], [200, 200, 200])
        assert out[0] == pytest.approx((59.5 + 60.0 + 60.4) / 3)

    def test_bounded_by_inputs(self):
        rng = np.random.default_rng(9)
        fs = [60 + rng.normal(scale=0.2, size=500) for _ in range(3)]
        w = weighted_frequency(fs, [100, 75, 50])
        stack = np.vstack(fs)
        assert np.all(w >= stack.min(axis=0) - 1e-12)
        assert np.all(w <= stack.max(axis=0) + 1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_frequency([np.ones(5), np.ones(6)], [1, 1])


class TestAggregateInertia:
    def test_all_machines(self):
        assert aggregate_inertia([3.01, 3.01, 3.01], [200, 200, 200]) == \
            pytest.approx(3.01)
        assert round(aggregate_inertia([3.01] * 3, [200] * 3), 1) == 3.0

    def test_two_thirds_inverter(self):
        h = aggregate_inertia([0.0, 3.01, 0.0], [200, 200, 200])
        assert h == pytest.approx(3.01 / 3)
        assert round(h, 1) == 1.0

    def test_singleton(self):
        assert aggregate_inertia([4.2], [50.0]) == 4.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_inertia([], [])


class TestHeadroomTable:
    def test_reference_rays(self):
        rows = headroom_table(p_set=0.2, delta_f_hz=[0.25, 0.50, 0.75])
        assert [round(r.dp_droop_e, 2) for r in rows] == [0.26, 0.40, 0.50]
        assert [round(r.dp_static, 2) for r in rows] == [0.08, 0.17, 0.25]
        assert [round(r.dp_diff, 2) for r in rows] == [0.18, 0.23, 0.25]

    def test_exact_root_satisfies_back_substitution(self):
        rows = headroom_table(p_set=0.2, delta_f_hz=[0.25, 0.50, 0.75])
        for r in rows:
            resid = (droop_e_offset(0.2, 0.2 + r.dp_droop_e_exact, 0.002, 3.0,
                                    377.0) + 2 * math.pi * r.delta_f_hz)
            assert abs(resid) < 1e-10

    def test_zero_deviation(self):
        (row,) = headroom_table(p_set=0.2, delta_f_hz=[0.0])
        assert (row.dp_droop_e, row.dp_static, row.dp_diff) == (0.0, 0.0, 0.0)
        assert not row.clamped

    def test_deviation_beyond_range_clamped(self):
        (row,) = headroom_table(p_set=0.2, delta_f_hz=[5.0])
        assert row.clamped
        assert row.dp_droop_e_exact == pytest.approx(0.8)

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError):
            headroom_table(p_set=0.2, delta_f_hz=[-0.1])

    def test_emitters_round_to_published_layout(self):
        rows = headroom_table(p_set=0.2, delta_f_hz=[0.25, 0.50, 0.75])
        md = headroom_markdown(rows)
        assert "| 0.25 | 0.26 | 0.08 | 0.18 |" in md
        csv = headroom_csv(rows)
        assert csv.splitlines()[0] == (
            "delta_f_hz,dp_droop_e,dp_static,dp_diff,dp_droop_e_exact,clamped")
        assert csv.endswith("\n")


class TestFrequencyStats:
    def test_nadir_search_starts_at_event(self):
        t = np.arange(0, 10, 1e-3)
        f = np.full_like(t, 60.0)
        f[t < 1.0] = 59.0          # pre-event dip must be ignored
        f[(t >= 2.0) & (t < 2.5)] = 59.8
        st = compute_frequency_stats(t, f, event_time=1.0, window_s=0.1)
        assert st.nadir == pytest.approx(59.8)
        assert 2.0 <= st.nadir_time < 2.5
        assert st.nadir <= st.settling + 1e-9

    def test_settling_flatness_flag(self):
        t = np.arange(0, 10, 1e-3)
        st = compute_frequency_stats(t, 60 + 0.05 * np.sin(t), 0.0, 0.1)
        assert not st.settled_flat
        st = compute_frequency_stats(t, np.full_like(t, 59.9), 0.0, 0.1)
        assert st.settled_flat
        assert st.settling == pytest.approx(59.9)

    def test_event_beyond_trace_rejected(self):
        t = np.arange(0, 1, 1e-3)
        with pytest.raises(ValueError):
            compute_frequency_stats(t, np.full_like(t, 60.0), 5.0, 0.1)


class TestCaseTable:
    """The report's Tables V and VII, pinned to the strings the earlier
    per-table emitters wrote for the same rows."""

    ROWS = [
        ("3bus-caseA", FrequencyStats(nadir=59.934567891234, nadir_time=1.873,
                                      peak_rocof=0.12345678901,
                                      settling=59.95499999, window=0.1),
         2.0066666666666664),
        ("9bus-caseC", FrequencyStats(nadir=59.705,
                                      nadir_time=2.5000000000000004,
                                      peak_rocof=1.995, settling=59.8149,
                                      window=0.25, settled_flat=False),
         2.25),
    ]

    def test_table_v(self):
        md, csv = case_table(self.ROWS, "synchronous-machine", TABLE_V)
        assert md == (
            "Frequency statistics from the synchronous-machine frequency.\n"
            "\n"
            "| Case | Nadir (Hz) | ROCOF (Hz/s) | Settling (Hz) |\n"
            "|---|---|---|---|\n"
            "| 3bus-caseA | 59.93 | 0.12 | 59.95 |\n"
            "| 9bus-caseC | 59.70 | 2.00 | 59.81 |\n")
        assert csv == (
            "case,nadir_hz,nadir_time_s,peak_rocof_hz_per_s,settling_hz,"
            "window_s,source\n"
            "3bus-caseA,59.934567891234,1.873,0.12345678901,59.95499999,0.1,"
            "synchronous-machine\n"
            "9bus-caseC,59.705,2.5000000000000004,1.995,59.8149,0.25,"
            "synchronous-machine\n")

    def test_table_vii(self):
        md, csv = case_table(self.ROWS, "rating-weighted", TABLE_VII)
        assert md == (
            "Frequency statistics from the rating-weighted frequency.\n"
            "\n"
            "| Case | Nadir (Hz) | ROCOF (Hz/s) | Inertia (s) |\n"
            "|---|---|---|---|\n"
            "| 3bus-caseA | 59.93 | 0.12 | 2.0 |\n"
            "| 9bus-caseC | 59.70 | 2.00 | 2.2 |\n")
        assert csv == (
            "case,nadir_hz,peak_rocof_hz_per_s,settling_hz,inertia_s,source\n"
            "3bus-caseA,59.934567891234,0.12345678901,59.95499999,2.0,"
            "rating-weighted\n"
            "9bus-caseC,59.705,1.995,59.8149,2.2,rating-weighted\n")
