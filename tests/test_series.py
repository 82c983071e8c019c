import math
import random
from datetime import date

import numpy as np
import pytest

from crisismon import (Series, filter_peaks, find_peaks, gradient,
                       joint_peaks, marker_peaks, smooth, smoothed_gradient)
from crisismon.series import _zscore

from oracles import brute_filter, brute_peaks, ref_gradient, ref_marker_peaks, ref_smooth

D0 = date(2020, 3, 1)


def S(days):
    """One marker's days, as a one-row series named ``m0``."""
    return Series(start=D0, names=("m0",), values=[np.asarray(days, dtype=np.float64).tolist()])


def M(rows):
    """Markers × days, row ``i`` named ``m{i}``."""
    return Series(start=D0, names=tuple(f"m{i}" for i in range(len(rows))),
                  values=np.asarray(rows, dtype=np.float64).tolist())


def SG(rows, window=7):
    """The smoothed gradient of raw markers × days, as analyze derives it."""
    return smoothed_gradient(M(rows), window)[1]


class TestSmooth:
    @pytest.mark.parametrize("c", [0.0, 5.0, 0.1, -2.7, 1e6])
    def test_constant_is_exactly_constant(self, c):
        out = smooth(S([c] * 20), 7)
        assert out.values == [[c] * 20]

    def test_week_window_arithmetic(self):
        out = smooth(S([0, 0, 0, 0, 0, 0, 7]), 7)
        assert out.values[0][-1] == 1.0

    def test_leading_edge_uses_prefix(self):
        out = smooth(S([1, 2, 3]), 7)
        assert out.values == [[1.0, 1.5, 2.0]]

    def test_missing_values_excluded_from_window(self):
        out = smooth(S([2.0, np.nan, 4.0]), 3)
        assert out.values == [[2.0, 2.0, 3.0]]

    def test_all_missing_window_stays_missing(self):
        out = smooth(S([np.nan, np.nan, 1.0]), 2)
        assert np.isnan(out.values[0][0])
        assert out.values[0][2] == 1.0

    def test_linearity_under_affine_transform(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=120)
        x[rng.integers(0, 120, size=10)] = np.nan
        for a, b in [(2.0, 1.0), (-3.5, 40.0), (0.25, -7.0)]:
            lhs = np.array(smooth(S(a * x + b), 7).values[0])
            rhs = a * np.array(smooth(S(x), 7).values[0]) + b
            both = ~np.isnan(lhs)
            assert np.isnan(lhs).tolist() == np.isnan(rhs).tolist()
            assert np.allclose(lhs[both], rhs[both], atol=1e-9)

    def test_matches_independent_mean(self):
        rng = np.random.default_rng(5)
        x = rng.normal(5, 2, size=60)
        ref = ref_smooth(list(x), 7)
        out = smooth(S(x), 7).values[0]
        assert np.allclose(out, ref, atol=1e-9)

    @pytest.mark.parametrize("window", [0, -7])
    def test_a_window_below_one_is_an_error(self, window):
        with pytest.raises(ValueError, match="^window must be >= 1$"):
            smooth(S([1.0, 2.0]), window)

    def test_smoothed_gradient_is_smooth_gradient_smooth(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(5, 2, size=(3, 60))
        rows[rng.random(rows.shape) < 0.1] = np.nan
        raw = M(rows)
        smoothed, sg = smoothed_gradient(raw, 7)
        expect = smooth(raw, 7)
        for got, ref in ((smoothed, expect), (sg, smooth(gradient(expect), 7))):
            assert (got.start, got.names) == (ref.start, ref.names)
            assert np.array(got.values).tobytes() == np.array(ref.values).tobytes()


class TestGradient:
    def test_constant_is_zero(self):
        out = gradient(S([4.0] * 10))
        assert out.values == [[0.0] * 10]

    def test_linear_slope_recovered_everywhere(self):
        out = gradient(S([3.0 * i for i in range(30)]))
        assert max(abs(g - 3.0) for g in out.values[0]) < 1e-12

    def test_spike(self):
        out = gradient(S([0, 1, 0]))
        assert out.values == [[1.0, 0.0, -1.0]]

    def test_too_short(self):
        with pytest.raises(ValueError):
            gradient(S([1.0]))

    def test_missing_poisons_its_stencil_only(self):
        out = gradient(S([1.0, 2.0, np.nan, 4.0, 5.0])).values[0]
        # neighbors of the missing day touch it; the day itself does not
        assert np.isnan(out[1]) and np.isnan(out[3])
        assert out[2] == 1.0  # (v[3]-v[1])/2
        assert out[0] == 1.0

    def test_gradient_of_smoothed_constant_is_identically_zero(self):
        out = gradient(smooth(S([0.1] * 40), 7))
        assert out.values == [[0.0] * 40]

    def test_matches_independent_stencil(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=80)
        v[rng.integers(0, 80, size=8)] = np.nan
        got = gradient(S(v)).values[0]
        ref = ref_gradient(list(v))
        for g, r in zip(got, ref):
            if r is None:
                assert math.isnan(g)
            else:
                assert g == pytest.approx(r, abs=1e-12)


class TestFindPeaks:
    def test_two_peaks_with_prominences(self):
        peaks = find_peaks(S([0, 1, 0, 3, 0]))[0]
        assert [(p.index, p.height, p.prominence) for p in peaks] == [
            (1, 1.0, 1.0),
            (3, 3.0, 3.0),
        ]

    def test_monotone_series_has_none(self):
        assert find_peaks(S([1, 2, 3, 4, 5]))[0] == []

    def test_plateau_reports_leftmost_index(self):
        (peak,) = find_peaks(S([0, 2, 2, 2, 0]))[0]
        assert (peak.index, peak.prominence) == (1, 2.0)

    def test_boundaries_never_peak(self):
        assert find_peaks(S([5, 1, 2]))[0] == [] or all(
            p.index not in (0, 2) for p in find_peaks(S([5, 1, 2]))[0]
        )
        assert find_peaks(S([2, 2, 0]))[0] == []
        assert find_peaks(S([0, 2, 2]))[0] == []

    def test_nan_neighbor_disqualifies(self):
        assert find_peaks(S([0, np.nan, 3, 0, 0]))[0] == []
        assert find_peaks(S([0, 3, np.nan, 0, 0]))[0] == []

    def test_nan_inside_prominence_walk_is_skipped(self):
        (peak,) = find_peaks(S([0, 4, np.nan, 1, 3, 1]))[0]
        assert peak.index == 4
        assert peak.prominence == 2.0  # left walk skips NaN, stops at 4

    def test_peak_dates(self):
        (peak,) = find_peaks(S([0, 1, 0]))[0]
        assert peak.date == date(2020, 3, 2)

    def test_prominence_bounded_by_global_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(size=60)
            lo = np.min(v)
            for p in find_peaks(S(v))[0]:
                assert p.prominence <= p.height - lo + 1e-12

    def test_equals_brute_force_on_random_series(self):
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = int(rng.integers(3, 500))
            v = np.round(rng.normal(size=n), 4)
            if trial % 3 == 0:
                v[rng.integers(0, n, size=max(1, n // 10))] = np.nan
            if trial % 5 == 0:  # force plateaus
                v = np.repeat(v, 2)[:n]
            got = [(p.index, p.prominence) for p in find_peaks(S(v))[0]]
            assert got == brute_peaks(list(v))


class TestFilterPeaks:
    def test_keep_only_the_five(self):
        # prominences [1, 1, 5]: mean 2.3333, pstd 1.8856, threshold 4.2190
        peaks = find_peaks(S([0, 1, 0, 1, 0, 5, 0]))[0]
        assert [p.prominence for p in peaks] == [1.0, 1.0, 5.0]
        kept = filter_peaks(peaks, 1.0)
        assert [(p.index, p.prominence) for p in kept] == [(5, 5.0)]

    def test_single_candidate_never_survives(self):
        peaks = find_peaks(S([0, 3, 0]))[0]
        assert len(peaks) == 1
        assert filter_peaks(peaks, 1.0) == []

    def test_all_equal_prominences_keep_none(self):
        peaks = find_peaks(S([0, 2, 0, 2, 0, 2, 0]))[0]
        assert len(peaks) == 3
        assert filter_peaks(peaks, 1.0) == []

    def test_empty_input(self):
        assert filter_peaks([], 1.0) == []

    def test_subset_and_threshold_property(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            v = rng.normal(size=200).cumsum()
            peaks = find_peaks(S(v))[0]
            kept = filter_peaks(peaks, 1.0)
            assert set(p.index for p in kept) <= set(p.index for p in peaks)
            proms = [p.prominence for p in peaks]
            expect = [peaks[i].index for i in brute_filter(proms, 1.0)]
            assert [p.index for p in kept] == expect

    def test_sigma_mult_zero_keeps_above_mean(self):
        peaks = find_peaks(S([0, 1, 0, 1, 0, 5, 0]))[0]
        kept = filter_peaks(peaks, 0.0)
        assert [p.prominence for p in kept] == [5.0]


class TestAffineInvariance:
    def test_peak_indices_and_scaled_prominence(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            v = np.round(rng.normal(size=150).cumsum(), 3)
            base = find_peaks(S(v))[0]
            for a, b in [(2.0, 0.0), (0.5, 10.0), (3.25, -4.0)]:
                scaled = find_peaks(S(a * v + b))[0]
                assert [p.index for p in scaled] == [p.index for p in base]
                for ps, pb in zip(scaled, base):
                    assert ps.prominence == pytest.approx(a * pb.prominence, rel=1e-9)
            # filtered indices are invariant under any positive affine map
            kept = [p.index for p in filter_peaks(base, 1.0)]
            kept2 = [p.index for p in filter_peaks(find_peaks(S(2.5 * v + 7.0))[0], 1.0)]
            assert kept == kept2


class TestMarkerPeaks:
    def test_constant_series_has_no_peaks(self):
        assert marker_peaks(SG([[3.0] * 60]))["m0"] == []

    def test_step_series_candidates_and_filter(self):
        # A pure noiseless step yields exactly one rise candidate near the
        # step; being the only candidate it cannot beat mean + std, so the
        # filtered pipeline is empty. Realistic (noisy) series are covered
        # below.
        sg = SG([[0.0] * 45 + [10.0] * 45])
        rises = find_peaks(sg)[0]
        assert len(rises) == 1
        assert 45 <= rises[0].index <= 45 + 7 - 1
        neg = S([-x for x in sg.values[0]])
        assert find_peaks(neg)[0] == []  # no fall candidates at all
        assert marker_peaks(sg)["m0"] == []

    def test_noisy_step_yields_rise_near_step(self):
        rng = np.random.default_rng(42)
        v = np.concatenate([np.zeros(45), np.full(45, 10.0)]) + rng.normal(0, 0.2, 90)
        peaks = marker_peaks(SG([v]))["m0"]
        rises = [p for p in peaks if p.direction == "rise"]
        assert len(rises) == 1
        assert 45 <= rises[0].index <= 45 + 7 - 1

    def test_random_walk_equals_reference_pipeline(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            v = np.round(rng.normal(size=180).cumsum(), 6)
            got = [
                (p.index, p.direction, p.height, p.prominence)
                for p in marker_peaks(SG([v]))["m0"]
            ]
            ref = ref_marker_peaks(list(v), 7, 1.0)
            assert [(g[0], g[1]) for g in got] == [(r[0], r[1]) for r in ref]
            for g, r in zip(got, ref):
                assert g[2] == pytest.approx(r[2], abs=1e-9)
                assert g[3] == pytest.approx(r[3], abs=1e-9)

    def test_fall_peaks_score_the_magnitude_of_decrease(self):
        rng = np.random.default_rng(29)
        v = rng.normal(5, 0.1, 90)
        v[40:43] += 10  # sharp burst: rise into it, fall out of it
        peaks = marker_peaks(SG([v]))["m0"]
        falls = [p for p in peaks if p.direction == "fall"]
        assert falls and all(p.height > 0 for p in falls)


    def test_peaks_are_keyed_by_name_in_row_order(self):
        rows = np.random.default_rng(47).normal(5, 0.1, (3, 90))
        sg = SG(rows).select(["m2", "m0", "m1"])
        peaks = marker_peaks(sg)
        assert list(peaks) == ["m2", "m0", "m1"]
        for name in peaks:
            assert peaks[name] == marker_peaks(sg.select([name]))[name]


class TestJointPeaks:
    def test_single_marker_equals_abs_z_pipeline(self):
        rng = np.random.default_rng(31)
        v = rng.normal(5, 1, 120)
        v[50:53] += 6
        sg = SG([v])
        joint = joint_peaks(sg)
        alone = filter_peaks(
            find_peaks(S(np.abs(_zscore(sg.values[0]))))[0], 1.0
        )
        assert [(p.index, p.prominence) for p in joint] == [
            (p.index, p.prominence) for p in alone
        ]

    def test_two_identical_markers_equal_one(self):
        rng = np.random.default_rng(37)
        v = rng.normal(5, 1, 120)
        v[50:53] += 6
        one = joint_peaks(SG([v]))
        two = joint_peaks(SG([v, v.copy()]))
        assert [(p.index, p.prominence) for p in one] == [
            (p.index, p.prominence) for p in two
        ]

    def test_five_markers_common_burst(self):
        rng = np.random.default_rng(41)
        markers = []
        for _ in range(5):
            v = rng.normal(5.0, 0.3, 90)
            v[40:43] += 10.0
            markers.append(v)
        peaks = joint_peaks(SG(markers))
        in_window = [p for p in peaks if 40 <= p.index <= 40 + 7 - 1]
        assert len(in_window) == 1
        assert in_window[0].direction == "rise"

    def test_mismatched_axes_error(self):
        # A series with no marker row is rejected.
        with pytest.raises(ValueError):
            joint_peaks(M(np.empty((0, 3))))

    def test_flat_marker_contributes_zeros(self):
        # std = 0 -> z-scores all zero, not NaN
        assert _zscore([3.3] * 10) == [0.0] * 10


class TestSeriesBasics:
    def test_crop(self):
        s = S(list(range(10)))
        c = s.crop(date(2020, 3, 3), date(2020, 3, 5))
        assert c.values == [[2.0, 3.0, 4.0]]
        assert c.start == date(2020, 3, 3)

    def test_rows_share_one_date_axis(self):
        s = M([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])
        assert s.days == 4
        assert M(np.empty((0, 4))).days == 0
        assert s.select(["m1"]).values == [[4.0, 5.0, 6.0, 7.0]]
        assert s.select(["m2", "m0"]).values == [[8, 9, 10, 11], [0, 1, 2, 3]]
        assert s.select(("m2", "m0")).values == s.select(["m2", "m0"]).values
        assert s.select([np.str_("m1")]).values == s.select(["m1"]).values
        assert s.select(["m0", "m1"]).values == [[0, 1, 2, 3], [4, 5, 6, 7]]
        c = s.crop(date(2020, 3, 2), date(2020, 3, 3))
        assert c.values == [[1, 2], [5, 6], [9, 10]]
        assert c.start == date(2020, 3, 2)
        assert gradient(s).select(["m2"]).values == gradient(S([8, 9, 10, 11])).values

    def test_rows_are_selected_by_name_only(self):
        s = M([[0, 1], [2, 3], [4, 5]])
        assert s.names == ("m0", "m1", "m2")
        picked = s.select(["m2", "m0"])
        assert picked.names == ("m2", "m0")
        assert smooth(picked, 2).names == gradient(picked).names == ("m2", "m0")
        for key in ("m1", 1, slice(0, 2), [0, 1]):
            with pytest.raises((TypeError, KeyError)):
                s.select(key)
        with pytest.raises(KeyError):
            s.select(["m3"])

    def test_crop_outside_errors(self):
        s = S([1, 2, 3])
        with pytest.raises(ValueError):
            s.crop(date(2020, 2, 28), date(2020, 3, 2))

    def test_crop_checks_the_order_before_the_range(self):
        with pytest.raises(ValueError, match="start 2020-04-01 after end 2020-02-01"):
            S([1, 2, 3]).crop(date(2020, 4, 1), date(2020, 2, 1))

    def test_peaks_never_on_missing_days(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            v = rng.normal(size=100)
            v[rng.integers(0, 100, size=15)] = np.nan
            for p in find_peaks(S(v))[0]:
                assert not math.isnan(v[p.index])
