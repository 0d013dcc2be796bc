import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from eegfx.time_features import (
    approximate_entropy,
    average_power,
    box_counting_fd,
    dfa,
    distribution_entropy,
    energy,
    fuzzy_entropy,
    higuchi_fd,
    hjorth,
    hurst_exponent,
    line_length,
    local_extrema,
    moments,
    nonlinear_energy,
    permutation_entropy,
    rms,
    sample_entropy,
    shannon_entropy,
    stat_summary,
    svd_entropy,
    weighted_permutation_entropy,
    zero_crossings,
)

from oracles import (
    naive_apen,
    naive_disten,
    naive_fuzzen,
    naive_pe,
    naive_sampen,
    naive_wpe,
)


class TestStatSummary:
    def test_1234_hand_values(self):
        s = stat_summary([1, 2, 3, 4])
        assert s.mean == 2.5
        assert s.variance == 1.25
        assert s.cv == pytest.approx(math.sqrt(1.25) / 2.5, abs=1e-15)
        assert s.skewness == pytest.approx(0.0, abs=1e-15)
        assert s.kurtosis == pytest.approx(1.64, abs=1e-12)
        assert (s.min, s.max, s.median) == (1.0, 4.0, 2.5)
        assert s.q1 == pytest.approx(1.75)
        assert s.q3 == pytest.approx(3.25)
        assert s.iqr == pytest.approx(1.5)
        # first bin of 64 over [1, 4] wins the four-way tie
        assert s.mode == pytest.approx(1 + 3 / 128)

    def test_constant_conventions(self):
        s = stat_summary([5.0] * 10)
        assert s.variance == 0.0
        assert s.cv == 0.0
        assert s.skewness == 0.0
        assert s.kurtosis == 0.0
        assert s.mode == 5.0
        assert s.iqr == 0.0

    def test_symmetric_skewness_zero(self):
        assert stat_summary([-1, 0, 1]).skewness == pytest.approx(0.0, abs=1e-15)

    def test_order_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = stat_summary(rng.standard_normal(rng.integers(2, 300)))
            assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
            assert s.iqr == s.q3 - s.q1
            assert s.variance >= 0.0

    def test_zero_mean_cv_is_nan(self):
        assert math.isnan(stat_summary([-1.0, 1.0]).cv)

    def test_too_short(self):
        with pytest.raises(ValueError):
            stat_summary([1.0])
        with pytest.raises(ValueError):
            moments([1.0])


class TestMoments:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(8)
        yield from (rng.standard_normal(n) * 30.0 + 5.0 for n in (2, 3, 17, 1024))
        yield from (np.full(n, v) for n in (2, 64) for v in (0.0, -3.5, 7.25))
        x = rng.standard_normal(256)
        yield np.concatenate([x, -x])  # mean exactly 0: cv is NaN
        yield np.array([-1.0, 1.0])

    def test_equal_to_stat_summary_fields(self):
        for x in self._inputs():
            s = stat_summary(x)
            np.testing.assert_array_equal(
                moments(x), (s.mean, s.variance, s.cv, s.skewness, s.kurtosis)
            )

    def test_hand_values(self):
        mean, var, cv, skew, kurt = moments([1, 2, 3, 4])
        assert (mean, var) == (2.5, 1.25)
        assert cv == pytest.approx(math.sqrt(1.25) / 2.5, abs=1e-15)
        assert skew == pytest.approx(0.0, abs=1e-15)
        assert kurt == pytest.approx(1.64, abs=1e-12)
        assert moments([5.0] * 10) == (5.0, 0.0, 0.0, 0.0, 0.0)
        assert math.isnan(moments([-1.0, 1.0])[2])


class TestEnergyFamily:
    def test_hand_sum(self):
        assert energy([1, 2, 3]) == 14.0
        assert average_power([1, 2, 3]) == pytest.approx(14 / 3)
        assert rms([1, 2, 3]) == pytest.approx(math.sqrt(14 / 3))

    def test_zeros(self):
        z = np.zeros(8)
        assert energy(z) == average_power(z) == rms(z) == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        assert energy(3.0 * x) == pytest.approx(9.0 * energy(x), rel=1e-12)

    # Epoch lengths (1-4 s at 256 Hz), then lengths past the 10 000 samples
    # above which a threaded BLAS dot product would split the sum.
    @pytest.mark.parametrize("n", [256, 512, 1024, 10_001, 65_536])
    def test_matches_exactly_rounded_sum(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 40.0
        want = math.fsum(v * v for v in x.tolist())
        assert energy(x) == pytest.approx(want, rel=1e-13)
        assert average_power(x) == pytest.approx(want / n, rel=1e-13)


class TestLineLength:
    def test_hand_value(self):
        assert line_length([1, 3, 2]) == 3.0

    def test_constant(self):
        assert line_length(np.full(50, 2.5)) == 0.0

    def test_alternating_closed_form(self):
        n, amp = 101, 1.5
        x = amp * (-1.0) ** np.arange(n)
        assert line_length(x) == pytest.approx(2 * amp * (n - 1))

    def test_abs_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        assert line_length(-2.0 * x) == pytest.approx(2.0 * line_length(x), rel=1e-12)


class TestNonlinearEnergy:
    def test_constant(self):
        assert nonlinear_energy(np.ones(10)) == 0.0

    def test_hand_value(self):
        assert nonlinear_energy([1, 2, 3, 4]) == 2.0

    def test_amplitude_squared_scaling(self):
        t = np.arange(512) / 256.0
        x = np.sin(2 * np.pi * 10 * t)
        assert nonlinear_energy(3.0 * x) == pytest.approx(
            9.0 * nonlinear_energy(x), rel=1e-12
        )

    def test_grows_with_frequency(self):
        t = np.arange(1024) / 256.0
        ne10 = nonlinear_energy(np.sin(2 * np.pi * 10 * t))
        ne20 = nonlinear_energy(np.sin(2 * np.pi * 20 * t))
        # ~ w^2 growth, modulo the discrete sin(w dt) correction
        assert 3.5 < ne20 / ne10 < 4.5


class TestShannonEntropy:
    def test_constant(self):
        assert shannon_entropy(np.full(20, 3.3)) == 0.0

    def test_uniform_occupancy(self):
        n_bins = 16
        # one value per bin center -> exactly uniform histogram
        x = np.arange(n_bins) + 0.5
        assert shannon_entropy(x, n_bins) == pytest.approx(math.log(n_bins))

    def test_two_bins(self):
        assert shannon_entropy([0, 0, 1, 1], 2) == pytest.approx(math.log(2))


class TestApproximateEntropy:
    def test_constant_is_zero(self):
        for r in (0.1, 1.0, 10.0):
            assert approximate_entropy(np.full(60, 4.2), 2, r) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            x = rng.standard_normal(rng.integers(30, 120))
            r = 0.2 * float(x.std(ddof=1))
            assert approximate_entropy(x, 2, r) == pytest.approx(
                naive_apen(list(x), 2, r), abs=1e-12
            )

    def test_square_wave_below_noise(self):
        rng = np.random.default_rng(3)
        square = np.tile([1.0, 1, 1, 1, -1, -1, -1, -1], 32)
        noise = rng.standard_normal(square.size)
        ap_sq = approximate_entropy(square, 2, 0.2 * square.std(ddof=1))
        ap_no = approximate_entropy(noise, 2, 0.2 * noise.std(ddof=1))
        assert ap_sq < ap_no

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(80)
        assert approximate_entropy(x + 100.0, 2, 0.3) == pytest.approx(
            approximate_entropy(x, 2, 0.3), abs=1e-12
        )

    def test_bad_args(self):
        with pytest.raises(ValueError):
            approximate_entropy([1, 2, 3], 2, 0.0)
        with pytest.raises(ValueError):
            approximate_entropy([1, 2, 3], 2, 0.5)  # N < m + 2


class TestSampleEntropy:
    def test_constant_literal_counts(self):
        # all pairs match: (99*98) m-pairs vs (98*97) (m+1)-pairs
        assert sample_entropy(np.full(100, 1.0), 2, 0.5) == pytest.approx(
            math.log(99 / 97), abs=1e-15
        )

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(rng.integers(60, 150))
            r = 0.3 * float(x.std(ddof=1))
            try:
                got = sample_entropy(x, 2, r)
            except ValueError:
                with pytest.raises(ValueError):
                    naive_sampen(list(x), 2, r)
                continue
            assert got == pytest.approx(naive_sampen(list(x), 2, r), abs=1e-12)

    def test_huge_r_limit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(50)
        n, m = x.size, 2
        assert sample_entropy(x, m, 1e9) == pytest.approx(
            math.log((n - m + 1) / (n - m - 1)), abs=1e-12
        )

    def test_no_match_error(self):
        # geometric growth with tiny r: no template pair ever matches
        x = 2.0 ** np.arange(20)
        with pytest.raises(ValueError, match="undefined"):
            sample_entropy(x, 2, 1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(70)
        assert sample_entropy(x - 55.0, 2, 0.4) == pytest.approx(
            sample_entropy(x, 2, 0.4), abs=1e-12
        )


class TestPermutationEntropy:
    def test_monotone_is_zero(self):
        assert permutation_entropy(np.arange(50.0), 4) == 0.0

    def test_alternating_two_patterns(self):
        x = np.tile([0.0, 1.0], 25)[:49]  # 48 windows, 24 up + 24 down
        assert permutation_entropy(x, 2) == pytest.approx(math.log(2), abs=1e-12)

    def test_bound(self):
        rng = np.random.default_rng(8)
        for m in (2, 3, 4):
            x = rng.standard_normal(200)
            assert permutation_entropy(x, m) <= math.log(math.factorial(m)) + 1e-12

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            # integer quantization forces tied ranks
            x = rng.integers(0, 4, 100).astype(float)
            for m in (2, 3):
                assert permutation_entropy(x, m) == pytest.approx(
                    naive_pe(list(x), m), abs=1e-12
                )

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(150)
        base = permutation_entropy(x, 3)
        assert permutation_entropy(2.5 * x, 3) == pytest.approx(base, abs=1e-12)
        assert permutation_entropy(x + 9.0, 3) == pytest.approx(base, abs=1e-12)

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            permutation_entropy(np.arange(100.0), 9)


class TestWeightedPermutationEntropy:
    def test_constant_zero_weight(self):
        assert weighted_permutation_entropy(np.full(30, 2.0), 3) == 0.0

    def test_equal_variance_windows_reduce_to_pe(self):
        x = np.tile([1.0, -1.0], 40)  # every window has the same variance
        for m in (2, 3):
            assert weighted_permutation_entropy(x, m) == pytest.approx(
                permutation_entropy(x, m), abs=1e-12
            )

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rng.standard_normal(90) * rng.uniform(0.1, 5.0)
            for m in (2, 3):
                assert weighted_permutation_entropy(x, m) == pytest.approx(
                    naive_wpe(list(x), m), abs=1e-12
                )

    def test_translation_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(80)
        assert weighted_permutation_entropy(x + 7.7, 3) == pytest.approx(
            weighted_permutation_entropy(x, 3), abs=1e-12
        )


class TestFuzzyEntropy:
    def test_constant_is_zero(self):
        assert fuzzy_entropy(np.full(40, 1.5), 2, 0.2) == 0.0

    def test_huge_r_vanishes(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(60)
        assert abs(fuzzy_entropy(x, 2, 1e9)) < 1e-6

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            x = rng.standard_normal(rng.integers(25, 90))
            r = 0.2 * float(x.std(ddof=1))
            assert fuzzy_entropy(x, 2, r) == pytest.approx(
                naive_fuzzen(list(x), 2, r), abs=1e-12
            )

    def test_short_signals_match_oracle(self):
        # few pairs, all far apart under the default r: the similarity sums
        # are tiny, and must not be lost against the self-pairs
        rng = np.random.default_rng(20)
        for n in range(4, 9):
            for m in range(1, n - 1):
                x = rng.standard_normal(n)
                r = 0.2 * float(x.std(ddof=1))
                want = naive_fuzzen(list(x), m, r)
                assert fuzzy_entropy(x, m) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(50)
        assert fuzzy_entropy(x + 3.0, 2, 0.25) == pytest.approx(
            fuzzy_entropy(x, 2, 0.25), abs=1e-12
        )


def _brute_disten(x, m, n_bins):
    """DistEn with the histogram range read off every pair's distance."""
    windows = sliding_window_view(x, m)[: x.size - m]
    windows = windows - windows.mean(axis=1, keepdims=True)
    i, j = np.triu_indices(len(windows), 1)
    d = np.abs(windows[i] - windows[j]).max(axis=1)
    if d.max() == 0.0:
        return 0.0
    counts = np.histogram(d, bins=n_bins, range=(0.0, d.max()))[0]
    p = counts[counts > 0] / d.size
    return float(-(p * np.log(p)).sum()) / math.log(n_bins)


class TestDistributionEntropy:
    @pytest.mark.parametrize("family", ["noise", "ties", "constant", "huge", "tiny"])
    def test_equals_brute_force_maximum_distance(self, family):
        rng = np.random.default_rng(23)
        x = {
            "noise": rng.standard_normal(300),
            "ties": rng.integers(0, 3, 300).astype(np.float64),
            "constant": np.full(300, 7.25),
            "huge": 1e150 * rng.standard_normal(300),
            "tiny": 1e-150 * np.round(rng.standard_normal(300), 1),
        }[family]
        for m in (1, 2, 3):
            for n_bins in (2, 17, 256):
                assert distribution_entropy(x, m, n_bins) == _brute_disten(x, m, n_bins)

    def test_constant_is_zero(self):
        assert distribution_entropy(np.full(30, -2.0), 2, 64) == 0.0

    def test_uniform_distances_hit_one(self):
        # window differences (0, 2.6, 3, 5.6) put three pair distances in
        # each half of [0, max distance] -> entropy exactly ln 2 / ln 2
        x = np.array([0.0, 0.0, 2.6, 5.6, 11.2, 11.2])
        assert distribution_entropy(x, 2, 2) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            v = distribution_entropy(rng.standard_normal(100), 2, 64)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_matches_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            x = rng.standard_normal(rng.integers(25, 90))
            assert distribution_entropy(x, 2, 256) == pytest.approx(
                naive_disten(list(x), 2, 256), abs=1e-12
            )


class TestSvdEntropy:
    def test_rank1_coherent_sinusoid(self):
        # delay = full period: every row is [x_i, x_i] -> rank 1
        x = np.sin(2 * np.pi * np.arange(64) / 4)
        assert svd_entropy(x, 2, 4) == pytest.approx(0.0, abs=1e-12)

    def test_all_zero(self):
        assert svd_entropy(np.zeros(32), 3, 1) == 0.0

    def test_equal_singular_values(self):
        # period-3 one-hot: rows cycle 3 orthogonal patterns, 4 repeats each
        x = np.tile([1.0, 0.0, 0.0], 5)[:14]
        assert svd_entropy(x, 3, 1) == pytest.approx(math.log(3), abs=1e-12)

    def test_noise_exceeds_sinusoid(self):
        rng = np.random.default_rng(20)
        t = np.arange(512) / 256.0
        clean = np.sin(2 * np.pi * 9 * t)
        assert svd_entropy(rng.standard_normal(512), 4) > svd_entropy(clean, 4)


class TestHurstExponent:
    def test_white_noise_near_half(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            assert 0.4 <= hurst_exponent(rng.standard_normal(4096)) <= 0.6

    def test_random_walk_near_one(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            walk = np.cumsum(rng.standard_normal(4096))
            assert 0.85 <= hurst_exponent(walk) <= 1.05

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(512)
        assert hurst_exponent(5.0 * x) == pytest.approx(
            hurst_exponent(x), abs=1e-12
        )

    def test_constant_error(self):
        with pytest.raises(ValueError):
            hurst_exponent(np.ones(128))


class TestHiguchiFd:
    def test_straight_line(self):
        x = 0.7 * np.arange(1024) + 3.0
        assert 0.95 <= higuchi_fd(x) <= 1.05

    def test_white_noise(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            assert 1.8 <= higuchi_fd(rng.standard_normal(2048)) <= 2.05

    def test_affine_invariance(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal(512)
        assert higuchi_fd(3.0 * x - 2.0) == pytest.approx(
            higuchi_fd(x), abs=1e-9
        )

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            higuchi_fd(np.arange(10.0), 10)


class TestBoxCountingFd:
    def test_straight_line(self):
        x = np.linspace(0.0, 5.0, 1024)
        assert 0.95 <= box_counting_fd(x) <= 1.1

    def test_constant_convention(self):
        assert box_counting_fd(np.full(64, 3.0)) == 1.0

    def test_noise_exceeds_line(self):
        rng = np.random.default_rng(26)
        line = np.linspace(0.0, 1.0, 1024)
        assert box_counting_fd(rng.standard_normal(1024)) > box_counting_fd(line)


class TestHjorth:
    def test_activity_hand_value(self):
        activity, _, _ = hjorth([1, 2, 3, 4])
        assert activity == 1.25

    def test_mobility_scale_invariant(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal(256)
        _, mob1, comp1 = hjorth(x)
        _, mob2, comp2 = hjorth(4.0 * x)
        assert mob2 == pytest.approx(mob1, rel=1e-12)
        assert comp2 == pytest.approx(comp1, rel=1e-12)

    def test_sinusoid_complexity_near_one(self):
        t = np.arange(1024) / 256.0
        _, _, comp = hjorth(np.sin(2 * np.pi * 10 * t))
        assert abs(comp - 1.0) < 0.05

    def test_constant_error(self):
        with pytest.raises(ValueError):
            hjorth(np.full(10, 2.0))


class TestDfa:
    def test_white_noise(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            assert 0.4 <= dfa(rng.standard_normal(4096)) <= 0.6

    def test_random_walk(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            assert 1.3 <= dfa(np.cumsum(rng.standard_normal(4096))) <= 1.7

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(512)
        assert dfa(7.0 * x) == pytest.approx(dfa(x), abs=1e-12)


class TestCrossingsExtrema:
    def test_alternating_crossings(self):
        assert zero_crossings([1, -1, 1, -1]) == 3

    def test_monotone_no_extrema(self):
        assert local_extrema(np.arange(10.0)) == 0

    def test_hand_extrema(self):
        assert local_extrema([0, 1, 0, 1, 0]) == 3

    def test_zero_touch_is_not_crossing(self):
        assert zero_crossings([1.0, 0.0, 1.0]) == 0


def test_all_features_finite_on_random_input():
    rng = np.random.default_rng(32)
    x = rng.standard_normal(512)
    r = 0.2 * float(x.std(ddof=1))
    values = [
        *vars(stat_summary(x)).values(),
        energy(x),
        average_power(x),
        rms(x),
        line_length(x),
        nonlinear_energy(x),
        shannon_entropy(x),
        approximate_entropy(x, 2, r),
        sample_entropy(x, 2, r),
        permutation_entropy(x, 3),
        weighted_permutation_entropy(x, 3),
        fuzzy_entropy(x, 2, r),
        distribution_entropy(x, 2, 64),
        svd_entropy(x, 3),
        hurst_exponent(x),
        higuchi_fd(x),
        box_counting_fd(x),
        *hjorth(x),
        dfa(x),
        float(zero_crossings(x)),
        float(local_extrema(x)),
    ]
    assert np.all(np.isfinite(values))
