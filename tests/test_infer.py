import numpy as np
import pytest

from cpinfer.core import MeanPair
from cpinfer.infer import (
    QuantileMCSettings,
    _exact_quantile,
    _support,
    confidence_interval,
    limit_quantile,
    plugin_sigma_sq,
    plugin_xi_sq,
    refit_means,
    simulate_argmin_locations,
)
from cpinfer.pls import full_pipeline
from loss_oracles import two_level
from reference_pipeline import scalar_profile

FAST_MC = QuantileMCSettings(paths=8000, seed=5)


class TestRefitMeans:
    def test_full_support_is_plain_stopped_means(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(10, 3))
        mp = refit_means(Y, 4, [0, 1, 2], [0, 1, 2])
        np.testing.assert_allclose(mp.mu1, Y[:4].mean(axis=0))
        np.testing.assert_allclose(mp.mu2, Y[4:].mean(axis=0))

    def test_empty_supports_give_zeros(self):
        Y = np.arange(12.0).reshape(6, 2)
        mp = refit_means(Y, 3, [], [])
        assert not mp.mu1.any() and not mp.mu2.any()

    def test_hand_masking(self):
        Y = np.array([[2.0, 9.0], [0.0, 9.0], [0.0, 1.0], [0.0, 1.0]])
        mp = refit_means(Y, 2, [0], [1])
        np.testing.assert_allclose(mp.mu1, [1.0, 0.0])
        np.testing.assert_allclose(mp.mu2, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [[-1], [2], [0.7], [0, 1.0], [True], ["0"], [[0, 1], [1, 0]]])
    def test_bad_support_index_rejected(self, bad):
        Y = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match="support ind"):
            refit_means(Y, 2, bad, [0])
        with pytest.raises(ValueError, match="support ind"):
            refit_means(Y, 2, [0], bad)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.intp])
    @pytest.mark.parametrize("indices, bad", [([0, 2, 3], None), ([3, 1], None), ([1, 1], None),
                                              ([-1, 2], -1), ([2, -128], -128), ([0, 4], 4),
                                              ([2, 5, 1], 5)],
                             ids=["increasing", "unsorted", "duplicate", "negative",
                                  "most negative", "out of range", "in and out"])
    def test_every_signed_index_type_is_range_checked(self, dtype, indices, bad):
        # a negative index of any width wraps past p as an unsigned one
        s = np.array(indices, dtype=dtype)
        if bad is None:
            assert _support(s, 4) is s
        else:
            with pytest.raises(ValueError, match=f"^support index {bad} outside 0..3$"):
                _support(s, 4)

    @pytest.mark.parametrize("value", [4, 2**64 - 1])
    def test_unsigned_indices_past_the_range(self, value):
        with pytest.raises(ValueError, match=f"^support index {value} outside 0..3$"):
            _support(np.array([0, value], dtype=np.uint64), 4)


class TestPluginXiSq:
    def test_zero_jump(self):
        assert plugin_xi_sq(MeanPair([1.0, 2.0], [1.0, 2.0])) == 0.0

    def test_hand_value(self):
        assert plugin_xi_sq(MeanPair([1.0, 0.0], [0.0, 1.0])) == pytest.approx(2.0)

    def test_two_computation_orders_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = int(rng.integers(1, 10))
            mp = MeanPair(rng.normal(size=p), rng.normal(size=p))
            t1, t2 = mp.projected_levels()
            assert plugin_xi_sq(mp) == pytest.approx(t1 - t2, rel=1e-10)
            assert plugin_xi_sq(mp) >= 0.0


class TestPluginSigmaSq:
    def test_noiseless_is_zero(self):
        mu1 = np.array([1.0, 0.0])
        mu2 = np.array([0.0, 1.0])
        Y = two_level(6, 3, mu1, mu2)
        assert plugin_sigma_sq(Y, 3, MeanPair(mu1, mu2)) == 0.0

    def test_hand_residuals(self):
        # surrogate (1.1, 0.9, 0.1, -0.1) around levels (1, 0), xi^2 = 1, k = 2:
        # residual sum 4 * 0.01, so sigma^2 = 0.04 / (4 * 1) = 0.01
        Y = np.array([[1.1], [0.9], [0.1], [-0.1]])
        mp = MeanPair([1.0], [0.0])
        assert plugin_xi_sq(mp) == 1.0
        assert plugin_sigma_sq(Y, 2, mp) == pytest.approx(0.01)

    def test_scaling_recomputation(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(20, 3))
        mp = MeanPair([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        base = plugin_sigma_sq(Y, 10, mp)
        for c in (0.5, 3.0):
            scaled = plugin_sigma_sq(c * Y, 10, MeanPair(c * mp.mu1, c * mp.mu2))
            # direct recomputation from the definition
            mpc = MeanPair(c * mp.mu1, c * mp.mu2)
            expected = scalar_profile(c * Y, 0.0, mpc.mu1, mpc.mu2)[9] / plugin_xi_sq(mpc)
            assert scaled == pytest.approx(expected, rel=1e-12)


class TestLimitQuantile:
    def test_quantile_tends_to_zero_as_alpha_grows(self):
        c = limit_quantile(0.98, FAST_MC)
        assert 0.0 <= c < 0.5

    def test_monotone_table_and_symmetry(self):
        sample = simulate_argmin_locations(FAST_MC)
        values = np.quantile(np.abs(sample), 1.0 - np.array([0.01, 0.05, 0.1, 0.5]))
        assert np.all(np.diff(values) < 0)  # strictly decreasing in alpha

        n = sample.size
        # sign balance: the median sits at zero within 3 binomial SEs
        assert abs((sample < 0).mean() - 0.5) <= 3 * np.sqrt(0.25 / n) + (sample == 0).mean()
        # two-sided tail symmetry at a few thresholds
        for x in (1.0, 5.0, 10.0):
            p_hi = (sample > x).mean()
            p_lo = (sample < -x).mean()
            se = np.sqrt((p_hi + p_lo) / n)
            assert abs(p_hi - p_lo) <= 3 * se + 1e-12

    def test_deterministic_given_seed(self):
        a = simulate_argmin_locations(FAST_MC)
        b = simulate_argmin_locations(FAST_MC)
        np.testing.assert_array_equal(a, b)

    def test_chunks_draw_from_their_own_substreams(self):
        # a larger budget appends chunks and leaves the earlier draws as they were
        a = simulate_argmin_locations(QuantileMCSettings(paths=2048, seed=8))
        b = simulate_argmin_locations(QuantileMCSettings(paths=4096, seed=8))
        np.testing.assert_array_equal(a, b[:2048])
        assert not np.array_equal(b[:2048], b[2048:])

    def test_grid_settings_have_no_effect(self):
        a = simulate_argmin_locations(QuantileMCSettings(paths=3000, seed=4))
        b = simulate_argmin_locations(QuantileMCSettings(10.0, 0.5, paths=3000, seed=4))
        np.testing.assert_array_equal(a, b)

class TestExactQuantile:
    """The default, closed-form critical values of the arg-min law."""

    def test_classical_value(self):
        assert limit_quantile(0.05) == pytest.approx(11.0333, abs=1e-3)

    def test_strictly_decreasing_in_alpha(self):
        alphas = [5e-324, 1e-300, 1e-50, 1e-6, 0.01, 0.05, 0.1, 0.5, 0.9, 1 - 1e-9]
        values = [limit_quantile(a) for a in alphas]
        assert all(c > 0.0 for c in values)
        assert np.all(np.diff(values) < 0)

    def test_computed_once_per_level(self):
        # the bisection ran on every pipeline call without a supplied value
        first = limit_quantile(0.05)
        hits = _exact_quantile.cache_info().hits
        assert limit_quantile(np.float64(0.05)) == first
        assert _exact_quantile.cache_info().hits == hits + 1

    def test_pipeline_default_is_the_cached_value(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(80, 12))
        Y[40:, :3] += 1.5
        default = full_pipeline(Y).record()
        assert default == full_pipeline(Y, c_alpha=limit_quantile(0.05)).record()
        assert default["status"] == "ok"

    def test_matches_scipy_implementation(self):
        # G(x) written directly, with the e^x term in log space through log_ndtr
        from scipy.optimize import brentq
        from scipy.special import log_ndtr, ndtr

        def G(x):
            r = np.sqrt(x)
            return (1 + np.sqrt(x / (2 * np.pi)) * np.exp(-x / 8) - (x + 5) / 2 * ndtr(-r / 2)
                    + 1.5 * np.exp(x + log_ndtr(-1.5 * r)))

        for alpha in (0.001, 0.01, 0.05, 0.1, 0.5, 0.9):
            ref = brentq(lambda c: 2 * G(c) - 1 - (1 - alpha), 1e-12, 100.0, xtol=1e-14)
            assert limit_quantile(alpha) == pytest.approx(ref, abs=1e-10)

    def test_matches_simulator_oracle(self):
        # the empirical law of |V| at the exact quantile is 1 - alpha within
        # 4 binomial standard errors; the draws come from Williams' path
        # decomposition, a derivation independent of the closed form
        sample = np.abs(simulate_argmin_locations(QuantileMCSettings(paths=1_000_000, seed=3)))
        n = sample.size
        for alpha in (0.01, 0.05, 0.1, 0.5):
            ecdf = np.mean(sample <= limit_quantile(alpha))
            assert abs(ecdf - (1 - alpha)) <= 4 * np.sqrt(alpha * (1 - alpha) / n), alpha


class TestConfidenceInterval:
    def test_degenerate_noise_collapses(self):
        res = confidence_interval(7, 2.0, 0.0, 11.03, 20)
        assert res.interval_int == (7.0, 7.0)
        assert res.interval_frac == (0.35, 0.35)

    def test_hand_endpoints(self):
        res = confidence_interval(70, 1.0, 0.16, 11.03, 350)
        lo, hi = res.interval_int
        assert lo == pytest.approx(68.2352)
        assert hi == pytest.approx(71.7648)
        np.testing.assert_allclose(res.interval_frac, (lo / 350, hi / 350))

    def test_clamped_to_grid(self):
        res = confidence_interval(2, 1.0, 10.0, 11.03, 50)
        lo, hi = res.interval_int
        assert lo == 1.0 and hi == 50.0

    def test_half_width_linear_in_inputs(self):
        base = confidence_interval(25, 1.0, 0.2, 10.0, 1000)
        w0 = base.interval_int[1] - base.interval_int[0]
        doubled_c = confidence_interval(25, 1.0, 0.2, 20.0, 1000)
        assert doubled_c.interval_int[1] - doubled_c.interval_int[0] == pytest.approx(2 * w0)
        doubled_ratio = confidence_interval(25, 0.5, 0.2, 10.0, 1000)
        assert doubled_ratio.interval_int[1] - doubled_ratio.interval_int[0] == pytest.approx(2 * w0)

    @pytest.mark.parametrize("xi_sq", [np.nan, np.inf, -np.inf])
    def test_non_finite_jump_rejected(self, xi_sq):
        # nan used to give the interval (1, T) silently
        with pytest.raises(ValueError, match="squared jump must be finite"):
            confidence_interval(5, xi_sq, 1.0, 11.03, 10)
