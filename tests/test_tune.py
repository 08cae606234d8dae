import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cpinfer.tune as tune
from cpinfer.core import loss_profile_pd, series_stats
from cpinfer.detect import _penalize, detect_change, thresholded_means
from cpinfer.tune import (
    DEFAULT_GAMMAS,
    DEFAULT_LAMBDAS,
    _bic_gamma,
    _lambda_criterion,
    _select,
    _split,
    bic_gamma,
    bic_lambda,
)
from loss_oracles import loss_pd


def naive_bic_lambda(Y, k, grid):
    """Literal-sums reference: threshold the segment means, add log(T) per
    union-support coordinate.  k = T fits the one full-sample mean."""
    Y = np.asarray(Y, float)
    T = Y.shape[0]
    segments = [Y[:k], Y[k:]] if k < T else [Y]
    out = []
    for lam in grid:
        rss, support = 0.0, np.zeros(Y.shape[1], dtype=bool)
        for seg in segments:
            m = np.sign(seg.mean(0)) * np.maximum(np.abs(seg.mean(0)) - lam, 0)
            rss += np.sum((seg - m) ** 2)
            support |= m != 0
        out.append(rss + np.count_nonzero(support) * np.log(T))
    return np.array(out)


class TestGrids:
    def test_defaults_strictly_inside_open_intervals(self):
        lg = DEFAULT_LAMBDAS
        gg = DEFAULT_GAMMAS
        assert lg.size == 50 and gg.size == 50
        assert 0.0 < lg[0] and lg[-1] < 0.5
        assert 0.0 < gg[0] and gg[-1] < 1.0
        assert np.all(np.diff(lg) > 0) and np.all(np.diff(gg) > 0)
        np.testing.assert_allclose(np.diff(lg), lg[0])


class TestBicLambda:
    def test_hand_example(self):
        # Y = (2, 0, 1, 1), split k = 2, grid {0.25, 0.45}:
        #   lam = 0.25: means (1, 1) -> (0.75, 0.75);
        #     RSS = (2 - .75)^2 + (.75)^2 + 2 (.25)^2 = 2.25, support 1
        #   lam = 0.45: means -> (0.55, 0.55);
        #     RSS = (1.45)^2 + (.55)^2 + 2 (.45)^2 = 2.81, support 1
        Y = np.array([[2.0], [0.0], [1.0], [1.0]])
        grid = np.array([0.25, 0.45])
        prof = _lambda_criterion(series_stats(Y), 2, grid)
        assert _select(grid, prof) == 0.25
        np.testing.assert_allclose(prof, [2.25 + np.log(4), 2.81 + np.log(4)], rtol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(20, 6))
        Y[12:, :2] += 1.0
        _, prof = bic_lambda(Y, 9)
        np.testing.assert_allclose(prof, naive_bic_lambda(Y, 9, DEFAULT_LAMBDAS), rtol=1e-9)

    @given(
        T=st.integers(2, 12),
        p=st.integers(1, 5),
        split=st.floats(0.0, 1.0),
        cells=st.lists(st.integers(-8, 8), min_size=60, max_size=60),
    )
    @example(T=2, p=1, split=0.0, cells=[3, -5] * 30)
    @example(T=9, p=4, split=1.0, cells=list(range(-8, 9)) * 3 + [0] * 9)
    def test_closed_form_matches_naive_property(self, T, p, split, cells):
        # quarter-integer data puts segment means exactly on grid values
        Y = np.array(cells[: T * p], dtype=float).reshape(T, p) / 4.0
        k = 1 + int(round(split * (T - 2)))
        means = np.concatenate([Y[:k].mean(0), Y[k:].mean(0), Y.mean(0)])
        grid = np.concatenate([0.5 * np.arange(1, 11) / 11, np.abs(means), [0.0, 5.0]])
        s = series_stats(Y)
        prof = _lambda_criterion(s, k, grid)
        np.testing.assert_allclose(prof, naive_bic_lambda(Y, k, grid), rtol=1e-9)
        full = _lambda_criterion(s, T, grid)
        np.testing.assert_allclose(full, naive_bic_lambda(Y, T, grid), rtol=1e-9)

    def test_noiseless_support_recovery_plateau(self):
        mu1 = np.array([2.0, 0.0, 0.0, 0.0])
        mu2 = np.array([0.0, 2.0, 0.0, 0.0])
        Y = np.vstack([np.tile(mu1, (6, 1)), np.tile(mu2, (6, 1))])
        lam, prof = bic_lambda(Y, 6)
        mp = thresholded_means(Y, 6, lam)
        assert list(mp.support1) == [0]
        assert list(mp.support2) == [1]
        # noiseless: residuals grow with shrinkage, so the smallest value wins
        assert lam == DEFAULT_LAMBDAS[0]

    def test_full_shrinkage_gives_total_sum_of_squares(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(10, 3)) * 0.1
        prof = _lambda_criterion(series_stats(Y), 5, np.array([50.0]))
        assert prof[0] == pytest.approx(np.sum(Y**2), rel=1e-12)


class TestBicGamma:
    def test_pure_noise_lands_in_no_change_region(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(60, 20)) - 0  # no shift anywhere
        Y = Y - Y.mean(0)
        lam, _ = bic_lambda(Y, 30)
        means = thresholded_means(Y, 30, lam)
        gamma, _ = bic_gamma(Y, means)
        _, k = _penalize(loss_profile_pd(Y, means.mu1, means.mu2), gamma)
        assert k == Y.shape[0]

    def test_noiseless_shift_flat_profile_tie_breaks_small(self):
        mu1 = np.array([3.0, 0.0])
        mu2 = np.array([0.0, 3.0])
        Y = np.vstack([np.tile(mu1, (8, 1)), np.tile(mu2, (8, 1))])
        lam, _ = bic_lambda(Y, 8)
        means = thresholded_means(Y, 8, lam)
        gamma, prof = _bic_gamma(series_stats(Y), loss_profile_pd(Y, means.mu1, means.mu2), lam)
        # every gamma below the loss gap picks the same split, so the
        # criterion is flat there and the smallest grid value wins
        assert gamma == DEFAULT_GAMMAS[0]

    def test_split_is_piecewise_constant_in_gamma(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(40, 8))
        Y[25:, 0] += 1.2
        lam, _ = bic_lambda(Y, 20)
        means = thresholded_means(Y, 20, lam)
        grid = DEFAULT_GAMMAS
        loss = loss_profile_pd(Y, means.mu1, means.mu2)
        splits = [_penalize(loss, float(g))[1] for g in grid]
        changes = sum(1 for a, b in zip(splits, splits[1:]) if a != b)
        assert changes <= 1  # interior split is gamma-free; single jump to T

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(8)
        Y = rng.normal(size=(50, 10))
        Y[30:, :2] += 1.0
        lam, prof_l1 = bic_lambda(Y, 25)
        means = thresholded_means(Y, 25, lam)
        g1, prof1 = bic_gamma(Y, means)
        g2, prof2 = bic_gamma(Y, means)
        assert g1 == g2
        np.testing.assert_array_equal(prof1, prof2)

    @pytest.mark.parametrize("lam", [None, 0.2])
    def test_profile_matches_a_brute_force_reference(self, lam):
        # per gamma: the penalized split from the direct losses, then the
        # smallest lambda criterion there (or the one at the fixed level)
        # plus log(T) when the split is interior
        rng = np.random.default_rng(10)
        kinds = set()
        for _ in range(40):
            T, p = int(rng.integers(6, 40)), int(rng.integers(1, 12))
            Y = rng.normal(size=(T, p))
            Y[int(rng.integers(1, T)):, : int(rng.integers(1, p + 1))] += rng.uniform(0.0, 2.0)
            k_init = T // 2
            level = bic_lambda(Y, k_init)[0] if lam is None else lam
            means = thresholded_means(Y, k_init, level)
            loss = np.array([loss_pd(Y, k, means.mu1, means.mu2) for k in range(1, T + 1)])
            lams = DEFAULT_LAMBDAS if lam is None else [lam]
            criterion, expect = {}, []
            for g in DEFAULT_GAMMAS:
                obj = loss + g * (np.arange(1, T + 1) < T)
                k = T if obj[-1] <= obj.min() else int(np.argmin(obj)) + 1
                if k not in criterion:
                    criterion[k] = naive_bic_lambda(Y, k, lams).min() + (k < T) * np.log(T)
                kinds.add(k < T)
                expect.append(criterion[k])
            if lam is None:
                gamma, profile = bic_gamma(Y, means)
            else:
                loss_lib = loss_profile_pd(Y, means.mu1, means.mu2)
                gamma, profile = _bic_gamma(series_stats(Y), loss_lib, lam)
            np.testing.assert_allclose(profile, expect, rtol=1e-9)
            assert gamma == DEFAULT_GAMMAS[np.argmin(expect)]
        assert kinds == {True, False}  # both interior splits and k = T were scored

    @given(loss=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(-3.0, 3.0),
                         min_size=2, max_size=12),
           lam=st.sampled_from([None, 0.2]))
    @example(loss=[1.0, 1.0], lam=None)              # T = 2, flat
    @example(loss=[0.5, 1.0], lam=None)              # T = 2, both splits
    @example(loss=[0.0] * 7, lam=None)               # flat
    @example(loss=[1.0, 0.5, 0.5, 0.5, 1.0], lam=0.2)  # tied interior minima
    @example(loss=[0.75, 0.25, 0.75, 0.25, 0.75], lam=None)
    def test_first_and_last_penalties_give_the_distinct_splits(self, loss, lam):
        # _bic_gamma scores {splits[0], splits[-1]}: the split is j up to
        # some penalty and T above it, so these are np.unique's splits and
        # the profile is the one scored on each of those
        loss = np.array(loss)
        T = loss.size
        splits = _split(loss, DEFAULT_GAMMAS)
        assert sorted({int(splits[0]), int(splits[-1])}) == np.unique(splits).tolist()
        s = series_stats(np.random.default_rng(T).normal(size=(T, 3)))
        expect = np.empty(DEFAULT_GAMMAS.size)
        for k in np.unique(splits).tolist():
            expect[splits == k] = tune._criterion(s, k, lam).min() + (k < T) * np.log(T)
        gamma, profile = _bic_gamma(s, loss, lam)
        np.testing.assert_array_equal(profile, expect)
        assert gamma == DEFAULT_GAMMAS[np.argmin(expect)]


class TestCriterionMemo:
    @staticmethod
    def shifted(seed=9):
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(80, 20))
        Y[50:, :3] += 1.5
        return Y

    def test_profile_does_not_alias_the_memo(self):
        Y = self.shifted()
        s = series_stats(Y)
        lam, profile = bic_lambda(s, 40)
        expect = profile.copy()
        profile[:] = -1.0
        again = bic_lambda(s, 40)
        assert again[0] == lam
        np.testing.assert_array_equal(again[1], expect)
        np.testing.assert_array_equal(expect, bic_lambda(Y, 40)[1])

    def test_fixed_level_bypasses_the_memo(self, monkeypatch):
        calls = []

        def counted(s, k, grid):
            calls.append((k, grid.size))
            return _lambda_criterion(s, k, grid)

        monkeypatch.setattr(tune, "_lambda_criterion", counted)
        s = series_stats(self.shifted())
        bic_lambda(s, 40)
        bic_lambda(s, 40)
        assert calls == [(40, DEFAULT_LAMBDAS.size)]
        fixed = series_stats(self.shifted())
        detect_change(fixed, lam=0.2)  # gamma is tuned at the one level 0.2
        assert calls[1:] and {size for _, size in calls[1:]} == {1}
        assert fixed._criteria == {}

    def test_refit_level_after_detection_matches_a_fresh_evaluation(self):
        Y = self.shifted()
        s = series_stats(Y)
        k_hat = detect_change(s).estimate.k
        assert k_hat < Y.shape[0] and k_hat in s._criteria  # the detector scored this split
        lam, profile = bic_lambda(s, k_hat)
        lam_fresh, profile_fresh = bic_lambda(series_stats(Y), k_hat)
        assert lam == lam_fresh
        np.testing.assert_array_equal(profile, profile_fresh)
