import numpy as np
import pytest

from cpinfer.core import MeanPair, loss_profile_pd
from cpinfer.detect import _penalize, detect_change, thresholded_means
from loss_oracles import two_level


def detector_split(Y, means, gamma):
    """The detector's arg-min over k in {1, ..., T} of the loss of the given
    means plus gamma at interior splits."""
    return _penalize(loss_profile_pd(Y, means.mu1, means.mu2), gamma)[1]


class TestThresholdedMeans:
    def test_noiseless_shrinkage(self):
        mu1 = np.array([2.0, 0.0, -3.0])
        mu2 = np.array([0.0, 1.5, 0.0])
        Y = two_level(10, 4, mu1, mu2)
        mp = thresholded_means(Y, 4, 0.5)
        np.testing.assert_allclose(mp.mu1, [1.5, 0.0, -2.5])
        np.testing.assert_allclose(mp.mu2, [0.0, 1.0, 0.0])

    def test_total_shrinkage(self):
        Y = two_level(6, 3, [0.4, -0.2], [0.1, 0.3])
        mp = thresholded_means(Y, 3, 10.0)
        assert mp.support1.size == 0 and mp.support2.size == 0

    def test_hand_example(self):
        mp = thresholded_means([[2.0], [0.0], [0.0], [0.0]], 2, 0.5)
        np.testing.assert_allclose(mp.mu1, [0.5])
        np.testing.assert_allclose(mp.mu2, [0.0])

    def test_empty_segment(self):
        with pytest.raises(ValueError):
            thresholded_means(np.zeros((4, 1)), 4, 0.1)


class TestPenalizedArgmin:
    def test_constant_series_prefers_no_change(self):
        row = np.array([1.0, -2.0])
        Y = np.tile(row, (8, 1))
        assert detector_split(Y, MeanPair(row, row), gamma=0.5) == 8

    def test_noiseless_shift_recovers_truth(self):
        mu1, mu2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        Y = two_level(12, 7, mu1, mu2)
        assert detector_split(Y, MeanPair(mu1, mu2), gamma=0.01) == 7

    def test_hand_profile(self):
        Y = np.array([[0.0], [0.0], [1.0], [1.0]])
        obj, k = _penalize(loss_profile_pd(Y, [0.0], [1.0]), 0.1)
        np.testing.assert_allclose(obj, [0.35, 0.1, 0.35, 0.5])
        assert k == 2

    def test_boundary_tie_prefers_no_change(self):
        # residuals identical under either mean: every split ties, boundary wins
        Y = np.array([[1.0], [0.0], [0.0], [1.0]])
        assert detector_split(Y, MeanPair([1.0], [1.0]), gamma=0.0) == 4

    def test_interior_tie_takes_smallest_k(self):
        # losses tie exactly at k = 1 and k = 3, strictly below k = 2 and k = 4
        Y = np.array([[0.0], [1.0], [0.0], [1.0]])
        assert detector_split(Y, MeanPair([0.0], [1.0]), gamma=0.0) == 1

    def test_near_tie_decided_by_the_loss_not_the_penalized_sum(self):
        # 1 + 2**-52 + 1.5 and 1.0 + 1.5 round to the same double, yet
        # k = 2 has the strictly smaller loss; detector and tuner agree on it
        from cpinfer.tune import _split

        loss = np.array([1 + 2**-52, 1.0, 5.0])
        assert _penalize(loss, 1.5)[1] == 2
        np.testing.assert_array_equal(_split(loss, np.array([1.5, 3.9, 4.0, 5.0])), [2, 2, 3, 3])


class TestDetectChange:
    def test_noiseless_exact_recovery_any_initializer(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            T = int(rng.integers(20, 60))
            p = int(rng.integers(2, 8))
            k0 = int(rng.integers(int(0.3 * T), int(0.7 * T)))
            mu1 = np.zeros(p)
            mu2 = np.zeros(p)
            mu1[0] = rng.uniform(1, 2)
            mu2[min(1, p - 1)] = rng.uniform(1, 2)
            Y = two_level(T, k0, mu1, mu2)
            tau_init = rng.uniform(0.25, 0.75)
            det = detect_change(Y, tau_init=tau_init, gamma=0.0)
            assert det.changed and det.estimate.k == k0

    def test_profile_minimum_is_estimate(self):
        cfgY = np.random.default_rng(1).normal(size=(30, 4))
        cfgY[15:] += 2.0
        det = detect_change(cfgY)
        obj = det.objective_profile
        k = det.estimate.k
        if k < 30:
            assert obj[k - 1] == obj.min()
        assert det.changed == (k < 30)

    def test_gamma_monotone_no_change_region(self):
        # once gamma declares "no change", any larger gamma does as well
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(40, 6))
        Y[20:] += 0.25
        flipped = False
        for gamma in np.linspace(0.0, 2.0, 41):
            det = detect_change(Y, gamma=float(gamma), lam=0.1)
            if not det.changed:
                flipped = True
            elif flipped:
                pytest.fail("no-change region is not an up-set in gamma")

    def test_gamma_zero_is_pure_loss_argmin(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(25, 3))
        det = detect_change(Y, gamma=0.0, lam=0.05)
        assert det.estimate.k == detector_split(Y, det.initial_means, 0.0)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(50, 8))
        Y[30:, 1] += 1.5
        perm = rng.permutation(8)
        det = detect_change(Y)
        det_p = detect_change(Y[:, perm])
        assert det.estimate.k == det_p.estimate.k

    def test_degenerate_initializer_rejected(self):
        with pytest.raises(ValueError):
            detect_change(np.zeros((10, 1)) + np.arange(10)[:, None], tau_init=0.01)

    def test_levels_are_reported_as_floats(self):
        det = detect_change(np.random.default_rng(6).normal(size=(40, 6)),
                            lam=np.float32(0.25), gamma=np.int64(1))
        assert type(det.lambda_used) is float and det.lambda_used == 0.25
        assert type(det.gamma_used) is float and det.gamma_used == 1.0
