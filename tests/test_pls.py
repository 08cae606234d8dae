import tracemalloc

import numpy as np
import pytest

from cpinfer.core import DegenerateJumpError, MeanPair, loss_1d
from cpinfer.pls import _pls_profile, full_pipeline, pls_estimate


def naive_pls(Y, mu1, mu2):
    """Literal evaluation of the projected two-segment loss at every interior
    split, with explicit Python sums."""
    Y = np.asarray(Y, float)
    eta = np.asarray(mu1, float) - np.asarray(mu2, float)
    t1 = float(eta @ np.asarray(mu1, float))
    t2 = float(eta @ np.asarray(mu2, float))
    z = [float(eta @ row) for row in Y]
    T = len(z)
    losses = []
    for k in range(1, T):
        left = sum((v - t1) ** 2 for v in z[:k])
        right = sum((v - t2) ** 2 for v in z[k:])
        losses.append((left + right) / T)
    return int(np.argmin(losses)) + 1, losses


def two_level(T, k0, mu1, mu2):
    Y = np.empty((T, len(mu1)))
    Y[:k0] = mu1
    Y[k0:] = mu2
    return Y


class TestPlsEstimate:
    def test_noiseless_truth_recovery(self):
        mu1, mu2 = np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.5])
        Y = two_level(15, 9, mu1, mu2)
        est = pls_estimate(Y, MeanPair(mu1, mu2))
        assert est.k == 9

    def test_hand_profile(self):
        Y = np.array([[0.0], [0.0], [1.0], [1.0]])
        mp = MeanPair([0.0], [1.0])
        z, prof, k = _pls_profile(Y, mp)
        # theta levels are (eta mu1, eta mu2) = (0, -1); z = -y
        assert k == 2
        np.testing.assert_allclose(prof, [0.25, 0.0, 0.25])

    def test_zero_jump_is_degenerate(self):
        with pytest.raises(DegenerateJumpError):
            pls_estimate(np.eye(4), MeanPair([1.0, 0, 0, 0], [1.0, 0, 0, 0]))

    def test_swap_with_time_reversal_symmetry(self):
        # swapping the means negates the surrogate and exchanges the segment
        # roles, which is the same problem on the time-reversed series:
        # Q(z reversed, T - k, th2, th1) == Q(z, k, th1, th2)
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(20, 4))
        Y[12:, 0] += 1.0
        mu1, mu2 = rng.normal(size=4), rng.normal(size=4)
        a = pls_estimate(Y, MeanPair(mu1, mu2))
        b = pls_estimate(Y[::-1], MeanPair(mu2, mu1))
        assert b.k == 20 - a.k

    def test_swap_alone_changes_segment_roles(self):
        # the plain swap is *not* loss-invariant: it fits the levels to the
        # wrong segments (counterexample frozen from a seeded draw)
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(20, 4))
        Y[12:, 0] += 1.0
        mu1, mu2 = rng.normal(size=4), rng.normal(size=4)
        assert pls_estimate(Y, MeanPair(mu1, mu2)).k == 19
        assert pls_estimate(Y, MeanPair(mu2, mu1)).k == 12

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(18, 3))
        Y[10:, 1] += 2.0
        mu1, mu2 = rng.normal(size=3), rng.normal(size=3)
        a = pls_estimate(Y, MeanPair(mu1, mu2))
        for c in (0.03, 7.0):
            b = pls_estimate(c * Y, MeanPair(c * mu1, c * mu2))
            assert a.k == b.k

    def test_matches_exhaustive_naive_evaluation(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            T = int(rng.integers(3, 13))
            p = int(rng.integers(1, 4))
            Y = rng.normal(size=(T, p))
            mu1 = rng.normal(size=p)
            mu2 = rng.normal(size=p)
            if np.allclose(mu1, mu2):
                continue
            expected, losses = naive_pls(Y, mu1, mu2)
            mp = MeanPair(mu1, mu2)
            assert pls_estimate(Y, mp).k == expected
            _, prof, _ = _pls_profile(Y, mp)
            np.testing.assert_allclose(prof, losses, rtol=1e-10)

    def test_step_function_structure(self):
        # evaluating the loss at any real fraction equals the profile entry
        # of its floor grid index
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(11, 2))
        mp = MeanPair([1.0, 0.0], [0.0, 1.0])
        z, prof, _ = _pls_profile(Y, mp)
        t1, t2 = mp.projected_levels()
        for tau in rng.uniform(1 / 11, 1.0 - 1e-9, size=25):
            k = int(np.floor(11 * tau))
            assert loss_1d(z, k, t1, t2) == pytest.approx(prof[k - 1], rel=1e-12)


class TestFullPipeline:
    def test_no_change_input_stops_early(self):
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(60, 10))
        res = full_pipeline(Y, with_ci=True, c_alpha=11.03)
        assert res.status == "no_change"
        assert not res.detection.changed
        assert res.pls_estimate is None
        assert res.inference is None

    @pytest.mark.parametrize("alpha, c_alpha", [(3.0, 11.0), (1.5, None), (0.0, 11.0)])
    def test_level_checked_before_any_work(self, alpha, c_alpha):
        # a supplied c_alpha does not excuse the level; no data is read first
        with pytest.raises(ValueError, match="level must lie in"):
            full_pipeline(np.full((10, 2), np.nan), alpha=alpha, c_alpha=c_alpha)
        mu1, mu2 = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        with pytest.raises(ValueError, match="level must lie in"):
            full_pipeline(two_level(20, 10, mu1, mu2), alpha=alpha, c_alpha=c_alpha)
        res = full_pipeline(two_level(20, 10, mu1, mu2), alpha=alpha, with_ci=False)
        assert res.status == "ok"

    def test_noiseless_shift_recovers_and_collapses_interval(self):
        mu1 = np.array([2.0, 0.0, 0.0, 0.0])
        mu2 = np.array([0.0, 2.0, 0.0, 0.0])
        Y = two_level(20, 10, mu1, mu2)
        res = full_pipeline(Y, c_alpha=11.03)
        assert res.status == "ok"
        assert res.pls_estimate.k == 10
        lo, hi = res.inference.interval_int
        assert lo == hi == 10
        assert res.inference.sigma_sq_hat == 0.0
        assert lo <= 10 <= hi

    def test_loss_profile_minimum_is_estimate(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(40, 6))
        Y[22:, :2] += 1.5
        res = full_pipeline(Y, with_ci=False)
        assert res.status == "ok"
        k = res.pls_estimate.k
        assert res.loss_profile[k - 1] == res.loss_profile.min()
        assert res.surrogate.shape == (40,)
        assert res.loss_profile.shape == (39,)

    def test_explicit_overrides_propagate(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(30, 4))
        Y[20:, 0] += 2.0
        res = full_pipeline(Y, lam=0.2, gamma=0.1, with_ci=False)
        assert res.detection.lambda_used == 0.2
        assert res.detection.gamma_used == 0.1

    def test_degenerate_refit_reports_unlocatable(self, monkeypatch):
        # a positive detection whose re-estimated means coincide is reported
        # as "degenerate", not as an exception or a bogus location
        import cpinfer.pls as pls_mod

        rng = np.random.default_rng(8)
        Y = rng.normal(size=(30, 3))
        Y[18:, 0] += 2.0
        monkeypatch.setattr(
            pls_mod, "thresholded_means",
            lambda Y, k, lam: MeanPair(np.zeros(3), np.zeros(3)),
        )
        res = full_pipeline(Y, c_alpha=11.03)
        assert res.detection.changed
        assert res.status == "degenerate"
        assert res.pls_estimate is None and res.inference is None

    def test_degenerate_plugin_keeps_location(self, monkeypatch):
        # if only the refitted plugin means collapse, the location survives
        # but no interval is formed
        import cpinfer.pls as pls_mod

        rng = np.random.default_rng(9)
        Y = rng.normal(size=(30, 3))
        Y[18:, 0] += 2.0
        monkeypatch.setattr(
            pls_mod, "refit_means",
            lambda Y, k, s1, s2: MeanPair(np.zeros(3), np.zeros(3)),
        )
        res = full_pipeline(Y, c_alpha=11.03)
        assert res.status == "degenerate"
        assert res.pls_estimate is not None
        assert res.inference is None

    def test_peak_allocation_is_a_fraction_of_the_input(self):
        # the statistics are built by row blocks: no T x p temporary
        Y = np.random.default_rng(10).normal(size=(4000, 500))
        Y[1600:, :5] += 1.0
        tracemalloc.start()
        try:
            res = full_pipeline(Y, c_alpha=11.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "ok"
        assert peak <= 0.25 * Y.nbytes

    def test_record_fields(self):
        mu1, mu2 = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        res = full_pipeline(two_level(20, 10, mu1, mu2) + np.arange(20)[:, None] % 3 * 0.1)
        rec = res.record()
        det = res.detection
        assert rec == {**det.record(), "status": res.status, "k_tilde": res.pls_estimate.k,
                       "tau_tilde": res.pls_estimate.tau, "xi_sq": res.inference.xi_sq_hat,
                       "sigma_sq": res.inference.sigma_sq_hat}
        assert det.record() == {"changed": det.changed, "k_hat": det.estimate.k,
                                "tau_hat": det.estimate.tau, "lambda": det.lambda_used,
                                "gamma": det.gamma_used}
        assert {type(v) for v in rec.values()} <= {bool, int, float, str}

    def test_record_of_stages_that_did_not_run_is_none(self):
        rng = np.random.default_rng(4)
        rec = full_pipeline(rng.normal(size=(60, 10)), c_alpha=11.03).record()
        assert rec["status"] == "no_change" and rec["changed"] is False
        assert rec["k_tilde"] is rec["tau_tilde"] is rec["xi_sq"] is rec["sigma_sq"] is None
        mu1, mu2 = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        rec = full_pipeline(two_level(20, 10, mu1, mu2), with_ci=False).record()
        assert rec["k_tilde"] == 10
        assert rec["xi_sq"] is rec["sigma_sq"] is None

    def test_center_option_matches_manual_centering(self):
        from cpinfer.core import center_columns

        rng = np.random.default_rng(7)
        Y = rng.normal(size=(30, 4)) + 5.0
        Y[18:, 0] += 2.0
        a = full_pipeline(Y, center=True, with_ci=False)
        b = full_pipeline(center_columns(Y), with_ci=False)
        assert a.detection.estimate.k == b.detection.estimate.k
