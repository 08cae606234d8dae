import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cpinfer.pls as pls
from cpinfer.core import MeanPair, loss_profile_pd, series_stats
from cpinfer.pls import _pls_profile, full_pipeline, pls_estimate
from loss_oracles import center_columns, loss_pd, two_level
from reference_pipeline import scalar_profile


class TestPlsEstimate:
    def test_noiseless_truth_recovery(self):
        mu1, mu2 = np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, 0.5])
        Y = two_level(15, 9, mu1, mu2)
        est = pls_estimate(Y, MeanPair(mu1, mu2))
        assert est.k == 9

    def test_hand_profile(self):
        Y = np.array([[0.0], [0.0], [1.0], [1.0]])
        mp = MeanPair([0.0], [1.0])
        prof, k = _pls_profile(Y, mp)
        # p = 1 and ||eta|| = 1, so the loss equals the scalar loss of
        # z = -y about the levels (eta mu1, eta mu2) = (0, -1)
        assert k == 2
        np.testing.assert_allclose(prof, [0.25, 0.0, 0.25])

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

    def test_step_function_structure(self):
        # evaluating the loss at any real fraction equals the profile entry
        # of its floor grid index
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(11, 2))
        mp = MeanPair([1.0, 0.0], [0.0, 1.0])
        prof, _ = _pls_profile(Y, mp)
        for tau in rng.uniform(1 / 11, 1.0 - 1e-9, size=25):
            k = int(np.floor(11 * tau))
            assert loss_pd(Y, k, mp.mu1, mp.mu2) == pytest.approx(prof[k - 1], rel=1e-12)


def _draw(seed, T, p):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(T, p)), rng.normal(size=p), rng.normal(size=p)


_cases = dict(seed=st.integers(0, 2**32 - 1), T=st.integers(3, 60), p=st.integers(1, 8))


class TestProjectedLossIdentity:
    """S(k) - S(T) = ||eta||^2 (L(k) - L(T)): the scalar loss S of the
    projected series, computed by the reference, against the library's L."""

    @given(**_cases)
    def test_scalar_loss_is_scaled_vector_loss(self, seed, T, p):
        Y, mu1, mu2 = _draw(seed, T, p)
        mp = MeanPair(mu1, mu2)
        S = scalar_profile(Y, 0.0, mu1, mu2)
        L = loss_profile_pd(Y, mu1, mu2)
        xi_sq = float(mp.jump() @ mp.jump())
        np.testing.assert_allclose(S - S[-1], xi_sq * (L - L[-1]),
                                   rtol=0, atol=1e-10 * np.max(np.abs(S)))

    @given(**_cases)
    def test_locator_is_interior_argmin_of_scalar_loss(self, seed, T, p):
        Y, mu1, mu2 = _draw(seed, T, p)
        S = scalar_profile(Y, 0.0, mu1, mu2)
        assert pls_estimate(Y, MeanPair(mu1, mu2)).k == int(np.argmin(S[:-1])) + 1

    @given(**_cases)
    def test_power_of_two_scaling_is_exact(self, seed, T, p):
        Y, mu1, mu2 = _draw(seed, T, p)
        base = loss_profile_pd(Y, mu1, mu2)
        k = pls_estimate(Y, MeanPair(mu1, mu2)).k
        for j in (-30, -7, 9, 40):
            c = 2.0**j
            assert np.array_equal(loss_profile_pd(c * Y, c * mu1, c * mu2), 4.0**j * base)
            assert pls_estimate(c * Y, MeanPair(c * mu1, c * mu2)).k == k


def _shifted(scale):
    Y = np.random.default_rng(13).normal(size=(200, 50))
    Y[100:, :5] += 1.0
    return Y * scale


_SHIFT = np.random.default_rng(9).normal(size=(30, 3))
_SHIFT[18:, 0] += 2.0
_COINCIDING = MeanPair(np.zeros(3), np.zeros(3))
_LOCATION, _INTERVAL = ("k_tilde", "tau_tilde"), ("xi_sq", "sigma_sq")
# the PipelineResult field that each stage after the detector fills
STAGES = ("refined_means", "loss_profile", "pls_estimate", "inference")

# Each way full_pipeline ends: (the series, the options besides c_alpha, a
# pls function replaced to force the end or None, the status, the record()
# fields left None, the stages that ran).  The edge inputs run unpatched.
EXITS = {
    "shift": (_SHIFT, {}, None, "ok", (), STAGES),
    "shift, no interval": (_SHIFT, {"with_ci": False}, None, "ok", _INTERVAL, STAGES[:3]),
    "no shift": (np.random.default_rng(4).normal(size=(60, 10)), {}, None, "no_change",
                 _LOCATION + _INTERVAL, ()),
    "coinciding refined means": (_SHIFT, {}, ("_shrunk_means", lambda *args: (0.0, _COINCIDING)),
                                 "degenerate", _LOCATION + _INTERVAL, STAGES[:1]),
    "coinciding plugin means": (_SHIFT, {}, ("refit_means", lambda *args: _COINCIDING),
                                "degenerate", _INTERVAL, STAGES[:3]),
    "overflowed xi_sq": (_SHIFT, {}, ("plugin_xi_sq", lambda *args: np.inf), "degenerate",
                         _INTERVAL, STAGES[:3]),
    "overflowed sigma_sq": (_SHIFT, {}, ("plugin_sigma_sq", lambda *args: np.inf), "degenerate",
                            _INTERVAL, STAGES[:3]),
    "T=2": (np.random.default_rng(14).normal(size=(2, 3)), {}, None, "ok", (), STAGES),
    "T=3": (np.random.default_rng(15).normal(size=(3, 3)), {}, None, "ok", (), STAGES),
    "constant": (np.full((40, 6), 3.0), {}, None, "no_change", _LOCATION + _INTERVAL, ()),
    "zero": (np.zeros((40, 6)), {}, None, "no_change", _LOCATION + _INTERVAL, ()),
    "1e-200": (_shifted(1e-200), {}, None, "no_change", _LOCATION + _INTERVAL, ()),
    "1e150": (_shifted(1e150), {}, None, "ok", (), STAGES),
    "1e160": (_shifted(1e160), {}, None, "ok", (), STAGES),
}
XFAIL = {"1e160": pytest.mark.xfail(
    raises=RuntimeWarning,
    reason="the lambda criterion squares the data and overflows; scale-equivariant "
           "tuning (ROADMAP item 1) rescales by a power of two first")}


@pytest.mark.parametrize("Y, options, patch, status, unset, ran", [
    pytest.param(*row, id=name, marks=XFAIL.get(name, ())) for name, row in EXITS.items()])
def test_each_way_the_pipeline_ends(monkeypatch, Y, options, patch, status, unset, ran):
    # a RuntimeWarning is an error in this suite, so each run ends warning-free
    unpatched = full_pipeline(Y, c_alpha=11.03, **options).record()
    if patch:
        monkeypatch.setattr(pls, *patch)
    res = full_pipeline(Y, c_alpha=11.03, **options)
    rec = res.record()
    assert res.status == rec["status"] == status
    assert res.detection.changed is (status != "no_change")
    assert [f for f, v in rec.items() if v is None] == list(unset)
    assert [stage for stage in STAGES if getattr(res, stage) is not None] == list(ran)
    # a forced end leaves what ran before it as it was
    assert {f: v for f, v in rec.items() if f != "status" and f not in unset} == \
        {f: v for f, v in unpatched.items() if f != "status" and f not in unset}


class TestFullPipeline:
    @pytest.mark.parametrize("alpha, c_alpha", [(3.0, 11.0), (1.5, None), (0.0, 11.0)])
    def test_level_checked_before_any_work(self, alpha, c_alpha):
        # a supplied c_alpha does not excuse the level; no data is read first
        with pytest.raises(ValueError, match="level must lie in"):
            full_pipeline(np.full((10, 2), np.nan), alpha=alpha, c_alpha=c_alpha)

    @pytest.mark.parametrize("c_alpha", [-11.0, 0.0, np.nan, np.inf])
    def test_critical_value_checked_before_any_work(self, c_alpha):
        with pytest.raises(ValueError, match="critical value must be finite and positive"):
            full_pipeline(np.full((10, 2), np.nan), c_alpha=c_alpha)

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
        assert res.loss_profile.shape == (39,)

    def test_explicit_overrides_propagate(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(30, 4))
        Y[20:, 0] += 2.0
        res = full_pipeline(Y, lam=0.2, gamma=0.1, with_ci=False)
        assert res.detection.lambda_used == 0.2
        assert res.detection.gamma_used == 0.1

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

    def test_centring_makes_no_copy(self):
        Y = np.random.default_rng(10).normal(size=(4000, 500)) + 3.0
        Y[1600:, :5] += 1.0
        tracemalloc.start()
        try:
            res = full_pipeline(Y, center=True, c_alpha=11.03)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "ok"
        assert peak <= 0.25 * Y.nbytes

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    def test_center_option_matches_centred_copy_on_paper_cells(self, offset):
        from cpinfer.simbench import SimConfig, gen_dataset

        def outcome(res):
            det = res.detection
            return (res.status, det.estimate.k, det.lambda_used, det.gamma_used,
                    res.pls_estimate.k if res.pls_estimate else None)

        for T, p in [(100, 500), (225, 500), (350, 500), (100, 750)]:
            for tau0 in (0.2, 0.4, 0.8):
                Y, _ = gen_dataset(SimConfig(T=T, p=p, s=5, tau0=tau0, seed=5), 1)
                Y += offset * np.linspace(-1.0, 1.0, p)
                a = full_pipeline(Y, center=True, c_alpha=11.03)
                b = full_pipeline(center_columns(Y), c_alpha=11.03)
                assert outcome(a) == outcome(b)

    def test_centred_run_does_not_read_the_uncentred_memo(self):
        # the lambda criterion reads the offset, so a memo that the centred
        # statistics shared with the uncentred ones would move k_hat and lambda
        from cpinfer.simbench import SimConfig, gen_dataset

        Y, _ = gen_dataset(SimConfig(T=225, p=500, s=5, tau0=0.4, seed=5), 0)
        Y += 3.0 * np.random.default_rng(5).uniform(-1.0, 1.0, Y.shape[1])
        expect = {c: full_pipeline(Y.copy(), center=c, c_alpha=11.03).record()
                  for c in (False, True)}
        for order in ((False, True), (True, False)):
            s = series_stats(Y)
            assert {c: full_pipeline(s, center=c, c_alpha=11.03).record() for c in order} == expect
