"""``full_pipeline`` against the end-to-end reference in ``reference_pipeline``.

Profiles match within 1e-9 relative.  A decision is compared only while
every decision before it, and its own, is resolved: the reference's best and
next grid value (or split) differ by more than 1e-9 relative, so rounding
cannot flip it.  Time reversal is not tested: the split k = T scores the
pre-split mean at the initial split against every row, the paper's encoding
of "no change", so reversing the rows may move the status.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cpinfer.core import _centered, loss_profile_pd, series_stats
from cpinfer.detect import _initial_split
from cpinfer.pls import full_pipeline
from cpinfer.tune import _bic_gamma, bic_lambda
from reference_pipeline import reference_pipeline

RTOL = 1e-9


@given(T=st.integers(4, 60), p=st.integers(1, 16),
       tau0=st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
       tau_init=st.sampled_from([0.3, 0.5, 0.7]),
       jump=st.sampled_from([0.5, 1.5, 3.0]),
       center=st.booleans(),
       lam=st.sampled_from([None, 0.0, 0.1, 0.3]),
       gamma=st.sampled_from([None, 0.0, 0.05]),
       seed=st.integers(0, 2**16))
def test_pipeline_matches_reference(T, p, tau0, tau_init, jump, center, lam, gamma, seed):
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(T, p)) + rng.uniform(-3.0, 3.0, p)
    Y[math.floor(T * tau0):, : max(1, p // 4)] += jump
    res = full_pipeline(Y, tau_init=tau_init, lam=lam, gamma=gamma, center=center, c_alpha=11.03)
    ref = reference_pipeline(Y, tau_init, lam=lam, gamma=gamma, center=center, c_alpha=11.03)
    det = res.detection
    stats = series_stats(Y)
    if center:
        stats = _centered(stats)

    _, lam_profile = bic_lambda(stats, _initial_split(T, tau_init))
    np.testing.assert_allclose(lam_profile, ref["lambda_profile"], rtol=RTOL, atol=0)
    if lam is None:
        if ref["lambda_margin"] <= RTOL:
            return
        assert det.lambda_used == ref["lambda"]

    loss = loss_profile_pd(stats, det.initial_means.mu1, det.initial_means.mu2)
    _, gamma_profile = _bic_gamma(stats, loss, lam)
    np.testing.assert_allclose(gamma_profile, ref["gamma_profile"], rtol=RTOL, atol=0)
    if gamma is None:
        if ref["gamma_margin"] <= RTOL:
            return
        assert det.gamma_used == ref["gamma"]
    np.testing.assert_allclose(det.objective_profile, ref["objective_profile"], rtol=RTOL, atol=0)

    if ref["k_hat_margin"] <= RTOL:
        return
    assert det.estimate.k == ref["k_hat"]
    if ref["status"] == "no_change":
        assert res.status == "no_change"
        return
    if lam is None and ref["lambda_refit_margin"] <= RTOL:
        return
    if "k_tilde" not in ref:  # the refined jump vanished
        assert res.status == ref["status"] == "degenerate"
        return

    np.testing.assert_allclose(res.loss_profile, ref["locator_profile"], rtol=RTOL, atol=0)
    if ref["k_tilde_margin"] <= RTOL:
        return
    assert res.pls_estimate.k == ref["k_tilde"]
    assert res.status == ref["status"]
    if res.status == "ok":
        np.testing.assert_allclose(res.inference.interval_int, ref["interval"], rtol=RTOL, atol=0)
