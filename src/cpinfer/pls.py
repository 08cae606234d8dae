"""Projected least-squares location of the change point, and the full
detect -> re-estimate -> locate -> infer pipeline.

The locator projects the series onto the estimated jump direction and
minimizes the scalar two-segment loss over interior splits {1, ..., T-1};
declaring "no change" is the detector's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ChangePointEstimate,
    DegenerateJumpError,
    MeanPair,
    center_columns,
    loss_profile_1d,
    project_series,
    series_stats,
)
from .detect import DetectionResult, detect_change, thresholded_means
from .infer import (
    InferenceResult,
    _check_level,
    confidence_interval,
    limit_quantile,
    plugin_sigma_sq,
    plugin_xi_sq,
    refit_means,
)
from .tune import bic_lambda

__all__ = ["PipelineResult", "pls_estimate", "full_pipeline"]


@dataclass
class PipelineResult:
    """Everything the pipeline produced.

    ``status`` is "no_change" (detector declared no shift; location fields
    are None), "degenerate" (a shift was flagged but the jump estimate was
    numerically zero, or the interval could not be formed), or "ok".
    ``loss_profile[k - 1]`` is the surrogate loss at split k, k = 1..T-1.
    """

    detection: DetectionResult
    status: str
    refined_means: MeanPair | None = None
    pls_estimate: ChangePointEstimate | None = None
    surrogate: np.ndarray | None = None
    loss_profile: np.ndarray | None = None
    inference: InferenceResult | None = None


def _jump_is_degenerate(means: MeanPair) -> bool:
    scale = 1.0 + np.linalg.norm(means.mu1) + np.linalg.norm(means.mu2)
    return means.jump_size() < 1e-12 * scale


def _pls_profile(Y, means: MeanPair) -> tuple[np.ndarray, np.ndarray, int]:
    if _jump_is_degenerate(means):
        raise DegenerateJumpError("mean estimates coincide: projection is uninformative")
    z = project_series(Y, means.jump())
    theta1, theta2 = means.projected_levels()
    profile = loss_profile_1d(z, theta1, theta2)[:-1]
    return z, profile, int(np.argmin(profile)) + 1


def pls_estimate(Y, means: MeanPair) -> ChangePointEstimate:
    """Arg-min over k in {1, ..., T-1} of the surrogate loss built from the
    given means (smallest k on ties)."""
    z, _, k = _pls_profile(Y, means)
    return ChangePointEstimate(k, z.size)


def full_pipeline(
    Y,
    *,
    tau_init: float = 0.5,
    alpha: float = 0.05,
    lam: float | None = None,
    gamma: float | None = None,
    with_ci: bool = True,
    c_alpha: float | None = None,
    center: bool = False,
) -> PipelineResult:
    """Detect, re-estimate the means at the detected split, locate by
    projected least squares, and (optionally) build the level-``alpha``
    interval.

    The shrinkage steps assume the segment means are sparse in the given
    coordinates, so the data is used as supplied; pass ``center=True`` (or
    pre-apply ``center_columns``) when only the mean *change* is sparse.
    ``lam``/``gamma`` override the criterion-based tuning.  The critical
    value is ``c_alpha`` when supplied, else the exact ``limit_quantile(alpha)``;
    pass ``c_alpha=limit_quantile(alpha, settings)`` for a Monte Carlo value.
    With ``with_ci`` an ``alpha`` outside (0, 1) raises ValueError up front.
    """
    if with_ci:
        _check_level(alpha)
        if c_alpha is None:
            c_alpha = limit_quantile(alpha)
    stats = series_stats(center_columns(Y) if center else Y)  # the one validation
    T = stats.T
    det = detect_change(stats, tau_init, lam=lam, gamma=gamma)
    if not det.changed:
        return PipelineResult(detection=det, status="no_change")

    k_hat = det.estimate.k
    lam_refit = lam
    if lam_refit is None:
        lam_refit, _ = bic_lambda(stats, k_hat)
    means = thresholded_means(stats, k_hat, lam_refit)

    try:
        z, profile, k_tilde = _pls_profile(stats, means)
    except DegenerateJumpError:
        return PipelineResult(detection=det, status="degenerate", refined_means=means)

    result = PipelineResult(
        detection=det,
        status="ok",
        refined_means=means,
        pls_estimate=ChangePointEstimate(k_tilde, T),
        surrogate=z,
        loss_profile=profile,
    )
    if not with_ci:
        return result

    try:
        refit = refit_means(stats, k_tilde, means.support1, means.support2)
        xi_sq = plugin_xi_sq(refit)
        sigma_sq = plugin_sigma_sq(stats, k_tilde, refit)
        result.inference = confidence_interval(k_tilde, xi_sq, sigma_sq, c_alpha, T, alpha=alpha)
    except DegenerateJumpError:
        result.status = "degenerate"
    return result
