"""Projected least-squares location of the change point, and the full
detect -> re-estimate -> locate -> infer pipeline.

The locator minimizes over interior splits {1, ..., T-1} the scalar loss S(k)
of z_t = eta'y_t about the levels eta'mu1 and eta'mu2, eta = mu1 - mu2;
declaring "no change" is the detector's job.  S(k) - S(T) = ||eta||^2 (L(k) -
L(T)) for the detector's loss L at the same means (both sides equal
-2 ||eta||^2 sum_{t<=k} eta'(y_t - (mu1 + mu2) / 2) / T), so the locator reads
``loss_profile_pd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ChangePointEstimate,
    DegenerateJumpError,
    MeanPair,
    _centered,
    _positive,
    loss_profile_pd,
    series_stats,
)
from .detect import DetectionResult, _shrunk_means, detect_change
from .infer import (
    InferenceResult,
    _check_level,
    confidence_interval,
    limit_quantile,
    plugin_sigma_sq,
    plugin_xi_sq,
    refit_means,
)

__all__ = ["PipelineResult", "pls_estimate", "full_pipeline"]


@dataclass
class PipelineResult:
    """Everything the pipeline produced.

    ``status`` is "no_change" (detector declared no shift; location fields
    are None), "degenerate" (a shift was flagged but the jump estimate was
    numerically zero, or the interval could not be formed), or "ok".
    ``loss_profile[k - 1]`` is the two-segment loss (``loss_profile_pd``) of
    the refined means at split k, k = 1..T-1; its arg-min is the located split.
    """

    detection: DetectionResult
    status: str
    refined_means: MeanPair | None = None
    pls_estimate: ChangePointEstimate | None = None
    loss_profile: np.ndarray | None = None
    inference: InferenceResult | None = None

    def record(self) -> dict:
        """The run's flat fields: the detection's (``DetectionResult.record``),
        then ``status``, the located split ``k_tilde`` and its fraction
        ``tau_tilde``, and the plugin ``xi_sq`` and ``sigma_sq`` of the
        interval; a field of a stage that did not run is None."""
        loc, inf = self.pls_estimate, self.inference
        return {
            **self.detection.record(),
            "status": self.status,
            "k_tilde": loc.k if loc else None,
            "tau_tilde": loc.tau if loc else None,
            "xi_sq": inf.xi_sq_hat if inf else None,
            "sigma_sq": inf.sigma_sq_hat if inf else None,
        }


def _pls_profile(Y, means: MeanPair) -> tuple[np.ndarray, int]:
    means.informative_jump()
    profile = loss_profile_pd(Y, means.mu1, means.mu2)[:-1]
    return profile, int(profile.argmin()) + 1


def pls_estimate(Y, means: MeanPair) -> ChangePointEstimate:
    """Arg-min over k in {1, ..., T-1} of the projected loss built from the
    given means, read off ``loss_profile_pd`` (smallest k on ties)."""
    profile, k = _pls_profile(Y, means)
    return ChangePointEstimate(k, profile.size + 1)


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
    coordinates, so the data is used as supplied; pass ``center=True`` when
    only the mean *change* is sparse.
    ``center=True`` makes no copy: the statistics of the centred series are
    read from those of Y.
    ``lam``/``gamma`` override the criterion-based tuning.  The critical
    value is ``c_alpha`` when supplied, else the exact ``limit_quantile(alpha)``;
    pass ``c_alpha=limit_quantile(alpha, settings)`` for a Monte Carlo value.
    With ``with_ci`` an ``alpha`` outside (0, 1), or a ``c_alpha`` that is
    not finite and positive, raises ValueError up front.
    """
    if with_ci:
        alpha = _check_level(alpha)
        c_alpha = _positive(limit_quantile(alpha) if c_alpha is None else c_alpha, "critical value")
    stats = series_stats(Y)  # the one validation
    if center:
        stats = _centered(stats)
    T = stats.T
    det = detect_change(stats, tau_init, lam=lam, gamma=gamma)
    if not det.changed:
        return PipelineResult(detection=det, status="no_change")

    _, means = _shrunk_means(stats, det.estimate.k, lam)
    result = PipelineResult(detection=det, status="ok", refined_means=means)
    try:
        result.loss_profile, k_tilde = _pls_profile(stats, means)
        result.pls_estimate = ChangePointEstimate(k_tilde, T)
        if with_ci:
            refit = refit_means(stats, k_tilde, means.support1, means.support2)
            xi_sq = plugin_xi_sq(refit)
            sigma_sq = plugin_sigma_sq(stats, k_tilde, refit)
            if not (math.isfinite(xi_sq) and math.isfinite(sigma_sq)):
                raise DegenerateJumpError("the plugin estimates overflowed")
            result.inference = confidence_interval(k_tilde, xi_sq, sigma_sq, c_alpha, T, alpha=alpha)
    except DegenerateJumpError:
        result.status = "degenerate"
    return result
