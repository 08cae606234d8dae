"""Penalized detection and near-optimal location of a single mean shift.

The detector shrinks the two stopped-time means toward sparsity at an
initial split, then minimizes the two-segment loss over all splits plus a
penalty gamma charged to every interior split.  Returning k = T declares
"no change".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ChangePointEstimate,
    MeanPair,
    loss_profile_pd,
    series_stats,
    soft_threshold,
    stopped_means,
)
from .tune import _bic_gamma, bic_lambda

__all__ = [
    "DetectionResult",
    "thresholded_means",
    "penalized_argmin",
    "detect_change",
]


@dataclass
class DetectionResult:
    """Outcome of the penalized detector.

    ``objective_profile[k - 1]`` is the penalized loss at split k, k = 1..T.
    ``changed`` is False exactly when ``estimate.k == T``.
    """

    changed: bool
    estimate: ChangePointEstimate
    initial_means: MeanPair
    gamma_used: float
    lambda_used: float
    objective_profile: np.ndarray


def thresholded_means(Y, k: int, lam: float) -> MeanPair:
    """Soft-thresholded stopped-time means at split k (1 <= k <= T-1)."""
    left, right = stopped_means(Y, k)
    return MeanPair(soft_threshold(left, lam), soft_threshold(right, lam))


def _penalize(loss: np.ndarray, gamma: float) -> tuple[np.ndarray, int]:
    """The loss profile plus gamma at interior splits, and its arg-min split.

    Ties involving k = T go to k = T; interior ties go to the smallest k.
    """
    obj = loss.copy()
    obj[:-1] += gamma
    interior_min = obj[:-1].min()
    if obj[-1] <= interior_min:
        k = obj.size
    else:
        k = int(np.argmin(obj[:-1])) + 1
    return obj, k


def penalized_argmin(Y, means: MeanPair, gamma: float) -> ChangePointEstimate:
    """Arg-min over k in {1, ..., T} of loss_pd(Y, k, means) + gamma * 1{k < T}."""
    if gamma < 0:
        raise ValueError(f"penalty must be nonnegative, got {gamma}")
    obj, k = _penalize(loss_profile_pd(Y, means.mu1, means.mu2), gamma)
    return ChangePointEstimate(k, obj.size)


def detect_change(
    Y,
    tau_init: float = 0.5,
    lam: float | None = None,
    gamma: float | None = None,
) -> DetectionResult:
    """Run the two-step detector: shrunken means at the initial split, then
    the penalized grid minimization.

    ``lam`` and ``gamma`` default to information-criterion selections on the
    data at hand; explicit values always win.
    """
    s = series_stats(Y)
    k_init = int(np.floor(s.T * tau_init))
    if not (1 <= k_init <= s.T - 1):
        raise ValueError(f"initial fraction {tau_init} gives degenerate split {k_init}")

    user_lam = lam
    if lam is None:
        lam, _ = bic_lambda(s, k_init)
    means = thresholded_means(s, k_init, lam)
    loss = loss_profile_pd(s, means.mu1, means.mu2)
    if gamma is None:
        gamma, _ = _bic_gamma(s, loss, None, user_lam)
    elif gamma < 0:
        raise ValueError(f"penalty must be nonnegative, got {gamma}")

    obj, k = _penalize(loss, gamma)
    return DetectionResult(
        changed=k < s.T,
        estimate=ChangePointEstimate(k, s.T),
        initial_means=means,
        gamma_used=float(gamma),
        lambda_used=float(lam),
        objective_profile=obj,
    )
