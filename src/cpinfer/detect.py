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
    _fraction_split,
    _nonnegative,
    _real,
    _shrink,
    loss_profile_pd,
    series_stats,
    stopped_means,
)
from .tune import _bic_gamma, _split, bic_lambda

__all__ = [
    "DetectionResult",
    "thresholded_means",
    "detect_change",
]

DEFAULT_TAU_INIT = 0.5  # the initial split's fraction of T when none is given


@dataclass
class DetectionResult:
    """Outcome of the penalized detector.

    ``objective_profile[k - 1]`` is the penalized loss at split k, k = 1..T.
    """

    estimate: ChangePointEstimate
    initial_means: MeanPair
    gamma_used: float
    lambda_used: float
    objective_profile: np.ndarray

    @property
    def changed(self) -> bool:
        """False exactly when ``estimate.k == T`` ("no change")."""
        return self.estimate.k < self.estimate.T

    def record(self) -> dict:
        """The detection's flat fields: ``changed``, the split ``k_hat`` and
        its fraction ``tau_hat``, and the ``lambda`` and ``gamma`` used."""
        return {
            "changed": self.changed,
            "k_hat": self.estimate.k,
            "tau_hat": self.estimate.tau,
            "lambda": self.lambda_used,
            "gamma": self.gamma_used,
        }


def thresholded_means(Y, k: int, lam: float) -> MeanPair:
    """Soft-thresholded stopped-time means at split k (1 <= k <= T-1).
    ValueError unless ``lam`` is a real number, not a bool, that is finite
    and nonnegative."""
    left, right = stopped_means(Y, k)
    lam = _nonnegative(lam, "shrinkage level")
    return MeanPair(_shrink(left, lam), _shrink(right, lam))


def _shrunk_means(s, k: int, lam: float | None) -> tuple[float, MeanPair]:
    """The level ``lam``, or ``bic_lambda``'s selection at split k when None,
    and the means thresholded there: the one shrinkage step at any split."""
    if lam is None:
        lam, _ = bic_lambda(s, k)
    return lam, thresholded_means(s, k, lam)


def _initial_split(T: int, tau_init: float) -> int:
    """The initial split ``_fraction_split(T, tau_init)``; ValueError unless
    ``tau_init`` is a real number, not a bool, and the split is in 1..T-1."""
    k = _fraction_split(T, _real(tau_init, "initial fraction"))
    if not 1 <= k <= T - 1:  # also false for NaN
        raise ValueError(f"initial fraction {tau_init} gives no split in 1..{T - 1}")
    return int(k)


def _penalize(loss: np.ndarray, gamma: float) -> tuple[np.ndarray, int]:
    """The loss profile plus gamma at interior splits, and its arg-min split
    by the rule of ``tune._split``."""
    obj = loss.copy()
    obj[:-1] += gamma
    return obj, int(_split(loss, gamma))


def detect_change(
    Y,
    tau_init: float = DEFAULT_TAU_INIT,
    lam: float | None = None,
    gamma: float | None = None,
) -> DetectionResult:
    """Run the two-step detector: shrunken means at the initial split, then
    the penalized grid minimization.

    ``lam`` and ``gamma`` default to information-criterion selections on the
    data at hand; explicit values always win, and each must be a real
    number, not a bool, that is finite and nonnegative.
    """
    if lam is not None:
        lam = _nonnegative(lam, "shrinkage level")
    if gamma is not None:
        gamma = _nonnegative(gamma, "penalty")
    s = series_stats(Y)
    k_init = _initial_split(s.T, tau_init)

    level, means = _shrunk_means(s, k_init, lam)
    loss = loss_profile_pd(s, means.mu1, means.mu2)
    if gamma is None:
        gamma, _ = _bic_gamma(s, loss, lam)

    obj, k = _penalize(loss, gamma)
    return DetectionResult(
        estimate=ChangePointEstimate(k, s.T),
        initial_means=means,
        gamma_used=float(gamma),
        lambda_used=float(level),
        objective_profile=obj,
    )
