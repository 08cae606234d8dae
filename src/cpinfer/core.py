"""Data model and elementary operations for mean-shift change-point analysis.

A time series is a T x p float array (rows are observations).  Split indices
k are 1-based: k in {1, ..., T}, where k = T encodes "no change".  All
operations are pure; inputs are never mutated.

The functions the pipeline calls accept the series as an array or as the
``SeriesStats`` built from it, so one pipeline validates its input once and
every criterion reads the same statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DegenerateJumpError",
    "ChangePointEstimate",
    "MeanPair",
    "as_series",
    "SeriesStats",
    "series_stats",
    "center_columns",
    "loss_1d",
    "loss_pd",
    "loss_profile_1d",
    "loss_profile_pd",
    "stopped_means",
    "soft_threshold",
    "project_series",
]


class DegenerateJumpError(ValueError):
    """Raised when the estimated jump vector is (numerically) zero."""


def as_series(data) -> np.ndarray:
    """Validate and return a T x p float array (1-D input becomes T x 1)."""
    Y = np.asarray(data, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise ValueError(f"time series must be 2-dimensional, got shape {Y.shape}")
    T, p = Y.shape
    if T < 2:
        raise ValueError(f"need at least 2 observations, got T={T}")
    if p < 1:
        raise ValueError("need at least one column")
    if not np.all(np.isfinite(Y)):
        raise ValueError("time series contains non-finite entries")
    return Y


_BLOCK = 1 << 15  # elements per row block of the sum of squares (256 KiB)


class SeriesStats:
    """A validated T x p series with the statistics every criterion reads.

    ``center`` holds the column means c and ``ss`` the sum of squares of
    Y - c, accumulated by row blocks so that no T x p temporary exists.
    Criteria expand their squares about c, so large column offsets do not
    cancel.  The segment column sums at a split are computed once per split.
    """

    def __init__(self, Y: np.ndarray):
        self.Y = Y
        self.T, self.p = Y.shape
        self._sums: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @cached_property
    def center(self) -> np.ndarray:
        return self.Y.sum(axis=0) / self.T

    @cached_property
    def ss(self) -> float:
        rows = max(1, _BLOCK // self.p)
        total = 0.0
        for i in range(0, self.T, rows):
            d = self.Y[i : i + rows] - self.center
            total += float(np.einsum("tj,tj->", d, d))
        return total

    def segment_means(self, k: int) -> list[tuple[int, np.ndarray]]:
        """(rows, column means) of each segment at split k; one segment at k = T."""
        if k == self.T:
            return [(self.T, self.center)]
        if k not in self._sums:
            self._sums[k] = (self.Y[:k].sum(axis=0), self.Y[k:].sum(axis=0))
        left, right = self._sums[k]
        return [(k, left / k), (self.T - k, right / (self.T - k))]


def series_stats(data) -> SeriesStats:
    """``data`` itself when it is a SeriesStats, else the statistics of the
    series that ``as_series`` validates from it."""
    return data if isinstance(data, SeriesStats) else SeriesStats(as_series(data))


@dataclass(frozen=True)
class ChangePointEstimate:
    """A split index k in {1, ..., T}; k == T encodes "no change"."""

    k: int
    T: int

    def __post_init__(self):
        if not (1 <= self.k <= self.T):
            raise ValueError(f"split index k={self.k} outside 1..T={self.T}")

    @property
    def tau(self) -> float:
        """Fraction view k / T."""
        return self.k / self.T

    @property
    def no_change(self) -> bool:
        return self.k == self.T


@dataclass
class MeanPair:
    """Pre/post-split mean vectors with their nonzero supports.

    Supports are recomputed from the vectors, so they always equal the
    exact nonzero patterns (0-based column indices).
    """

    mu1: np.ndarray
    mu2: np.ndarray
    support1: np.ndarray = field(init=False)
    support2: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mu1 = np.asarray(self.mu1, dtype=float).ravel()
        self.mu2 = np.asarray(self.mu2, dtype=float).ravel()
        if self.mu1.shape != self.mu2.shape:
            raise ValueError("mean vectors must have equal length")
        self.support1 = np.flatnonzero(self.mu1)
        self.support2 = np.flatnonzero(self.mu2)

    @property
    def p(self) -> int:
        return self.mu1.size

    def jump(self) -> np.ndarray:
        return self.mu1 - self.mu2

    def jump_size(self) -> float:
        return float(np.linalg.norm(self.jump()))

    def projected_levels(self) -> tuple[float, float]:
        """Inner products of the jump with each mean (the two surrogate levels)."""
        eta = self.jump()
        return float(eta @ self.mu1), float(eta @ self.mu2)


def center_columns(Y) -> np.ndarray:
    """Subtract the empirical mean of each column.  Idempotent."""
    Y = as_series(Y)
    return Y - Y.mean(axis=0, keepdims=True)


def _check_split(k: int, T: int) -> int:
    k = int(k)
    if not (1 <= k <= T):
        raise ValueError(f"split index k={k} outside 1..T={T}")
    return k


def loss_1d(z, k: int, theta1: float, theta2: float) -> float:
    """Two-segment squared-error loss of a scalar series at split k.

    Returns (1/T) [ sum_{t<=k} (z_t - theta1)^2 + sum_{t>k} (z_t - theta2)^2 ];
    the second sum is empty at k = T.
    """
    z = np.asarray(z, dtype=float).ravel()
    T = z.size
    k = _check_split(k, T)
    left = z[:k] - theta1
    right = z[k:] - theta2
    return (float(left @ left) + float(right @ right)) / T


def loss_pd(Y, k: int, mu1, mu2) -> float:
    """Two-segment squared-error loss of a vector series at split k."""
    Y = as_series(Y)
    T, p = Y.shape
    k = _check_split(k, T)
    mu1 = np.asarray(mu1, dtype=float).ravel()
    mu2 = np.asarray(mu2, dtype=float).ravel()
    if mu1.size != p or mu2.size != p:
        raise ValueError(f"mean vectors must have length p={p}")
    left = Y[:k] - mu1
    right = Y[k:] - mu2
    return (float(np.einsum("tj,tj->", left, left)) + float(np.einsum("tj,tj->", right, right))) / T


def loss_profile_1d(z, theta1: float, theta2: float) -> np.ndarray:
    """loss_1d at every split: entry k-1 holds the loss at split k, k = 1..T."""
    z = np.asarray(z, dtype=float).ravel()
    a = np.cumsum((z - theta1) ** 2)
    b = np.cumsum((z - theta2) ** 2)
    return (a + (b[-1] - b)) / z.size


def loss_profile_pd(Y, mu1, mu2) -> np.ndarray:
    """loss_pd at every split: entry k-1 holds the loss at split k, k = 1..T.

    The loss at k is the fit of mu2 to every row, ss + T ||mu2 - c||^2, plus
    the excess of mu1 over mu2 on rows 1..k, -2 (mu1 - mu2)'(y_t - (mu1 +
    mu2) / 2); one matrix-vector product reads the data.
    """
    s = series_stats(Y)
    mu1 = np.asarray(mu1, dtype=float).ravel()
    mu2 = np.asarray(mu2, dtype=float).ravel()
    v2 = mu2 - s.center
    eta = mu1 - mu2
    excess = -2.0 * (s.Y @ eta - eta @ (0.5 * (mu1 + mu2)))
    return (s.ss + s.T * (v2 @ v2) + np.cumsum(excess)) / s.T


def stopped_means(Y, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical means of rows 1..k and rows k+1..T.  Requires 1 <= k <= T-1."""
    s = series_stats(Y)
    k = int(k)
    if not (1 <= k <= s.T - 1):
        raise ValueError(f"split k={k} leaves an empty segment (T={s.T})")
    (_, left), (_, right) = s.segment_means(k)
    return left, right


def soft_threshold(x, lam: float) -> np.ndarray:
    """Componentwise shrinkage sign(x) * max(|x| - lam, 0)."""
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def project_series(Y, eta) -> np.ndarray:
    """Scalar surrogate series z_t = eta' y_t."""
    Y = series_stats(Y).Y
    eta = np.asarray(eta, dtype=float).ravel()
    if eta.size != Y.shape[1]:
        raise ValueError(f"projection vector has length {eta.size}, expected {Y.shape[1]}")
    return Y @ eta
