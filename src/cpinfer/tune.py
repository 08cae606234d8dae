"""Information-criterion selection of the shrinkage level and detection penalty.

Both criteria are of BIC type: an unnormalized residual sum of squares plus
log(T) per selected model dimension.  Grids default to 50 equally spaced
values strictly inside (0, 0.5) for the shrinkage level and (0, 1) for the
penalty.  Ties always go to the smallest grid value, independent of the
order in which the grid is supplied.
"""

from __future__ import annotations

import numpy as np

from .core import MeanPair, SeriesStats, loss_profile_pd, series_stats

__all__ = [
    "DEFAULT_LAMBDAS",
    "DEFAULT_GAMMAS",
    "bic_lambda",
    "bic_gamma",
]

DEFAULT_LAMBDAS = 0.5 * np.arange(1, 51) / 51
DEFAULT_GAMMAS = 1.0 * np.arange(1, 51) / 51
DEFAULT_LAMBDAS.flags.writeable = DEFAULT_GAMMAS.flags.writeable = False


def _validated_grid(grid, default: np.ndarray) -> np.ndarray:
    g = default if grid is None else np.asarray(grid, dtype=float).ravel()
    if g.size == 0:
        raise ValueError("tuning grid is empty")
    if np.any(g < 0):
        raise ValueError("tuning grid values must be nonnegative")
    return g


def _select(grid: np.ndarray, values: np.ndarray) -> float:
    """Grid value minimizing the criterion; smallest grid value on ties."""
    order = np.lexsort((grid, values))
    return float(grid[order[0]])


def _lambda_criterion(s: SeriesStats, k: int, grid: np.ndarray) -> np.ndarray:
    """RSS of the soft-thresholded segment means at split k plus log(T) per
    coordinate in the union of their supports, at every grid value at once.

    A segment of n rows with mean m fitted by soft(m, lam) leaves its
    within-segment sum of squares plus n * sum_j min(|m_j|, lam)^2, read off
    the sorted |m_j| with prefix sums.  The within sums are ss less
    n ||m - c||^2 per segment.  At k = T the one segment is the whole series.
    """
    rss = np.full(grid.size, s.ss)
    largest = np.zeros(s.p)
    for n, m in s.segment_means(k):
        a = np.abs(m)
        largest = np.maximum(largest, a)
        a.sort()
        below = np.searchsorted(a, grid, side="right")
        prefix = np.concatenate(([0.0], np.cumsum(a * a)))
        d = m - s.center
        rss += n * (prefix[below] + grid * grid * (s.p - below)) - n * float(d @ d)
    support = s.p - np.searchsorted(np.sort(largest), grid, side="right")
    return rss + support * np.log(s.T)


def bic_lambda(Y, k: int, grid=None):
    """Select the soft-threshold level for the stopped means at split k.

    Criterion per grid value: the residual sum of squares of the two
    thresholded segment means plus log(T) per coordinate in the union of
    their supports.  Returns (selected value, criterion profile in the
    input grid order).
    """
    s = series_stats(Y)
    if not (1 <= k <= s.T - 1):
        raise ValueError(f"split k={k} leaves an empty segment (T={s.T})")
    grid = _validated_grid(grid, DEFAULT_LAMBDAS)
    profile = _lambda_criterion(s, k, grid)
    return _select(grid, profile), profile


def bic_gamma(Y, initial_means: MeanPair, grid=None, lambda_for_refit: float | None = None):
    """Select the detection penalty.

    For each grid value the penalized arg-min split is computed with the
    given initial means, the segment means are re-estimated on that split by
    soft thresholding, and the criterion charges log(T) per union-support
    coordinate plus log(T) when the split is interior.  At k = T the single
    mean is the thresholded full-sample mean.  The refit shrinkage level is
    re-selected by ``bic_lambda`` on each candidate partition unless
    ``lambda_for_refit`` fixes it.  Returns (selected value, criterion
    profile in the input grid order).
    """
    s = series_stats(Y)
    loss = loss_profile_pd(s, initial_means.mu1, initial_means.mu2)
    return _bic_gamma(s, loss, grid, lambda_for_refit)


def _split(loss: np.ndarray, gamma):
    """The penalized arg-min split of a loss profile, for each penalty in gamma.

    With j the interior arg-min of ``loss`` (smallest on ties), the split is
    T when ``loss[-1] <= loss[j - 1] + gamma`` (ties go to T), else j; j is
    taken of the loss itself, so rounding in loss + gamma never moves it.
    """
    j = int(np.argmin(loss[:-1])) + 1
    return np.where(loss[-1] <= loss[j - 1] + np.asarray(gamma), loss.size, j)


def _bic_gamma(s: SeriesStats, loss: np.ndarray, grid, lambda_for_refit):
    """``bic_gamma`` given the unpenalized loss profile of the initial means.

    Every penalty picks one of at most two splits, so the criterion is
    evaluated once per distinct split.
    """
    grid = _validated_grid(grid, DEFAULT_GAMMAS)
    lam_grid = _validated_grid(None if lambda_for_refit is None else [lambda_for_refit],
                               DEFAULT_LAMBDAS)
    splits = _split(loss, grid)
    profile = np.empty(grid.size)
    for k in np.unique(splits).tolist():
        profile[splits == k] = (float(_lambda_criterion(s, k, lam_grid).min())
                                + (k < s.T) * np.log(s.T))
    return _select(grid, profile), profile
