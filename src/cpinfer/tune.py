"""Information-criterion selection of the shrinkage level and detection penalty.

Both criteria are of BIC type: an unnormalized residual sum of squares plus
log(T) per selected model dimension.  Each is scored over one fixed grid of 50
equally spaced values strictly inside (0, 0.5) for the shrinkage level
(``DEFAULT_LAMBDAS``) and (0, 1) for the penalty (``DEFAULT_GAMMAS``); ties
go to the smallest grid value.  The shrinkage criterion is memoized per split
on the ``SeriesStats``, so a pipeline scores each split once: re-tuning the
level at the detected split reads the evaluation that the penalty criterion
made there.
"""

from __future__ import annotations

import numpy as np

from .core import MeanPair, SeriesStats, _split_index, loss_profile_pd, series_stats

__all__ = [
    "DEFAULT_LAMBDAS",
    "DEFAULT_GAMMAS",
    "bic_lambda",
    "bic_gamma",
]

DEFAULT_LAMBDAS = 0.5 * np.arange(1, 51) / 51
DEFAULT_GAMMAS = 1.0 * np.arange(1, 51) / 51
DEFAULT_LAMBDAS.flags.writeable = DEFAULT_GAMMAS.flags.writeable = False


def _select(grid: np.ndarray, values: np.ndarray) -> float:
    """Grid value minimizing the criterion; the first, so the smallest of an
    ascending grid, on ties."""
    return float(grid[values.argmin()])


def _lambda_criterion(s: SeriesStats, k: int, grid: np.ndarray) -> np.ndarray:
    """RSS of the soft-thresholded segment means at split k plus log(T) per
    coordinate in the union of their supports, at every grid value at once.

    A segment of n rows with mean m fitted by soft(m, lam) leaves its
    within-segment sum of squares plus n * sum_j min(|m_j|, lam)^2, read off
    the sorted |m_j| with prefix sums.  The within sums are ss less
    n ||m - c||^2 per segment.  At k = T the one segment is the whole series,
    and its own sorted |m_j| give the support.
    """
    rss = np.full(grid.size, s.ss)
    sq = grid * grid
    prefix = np.zeros(s.p + 1)  # prefix[i]: the sum of the i smallest m_j^2
    means = s.segment_means(k)
    sizes = [np.abs(m) for _, m in means]
    union = np.maximum(*sizes) if len(sizes) == 2 else None  # the larger |m_j| of two segments
    for (n, m), a in zip(means, sizes):
        a.sort()
        below = a.searchsorted(grid, side="right")
        a *= a
        a.cumsum(out=prefix[1:])
        d = m - s.center
        rss += n * (prefix[below] + sq * (s.p - below)) - n * float(d @ d)
    if union is not None:  # else below is the one segment's
        union.sort()
        below = union.searchsorted(grid, side="right")
    return rss + (s.p - below) * np.log(s.T)


def _criterion(s: SeriesStats, k: int, lam: float | None = None) -> np.ndarray:
    """``_lambda_criterion`` at split k over ``DEFAULT_LAMBDAS``, memoized per
    split on ``s``, or at the one level ``lam`` when given.  The memo's arrays
    are shared: callers must not modify them."""
    if lam is not None:
        return _lambda_criterion(s, k, np.array([lam]))
    if k not in s._criteria:
        s._criteria[k] = _lambda_criterion(s, k, DEFAULT_LAMBDAS)
    return s._criteria[k]


def bic_lambda(Y, k: int):
    """Select the soft-threshold level for the stopped means at split k.

    Criterion per value of ``DEFAULT_LAMBDAS``: the residual sum of squares
    of the two thresholded segment means plus log(T) per coordinate in the
    union of their supports.  ValueError unless k is an integer in 1..T-1.
    Returns (selected value, criterion profile over the grid).
    """
    s = series_stats(Y)
    profile = _criterion(s, _split_index(k, s.T)).copy()
    return _select(DEFAULT_LAMBDAS, profile), profile


def bic_gamma(Y, initial_means: MeanPair):
    """Select the detection penalty.

    For each value of ``DEFAULT_GAMMAS`` the penalized arg-min split is
    computed with the given initial means, and the criterion is the
    smallest ``bic_lambda`` criterion on that split (the segment means
    re-estimated by soft thresholding, log(T) per union-support coordinate)
    plus log(T) when the split is interior.  At k = T the single mean is the
    thresholded full-sample mean.  Returns (selected value, criterion
    profile over the grid).
    """
    s = series_stats(Y)
    loss = loss_profile_pd(s, initial_means.mu1, initial_means.mu2)
    return _bic_gamma(s, loss)


def _split(loss: np.ndarray, gamma):
    """The penalized arg-min split of a loss profile, for each penalty in gamma.

    With j the interior arg-min of ``loss`` (smallest on ties), the split is
    T when ``loss[-1] <= loss[j - 1] + gamma`` (ties go to T), else j; j is
    taken of the loss itself, so rounding in loss + gamma never moves it.
    """
    j = int(loss[:-1].argmin()) + 1
    return np.where(loss[-1] <= loss[j - 1] + np.asarray(gamma), loss.size, j)


def _bic_gamma(s: SeriesStats, loss: np.ndarray, lam: float | None = None):
    """``bic_gamma`` given the unpenalized loss profile of the initial means;
    the refit level is ``lam`` when given, else re-selected on each split.

    Every penalty picks one of at most two splits, so the criterion is
    evaluated once per distinct split.  The split is j up to some penalty
    and T above it (``_split``), so the first and last penalties' splits
    are the distinct ones.
    """
    splits = _split(loss, DEFAULT_GAMMAS)
    profile = np.empty(DEFAULT_GAMMAS.size)
    for k in sorted({int(splits[0]), int(splits[-1])}):
        profile[splits == k] = float(_criterion(s, k, lam).min()) + (k < s.T) * np.log(s.T)
    return _select(DEFAULT_GAMMAS, profile), profile
