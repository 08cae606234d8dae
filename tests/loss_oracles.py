"""Reference losses and layouts that the tests compare the library against.

The library computes every two-segment loss through ``loss_profile_pd``.
These are the direct evaluations, one split at a time: the p-dimensional loss
and the scalar loss that the projected least-squares locator is defined by
(``reference_pipeline.scalar_profile`` reads it at every split).
``center_columns`` is the explicit copy that ``full_pipeline(center=True)``
stands in for without copying, ``design_means`` the dense mean vectors that
``gen_dataset`` adds to their nonzero columns only, and ``two_level`` a
noiseless series with one shift.  Split indices are 1-based,
k in {1, ..., T}; the second segment is empty at k = T.
"""

import numpy as np

from cpinfer.core import as_series


def _check_split(k: int, T: int) -> int:
    k = int(k)
    if not (1 <= k <= T):
        raise ValueError(f"split index k={k} outside 1..T={T}")
    return k


def loss_1d(z, k: int, theta1: float, theta2: float) -> float:
    """(1/T) [ sum_{t<=k} (z_t - theta1)^2 + sum_{t>k} (z_t - theta2)^2 ]."""
    z = np.asarray(z, dtype=float).ravel()
    T = z.size
    k = _check_split(k, T)
    left = z[:k] - theta1
    right = z[k:] - theta2
    return (float(left @ left) + float(right @ right)) / T


def loss_pd(Y, k: int, mu1, mu2) -> float:
    """(1/T) [ sum_{t<=k} ||y_t - mu1||^2 + sum_{t>k} ||y_t - mu2||^2 ]."""
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


def center_columns(Y) -> np.ndarray:
    """Subtract the empirical mean of each column.  Idempotent."""
    Y = as_series(Y)
    return Y - Y.mean(axis=0, keepdims=True)


def design_means(p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-change mean (1 on the first s coordinates) and post-change mean
    (1 on the next s coordinates)."""
    mu1 = np.zeros(p)
    mu1[:s] = 1.0
    mu2 = np.zeros(p)
    mu2[s : 2 * s] = 1.0
    return mu1, mu2


def two_level(T: int, k0: int, mu1, mu2) -> np.ndarray:
    """The noiseless series: rows 1..k0 equal mu1, the rest mu2."""
    Y = np.empty((T, len(mu1)))
    Y[:k0] = mu1
    Y[k0:] = mu2
    return Y
