"""Reference losses that the tests compare the library against.

The library computes every two-segment loss through ``loss_profile_pd``.
These are the direct evaluations, one split at a time, and the scalar
projected series and its loss that the projected least-squares locator is
defined by.  ``center_columns`` is the explicit copy that
``full_pipeline(center=True)`` stands in for without copying.  Split indices
are 1-based, k in {1, ..., T}; the second segment is empty at k = T.
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


def loss_profile_1d(z, theta1: float, theta2: float) -> np.ndarray:
    """loss_1d at every split: entry k-1 holds the loss at split k, k = 1..T."""
    z = np.asarray(z, dtype=float).ravel()
    a = np.cumsum((z - theta1) ** 2)
    b = np.cumsum((z - theta2) ** 2)
    return (a + (b[-1] - b)) / z.size


def project_series(Y, eta) -> np.ndarray:
    """Scalar surrogate series z_t = eta' y_t."""
    Y = as_series(Y)
    eta = np.asarray(eta, dtype=float).ravel()
    if eta.size != Y.shape[1]:
        raise ValueError(f"projection vector has length {eta.size}, expected {Y.shape[1]}")
    return Y @ eta


def center_columns(Y) -> np.ndarray:
    """Subtract the empirical mean of each column.  Idempotent."""
    Y = as_series(Y)
    return Y - Y.mean(axis=0, keepdims=True)
