"""Benchmark inputs, made from a seed with numpy alone.

The design is the paper's: Gaussian noise that is AR(1) across coordinates
(correlation rho, unit marginals), mean 1 on the first s coordinates before
the split and on the next s coordinates after it.  This module does not call
``cpinfer.simbench``, so a change there cannot alter the inputs of the
workloads that use it.
"""

from __future__ import annotations

import numpy as np

RHO = 0.5
SPARSITY = 5


def ar1_noise(T: int, p: int, rng: np.random.Generator, rho: float = RHO) -> np.ndarray:
    """T x p rows with e_1 = w_1, e_j = rho e_{j-1} + sqrt(1 - rho^2) w_j."""
    w = rng.standard_normal((p, T))  # coordinate-major, so the recursion reads contiguous rows
    scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        w[j] *= scale
        w[j] += rho * w[j - 1]
    return np.ascontiguousarray(w.T)


def design(T: int, p: int, tau0: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One series with its true split k0 = floor(T * tau0); tau0 = 1 means no change."""
    Y = ar1_noise(T, p, rng)
    k0 = int(np.floor(T * tau0))
    Y[:k0, :SPARSITY] += 1.0
    Y[k0:, SPARSITY : 2 * SPARSITY] += 1.0
    return Y, k0


def input_mb(T: int, p: int) -> float:
    """Size of one float64 T x p input, computed from its shape."""
    return T * p * 8 / 1e6
