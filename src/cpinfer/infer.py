"""Plugin variance/jump estimates, limiting-law critical values, and
confidence intervals for the located change point.

The limiting law of the scaled location error is the arg-min V over v of
|v| - 2 W(v) with W a two-sided Brownian motion.  By default critical values
come from its closed-form law (Yao 1987, Ann. Statist.; Bai 1997, Rev. Econ.
Stat.): for x > 0

    G(x) = 1 + sqrt(x / 2 pi) e^{-x/8} - ((x + 5) / 2) Phi(-sqrt(x) / 2)
             + (3 / 2) e^{x} Phi(-3 sqrt(x) / 2),

and P(|V| <= c) = 2 G(c) - 1.  ``limit_quantile`` solves that equation by
bisection on the log of the tail 2 (1 - G(c)), written through the scaled
complementary error function so that no term overflows or underflows.

``limit_quantile(alpha)`` is the one way to get a critical value;
``full_pipeline`` takes it as a number.  Explicit ``QuantileMCSettings``
select the Monte Carlo estimate instead, the oracle that the closed form is
tested against.  Its draws are exact, with no grid: for v >= 0,
(v - 2 W(v)) / 2 is a Brownian motion with drift 1/2, whose overall minimum
is -I with I ~ Exp(1), and by Williams' path decomposition (Williams 1974,
Proc. London Math. Soc.) the path up to that minimum is a Brownian motion
with drift -1/2 run until it first hits -I.  So the arg-min on a half-line
is inverse Gaussian with mean 2 I and shape I^2, and V lies on the side
with the larger I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ChangePointEstimate,
    DegenerateJumpError,
    MeanPair,
    _integer,
    _level,
    _nonnegative,
    _norm,
    _positive,
    _real,
    _split_index,
    series_stats,
    stopped_means,
)

__all__ = [
    "QuantileMCSettings",
    "InferenceResult",
    "refit_means",
    "plugin_xi_sq",
    "plugin_sigma_sq",
    "simulate_argmin_locations",
    "limit_quantile",
    "confidence_interval",
]

_BATCH_PATHS = 2048  # fixed chunk size; per-chunk RNG substreams keep runs reproducible


@dataclass(frozen=True)
class QuantileMCSettings:
    """Path budget and seed for the Monte Carlo estimate of the arg-min law.

    ``grid_half_width`` and ``grid_step`` are accepted for compatibility and
    must be finite and positive, but the draws are exact and use no grid, so
    they have no effect and need not fit each other.  The fields are stored
    as Python floats and ints, so ``dataclasses.asdict`` of settings is JSON.
    """

    grid_half_width: float = 200.0
    grid_step: float = 0.01
    paths: int = 200_000
    seed: int = 171717

    def __post_init__(self):
        for field, name in (("grid_half_width", "grid half-width"), ("grid_step", "grid step")):
            object.__setattr__(self, field, _positive(getattr(self, field), name))
        for field, floor in (("paths", 1), ("seed", 0)):
            object.__setattr__(self, field, _integer(getattr(self, field), field, floor))


@dataclass(frozen=True)
class InferenceResult:
    """Confidence interval for the change point on the integer and fraction scales."""

    k_tilde: ChangePointEstimate
    xi_sq_hat: float
    sigma_sq_hat: float
    c_alpha: float
    interval_int: tuple
    interval_frac: tuple
    alpha: float


def _support(indices, p: int) -> np.ndarray:
    """``indices`` as an integer array; ValueError unless it is 1-D and each
    is an integer in 0..p-1."""
    s = np.asarray(indices)
    if s.ndim != 1:
        raise ValueError(f"support indices must be 1-D, got shape {s.shape}")
    if s.size == 0:
        return s.astype(int)
    if s.dtype.kind not in "iu":
        raise ValueError(f"support indices must be integers, got {s.dtype} {s[0]!r}")
    if np.count_nonzero(s.astype(np.uintp) >= p):  # a negative index wraps past p
        bad = s[(s < 0) | (s >= p)]
        raise ValueError(f"support index {bad[0]} outside 0..{p - 1}")
    return s


def refit_means(Y, k: int, support1, support2) -> MeanPair:
    """Unshrunk stopped-time means restricted to the given supports.

    Coordinates outside the supports are set to zero; the supports are
    0-based column indices (arrays or sequences).  ValueError unless every
    index is an integer in 0..p-1.
    """
    left, right = stopped_means(Y, k)
    mu1 = np.zeros_like(left)
    mu2 = np.zeros_like(right)
    s1 = _support(support1, left.size)
    s2 = _support(support2, left.size)
    mu1[s1] = left[s1]
    mu2[s2] = right[s2]
    return MeanPair(mu1, mu2)


def plugin_xi_sq(means: MeanPair) -> float:
    """Plugin squared jump size; equals the difference of the two projected
    levels by the identity theta1 - theta2 = ||mu1 - mu2||^2."""
    eta = means.jump()
    return float(eta @ eta)


def plugin_sigma_sq(Y, k: int, means: MeanPair) -> float:
    """Plugin projected-noise variance ratio at split k.

    Projects the series onto the unit jump u = eta / ||eta|| of the given
    (refitted) means, z_t = u'y_t, and returns the mean squared residual of z
    about the projected levels, split at k.  That is the residual of the
    projection onto eta over ||eta||^2, kept on the data's squared scale, not
    its fourth power.  DegenerateJumpError when ``MeanPair.informative_jump``
    finds no jump."""
    eta = means.informative_jump()
    s = series_stats(Y)
    k = _split_index(k, s.T, interior=False)
    u = eta / _norm(eta)
    z = s.project(u)
    left = z[:k] - float(u @ means.mu1)  # the projected levels
    right = z[k:] - float(u @ means.mu2)
    return (float(left @ left) + float(right @ right)) / s.T


def simulate_argmin_locations(settings: QuantileMCSettings) -> np.ndarray:
    """Per-path signed arg-min locations of |v| - 2 W(v), drawn exactly.

    Each half-line's overall minimum of (|v| - 2 W(v)) / 2 is -I with
    I ~ Exp(1); the arg-min lies on the side with the deeper minimum, at an
    inverse Gaussian distance with mean 2 I and shape I^2 (Williams 1974).
    """
    paths, seed = settings.paths, settings.seed
    out = np.empty(paths)
    for batch, lo in enumerate(range(0, paths, _BATCH_PATHS)):
        nb = min(_BATCH_PATHS, paths - lo)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(batch,)))
        depth = rng.standard_exponential((2, nb))
        m = depth.max(0)
        side = np.where(depth[0] >= depth[1], 1.0, -1.0)
        out[lo : lo + nb] = side * rng.wald(2.0 * m, m * m)
    return out


_ERFCX_SERIES_FROM = 20.0  # erfc(y) is far from underflow below; the series is exact above


def _erfcx(y: float) -> float:
    """exp(y^2) erfc(y) for y >= 0, by its asymptotic series where erfc
    itself would underflow."""
    if y < _ERFCX_SERIES_FROM:
        return math.exp(y * y) * math.erfc(y)
    inv = 0.5 / (y * y)
    term = total = 1.0
    for k in range(1, 12):  # terms fall below 1e-20 of the sum at y >= 20
        term *= -(2 * k - 1) * inv
        total += term
    return total / (y * math.sqrt(math.pi))


def _log_limit_tail(c: float) -> float:
    """log P(|V| > c) = log(2 (1 - G(c))).

    With u = sqrt(c / 8), e^{c/8} (1 - G(c)) equals
    (c + 5)/4 erfcx(u) - 3/4 erfcx(3u) - sqrt(c / 2 pi), so the exponential
    factors of G are carried in log space.
    """
    u = math.sqrt(c / 8.0)
    scaled = (c + 5.0) / 4.0 * _erfcx(u) - 0.75 * _erfcx(3.0 * u) - math.sqrt(c / (2.0 * math.pi))
    return math.log(2.0 * scaled) - c / 8.0


@lru_cache(maxsize=16)  # a pipeline without a supplied critical value asks on every call
def _exact_quantile(alpha: float) -> float:
    """Root of P(|V| > c) = alpha by bisection to adjacent doubles.

    Every double alpha in (0, 1) is resolved: c stays below 6000 even at the
    smallest subnormal alpha, within 1e-7 of the root found in 400-digit
    arithmetic (within 1e-13 at the usual levels).
    """
    target = math.log(alpha)
    lo, hi = 0.0, 16.0
    while _log_limit_tail(hi) > target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _log_limit_tail(mid) > target:
            lo = mid
        else:
            hi = mid


def limit_quantile(alpha: float, settings: QuantileMCSettings | None = None) -> float:
    """Critical value c with P(|V| <= c) = 1 - alpha under the arg-min law.

    Without ``settings`` c is exact, from the closed-form law; with
    ``settings`` it is the Monte Carlo estimate.
    """
    alpha = _level(alpha)
    if settings is None:
        return _exact_quantile(alpha)
    return float(np.quantile(np.abs(simulate_argmin_locations(settings)), 1.0 - alpha))


def confidence_interval(k_tilde: int, xi_sq_hat: float, sigma_sq_hat: float,
                        c_alpha: float, T: int, alpha: float = 0.05) -> InferenceResult:
    """Interval k_tilde +/- c_alpha * sigma_sq_hat / xi_sq_hat on the integer
    scale, clamped to [1, T], with the fraction view divided by T.
    ``alpha`` must lie in (0, 1), ``c_alpha`` must be finite and positive,
    ``xi_sq_hat`` finite (a value <= 0 raises DegenerateJumpError) and
    ``sigma_sq_hat`` finite and nonnegative, each a real number, not a bool;
    ``k_tilde`` and ``T`` are checked as ``ChangePointEstimate`` checks them."""
    alpha = _level(alpha)
    c_alpha = _positive(c_alpha, "critical value")
    xi_sq_hat = _real(xi_sq_hat, "squared jump")
    if not math.isfinite(xi_sq_hat):
        raise ValueError(f"squared jump must be finite, got {xi_sq_hat}")
    if xi_sq_hat <= 0.0:
        raise DegenerateJumpError("zero squared jump: interval undefined")
    sigma_sq_hat = _nonnegative(sigma_sq_hat, "variance ratio")
    estimate = ChangePointEstimate(k_tilde, T)
    T = estimate.T
    half = c_alpha * sigma_sq_hat / xi_sq_hat
    lo = max(1.0, estimate.k - half)
    hi = min(float(T), estimate.k + half)
    return InferenceResult(
        k_tilde=estimate,
        xi_sq_hat=xi_sq_hat,
        sigma_sq_hat=sigma_sq_hat,
        c_alpha=c_alpha,
        interval_int=(lo, hi),
        interval_frac=(lo / T, hi / T),
        alpha=alpha,
    )
