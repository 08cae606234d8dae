"""An end-to-end reference for ``full_pipeline``, built on numpy and the raw
array only.

Every quantity is evaluated from its definition, one grid value or one split
at a time, where the library reads them all from one set of sufficient
statistics:

- the stopped means by slicing the rows, then soft thresholding;
- the shrinkage level (``lambda_profile``): at each grid value, the direct
  residual sum of squares of the thresholded means about every row, plus
  log(T) per coordinate in the union of their supports (one thresholded
  full-sample mean at k = T);
- the detection penalty (``gamma_profile``): at each grid value, the
  penalized arg-min split of the detector's loss (ties go to T), then that
  split's criterion, the best shrinkage criterion there (or the one at a
  fixed level) plus log(T) when the split is interior;
- the detector's loss ``loss_oracles.loss_pd`` at every split, and the
  located split the arg-min of ``scalar_profile``, ``loss_oracles.loss_1d``
  on z = eta'y about the levels eta'mu1 and eta'mu2;
- the unshrunk means refitted on the refined supports, the plugin jump xi^2
  and noise sigma^2 (``scalar_profile`` of the refitted means at k_tilde over
  xi^2), and the interval k_tilde +/- c * sigma^2 / xi^2 clamped to [1, T].

These three profiles are the tests' one oracle for each quantity: the tuning,
locator and plugin tests compare the library against them too.

``center=True`` reads every row and every mean less the column means, so the
full-sample mean of the centred series is exactly zero.  Each decision also
reports its margin: the relative gap between the best value and the next
distinct one, so a caller can tell a decision that rounding may flip.
"""

import math
from fractions import Fraction

import numpy as np

from loss_oracles import loss_1d, loss_pd

LAMBDAS = 0.5 * np.arange(1, 51) / 51
GAMMAS = np.arange(1, 51) / 51


def soft(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def segments(Y, k):
    """The row blocks 1..k and k+1..T; the whole series at k = T."""
    return [Y] if k == len(Y) else [Y[:k], Y[k:]]


def stopped(Y, off, k):
    """The segment means of the rows less ``off``."""
    return [seg.mean(axis=0) - off for seg in segments(Y, k)]


def thresholded(Y, off, k, lam):
    return [soft(m, lam) for m in stopped(Y, off, k)]


def lambda_criterion(Y, off, k, lam):
    means = thresholded(Y, off, k, lam)
    rss = sum(float(((seg - off - m) ** 2).sum()) for seg, m in zip(segments(Y, k), means))
    support = np.count_nonzero(np.any([m != 0 for m in means], axis=0))
    return rss + support * math.log(len(Y))


def margin(values, pick):
    """Relative gap between values[pick] and the nearest other distinct value
    (inf when there is none)."""
    values = np.asarray(values, dtype=float)
    others = np.abs(values[values != values[pick]] - values[pick])
    return float(others.min() / abs(values[pick])) if others.size else math.inf


def select(grid, profile):
    """The first grid value at the minimum, and its margin."""
    i = int(np.argmin(profile))
    return float(grid[i]), margin(profile, i)


def penalized_split(loss, gamma):
    """Arg-min of the loss plus gamma at interior splits: the first interior
    minimum, or T when the loss at T is no larger."""
    obj = np.asarray(loss, dtype=float).copy()
    obj[:-1] += gamma
    j = int(np.argmin(obj[:-1]))
    return len(obj) if obj[-1] <= obj[j] else j + 1


def lambda_profile(Y, off, k, grid):
    """The shrinkage criterion at split k, at each grid value."""
    return np.array([lambda_criterion(Y, off, k, v) for v in grid])


def gamma_profile(Y, off, loss, lam=None):
    """The detection penalty's criterion at each of GAMMAS: the best shrinkage
    criterion at the penalized split of ``loss`` (or the one at the fixed
    level ``lam``), plus log(T) when that split is interior."""
    T = len(Y)
    levels = LAMBDAS if lam is None else [lam]
    splits = [penalized_split(loss, g) for g in GAMMAS]
    criteria = {k: lambda_profile(Y, off, k, levels).min() + (k < T) * math.log(T)
                for k in set(splits)}
    return np.array([criteria[k] for k in splits])


def scalar_profile(Y, off, mu1, mu2):
    """``loss_1d`` of z = (y - off)'eta about eta'mu1 and eta'mu2 at every
    split k = 1..T, where eta = mu1 - mu2."""
    eta = mu1 - mu2
    z = (Y - off) @ eta
    return np.array([loss_1d(z, k, eta @ mu1, eta @ mu2) for k in range(1, len(z) + 1)])


def reference_pipeline(Y, tau_init=0.5, lam=None, gamma=None, center=False, c_alpha=11.03):
    """The pipeline's stages as a dict: each profile, decision and margin,
    the ``status`` and, where reached, ``k_tilde`` and ``interval``."""
    Y = np.array(Y, dtype=float)
    T, p = Y.shape
    off = Y.mean(axis=0) if center else np.zeros(p)
    out = {}
    k_init = math.floor(T * Fraction(str(tau_init)))

    out["lambda_profile"] = lambda_profile(Y, off, k_init, LAMBDAS)
    out["lambda"], out["lambda_margin"] = select(LAMBDAS, out["lambda_profile"])
    lam_init = out["lambda"] if lam is None else lam
    mu1, mu2 = thresholded(Y, off, k_init, lam_init)
    loss = np.array([loss_pd(Y - off, k, mu1, mu2) for k in range(1, T + 1)])

    out["gamma_profile"] = gamma_profile(Y, off, loss, lam)
    out["gamma"], out["gamma_margin"] = select(GAMMAS, out["gamma_profile"])
    gamma_used = out["gamma"] if gamma is None else gamma
    out["objective_profile"] = loss + np.r_[np.full(T - 1, gamma_used), 0.0]
    k_hat = penalized_split(loss, gamma_used)
    j = int(np.argmin(loss[:-1]))
    out["k_hat"] = k_hat
    out["k_hat_margin"] = min(margin(loss[:-1], j),
                              abs(loss[-1] - loss[j] - gamma_used) / abs(loss[-1]))
    if k_hat == T:
        out["status"] = "no_change"
        return out

    refit_profile = lambda_profile(Y, off, k_hat, LAMBDAS)
    lam_refit, out["lambda_refit_margin"] = select(LAMBDAS, refit_profile)
    mu1, mu2 = thresholded(Y, off, k_hat, lam_refit if lam is None else lam)
    eta = mu1 - mu2
    if np.linalg.norm(eta) <= 1e-12 * (np.linalg.norm(mu1) + np.linalg.norm(mu2)):
        out["status"] = "degenerate"
        return out

    located = scalar_profile(Y, off, mu1, mu2)[:-1]
    out["locator_profile"] = np.array([loss_pd(Y - off, k, mu1, mu2) for k in range(1, T)])
    k_tilde = int(np.argmin(located)) + 1
    out["k_tilde"], out["k_tilde_margin"] = k_tilde, margin(located, k_tilde - 1)

    left, right = stopped(Y, off, k_tilde)
    r1 = np.where(mu1 != 0, left, 0.0)
    r2 = np.where(mu2 != 0, right, 0.0)
    jump = r1 - r2
    xi_sq = float(jump @ jump)
    if np.linalg.norm(jump) <= 1e-12 * (np.linalg.norm(r1) + np.linalg.norm(r2)):
        out["status"] = "degenerate"
        return out
    sigma_sq = scalar_profile(Y, off, r1, r2)[k_tilde - 1] / xi_sq
    half = c_alpha * sigma_sq / xi_sq
    out["status"] = "ok"
    out["interval"] = (max(1.0, k_tilde - half), min(float(T), k_tilde + half))
    return out
