"""Synthetic designs, estimator metrics, and the Monte Carlo harness.

Noise rows follow an AR(1)-in-coordinates Gaussian law with covariance
rho^{|i-j|} and unit marginals, generated by the exact O(p) recursion.
Replications draw from per-replication substreams of the master seed, so
serial and parallel runs agree bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .detect import _initial_split, detect_change
from .infer import _check_level, limit_quantile
from .pls import full_pipeline

__all__ = [
    "SimConfig",
    "MetricsReport",
    "design_means",
    "ar1_covariance",
    "gen_dataset",
    "run_monte_carlo",
    "metrics_from_records",
    "initializer_sweep",
]

ESTIMATORS = ("al1", "pls", "pls_ci")


@dataclass(frozen=True)
class SimConfig:
    """Design parameters for one simulation cell."""

    T: int
    p: int
    s: int
    tau0: float
    rho: float = 0.5
    reps: int = 100
    seed: int = 0
    alpha: float = 0.05
    tau_init: float = 0.5
    gamma_off: bool = False
    noise_scale: float = 1.0  # test hook; 0 gives the noiseless mean layout

    def __post_init__(self):
        if self.T < 2 or self.p < 1 or self.s < 1 or self.reps < 1:
            raise ValueError("T >= 2, p >= 1, s >= 1 and reps >= 1 required")
        if 2 * self.s > self.p:
            raise ValueError(f"designed supports overlap: need 2s <= p, got s={self.s}, p={self.p}")
        if not (0.0 < self.tau0 <= 1.0):
            raise ValueError(f"tau0 must lie in (0, 1], got {self.tau0}")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        _check_level(self.alpha)
        _initial_split(self.T, self.tau_init)

    @property
    def k0(self) -> int:
        """True split index; equals T when tau0 = 1 (no change)."""
        return int(np.floor(self.T * self.tau0))


@dataclass
class MetricsReport:
    """Aggregate metrics over replications.

    bias and rmse are on the fraction scale and cover replications where the
    selected estimator produced a location ("reps_used"); bias_all/rmse_all
    also include the remaining replications with the estimate pinned at the
    no-change value 1.  coverage and se_mean average over replications that
    produced an interval.  tpr applies when a change exists, tnr when none
    does; the other is None.
    """

    bias: float | None
    rmse: float | None
    tpr: float | None
    tnr: float | None
    coverage: float | None
    se_mean: float | None
    reps_used: int
    per_rep_records: list
    bias_all: float | None = None
    rmse_all: float | None = None
    degenerate_count: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def design_means(p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-change mean (1 on the first s coordinates) and post-change mean
    (1 on the next s coordinates)."""
    mu1 = np.zeros(p)
    mu1[:s] = 1.0
    mu2 = np.zeros(p)
    mu2[s : 2 * s] = 1.0
    return mu1, mu2


def ar1_covariance(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def _ar1_noise(T: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    from scipy.signal import lfilter  # deferred: importing it costs over a second

    w = rng.standard_normal((T, p))
    w[:, 1:] *= np.sqrt(1.0 - rho * rho)
    return lfilter([1.0], [1.0, -rho], w, axis=1)


def _rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,)))


def gen_dataset(cfg: SimConfig, rep_index: int) -> tuple[np.ndarray, int]:
    """One replication's data and the true split index."""
    rng = _rep_rng(cfg.seed, rep_index)
    mu1, mu2 = design_means(cfg.p, cfg.s)
    k0 = cfg.k0
    Y = _ar1_noise(cfg.T, cfg.p, cfg.rho, rng)
    Y *= cfg.noise_scale
    Y[:k0] += mu1
    Y[k0:] += mu2
    return Y, k0


def _run_rep(cfg: SimConfig, rep_index: int, estimator: str, c_alpha: float | None) -> dict:
    Y, k0 = gen_dataset(cfg, rep_index)
    res = full_pipeline(
        Y,
        tau_init=cfg.tau_init,
        alpha=cfg.alpha,
        gamma=0.0 if cfg.gamma_off else None,
        with_ci=(estimator == "pls_ci"),
        c_alpha=c_alpha,
    )
    inf = res.inference
    lo, hi = inf.interval_int if inf else (None, None)
    return {
        "rep": rep_index,
        "k0": k0,
        "tau0": cfg.tau0,
        **res.record(),
        "se": inf.sigma_sq_hat / inf.xi_sq_hat if inf else None,
        "ci_lo": lo,
        "ci_hi": hi,
        "covered": bool(lo <= cfg.T * cfg.tau0 <= hi) if inf else None,
    }


def run_monte_carlo(
    cfg: SimConfig,
    estimator: str = "pls_ci",
    *,
    n_jobs: int = 1,
    c_alpha: float | None = None,
) -> MetricsReport:
    """Replicate the design and aggregate metrics for the chosen estimator.

    ``estimator`` is "al1", "pls" or "pls_ci"; every replication runs
    ``full_pipeline``, with the interval only for "pls_ci".  Each record is
    ``rep``, ``k0`` and ``tau0``, the run's ``PipelineResult.record()``, and
    ``se``, ``ci_lo``, ``ci_hi`` and ``covered`` (None without an interval).
    The critical value for "pls_ci" is the exact limiting-law quantile at
    ``cfg.alpha`` unless supplied.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    if estimator == "pls_ci" and c_alpha is None:
        c_alpha = limit_quantile(cfg.alpha)

    run = partial(_run_rep, cfg, estimator=estimator, c_alpha=c_alpha)
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(run, range(cfg.reps)))
    else:
        records = [run(i) for i in range(cfg.reps)]
    return metrics_from_records(cfg, records, estimator)


def _location(record: dict, estimator: str) -> float | None:
    if estimator == "al1":
        return record["tau_hat"] if record["changed"] else None
    return record["tau_tilde"]


def metrics_from_records(cfg: SimConfig, records: list, estimator: str = "pls_ci") -> MetricsReport:
    """Aggregate per-replication records; usable to re-summarize a run for a
    different estimator without re-simulating."""
    located = [(_location(r, estimator), r["tau0"]) for r in records]
    diffs = np.array([t - t0 for t, t0 in located if t is not None])
    all_diffs = np.array([(t if t is not None else 1.0) - t0 for t, t0 in located])

    changed = np.array([r["changed"] for r in records], dtype=bool)
    ses = np.array([r["se"] for r in records if r["se"] is not None], dtype=float)
    covered = np.array([r["covered"] for r in records if r["covered"] is not None], dtype=bool)

    return MetricsReport(
        bias=float(np.abs(diffs.mean())) if diffs.size else None,
        rmse=float(np.sqrt(np.mean(diffs**2))) if diffs.size else None,
        tpr=float(changed.mean()) if cfg.tau0 < 1.0 else None,
        tnr=float((~changed).mean()) if cfg.tau0 == 1.0 else None,
        coverage=float(covered.mean()) if covered.size else None,
        se_mean=float(ses.mean()) if ses.size else None,
        reps_used=int(diffs.size),
        per_rep_records=records,
        bias_all=float(np.abs(all_diffs.mean())) if all_diffs.size else None,
        rmse_all=float(np.sqrt(np.mean(all_diffs**2))) if all_diffs.size else None,
        degenerate_count=sum(1 for r in records if r["status"] == "degenerate"),
    )


def initializer_sweep(cfg: SimConfig, tau_inits, rep_index: int = 0) -> list:
    """Detection on one fixed dataset for each initial fraction: per fraction
    a row of ``tau_init``, the ``DetectionResult.record()`` and the true ``k0``."""
    Y, k0 = gen_dataset(cfg, rep_index)
    return [{"tau_init": float(tau), **detect_change(Y, tau_init=float(tau)).record(), "k0": k0}
            for tau in tau_inits]
