"""Synthetic designs, estimator metrics, and the Monte Carlo harness.

Noise rows follow an AR(1)-in-coordinates Gaussian law with covariance
rho^{|i-j|} and unit marginals, generated by the exact O(p) recursion.
Replications draw from per-replication substreams of the master seed, so
serial and parallel runs agree bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .detect import detect_change
from .infer import limit_quantile
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


def _run_rep(cfg: SimConfig, rep_index: int, estimator, c_alpha: float | None) -> dict:
    Y, k0 = gen_dataset(cfg, rep_index)
    if callable(estimator):
        record = {"rep": rep_index, "k0": k0, "tau0": cfg.tau0}
        record.update(estimator(Y, cfg))
        return record

    res = full_pipeline(
        Y,
        tau_init=cfg.tau_init,
        alpha=cfg.alpha,
        gamma=0.0 if cfg.gamma_off else None,
        with_ci=(estimator == "pls_ci"),
        c_alpha=c_alpha,
    )
    det = res.detection
    record = {
        "rep": rep_index,
        "k0": k0,
        "tau0": cfg.tau0,
        "changed": det.changed,
        "status": res.status,
        "k_hat": det.estimate.k,
        "tau_hat": det.estimate.tau,
        "lambda": det.lambda_used,
        "gamma": det.gamma_used,
        "k_tilde": None,
        "tau_tilde": None,
        "xi_sq": None,
        "sigma_sq": None,
        "se": None,
        "ci_lo": None,
        "ci_hi": None,
        "covered": None,
    }
    if res.pls_estimate is not None:
        record["k_tilde"] = res.pls_estimate.k
        record["tau_tilde"] = res.pls_estimate.tau
    inf = res.inference
    if inf is not None:
        record["xi_sq"] = inf.xi_sq_hat
        record["sigma_sq"] = inf.sigma_sq_hat
        record["se"] = inf.sigma_sq_hat / inf.xi_sq_hat
        record["ci_lo"], record["ci_hi"] = inf.interval_int
        record["covered"] = bool(record["ci_lo"] <= cfg.T * cfg.tau0 <= record["ci_hi"])
    return record


def _rep_worker(args) -> dict:
    return _run_rep(*args)


def run_monte_carlo(
    cfg: SimConfig,
    estimator="pls_ci",
    *,
    n_jobs: int = 1,
    c_alpha: float | None = None,
) -> MetricsReport:
    """Replicate the design and aggregate metrics for the chosen estimator.

    ``estimator`` is "al1", "pls", "pls_ci", or a callable (Y, cfg) -> record
    (the plugin slot for external methods).  The critical value for "pls_ci"
    is the exact limiting-law quantile at ``cfg.alpha`` unless supplied.
    """
    if not callable(estimator) and estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
    if estimator == "pls_ci" and c_alpha is None:
        c_alpha = limit_quantile(cfg.alpha)

    args = [(cfg, i, estimator, c_alpha) for i in range(cfg.reps)]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            records = list(pool.map(_rep_worker, args))
    else:
        records = [_run_rep(*a) for a in args]
    return metrics_from_records(cfg, records, estimator)


def _location(record: dict, estimator) -> float | None:
    if estimator == "al1":
        return record["tau_hat"] if record["changed"] else None
    if record.get("k_tilde") is not None:
        return record["tau_tilde"]
    return None


def metrics_from_records(cfg: SimConfig, records: list, estimator="pls_ci") -> MetricsReport:
    """Aggregate per-replication records; usable to re-summarize a run for a
    different estimator without re-simulating."""
    name = estimator if not callable(estimator) else "pls_ci"
    located = [(_location(r, name), r["tau0"]) for r in records]
    diffs = np.array([t - t0 for t, t0 in located if t is not None])
    all_diffs = np.array([(t if t is not None else 1.0) - t0 for t, t0 in located])

    changed = np.array([r["changed"] for r in records], dtype=bool)
    ses = np.array([r["se"] for r in records if r.get("se") is not None], dtype=float)
    covered = np.array([r["covered"] for r in records if r.get("covered") is not None], dtype=bool)

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
        degenerate_count=sum(1 for r in records if r.get("status") == "degenerate"),
    )


def initializer_sweep(cfg: SimConfig, tau_inits, rep_index: int = 0) -> list:
    """Detected split for each initial fraction on one fixed dataset."""
    Y, k0 = gen_dataset(cfg, rep_index)
    rows = []
    for tau in tau_inits:
        det = detect_change(Y, tau_init=float(tau))
        rows.append({
            "tau_init": float(tau),
            "k_hat": det.estimate.k,
            "changed": det.changed,
            "k0": k0,
        })
    return rows
