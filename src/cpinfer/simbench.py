"""Synthetic designs, estimator metrics, and the Monte Carlo harness.

Noise rows follow an AR(1)-in-coordinates Gaussian law with covariance
rho^{|i-j|} and unit marginals, generated in place by the exact O(p)
recursion over columns, so one replication holds one T x p array and needs
numpy alone.  When |rho| is a power of two, 2^-k, the recursion runs as a
running sum: scaling column j by rho^-j changes only exponents, so each step
of ``np.cumsum`` rounds exactly as the column step does, scaled by a power of
two, and the noise is the same to the bit.
Replications draw from per-replication substreams of the master seed, so
serial and parallel runs agree bit for bit.  A serial run draws
replications ahead on two threads while the pipeline runs when
``core._helper_pays``, in order and to the same bits (``_datasets``): the
calling thread makes each array, and a helper fills it.  numpy's normal
draws and in-place products release the GIL; the running sum (``np.cumsum``
along rows) keeps it, 0.4 ms of a 2.1 ms draw at 350x500.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import core
from .core import (_bool, _fraction_split, _helper_pays, _integer, _level, _positive, _real,
                   series_stats)
from .detect import DEFAULT_TAU_INIT, _initial_split, detect_change
from .infer import DEFAULT_ALPHA, limit_quantile
from .pls import full_pipeline

__all__ = [
    "SimConfig",
    "MetricsReport",
    "ar1_covariance",
    "gen_dataset",
    "run_monte_carlo",
    "metrics_from_records",
    "initializer_sweep",
]

ESTIMATORS = ("al1", "pls", "pls_ci")


@dataclass(frozen=True)
class SimConfig:
    """Design parameters for one simulation cell.  The integer fields are
    stored as ints, so ``dataclasses.asdict`` of a config is JSON.  Each
    field is a ``cpinfer simulate`` option, its name with ``_`` written
    ``-``, required when the field has no default; a field's help text is
    its ``metadata["help"]``."""

    T: int
    p: int
    tau0: float
    s: int = 5
    rho: float = 0.5
    reps: int = 100
    seed: int = 0
    alpha: float = DEFAULT_ALPHA
    tau_init: float = DEFAULT_TAU_INIT
    gamma_off: bool = field(default=False,
                            metadata={"help": "force the detection penalty to zero"})

    def __post_init__(self):
        for name, floor in (("T", 2), ("p", 1), ("s", 1), ("reps", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, floor))
        for name in ("tau0", "rho", "tau_init"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "alpha", _level(self.alpha))
        object.__setattr__(self, "gamma_off", _bool(self.gamma_off, "gamma_off"))
        if 2 * self.s > self.p:
            raise ValueError(f"designed supports overlap: need 2s <= p, got s={self.s}, p={self.p}")
        if not (0.0 < self.tau0 <= 1.0):
            raise ValueError(f"tau0 must lie in (0, 1], got {self.tau0}")
        if self.tau0 < 1.0 and self.k0 < 1:
            raise ValueError(f"tau0 < 1 needs a true split floor(T * tau0) >= 1, "
                             f"got T={self.T}, tau0={self.tau0}")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        _initial_split(self.T, self.tau_init)

    @property
    def k0(self) -> int:
        """True split ``core._fraction_split(T, tau0)`` (T=350, tau0=0.7 draws
        the shift at 245); T when tau0 = 1 (no change).  Coverage counts the
        intervals that contain k0; bias and RMSE are against k0 / T."""
        return int(_fraction_split(self.T, self.tau0))


@dataclass
class MetricsReport:
    """Aggregate metrics over replications, scored against the design's k0.

    bias and rmse are on the fraction scale, against k0 / T, and cover
    replications where the selected estimator produced a location
    ("reps_used"); bias_all/rmse_all also include the remaining replications
    with the estimate pinned at the no-change value 1.  coverage (the share
    of intervals that contain k0) and se_mean average over replications that
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


def ar1_covariance(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


# Largest exponent of two by which the running sum scales a column: normal
# draws scaled by at most 2^960 stay 2^64 below overflow.
_SCALE_BITS = 960


def _ar1_noise(T: int, p: int, rho: float, rng: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray:
    """T x p standard normals filtered along each row by y_j = w_j + rho y_{j-1},
    with w_j scaled by sqrt(1 - rho^2) for j >= 1, in place: in ``out``, a
    C-contiguous T x p float array, when given (the same draws as a fresh one).

    For |rho| = 2^-k the filter runs per chunk of at most ``_SCALE_BITS // k``
    columns as z = cumsum(w_j rho^-j) and y_j = z_j rho^j: every factor is a
    power of two, so each partial sum is the column step's own rounding scaled
    by rho^-j, and y matches the column loop bit for bit at any width (unless
    an entry is subnormal, which no standard normal draw yields).  Every other
    rho takes the column loop.
    """
    w = rng.standard_normal((T, p), out=out)
    scale = np.sqrt(1.0 - rho * rho)
    mantissa, exponent = math.frexp(abs(rho))
    width = _SCALE_BITS // (1 - exponent)  # columns per chunk when |rho| = 2^(exponent - 1)
    if mantissa != 0.5 or width < 2:
        w[:, 1:] *= scale
        for j in range(1, p):
            w[:, j] += rho * w[:, j - 1]
        return w
    down = rho ** (np.arange(p) % width)
    up = scale / down
    up[0] = 1.0
    w *= up
    for c in range(0, p, width):
        chunk = w[:, c : c + width]
        if c:  # the previous chunk's last column is still scaled by rho^-(width - 1)
            chunk[:, 0] += rho**width * w[:, c - 1]
        np.cumsum(chunk, axis=1, out=chunk)
    w *= down
    return w


def _rep_rng(seed: int, rep_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rep_index,)))


def gen_dataset(cfg: SimConfig, rep_index: int) -> tuple[np.ndarray, int]:
    """One replication's data and the true split index; ValueError unless
    ``rep_index`` is an integer >= 0."""
    rep_index = _integer(rep_index, "replication index", 0)
    return _fill(cfg, rep_index, np.empty((cfg.T, cfg.p)))


def _fill(cfg: SimConfig, rep_index: int, Y: np.ndarray) -> tuple[np.ndarray, int]:
    """``gen_dataset(cfg, rep_index)``, drawn into the T x p array Y."""
    k0, s = cfg.k0, cfg.s
    _ar1_noise(cfg.T, cfg.p, cfg.rho, _rep_rng(cfg.seed, rep_index), out=Y)
    # the design means, 1 on the first s columns then on the next s, added there only
    Y[:k0, :s] += 1.0
    Y[k0:, s : 2 * s] += 1.0
    return Y, k0


_AHEAD = 3  # replications drawn ahead of the one in the pipeline
# The look-ahead's floor for a helper, in elements per replication.  Beside a
# one-thread BLAS on 2 CPUs drawing ahead took 11% off a replication at 64x512
# and 36% at 350x500; beside OpenBLAS's own threads it saved 0-10% (they
# share the CPUs), and on one CPU it cost 9% at 350x500.
_AHEAD_MIN = 1 << 15


def _datasets(cfg: SimConfig):
    """``gen_dataset(cfg, i)`` for i = 0..reps-1, in order.  When
    ``core._helper_pays`` for the replications, the elements of one and the
    floor ``_AHEAD_MIN``, two helper threads draw up to ``_AHEAD`` ahead of
    the one yielded, each into an array made here (memory that a helper
    allocates stays resident after the caller frees it, which raised the
    peak).  A draw's exception is raised here, and closing the generator
    cancels the draws not started and joins the threads."""
    if not _helper_pays(cfg.reps, cfg.T * cfg.p, _AHEAD_MIN):
        for i in range(cfg.reps):
            yield gen_dataset(cfg, i)
        return
    # imported here: loading concurrent.futures costs every import of the package
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=2)

    def draw(i):
        return pool.submit(_fill, cfg, i, np.empty((cfg.T, cfg.p)))

    try:
        ahead = deque(draw(i) for i in range(min(_AHEAD, cfg.reps)))
        for i in range(_AHEAD, cfg.reps + _AHEAD):
            if i < cfg.reps:
                ahead.append(draw(i))
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _run_rep(cfg: SimConfig, rep_index: int, estimator: str, c_alpha: float | None) -> dict:
    return _record(cfg, rep_index, gen_dataset(cfg, rep_index), estimator, c_alpha)


def _record(cfg: SimConfig, rep_index: int, data: tuple, estimator: str,
            c_alpha: float | None) -> dict:
    """One replication's record from its data ``(Y, k0)``."""
    Y, k0 = data
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
        "covered": bool(lo <= k0 <= hi) if inf else None,
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
    ``cfg.alpha`` unless supplied; a supplied value is checked before any
    replication, for every estimator.  ``n_jobs`` >= 1 worker processes run the
    replications, no more than there are replications or CPUs that this
    process may run on (``core._cpu_count``); 1 runs them in this process,
    where two helper threads draw up to three replications ahead of the
    pipeline when ``core._helper_pays`` (see ``_datasets``).  The records are
    the same in every case.
    """
    _check_estimator(estimator)
    n_jobs = _integer(n_jobs, "n_jobs", 1)
    if estimator == "pls_ci" or c_alpha is not None:
        c_alpha = _positive(limit_quantile(cfg.alpha) if c_alpha is None else c_alpha,
                            "critical value")

    if n_jobs > 1:
        # imported here: multiprocessing is slow to load and serial runs never need it
        from concurrent.futures import ProcessPoolExecutor

        run = partial(_run_rep, cfg, estimator=estimator, c_alpha=c_alpha)
        # the pool starts all its workers at once: no more than there are
        # tasks, or CPUs that this process may run on
        with ProcessPoolExecutor(max_workers=min(n_jobs, cfg.reps, core._cpu_count())) as pool:
            records = list(pool.map(run, range(cfg.reps)))
    else:
        # map, unlike a for loop, drops replication i's data before it draws
        # the next; a failed pipeline closes the draws
        record = partial(_record, cfg, estimator=estimator, c_alpha=c_alpha)
        with closing(_datasets(cfg)) as datasets:
            records = list(map(record, range(cfg.reps), datasets))
    return metrics_from_records(cfg, records, estimator)


def _check_estimator(estimator: str) -> None:
    """Raise ValueError unless ``estimator`` is one of ``ESTIMATORS``."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")


def metrics_from_records(cfg: SimConfig, records: list, estimator: str = "pls_ci") -> MetricsReport:
    """Aggregate per-replication records against ``cfg.k0``; usable to
    re-summarize a run for a different estimator without re-simulating.
    ValueError on an estimator ``run_monte_carlo`` rejects, on no records, or
    on a record whose ``k0`` is not ``cfg.k0``."""
    _check_estimator(estimator)
    if not records:
        raise ValueError("no records to summarize")
    if any(r["k0"] != cfg.k0 for r in records):
        raise ValueError("records do not come from this design")
    truth = cfg.k0 / cfg.T
    field = "tau_hat" if estimator == "al1" else "tau_tilde"
    located = [r[field] if r["changed"] else None for r in records]  # no location without a change
    diffs = np.array([t - truth for t in located if t is not None])
    all_diffs = np.array([(1.0 if t is None else t) - truth for t in located])

    changed = np.array([r["changed"] for r in records], dtype=bool)
    ses = np.array([r["se"] for r in records if r["se"] is not None], dtype=float)
    covered = np.array([r["covered"] for r in records if r["covered"] is not None], dtype=bool)

    return MetricsReport(
        bias=float(np.abs(diffs.mean())) if diffs.size else None,
        rmse=float(np.sqrt(np.mean(diffs**2))) if diffs.size else None,
        tpr=float(changed.mean()) if cfg.k0 < cfg.T else None,
        tnr=float((~changed).mean()) if cfg.k0 == cfg.T else None,
        coverage=float(covered.mean()) if covered.size else None,
        se_mean=float(ses.mean()) if ses.size else None,
        reps_used=int(diffs.size),
        per_rep_records=records,
        bias_all=float(np.abs(all_diffs.mean())) if all_diffs.size else None,
        rmse_all=float(np.sqrt(np.mean(all_diffs**2))) if all_diffs.size else None,
        degenerate_count=sum(1 for r in records if r["status"] == "degenerate"),
    )


def initializer_sweep(cfg: SimConfig, tau_inits) -> list:
    """Detection on replication 0's dataset for each initial fraction: per
    fraction a row of ``tau_init``, the ``DetectionResult.record()`` and the
    true ``k0``.  Each fraction is checked as ``detect_change`` checks it."""
    Y, k0 = gen_dataset(cfg, 0)
    s = series_stats(Y)  # every fraction reads the same statistics
    return [{"tau_init": _real(tau, "initial fraction"), **detect_change(s, tau_init=tau).record(),
             "k0": k0} for tau in tau_inits]
