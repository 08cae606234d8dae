"""The four benchmark workloads.

Every workload is a closed loop with one caller: the next call starts when
the previous one returns.  Each returns a ``Measurement`` with its
end-to-end metrics (measured untraced) and, when traced, its per-layer
metrics (from a replay after the untraced loop).  Which per-layer metric
should move which end-to-end metric, on which workload, is in README.md.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import binom

import inputs
from replay import TAU_INIT, Tracer, outcome, pipeline_outcome, replay_pipeline

from cpinfer import cli
from cpinfer.infer import QuantileMCSettings
from cpinfer.pls import full_pipeline
from cpinfer.simbench import SimConfig, gen_dataset, run_monte_carlo

ROOT = Path(__file__).resolve().parent.parent

C_ALPHA = 11.03  # the paper's c_0.05, supplied wherever a workload bypasses the quantile
ALPHA = 0.05
TAUS = (0.2, 0.4, 0.6, 0.8, 1.0)

PAPER_CELLS = ((100, 500), (225, 500), (350, 500), (100, 750))
PAPER_REPLICATES = 3     # inputs per (cell, tau0); more inputs average out seed-to-seed work
LARGE_SHAPES = ((5000, 1000), (20000, 200), (500, 20000))
LARGE_TAUS = (0.25, 0.5, 0.75)
REPS_CELL = (350, 500)   # the coverage cell of the paper (criterion 4)
REPS_PER_CALL = 10
COVER_CALLS = 40         # serial calls whose replications feed the coverage check
CLI_SHAPE = (350, 500)
C_ALPHA_BAND = (11.03 - 0.5, 11.03 + 0.5)
COVERAGE_BAND = (0.91, 0.98)
COVERAGE_TEST_LEVEL = 1e-3
SETUPS = 3               # set-up repetitions per run; setup_s is their median

SMOKE_CELLS = ((60, 40), (80, 40))
SMOKE_SHAPES = ((400, 50), (1000, 20), (50, 400))
SMOKE_REPS = (60, 40, 4, 2)  # T, p, reps per call, coverage calls
SMOKE_MC = QuantileMCSettings(grid_half_width=20.0, grid_step=0.05, paths=2000)

SHAPE_METRICS = tuple(f"large_ms.{T}x{p}" for T, p in LARGE_SHAPES)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

STAGE_METRICS = {  # per-layer name -> (replay span, scale from seconds)
    "core.validate_ms": ("core.validate", 1e3),
    "tune.lambda_init_ms": ("tune.lambda_init", 1e3),
    "detect.init_means_ms": ("detect.init_means", 1e3),
    "tune.gamma_ms": ("tune.gamma", 1e3),
    "detect.profile_ms": ("detect.profile", 1e3),
    "tune.lambda_refit_ms": ("tune.lambda_refit", 1e3),
    "pls.locate_ms": ("pls.locate", 1e3),
    "infer.refit_plugin_ms": ("infer.refit_plugin", 1e3),
    "infer.critical_value_s": ("infer.critical_value", 1.0),
    "cli.read_csv_ms": ("cli.read_csv", 1e3),
    "simbench.gen_ms": ("simbench.gen", 1e3),
}
PIPELINE_SPANS = {span for span, _ in STAGE_METRICS.values()} - {"cli.read_csv", "simbench.gen"}

PER_LAYER_UNITS = {
    "op_ms_p90": "ms",
    **{name: ("s" if name.endswith("_s") else "ms") for name in STAGE_METRICS},
    "cli.report_write_ms": "ms",
    "simbench.pipeline_ms": "ms",
    "simbench.reps_per_s_jobs2": "1/s",
    "simbench.jobs2_efficiency": "ratio",
    "detect.no_change_share": "share",
    "pls.k_hat_is_init_share": "share",
    "loc_rmse_x100": "pct_of_T",
    "coverage_gap": "share",
    "fail_share": "share",
    "trace.gap_ms": "ms",
    "trace.replay_mismatches": "count",
    **{name: "ms" for name in SHAPE_METRICS},
}


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool


@dataclass
class Measurement:
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=lambda: dict.fromkeys(PER_LAYER_UNITS, 0.0))
    attempted: int = 0
    failed: int = 0
    record: dict = field(default_factory=dict)

    def count(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        self.failed += 0 if ok else n


def _timed_setup(make):
    """Run ``make`` SETUPS times, each after a fresh interpreter imports cpinfer.

    The import in a child process is the program's own set-up cost, which a
    change can grow; input generation is the benchmark's.  Returns the last
    product and the median time.
    """
    times, product = [], None
    for _ in range(SETUPS):
        product = None  # free the previous inputs before making the next
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cpinfer.cli"], check=True)
        product = make()
        times.append(time.perf_counter() - start)
    return product, float(np.median(times))


def _op_metrics(m: Measurement, setup_s: float, op_s: list, batches: list) -> None:
    """Metrics from per-operation times and (ops, seconds) per batch.

    ops_per_s is the median over batches, so a host-side slowdown during a
    minority of the run moves it as little as it moves the median latency.
    The 90th percentile moves with any slowdown longer than a tenth of the
    run; it is reported with the per-layer metrics, which carry no bound.
    """
    ms = 1e3 * np.asarray(op_s)
    m.end_to_end.update(
        setup_s=setup_s,
        op_ms_p50=float(np.percentile(ms, 50)),
        ops_per_s=float(np.median([ops / seconds for ops, seconds in batches])),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    m.per_layer["op_ms_p90"] = float(np.percentile(ms, 90))
    m.record.update(op_samples=len(op_s), batches=len(batches),
                    ops=sum(ops for ops, _ in batches), measured_s=sum(s for _, s in batches))


def _quality(m: Measurement, cases: list) -> None:
    """Quality of distinct inputs' results; ``cases`` holds (outcome, k0, T)."""
    if not cases:
        return
    located = [(o, k0, T) for o, k0, T in cases if k0 < T and o[4] is not None]
    intervals = [(o, k0) for o, k0, _ in located if o[5] is not None]
    changed = [(o, T) for o, _, T in cases if o[0] != "no_change"]
    if located:
        err = [(o[4] - k0) / T for o, k0, T in located]
        m.per_layer["loc_rmse_x100"] = 100 * math.sqrt(float(np.mean(np.square(err))))
    if intervals:
        coverage = np.mean([o[5][0] <= k0 <= o[5][1] for o, k0 in intervals])
        m.per_layer["coverage_gap"] = abs(float(coverage) - (1 - ALPHA))
    m.per_layer["detect.no_change_share"] = 1 - len(changed) / len(cases)
    if changed:
        m.per_layer["pls.k_hat_is_init_share"] = float(
            np.mean([o[1] == int(np.floor(T * TAU_INIT)) for o, T in changed]))


def _stage_metrics(m: Measurement, tr: Tracer) -> float:
    """Fill per-stage metrics from the tracer; return the pipeline span sum (s/op)."""
    per_op = tr.per_op_seconds()
    for name, (span, scale) in STAGE_METRICS.items():
        m.per_layer[name] = per_op.get(span, 0.0) * scale
    return sum(per_op.get(span, 0.0) for span in PIPELINE_SPANS)


def _ok(o: tuple) -> bool:
    return o[0] in ("ok", "no_change")


def _call(Y) -> tuple:
    """Outcome of ``full_pipeline(Y, c_alpha=C_ALPHA)``; an exception becomes an 'error' outcome."""
    try:
        return pipeline_outcome(full_pipeline(Y, c_alpha=C_ALPHA))
    except Exception as exc:  # a failed operation is counted, not fatal
        return ("error", repr(exc))


# ---------------------------------------------------------------- pipelines

def _pipeline_rounds(ctx: Context, pool: list, setup_s: float, shape_names=None) -> Measurement:
    """Closed loop over rounds of ``full_pipeline(Y, c_alpha=C_ALPHA)`` calls.

    A round calls the pipeline once on every input of the pool, so every
    input is timed equally often; an operation is one call.
    """
    m = Measurement()
    reference = [_call(Y) for Y, _ in pool]  # warm-up round
    for o in reference:
        m.count(_ok(o))

    call_s = [[] for _ in pool]
    rounds = []
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds:
        round_start = time.perf_counter()
        for i, (Y, _) in enumerate(pool):
            t0 = time.perf_counter()
            o = _call(Y)
            call_s[i].append(time.perf_counter() - t0)
            m.count(_ok(o) and o == reference[i])
        rounds.append((len(pool), time.perf_counter() - round_start))
    _op_metrics(m, setup_s, [t for times in call_s for t in times], rounds)
    _quality(m, [(o, k0, Y.shape[0]) for o, (Y, k0) in zip(reference, pool) if _ok(o)])
    if shape_names:
        for name, times in zip(shape_names, call_s):
            m.per_layer[name] = 1e3 * float(np.median(times))

    if ctx.trace:
        tr = Tracer()
        for _ in range(2):
            for i, (Y, _) in enumerate(pool):
                with tr.operation():
                    o = replay_pipeline(tr, Y, c_alpha=C_ALPHA)
                _replayed(m, o, reference[i])
        traced = _stage_metrics(m, tr)
        untraced = np.mean([np.median(t) for t in call_s])
        m.per_layer["trace.gap_ms"] = 1e3 * (untraced - traced)
    return m


def _replayed(m: Measurement, replayed: tuple, untraced: tuple) -> None:
    same = replayed == untraced
    m.count(same and _ok(replayed))
    if not same:
        m.per_layer["trace.replay_mismatches"] += 1
        m.record.setdefault("mismatches", []).append([repr(replayed), repr(untraced)])


def paper_cells(ctx: Context) -> Measurement:
    cells = SMOKE_CELLS if ctx.smoke else PAPER_CELLS

    def make():
        rng = np.random.default_rng(ctx.seed)
        return [inputs.design(T, p, tau0, rng)
                for T, p in cells for tau0 in TAUS for _ in range(PAPER_REPLICATES)]

    pool, setup_s = _timed_setup(make)
    m = _pipeline_rounds(ctx, pool, setup_s)
    m.record.update(cells=[f"{T}x{p}" for T, p in cells], taus=TAUS, replicates=PAPER_REPLICATES,
                    c_alpha=C_ALPHA)
    return m


def large_series(ctx: Context) -> Measurement:
    shapes = SMOKE_SHAPES if ctx.smoke else LARGE_SHAPES

    def make():
        rng = np.random.default_rng(ctx.seed)
        return [inputs.design(T, p, float(rng.choice(LARGE_TAUS)), rng) for T, p in shapes]

    pool, setup_s = _timed_setup(make)
    m = _pipeline_rounds(ctx, pool, setup_s, SHAPE_METRICS)
    m.record.update(
        shapes=[f"{T}x{p}" for T, p in shapes],
        input_mb_computed={f"{T}x{p}": inputs.input_mb(T, p) for T, p in shapes},
        l3_cache=_l3_size(),
        k0=[k0 for _, k0 in pool],
        c_alpha=C_ALPHA,
    )
    return m


def _l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


# ------------------------------------------------------------- replications

def replications(ctx: Context) -> Measurement:
    """run_monte_carlo on the coverage cell: a serial pass, then n_jobs=2.

    The serial pass, which the end-to-end metrics time, runs for the whole
    measured time; the n_jobs=2 pass, which only per-layer metrics use, for a
    quarter of it.  Both passes make the same sequence of calls, so each n_jobs=2 call must
    reproduce its serial records exactly.  Call i cycles tau0 through
    0.2..0.8 and draws from simulation seed 100000 * seed + i.
    """
    T, p, reps, cover_calls = SMOKE_REPS if ctx.smoke else (*REPS_CELL, REPS_PER_CALL, COVER_CALLS)

    def cfg(i: int) -> SimConfig:
        return SimConfig(T=T, p=p, s=inputs.SPARSITY, tau0=TAUS[i % 4], rho=inputs.RHO,
                         reps=reps, seed=ctx.seed * 100_000 + i, alpha=ALPHA, gamma_off=True)

    _, setup_s = _timed_setup(lambda: None)
    m = Measurement()
    run_monte_carlo(SimConfig(T=T, p=p, s=inputs.SPARSITY, tau0=0.5, reps=2), "pls_ci",
                    c_alpha=C_ALPHA)  # warm-up

    def one_call(i: int, n_jobs: int):
        try:
            return run_monte_carlo(cfg(i), "pls_ci", n_jobs=n_jobs, c_alpha=C_ALPHA).per_rep_records
        except Exception as exc:  # a failed call fails all its replications
            m.record.setdefault("errors", []).append(repr(exc))
            return None

    serial, serial_s = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds or len(serial) < cover_calls:
        t0 = time.perf_counter()
        serial.append(one_call(len(serial), 1))
        serial_s.append(time.perf_counter() - t0)
        _count_records(m, serial[-1], reps)

    jobs2 = 0
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds / 4 or jobs2 == 0:
        records = one_call(jobs2, 2)
        _count_records(m, records, reps)
        if records is not None and jobs2 < len(serial) and records != serial[jobs2]:
            m.record["jobs2_differs_from_serial"] = True
            m.count(False)
        jobs2 += 1
    jobs2_elapsed = time.perf_counter() - start

    _op_metrics(m, setup_s, [t / reps for t in serial_s], [(reps, t) for t in serial_s])
    block = [r for records in serial[:cover_calls] if records for r in records]
    cases = [(_record_outcome(r), r["k0"], T) for r in block]
    _quality(m, [c for c in cases if _ok(c[0])])
    covered = sum(bool(r["covered"]) for r in block if r["covered"] is not None)
    n_cover = sum(r["covered"] is not None for r in block)
    if not ctx.smoke:
        m.count(_coverage_plausible(covered, n_cover))
    jobs2_rate = jobs2 * reps / jobs2_elapsed
    m.per_layer["simbench.reps_per_s_jobs2"] = jobs2_rate
    m.per_layer["simbench.jobs2_efficiency"] = jobs2_rate / (2 * len(serial) * reps / sum(serial_s))
    m.record.update(cell=f"{T}x{p}", reps_per_call=reps, c_alpha=C_ALPHA,
                    coverage=covered / max(n_cover, 1), coverage_reps=n_cover, jobs2_calls=jobs2)

    if ctx.trace and serial[0] is not None:
        tr = Tracer()
        for r in serial[0]:
            with tr.operation():
                with tr.span("simbench.gen"):
                    Y, _ = gen_dataset(cfg(0), r["rep"])
                o = replay_pipeline(tr, Y, c_alpha=C_ALPHA, gamma=0.0)
            _replayed(m, o, _record_outcome(r))
        traced = _stage_metrics(m, tr)
        m.per_layer["simbench.pipeline_ms"] = 1e3 * traced
        untraced = float(np.median(serial_s)) / reps
        m.per_layer["trace.gap_ms"] = 1e3 * (untraced - traced - tr.per_op_seconds()["simbench.gen"])
    return m


def _record_outcome(r: dict) -> tuple:
    interval = None if r["ci_lo"] is None else (r["ci_lo"], r["ci_hi"])
    return outcome(r["status"], r["k_hat"], r["lambda"], r["gamma"], r["k_tilde"], interval,
                   None if interval is None else C_ALPHA)


def _count_records(m: Measurement, records, reps: int) -> None:
    if records is None:
        m.count(False, reps)
        return
    for r in records:
        m.count(r["status"] in ("ok", "no_change"))


def _coverage_plausible(covered: int, n: int) -> bool:
    """False when a one-sided binomial test at COVERAGE_TEST_LEVEL puts the
    coverage below or above COVERAGE_BAND.

    The band is the paper's acceptance range.  A plain band check on a few
    hundred replications would fail for a share of seeds even at the
    method's true coverage, about 0.93 at this cell.
    """
    lo, hi = COVERAGE_BAND
    too_low = binom.cdf(covered, n, lo) < COVERAGE_TEST_LEVEL      # P(X <= covered | lo)
    too_high = binom.sf(covered - 1, n, hi) < COVERAGE_TEST_LEVEL  # P(X >= covered | hi)
    return n > 0 and not (too_low or too_high)


# ---------------------------------------------------------------------- cli

def cli_infer_cold(ctx: Context) -> Measurement:
    """``cpinfer infer --input <csv> --output <file>`` through ``cli.main``, no cache."""
    T, p = (SMOKE_CELLS[0] if ctx.smoke else CLI_SHAPE)
    mc_args = []
    if ctx.smoke:
        mc_args = ["--paths", str(SMOKE_MC.paths), "--grid-R", str(SMOKE_MC.grid_half_width),
                   "--grid-h", str(SMOKE_MC.grid_step)]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _cli_runs(ctx, T, p, work, mc_args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def _cli_runs(ctx: Context, T: int, p: int, work: Path, mc_args: list) -> Measurement:
    csv_path, report_path = work / "series.csv", work / "report.json"
    argv = ["infer", "--input", str(csv_path), "--output", str(report_path), *mc_args]

    def make():
        rng = np.random.default_rng(ctx.seed)
        Y, k0 = inputs.design(T, p, float(rng.choice(TAUS[:4])), rng)
        np.savetxt(csv_path, Y, fmt="%.17g", delimiter=",")
        return k0

    k0, setup_s = _timed_setup(make)
    m = Measurement()

    # Bracket cmd_infer so the report write (serialise and write the JSON)
    # gets its own span; build_parser binds cli.cmd_infer when main runs.
    marks = {}
    original = cli.cmd_infer

    def bracketed(args):
        try:
            return original(args)
        finally:
            marks["cmd_end"] = time.perf_counter()

    cli.cmd_infer = bracketed
    calls, write_s, report = [], [], None
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < ctx.seconds or not calls:
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a failed call is counted, not fatal
                m.record.setdefault("errors", []).append(repr(exc))
                code = None
            end = time.perf_counter()
            calls.append(end - t0)
            write_s.append(end - marks.pop("cmd_end", end))
            report = json.loads(report_path.read_text()) if code == 0 else None
            ok = report is not None and report["status"] == "ok"
            if ok and not ctx.smoke:
                ok = C_ALPHA_BAND[0] <= report["c_alpha"] <= C_ALPHA_BAND[1]
            m.count(ok)
    finally:
        cli.cmd_infer = original
    _op_metrics(m, setup_s, calls, [(1, t) for t in calls])
    m.record.update(shape=f"{T}x{p}", k0=k0, argv=argv[:1] + argv[5:],
                    c_alpha=None if report is None else report["c_alpha"])
    if report is None:
        return m

    reported = outcome(report["status"], report["k_hat"], report["lambda"], report["gamma"],
                       report["k_tilde"], report["ci_int"], report["c_alpha"])
    _quality(m, [(reported, k0, T)])
    if ctx.trace:
        tr = Tracer()
        with tr.operation():
            with tr.span("cli.read_csv"):
                Y = cli.read_csv(csv_path)
            o = replay_pipeline(tr, Y, mc=SMOKE_MC if ctx.smoke else None)
        _replayed(m, o, reported)
        traced = _stage_metrics(m, tr)
        m.per_layer["cli.report_write_ms"] = 1e3 * float(np.median(write_s))
        traced += tr.per_op_seconds()["cli.read_csv"] + float(np.median(write_s))
        m.per_layer["trace.gap_ms"] = 1e3 * (float(np.median(calls)) - traced)
    return m


RUNNERS = {
    "paper_cells": paper_cells,
    "large_series": large_series,
    "replications": replications,
    "cli_infer_cold": cli_infer_cold,
}
