"""Benchmark of cpinfer: four workloads, end-to-end metrics, traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
replay.  The line before it records the environment and the run's inputs.
The exit code is 0 only when every output check passed.  ``--smoke`` runs
every workload at a tiny size (a test of the harness, not a measurement).
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_cells", "large_series", "replications", "cli_infer_cold")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the harness")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "threading_note": "one BLAS thread per process; cpinfer's default lets OpenBLAS use every core",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpinfer" / "__init__.py").is_file():
        print(f"error: no cpinfer package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread per process, set before numpy loads.  This differs from
    # the library's default, where OpenBLAS starts one thread per core; with it
    # the n_jobs=2 pass uses exactly two cores and no run uses more threads
    # than nproc.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # child interpreters import the same sources

    import workloads

    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            smoke=args.smoke)
    m = workloads.RUNNERS[args.workload](ctx)
    m.per_layer["fail_share"] = m.failed / max(m.attempted, 1)

    if args.trace:
        metrics, units = m.per_layer, workloads.PER_LAYER_UNITS
    else:
        metrics, units = m.end_to_end, workloads.END_TO_END_UNITS
    correct = m.failed == 0 and m.attempted > 0
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": environment(),
        "fail_share": m.per_layer["fail_share"], **m.record,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
