"""Command-line front end: CSV in, JSON out.

Exit codes: 0 success, 1 error, 2 no-change-detected (only when an interval
was requested).  Reports carry ``"schema": "cpinfer/1"``, the ``"command"``
and then the command's fields, for a run those of ``DetectionResult.record``
or ``PipelineResult.record``.  Writing the report is part of the run: a
failed ``--output`` write is an error.  Every error, a usage error too,
prints one line ``{"error": ...}`` on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import MISSING, asdict, fields
from typing import get_type_hints

import numpy as np

from .detect import DEFAULT_TAU_INIT, detect_change
from .infer import DEFAULT_ALPHA, QuantileMCSettings, limit_quantile
from .pls import full_pipeline
from .simbench import ESTIMATORS, SimConfig, run_monte_carlo

SCHEMA = "cpinfer/1"

__all__ = [
    "read_csv",
    "cmd_detect",
    "cmd_estimate",
    "cmd_infer",
    "cmd_simulate",
    "cmd_quantile",
    "main",
]


def read_csv(path, has_header: bool = False) -> np.ndarray:
    """Load a rectangular numeric CSV as a T x p array.

    The cells are what ``numpy.loadtxt`` parses.  A leading UTF-8 byte-order
    mark, which spreadsheet "CSV UTF-8" exports write, is skipped.  Raises
    ValueError naming the file, and the offending row/column on ragged or
    non-numeric input.  Shape and finiteness are left to the pipeline, which
    validates the array once.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns on an empty file
            return np.loadtxt(path, delimiter=",", quotechar='"', comments=None, ndmin=2,
                              skiprows=int(has_header), encoding="utf-8-sig")
    except (ValueError, UserWarning) as exc:
        _scan_csv(path, has_header)
        raise ValueError(f"{path}: {exc}") from None


def _scan_csv(path, has_header: bool) -> None:
    """Locate why loadtxt failed, one row at a time: raise ValueError naming
    the file and the first cause met in file order: a line that is not UTF-8
    (``_lines``), a cell over the csv module's field limit (process-wide
    state, left unchanged), a ragged row, a cell that loadtxt does not read
    as a number (one that is not plain ASCII, holds a ``_`` or is refused by
    ``float``), or no data rows."""
    width = None
    try:
        with open(path, "rb") as fh:
            # line_num: the file line that ends the row, from 1
            reader = csv.reader(_lines(fh, path))
            for cells in reader:
                if not cells or (has_header and reader.line_num == 1):
                    continue
                width = width or len(cells)
                if len(cells) != width:
                    raise ValueError(f"{path}: row {reader.line_num} has {len(cells)} cells, "
                                     f"expected {width}")
                joined = ",".join(cells)  # loadtxt's ASCII and "_" rule, tested once a row
                plain = joined.isascii() and "_" not in joined
                for j, cell in enumerate(cells):
                    try:
                        if not (plain or cell.isascii() and "_" not in cell):
                            raise ValueError
                        float(cell)
                    except ValueError:
                        raise ValueError(f"{path}: non-numeric cell at row {reader.line_num}, "
                                         f"column {j + 1}: {cell!r}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    if width is None:
        raise ValueError(f"{path}: no data rows")


def _lines(fh, path):
    """The lines of a binary file, split where text mode splits them (at
    ``\\n``, ``\\r\\n`` or ``\\r``) and decoded from UTF-8 as they are read, the
    first without a byte-order mark; ValueError naming the line of a byte
    that is not UTF-8."""
    lines = (line for chunk in fh for line in chunk.splitlines(keepends=True))
    for n, line in enumerate(lines, 1):
        try:
            yield line.decode("utf-8-sig" if n == 1 else "utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None


def cmd_detect(args) -> tuple[dict, int]:
    Y = read_csv(args.input, args.header)
    det = detect_change(Y, tau_init=args.tau_init, lam=args.lam, gamma=args.gamma)
    return det.record(), 0


def cmd_estimate(args) -> tuple[dict, int]:
    Y = read_csv(args.input, args.header)
    res = full_pipeline(Y, tau_init=args.tau_init, lam=args.lam, gamma=args.gamma,
                        with_ci=False)
    return res.record(), 0


def _mc_settings(args) -> QuantileMCSettings | None:
    """Monte Carlo settings from the MC flags given (the rest at their
    defaults), or None when no MC flag is given."""
    given = {f.name: getattr(args, f.name) for f in fields(QuantileMCSettings)
             if getattr(args, f.name) is not None}
    return QuantileMCSettings(**given) if given else None


def cmd_infer(args) -> tuple[dict, int]:
    Y = read_csv(args.input, args.header)  # first: a missing file costs no critical value
    c_alpha = limit_quantile(args.alpha, _mc_settings(args))
    res = full_pipeline(Y, tau_init=args.tau_init, alpha=args.alpha,
                        lam=args.lam, gamma=args.gamma, with_ci=True, c_alpha=c_alpha)
    inf = res.inference
    report = {
        **res.record(),
        "alpha": args.alpha,
        "c_alpha": inf.c_alpha if inf else None,
        "ci_int": list(inf.interval_int) if inf else None,
        "ci_frac": list(inf.interval_frac) if inf else None,
    }
    return report, 2 if res.status == "no_change" else 0


def cmd_simulate(args) -> tuple[dict, int]:
    cfg = SimConfig(**{f.name: getattr(args, f.name) for f in fields(SimConfig)})
    metrics = asdict(run_monte_carlo(cfg, estimator=args.estimator, n_jobs=args.jobs))
    records = metrics.pop("per_rep_records")
    report = {
        "estimator": args.estimator,
        "config": asdict(cfg),
        "metrics": metrics,
        "records": records,
    }
    return report, 0


def cmd_quantile(args) -> tuple[dict, int]:
    mc = _mc_settings(args) or QuantileMCSettings()
    c = limit_quantile(args.alpha, mc)
    return {"alpha": args.alpha, "c_alpha": c, "paths": mc.paths, "seed": mc.seed}, 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main's one error path: exit 1 (2 is reserved for "no change")
        raise ValueError(message)


def _add_io_options(sub):
    sub.add_argument("--input", required=True, help="CSV file, rows are observations")
    sub.add_argument("--header", action="store_true",
                     help="the CSV carries a single header row")
    sub.add_argument("--tau-init", type=float, default=DEFAULT_TAU_INIT, dest="tau_init")
    sub.add_argument("--lambda", type=float, default=None, dest="lam",
                     help="fixed shrinkage level (default: criterion-selected)")
    sub.add_argument("--gamma", type=float, default=None,
                     help="fixed detection penalty (default: criterion-selected)")


def _add_mc_options(sub, description: str):
    d = QuantileMCSettings()
    group = sub.add_argument_group("Monte Carlo critical value", description)
    group.add_argument("--paths", type=int, default=None,
                       help=f"paths (default {d.paths})")
    group.add_argument("--grid-R", type=float, default=None, dest="grid_half_width",
                       help="accepted for compatibility; no effect on the exact draws")
    group.add_argument("--grid-h", type=float, default=None, dest="grid_step",
                       help="accepted for compatibility; no effect on the exact draws")
    group.add_argument("--seed", type=int, default=None,
                       help=f"seed (default {d.seed})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cpinfer", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_detect = subs.add_parser("detect", help="flag whether a mean shift exists")
    _add_io_options(p_detect)
    p_detect.set_defaults(func=cmd_detect)

    p_est = subs.add_parser("estimate", help="detect and locate the shift")
    _add_io_options(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_inf = subs.add_parser("infer", help="detect, locate, and build the interval")
    _add_io_options(p_inf)
    p_inf.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    _add_mc_options(p_inf, "By default the critical value is exact, from the closed-form "
                           "limiting law. Any of --paths, --grid-R, --grid-h or --seed "
                           "estimates it instead from exact draws of the arg-min (Williams "
                           "1974), the other settings at their defaults.")
    p_inf.set_defaults(func=cmd_infer)

    p_sim = subs.add_parser("simulate", help="run a Monte Carlo design cell")
    kinds = get_type_hints(SimConfig)
    for f in fields(SimConfig):  # one option per design field, typed by its annotation
        kind = {"action": "store_true"} if kinds[f.name] is bool else {"type": kinds[f.name]}
        p_sim.add_argument("--" + f.name.replace("_", "-"), **kind, default=f.default,
                           required=f.default is MISSING, help=f.metadata.get("help"))
    p_sim.add_argument("--estimator", choices=ESTIMATORS, default="pls_ci")
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_q = subs.add_parser("quantile", help="Monte Carlo critical value of the limiting law")
    p_q.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    _add_mc_options(p_q, "The critical value is the empirical quantile of exact draws of the "
                         "arg-min (Williams 1974); unset settings take their defaults.")
    p_q.set_defaults(func=cmd_quantile)
    for sub in subs.choices.values():
        sub.add_argument("--output", default=None, help="write the JSON report here (default stdout)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report, code = args.func(args)
        text = json.dumps({"schema": SCHEMA, "command": args.command, **report}, indent=2)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (ValueError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    return code
