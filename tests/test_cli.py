"""The command line, as tables: every CSV that ``read_csv`` reads or refuses
is a row of ``CSVS``, every command line that runs is a row of ``ACCEPTED``
and every one that the CLI refuses is a row of ``REFUSED``."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from cpinfer import cli
from cpinfer.cli import build_parser, main, read_csv
from cpinfer.detect import detect_change
from cpinfer.infer import QuantileMCSettings, limit_quantile
from cpinfer.pls import full_pipeline
from cpinfer.simbench import SimConfig, gen_dataset, run_monte_carlo


def csv_bytes(Y):
    """Y at full precision, so that read_csv gives it back exactly."""
    return "".join(",".join(map(repr, row)) + "\n" for row in Y.tolist()).encode()


SHIFTED = gen_dataset(SimConfig(T=60, p=12, s=3, tau0=0.5, seed=21), 0)[0]
NULL = np.random.default_rng(0).normal(size=(50, 8))
NAN = SHIFTED.copy()
NAN[3, 2] = np.nan
SMALL = np.random.default_rng(8).normal(size=(6, 3))
BOM = b"\xef\xbb\xbf"
# a cell over the csv module's field limit (131072 characters) in row 2
WIDE = b"1,2\n3," + b"x" * 200_000 + b"\n"

# The CSVs that command lines name, by name; {tmp} names their directory.
FILES = {
    "shifted": csv_bytes(SHIFTED),
    "null": csv_bytes(NULL),
    "nan": csv_bytes(NAN),
    "short": b"1,2\n",
    "float_only": b"1_000,2\n3,4\n",
    "wide": WIDE,
}


@pytest.fixture
def csvs(tmp_path):
    """The path of each file of FILES by its name, and ``tmp``, their directory."""
    for name, data in FILES.items():
        (tmp_path / f"{name}.csv").write_bytes(data)
    return {"tmp": str(tmp_path), **{name: str(tmp_path / f"{name}.csv") for name in FILES}}


# What read_csv gives for a file's bytes and header flag: the array, or the
# whole error, {path} naming the file and the file line counted from 1.
# loadtxt alone decides what a cell is, so a digit separator and non-ASCII
# digits, which float() reads, are non-numeric cells.
CSVS = {
    "one column": (b"1\n3\n", False, [[1.0], [3.0]]),
    "ragged": (b"1,2\n3\n", False, "{path}: row 2 has 1 cells, expected 2"),
    "non-numeric": (b"1,2\n3,oops\n", False, "{path}: non-numeric cell at row 2, column 2: 'oops'"),
    "header": (b"a,b\n1,2\n3,4\n", True, [[1.0, 2.0], [3.0, 4.0]]),
    "header unflagged": (b"a,b\n1,2\n3,4\n", False, "{path}: non-numeric cell at row 1, column 1: 'a'"),
    "scientific": (b"1e-3,2.5E2\n-1.5e0,0.0\n", False, [[0.001, 250.0], [-1.5, 0.0]]),
    "quoted": (b'"1","2.5"\n3,"-4e1"\n', False, [[1.0, 2.5], [3.0, -40.0]]),
    "blank lines": (b"1,2\n\n3,4\n\n", False, [[1.0, 2.0], [3.0, 4.0]]),
    "quoted line break": (b'"1\n",2\n3,x\n', False, "{path}: non-numeric cell at row 3, column 2: 'x'"),
    "empty": (b"", False, "{path}: no data rows"),
    "byte-order mark": (BOM + csv_bytes(SMALL), False, SMALL),
    "byte-order mark, header": (BOM + b"a,b,c\n" + csv_bytes(SMALL), True, SMALL),
    "byte-order mark, non-numeric": (BOM + b"1,2\n3,oops\n", False,
                                     "{path}: non-numeric cell at row 2, column 2: 'oops'"),
    "digit separator": (FILES["float_only"], False, "{path}: non-numeric cell at row 1, column 1: '1_000'"),
    "arabic-indic digit": ("\u0661,2\n3,4\n".encode(), False,
                           "{path}: non-numeric cell at row 1, column 1: '\u0661'"),
    "not utf-8": (b"1,2\n3,\xff\xfe\n", False,
                  "{path}: line 2: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
    "ragged before not utf-8": (b"1,2\n3\n4,\xff\n", False, "{path}: row 2 has 1 cells, expected 2"),
    "over the field limit": (WIDE, False, "{path}: field larger than field limit (131072)"),
    "round trip": (FILES["shifted"], False, SHIFTED),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data, header, expected", CSVS.values(), ids=list(CSVS))
def test_read_csv_gives_each_file_its_array_or_error(data, header, expected, tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            read_csv(path, header)
        assert str(exc.value) == expected.format(path=path)
    else:
        np.testing.assert_array_equal(read_csv(path, header), expected, strict=True)


def test_refused_csv_is_scanned_one_row_at_a_time(tmp_path):
    # 4 MB with the bad cell in its last row: holding one row, the scan's
    # peak does not grow with the file
    path = tmp_path / "input.csv"
    row = ",".join(["-0.12345678901234567"] * 200) + "\n"
    path.write_text(row * 1000 + "oops" + row[20:])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="non-numeric cell at row 1001, column 1: 'oops'"):
            cli._scan_csv(path, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def inferred(Y, alpha, c_alpha):
    """The fields of ``infer``: the run record, the level and the interval."""
    res = full_pipeline(Y, alpha=alpha, c_alpha=c_alpha)
    inf = res.inference
    return {**res.record(), "alpha": alpha, "c_alpha": inf and inf.c_alpha,
            "ci_int": inf and inf.interval_int, "ci_frac": inf and inf.interval_frac}


def simulated(estimator, **design):
    """The fields of ``simulate``: the design, the metrics and the records."""
    cfg = SimConfig(**design)
    metrics = asdict(run_monte_carlo(cfg, estimator))
    records = metrics.pop("per_rep_records")
    return {"estimator": estimator, "config": asdict(cfg), "metrics": metrics, "records": records}


def quantile(alpha, mc):
    """The fields of ``quantile``: the level, the critical value and its paths and seed."""
    return {"alpha": alpha, "c_alpha": limit_quantile(alpha, mc), "paths": mc.paths, "seed": mc.seed}


# Command lines that run: the exit code, the library call whose result the
# report holds after "schema" and "command", and outcomes it must show, by
# their path through the report.  Any Monte Carlo flag of infer simulates the
# critical value, the others at their defaults; the grid flags shape nothing.
ACCEPTED = [
    ("detect --input {shifted}", 0, lambda: detect_change(SHIFTED).record(), {"changed": True}),
    ("detect --input {shifted} --lambda 0.2 --gamma 0.05", 0,
     lambda: detect_change(SHIFTED, lam=0.2, gamma=0.05).record(), {"lambda": 0.2, "gamma": 0.05}),
    ("detect --input {null}", 0, lambda: detect_change(NULL).record(), {"changed": False}),
    ("estimate --input {shifted}", 0, lambda: full_pipeline(SHIFTED, with_ci=False).record(),
     {"xi_sq": None, "sigma_sq": None}),
    ("infer --input {shifted} --alpha 0.1", 0, lambda: inferred(SHIFTED, 0.1, limit_quantile(0.1)),
     {"status": "ok"}),
    ("infer --input {shifted} --alpha 0.1 --paths 4000 --grid-R 40 --grid-h 0.01 --seed 3", 0,
     lambda: inferred(SHIFTED, 0.1, limit_quantile(0.1, QuantileMCSettings(paths=4000, seed=3))), {}),
    ("infer --input {shifted} --seed 3", 0,
     lambda: inferred(SHIFTED, 0.05, limit_quantile(0.05, QuantileMCSettings(seed=3))), {}),
    ("infer --input {shifted} --grid-R 40", 0,
     lambda: inferred(SHIFTED, 0.05, limit_quantile(0.05, QuantileMCSettings(grid_half_width=40.0))), {}),
    ("infer --input {null}", 2, lambda: inferred(NULL, 0.05, limit_quantile(0.05)),
     {"changed": False, "ci_int": None}),
    ("simulate --T 30 --p 8 --s 2 --tau0 0.5 --reps 3 --seed 5 --estimator pls", 0,
     lambda: simulated("pls", T=30, p=8, s=2, tau0=0.5, reps=3, seed=5), {}),
    # 350 * 0.7 is 244.99999999999997 as a double; the design means row 245
    ("simulate --T 350 --p 4 --s 1 --tau0 0.7 --reps 1 --estimator al1", 0,
     lambda: simulated("al1", T=350, p=4, s=1, tau0=0.7, reps=1), {"records.0.k0": 245}),
    ("simulate --T 225 --p 500 --tau0 1 --reps 100 --seed 7 --estimator al1", 0,
     lambda: simulated("al1", T=225, p=500, s=5, tau0=1.0, seed=7), {"metrics.tnr": 1.0}),
    ("quantile", 0, lambda: quantile(0.05, QuantileMCSettings()), {}),
    ("quantile --alpha 0.5 --paths 4000 --grid-R 30 --grid-h 0.01 --seed 9", 0,
     lambda: quantile(0.5, QuantileMCSettings(paths=4000, seed=9)), {}),
    # 1 is no multiple of 0.3, but no grid is built
    ("quantile --paths 1000 --grid-R 1 --grid-h 0.3", 0,
     lambda: quantile(0.05, QuantileMCSettings(paths=1000)), {}),
]


@pytest.mark.parametrize("line, code, call, shows", ACCEPTED, ids=[row[0] for row in ACCEPTED])
def test_accepted_command_line_reports_the_library_result(line, code, call, shows, csvs, tmp_path,
                                                          capsys):
    argv = [word.format(**csvs) for word in line.split()]
    text = json.dumps({"schema": "cpinfer/1", "command": argv[0], **call()}, indent=2) + "\n"
    assert (main(argv), *capsys.readouterr()) == (code, text, "")
    out = tmp_path / "report.json"
    assert (main([*argv, "--output", str(out)]), *capsys.readouterr()) == (code, "", "")
    assert out.read_text(encoding="utf-8") == text
    report = json.loads(text)
    for path, value in shows.items():
        at = reduce(lambda node, key: node[int(key) if key.isdigit() else key], path.split("."), report)
        assert at == value, path


_SIMULATE = "simulate --T 30 --p 8 --s 2 --tau0 0.5 --reps 2"
# Command lines the CLI refuses, and the whole error of each; names in braces
# are those of the fixture ``csvs``.  A usage error is refused as any other
# error is, with no usage text.  A bad level is an error whatever the
# data, --lambda nan used to exit 0 with a change at k = 1 and a NaN in the
# JSON, simulate checks its level before any replication, for every
# estimator, and an --output that cannot be written used to end in a
# traceback after the whole run.
REFUSED = [
    ("", "the following arguments are required: command"),
    ("infer --input {null} --alpha 1.5", "level must lie in (0, 1), got 1.5"),
    ("infer --input {shifted} --alpha 1.5", "level must lie in (0, 1), got 1.5"),
    ("infer --input {nan}", "time series contains non-finite entries"),
    *((f"{command} --input {{short}}", "need at least 2 observations, got T=1")
      for command in ("detect", "estimate", "infer")),
    ("detect --input /nonexistent/file.csv", "/nonexistent/file.csv not found."),
    # the input is read before the critical value, whose settings are checked on use
    ("infer --input /nonexistent/file.csv --paths 0", "/nonexistent/file.csv not found."),
    ("detect --input {float_only}", "{float_only}: non-numeric cell at row 1, column 1: '1_000'"),
    ("detect --input {wide}", "{wide}: field larger than field limit (131072)"),
    ("detect --input {shifted} --output {tmp}/missing/report.json",
     "[Errno 2] No such file or directory: '{tmp}/missing/report.json'"),
    ("detect --input {shifted} --output {tmp}", "[Errno 21] Is a directory: '{tmp}'"),
    ("detect --input {shifted} --lambda nan", "shrinkage level must be finite and nonnegative, got nan"),
    ("detect --input {shifted} --gamma nan", "penalty must be finite and nonnegative, got nan"),
    ("detect --input {shifted} --no-header", "unrecognized arguments: --no-header"),
    ("estimate --input x.csv --alpha 0.1", "unrecognized arguments: --alpha 0.1"),
    *((f"{command} --cache q.txt", "unrecognized arguments: --cache q.txt")
      for command in (_SIMULATE, "infer --input x.csv", "quantile")),
    *((f"{_SIMULATE} --alpha 1.5 --estimator {e}", "level must lie in (0, 1), got 1.5")
      for e in ("al1", "pls", "pls_ci")),
    *((f"{_SIMULATE} --jobs {jobs}", f"n_jobs must be an integer >= 1, got {jobs}") for jobs in (0, -3)),
    # each design option is typed by its SimConfig field and spelt with "-"
    *((f"{_SIMULATE} --{flag} 1.5", f"argument --{flag}: invalid int value: '1.5'")
      for flag in ("T", "p", "s", "reps", "seed")),
    *((f"{_SIMULATE} --{flag} half", f"argument --{flag}: invalid float value: 'half'")
      for flag in ("tau0", "rho", "alpha", "tau-init")),
    (f"{_SIMULATE} --gamma-off 1", "unrecognized arguments: 1"),
    (f"{_SIMULATE} --tau_init 0.5", "unrecognized arguments: --tau_init 0.5"),
    (f"{_SIMULATE} --paths 100", "unrecognized arguments: --paths 100"),
    # the per-replication records live only in the JSON report
    (f"{_SIMULATE} --records-csv x.csv", "unrecognized arguments: --records-csv x.csv"),
    ("simulate", "the following arguments are required: --T, --p, --tau0"),
    ("simulate --s 2", "the following arguments are required: --T, --p, --tau0"),
    ("quantile --seed -1", "seed must be an integer >= 0, got -1"),
    ("quantile --paths 0", "paths must be an integer >= 1, got 0"),
    *((f"quantile --grid-{flag} {value}", f"{name} must be finite and positive, got {value}")
      for flag, name in (("R", "grid half-width"), ("h", "grid step")) for value in ("inf", "nan")),
    # 2^60 bytes, beyond any address space, so refused at once under any overcommit
    # setting; past 2^63 bytes numpy raises a ValueError instead
    *((f"{command} --paths {1 << 57}", f"Unable to allocate 1.00 EiB for an array with shape ({1 << 57},) "
       "and data type float64") for command in ("quantile", "infer --input {shifted}")),
    ("simulate --T 1073741824 --p 134217728 --s 1 --tau0 0.5 --reps 1",
     "Unable to allocate 1.00 EiB for an array with shape (1073741824, 134217728) and data type float64"),
]


@pytest.mark.parametrize("line, error", REFUSED, ids=[line for line, _ in REFUSED])
def test_refused_command_line_exits_1_with_its_error(line, error, csvs, capsys):
    code = main([word.format(**csvs) for word in line.split()])
    err = json.dumps({"error": error.format(**csvs)}) + "\n"
    assert (code, *capsys.readouterr()) == (1, "", err)


def test_help_exits_0_with_the_usage_on_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out.startswith("usage: cpinfer"), err) == (0, True, "")


@pytest.fixture(scope="module")
def loaded_after_import():
    """Which of the modules cpinfer.cli must not load are in sys.modules after
    importing it, read from one fresh interpreter."""
    names = ("scipy", "multiprocessing", "concurrent.futures")
    code = f"import cpinfer.cli, sys; print(*(m in sys.modules for m in {names!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(names, proc.stdout.split(), strict=True))


class TestCommands:
    def test_import_leaves_scipy_unloaded(self, loaded_after_import):
        assert loaded_after_import["scipy"] == "False"

    def test_import_leaves_multiprocessing_unloaded(self, loaded_after_import):
        # the process pool is imported only by a run with n_jobs > 1
        assert loaded_after_import["multiprocessing"] == "False"

    def test_import_leaves_concurrent_futures_unloaded(self, loaded_after_import):
        # the thread pool that draws replications ahead is imported by the run
        # that uses it: loading concurrent.futures adds to every process's start-up
        assert loaded_after_import["concurrent.futures"] == "False"

    def test_first_pipeline_leaves_numpy_ma_unloaded(self):
        # np.unique loads numpy.ma, several ms on a process's first pipeline;
        # tuning the penalty reads its two splits without it
        code = ("import sys, numpy as np; from cpinfer.pls import full_pipeline; "
                "Y = np.random.default_rng(0).normal(size=(60, 10)); Y[30:, :2] += 3; "
                "print(full_pipeline(Y).status, 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok", "False"]

    def test_every_design_field_has_a_simulate_option(self):
        # each option takes its field's default (s = 5 needs p >= 10)
        args = build_parser().parse_args(["simulate", "--T", "30", "--p", "10", "--tau0", "0.5"])
        design = {f.name: getattr(args, f.name) for f in fields(SimConfig)}
        assert design == asdict(SimConfig(T=30, p=10, tau0=0.5))

    def test_module_entry_point(self, csvs):
        proc = subprocess.run(
            [sys.executable, "-m", "cpinfer", "detect", "--input", csvs["shifted"]],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "cpinfer/1"
