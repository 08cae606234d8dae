import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cpinfer import cli
from cpinfer.cli import _mc_settings, build_parser, main, read_csv
from cpinfer.infer import QuantileMCSettings, limit_quantile
from cpinfer.pls import full_pipeline
from cpinfer.simbench import SimConfig, gen_dataset


def write_csv(path, Y):
    """Write Y at full precision, so that read_csv gives it back exactly."""
    np.savetxt(path, Y, fmt="%.17g", delimiter=",")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return json.loads(out), code


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


@pytest.fixture
def shifted_csv(tmp_path):
    cfg = SimConfig(T=60, p=12, s=3, tau0=0.5, seed=21)
    Y, k0 = gen_dataset(cfg, 0)
    path = tmp_path / "series.csv"
    write_csv(path, Y)
    return path, Y, k0


class TestReadCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1\n3\n")
        np.testing.assert_array_equal(read_csv(path), [[1.0], [3.0]])

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            read_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            read_csv(path)

    def test_too_short(self, tmp_path, capsys):
        # read_csv only parses; the pipeline's shape check rejects one row
        path = tmp_path / "short.csv"
        path.write_text("1,2\n")
        for command in ("detect", "estimate", "infer"):
            assert main([command, "--input", str(path)]) == 1
            assert "need at least 2 observations, got T=1" in capsys.readouterr().err

    def test_header_handling(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        np.testing.assert_array_equal(read_csv(path, has_header=True), [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            read_csv(path, has_header=False)

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "sci.csv"
        path.write_text("1e-3,2.5E2\n-1.5e0,0.0\n")
        np.testing.assert_allclose(read_csv(path), [[0.001, 250.0], [-1.5, 0.0]])

    def test_quoted_cells(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"1","2.5"\n3,"-4e1"\n')
        np.testing.assert_array_equal(read_csv(path), [[1.0, 2.5], [3.0, -40.0]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("1,2\n\n3,4\n\n")
        np.testing.assert_array_equal(read_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_file_named_without_warning(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(path)
        assert not recwarn.list

    @pytest.mark.parametrize("has_header", [False, True])
    def test_byte_order_mark_skipped(self, tmp_path, has_header):
        Y = np.random.default_rng(8).normal(size=(6, 3))
        lines = [",".join(repr(v) for v in row) for row in Y.tolist()]
        if has_header:
            lines.insert(0, "a,b,c")
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeff".encode() + "\n".join(lines).encode() + b"\n")
        np.testing.assert_array_equal(read_csv(path, has_header=has_header), Y)

    def test_bad_cell_named_after_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom_bad.csv"
        path.write_bytes("\ufeff1,2\n3,oops\n".encode())
        with pytest.raises(ValueError, match="row 2, column 2: 'oops'"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661"])
    def test_cells_only_float_accepts_are_errors(self, tmp_path, capsys, cell):
        # float() reads a digit separator and non-ASCII digits, numpy.loadtxt
        # neither; the data come from loadtxt alone
        path = tmp_path / "float_only.csv"
        path.write_text(f"{cell},2\n3,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="could not convert"):
            read_csv(path)
        assert main(["detect", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in json.loads(captured.err)["error"]

    def test_roundtrip_exact(self, tmp_path, shifted_csv):
        path, Y, _ = shifted_csv
        back = read_csv(path)
        np.testing.assert_array_equal(back, Y)


class TestCommands:
    def test_detect_matches_library(self, shifted_csv, capsys):
        path, Y, k0 = shifted_csv
        report, code = run_cli(["detect", "--input", str(path)], capsys)
        assert code == 0
        assert report["schema"] == "cpinfer/1"
        res = full_pipeline(Y, with_ci=False)
        assert report["changed"] is True
        assert report["k_hat"] == res.detection.estimate.k
        assert report["tau_hat"] == res.detection.estimate.tau
        assert report["lambda"] == res.detection.lambda_used
        assert report["gamma"] == res.detection.gamma_used

    def test_estimate_adds_location(self, shifted_csv, capsys):
        path, Y, k0 = shifted_csv
        report, code = run_cli(["estimate", "--input", str(path)], capsys)
        assert code == 0
        res = full_pipeline(Y, with_ci=False)
        assert report["k_tilde"] == res.pls_estimate.k
        assert report["tau_tilde"] == res.pls_estimate.tau

    def test_infer_adds_interval(self, shifted_csv, capsys):
        path, Y, k0 = shifted_csv
        args = ["infer", "--input", str(path), "--alpha", "0.1",
                "--paths", "4000", "--grid-R", "40", "--grid-h", "0.01", "--seed", "3"]
        report, code = run_cli(args, capsys)
        assert code == 0
        c_alpha = limit_quantile(0.1, QuantileMCSettings(40, 0.01, 4000, 3))
        res = full_pipeline(Y, alpha=0.1, c_alpha=c_alpha)
        assert report["status"] == res.status
        assert report["k_hat"] == res.detection.estimate.k
        assert report["k_tilde"] == res.pls_estimate.k
        assert report["tau_tilde"] == res.pls_estimate.tau
        assert report["xi_sq"] == res.inference.xi_sq_hat
        assert report["sigma_sq"] == res.inference.sigma_sq_hat
        assert report["c_alpha"] == res.inference.c_alpha == c_alpha
        assert report["ci_int"] == list(res.inference.interval_int)
        assert report["ci_frac"] == list(res.inference.interval_frac)

    def test_infer_exact_without_mc_flags(self, shifted_csv, capsys):
        path, Y, k0 = shifted_csv
        report, code = run_cli(["infer", "--input", str(path), "--alpha", "0.1"], capsys)
        assert code == 0
        assert report["c_alpha"] == limit_quantile(0.1)
        res = full_pipeline(Y, alpha=0.1)
        assert report["xi_sq"] == res.inference.xi_sq_hat
        assert report["sigma_sq"] == res.inference.sigma_sq_hat
        assert report["c_alpha"] == res.inference.c_alpha
        assert report["ci_int"] == list(res.inference.interval_int)
        assert report["ci_frac"] == list(res.inference.interval_frac)

    def test_any_mc_flag_selects_monte_carlo(self):
        parser = build_parser()
        args = parser.parse_args(["infer", "--input", "x.csv"])
        assert _mc_settings(args) is None
        args = parser.parse_args(["infer", "--input", "x.csv", "--seed", "3"])
        assert _mc_settings(args) == QuantileMCSettings(seed=3)
        args = parser.parse_args(["infer", "--input", "x.csv", "--grid-R", "40", "--paths", "10"])
        assert _mc_settings(args) == QuantileMCSettings(grid_half_width=40.0, paths=10)

    def test_quantile_defaults_to_simulator(self, capsys, monkeypatch):
        calls = []

        def fake(alpha, settings=None):
            calls.append(settings)
            return 11.0

        monkeypatch.setattr(cli, "limit_quantile", fake)
        report, code = run_cli(["quantile"], capsys)
        assert code == 0
        assert calls == [QuantileMCSettings()]
        assert report == {"schema": "cpinfer/1", "command": "quantile", "alpha": 0.05,
                          "c_alpha": 11.0, "paths": QuantileMCSettings().paths,
                          "seed": QuantileMCSettings().seed}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--T", "30", "--p", "8", "--tau0", "0.5", "--paths", "100"],
        ["simulate", "--T", "30", "--p", "8", "--tau0", "0.5", "--cache", "q.txt"],
        ["estimate", "--input", "x.csv", "--alpha", "0.1"],
        ["infer", "--input", "x.csv", "--cache", "q.txt"],
        ["quantile", "--cache", "q.txt"],
    ])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 1

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

    def test_infer_no_change_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "null.csv"
        write_csv(path, rng.normal(size=(50, 8)))
        report, code = run_cli(["infer", "--input", str(path), "--paths", "2000",
                                "--grid-R", "20", "--grid-h", "0.02"], capsys)
        assert code == 2
        assert report["changed"] is False
        assert report["ci_int"] is None

    def test_detect_no_change_exits_0(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "null.csv"
        write_csv(path, rng.normal(size=(50, 8)))
        report, code = run_cli(["detect", "--input", str(path)], capsys)
        assert code == 0
        assert report["changed"] is False

    def test_explicit_overrides_forwarded(self, shifted_csv, capsys):
        path, Y, _ = shifted_csv
        report, _ = run_cli(["detect", "--input", str(path),
                             "--lambda", "0.2", "--gamma", "0.05"], capsys)
        assert report["lambda"] == 0.2
        assert report["gamma"] == 0.05

    def test_simulate_report_shape(self, capsys, tmp_path):
        csv_out = tmp_path / "records.csv"
        args = ["simulate", "--T", "30", "--p", "8", "--s", "2", "--tau0", "0.5",
                "--reps", "3", "--seed", "5", "--estimator", "pls",
                "--records-csv", str(csv_out)]
        report, code = run_cli(args, capsys)
        assert code == 0
        assert report["schema"] == "cpinfer/1"
        assert report["config"]["T"] == 30
        assert len(report["records"]) == 3
        assert "rmse" in report["metrics"]
        # the CSV header is the record keys in order, and each cell is str()
        # of the JSON value, '' for null
        with open(csv_out, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        records = report["records"]
        assert header == list(records[0])
        assert rows == [["" if v is None else str(v) for v in r.values()] for r in records]
        assert any(None in r.values() for r in records)

    def test_simulate_draws_the_written_split(self, capsys):
        # 350 * 0.7 is 244.99999999999997 as a double; the design means row 245
        args = ["simulate", "--T", "350", "--p", "4", "--s", "1", "--tau0", "0.7",
                "--reps", "1", "--estimator", "al1"]
        report, code = run_cli(args, capsys)
        assert code == 0
        assert [r["k0"] for r in report["records"]] == [245]

    def test_reports_carry_the_run_record(self, shifted_csv, capsys):
        path, Y, _ = shifted_csv
        res = full_pipeline(Y, with_ci=False)
        det_report, _ = run_cli(["detect", "--input", str(path)], capsys)
        est_report, _ = run_cli(["estimate", "--input", str(path)], capsys)
        assert det_report == {"schema": "cpinfer/1", "command": "detect", **res.detection.record()}
        assert est_report == {"schema": "cpinfer/1", "command": "estimate", **res.record()}
        assert est_report["xi_sq"] is est_report["sigma_sq"] is None

    def test_simulate_no_change_design_reports_perfect_tnr(self, capsys):
        args = ["simulate", "--T", "225", "--p", "500", "--tau0", "1", "--reps", "100",
                "--seed", "7", "--estimator", "al1"]
        report, code = run_cli(args, capsys)
        assert code == 0
        assert report["metrics"]["tnr"] == 1.0

    def test_quantile_command(self, capsys):
        args = ["quantile", "--alpha", "0.5", "--paths", "4000",
                "--grid-R", "30", "--grid-h", "0.01", "--seed", "9"]
        report, code = run_cli(args, capsys)
        assert code == 0
        assert 0.5 < report["c_alpha"] < 4.0
        # the grid flags are checked but shape nothing, and the report omits them
        assert report["c_alpha"] == limit_quantile(0.5, QuantileMCSettings(paths=4000, seed=9))
        assert set(report) == {"schema", "command", "alpha", "c_alpha", "paths", "seed"}

    def test_quantile_accepts_grid_flags_that_do_not_fit_each_other(self, capsys):
        # 1 is no multiple of 0.3, but no grid is built
        with_grid, code = run_cli(["quantile", "--paths", "1000", "--grid-R", "1",
                                   "--grid-h", "0.3"], capsys)
        assert code == 0
        without, _ = run_cli(["quantile", "--paths", "1000"], capsys)
        assert with_grid["c_alpha"] == without["c_alpha"]

    def test_output_file(self, shifted_csv, tmp_path, capsys):
        path, _, _ = shifted_csv
        out = tmp_path / "report.json"
        code = main(["detect", "--input", str(path), "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out.read_text())["schema"] == "cpinfer/1"

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_failed_output_write_is_error(self, shifted_csv, tmp_path, capsys, target):
        # a directory that does not exist, or a directory itself, used to end
        # in a traceback after the whole run
        path, _, _ = shifted_csv
        out = tmp_path / target
        code = main(["detect", "--input", str(path), "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert str(out) in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("argv", [
        ["detect"], ["estimate"], ["infer"],
        ["simulate", "--T", "30", "--p", "8", "--s", "2", "--tau0", "0.5", "--reps", "2"],
        ["quantile", "--paths", "1000"],
    ])
    def test_reports_lead_with_schema_and_command(self, shifted_csv, capsys, argv):
        if argv[0] in ("detect", "estimate", "infer"):
            argv = [*argv, "--input", str(shifted_csv[0])]
        report, code = run_cli(argv, capsys)
        assert code == 0
        assert list(report)[:2] == ["schema", "command"]
        assert (report["schema"], report["command"]) == ("cpinfer/1", argv[0])

    def test_every_design_field_has_a_simulate_option(self):
        args = build_parser().parse_args(["simulate", "--T", "30", "--p", "8", "--tau0", "0.5"])
        assert {f.name for f in fields(SimConfig)} <= set(vars(args))

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["simulate"])  # missing required flags
        assert exc.value.code == 1

    def test_module_entry_point(self, shifted_csv):
        path, _, _ = shifted_csv
        proc = subprocess.run(
            [sys.executable, "-m", "cpinfer", "detect", "--input", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "cpinfer/1"


@pytest.fixture
def csvs(shifted_csv, tmp_path):
    """Paths of CSVs of the shifted series, of one without a change and of
    the shifted one with a NaN cell."""
    path, Y, _ = shifted_csv
    nan = Y.copy()
    nan[3, 2] = np.nan
    paths = {"shifted": str(path), "null": str(tmp_path / "null.csv"), "nan": str(tmp_path / "nan.csv")}
    write_csv(paths["null"], np.random.default_rng(0).normal(size=(50, 8)))
    write_csv(paths["nan"], nan)
    return paths


_SIMULATE = "simulate --T 30 --p 8 --s 2 --tau0 0.5 --reps 2"
# Command lines the CLI refuses, and the whole error of each; {shifted},
# {null} and {nan} name the CSVs of the fixture ``csvs``.  A bad level is an
# error whatever the data, --lambda nan used to exit 0 with a change at k = 1
# and a NaN in the JSON, and simulate checks its level before any replication,
# for every estimator.
REFUSED = [
    ("infer --input {null} --alpha 1.5", "level must lie in (0, 1), got 1.5"),
    ("infer --input {shifted} --alpha 1.5", "level must lie in (0, 1), got 1.5"),
    ("infer --input {nan}", "time series contains non-finite entries"),
    ("detect --input /nonexistent/file.csv", "/nonexistent/file.csv not found."),
    ("detect --input {shifted} --lambda nan", "shrinkage level must be finite and nonnegative, got nan"),
    ("detect --input {shifted} --gamma nan", "penalty must be finite and nonnegative, got nan"),
    *((f"{_SIMULATE} --alpha 1.5 --estimator {e}", "level must lie in (0, 1), got 1.5")
      for e in ("al1", "pls", "pls_ci")),
    *((f"{_SIMULATE} --jobs {jobs}", f"n_jobs must be an integer >= 1, got {jobs}") for jobs in (0, -3)),
    ("quantile --seed -1", "seed must be an integer >= 0, got -1"),
    ("quantile --paths 0", "paths must be an integer >= 1, got 0"),
    *((f"quantile --grid-{flag} {value}", f"{name} must be finite and positive, got {value}")
      for flag, name in (("R", "grid half-width"), ("h", "grid step")) for value in ("inf", "nan")),
]


@pytest.mark.parametrize("line, error", REFUSED, ids=[line for line, _ in REFUSED])
def test_refused_command_line_exits_1_with_its_error(line, error, csvs, capsys):
    code = main([word.format(**csvs) for word in line.split()])
    captured = capsys.readouterr()
    assert (code, captured.out, json.loads(captured.err)) == (1, "", {"error": error})
