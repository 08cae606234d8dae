"""Smoke test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "5",
            "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    if trace:
        assert result["metrics"]["trace.replay_mismatches"]["value"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / HERE.name / "run.py", "paper_cells", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
