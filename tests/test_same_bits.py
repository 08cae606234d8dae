"""tools/same_bits.py: the exact text of a value, and the report of the runs
that moved between two trees."""

import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "same_bits", Path(__file__).resolve().parents[1] / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)

# runs keyed as grid_runs keys them: shape, tau0, replication, offset, center, gamma
BASE = [
    ("100x500 0.2 0 0.0 False None",
     {"k_hat": "19", "lambda": "0.35", "interval_int": "(18.1, 19.8)"}),
    ("100x500 0.4 0 0.0 False None",
     {"k_hat": "40", "lambda": "0.25", "interval_int": "(39.0, 41.0)"}),
    ("100x500 1.0 0 0.0 True 0.0", {"error": "'ValueError: bad'"}),
    ("100x500 1.0 1 0.0 True 0.0", {"k_hat": "100", "lambda": "0.5", "interval_int": "None"}),
]
CHANGE = [
    ("100x500 0.2 0 0.0 False None",
     {"k_hat": "19", "lambda": "0.35", "interval_int": "(18.1, 19.8)"}),
    ("100x500 0.4 0 0.0 False None",
     {"k_hat": "41", "lambda": "0.25", "interval_int": "(40.0, 42.0)"}),
    ("100x500 1.0 0 0.0 True 0.0", {"k_hat": "100", "lambda": "0.5", "interval_int": "None"}),
    ("100x500 1.0 1 0.0 True 0.0", {"k_hat": "100", "lambda": "0.45", "interval_int": "None"}),
]
# a group where nothing moved gets no line
STILL = [("4096x512 0.8 2 10000.0 True None", {"k_hat": "3276"})]


def test_counts_each_field_and_shows_the_first_moved_runs():
    assert same_bits.moved(BASE + STILL, CHANGE + STILL, shown=2) == [
        "moved runs per field, of 5:",
        "  k_hat: 2",
        "  lambda: 2",
        "  interval_int: 2",
        "  error: 1",
        "moved runs per group (shape offset center gamma):",
        "  100x500 0.0 False None: 1 of 2",
        "  100x500 0.0 True 0.0: 2 of 2",
        "first 2 moved runs (base -> change):",
        "  100x500 0.4 0 0.0 False None: k_hat 40 -> 41; interval_int (39.0, 41.0) -> (40.0, 42.0)",
        "  100x500 1.0 0 0.0 True 0.0: k_hat - -> 100; lambda - -> 0.5; interval_int - -> None; "
        "error 'ValueError: bad' -> -",
    ]


def test_shows_five_moved_runs_by_default():
    lines = same_bits.moved(BASE * 3, CHANGE * 3)
    assert lines[:8] == ["moved runs per field, of 12:", "  k_hat: 6", "  lambda: 6",
                         "  interval_int: 6", "  error: 3",
                         "moved runs per group (shape offset center gamma):",
                         "  100x500 0.0 False None: 3 of 6", "  100x500 0.0 True 0.0: 6 of 6"]
    assert lines[8] == "first 5 moved runs (base -> change):"
    assert len(lines) == 14
    assert lines[-1].startswith("  100x500 1.0 0 0.0 True 0.0: ")  # the 5th moved run of 9


def test_a_tree_without_cpinfer_exits_2(tmp_path, capsys):
    assert same_bits.main([str(tmp_path), str(tmp_path)]) == 2
    assert "no src/cpinfer here" in capsys.readouterr().err


def test_text_tells_apart_the_last_bit_and_the_dtype():
    a = np.array([0.1, 0.5, 1.0 / 3.0])
    b = a.copy()
    b[-1] = np.nextafter(b[-1], 1.0)
    texts = {same_bits._text(x) for x in (a, b, a.astype(np.float32))}
    assert len(texts) == 3
    # the same bytes in another dtype and shape
    assert same_bits._text(np.zeros(2, np.float32)) != same_bits._text(np.zeros(1))
