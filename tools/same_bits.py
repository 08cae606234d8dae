"""Check that two source trees of cpinfer give the same bits.

    python tools/same_bits.py BASE_DIR CHANGE_DIR

Each tree (a checkout with ``src/cpinfer``) runs the same grid of
``full_pipeline`` calls in its own subprocess, under the caller's environment
and so under its BLAS settings (``OPENBLAS_NUM_THREADS=1 python tools/...``
compares them beside a one-thread BLAS, ``taskset -c 0 python tools/...`` on
one CPU).  The grid is the paper's four cells plus 60x40, 400x50, 50x400,
2000x300, 1000x20 and 4096x512, each with tau0 in {0.2, 0.4, 0.8, 1.0}
(1.0: no change), 3 replications, column offsets 0 and 1e4, ``center`` off
and on, and gamma tuned and 0: 960 runs.  Each run prints one JSON line of
its ``record()`` fields, the objective and loss profiles and the integer
and fraction intervals, or the error it raised, each in an exact form
(``_text``), and a tree's hash is the sha256 of its lines.  The script
prints each tree's hash and exits 1 when they differ, and 2 when it cannot
hash a tree.  When they differ it also prints, for each ``record()`` field,
interval and profile, how many runs moved, then how many moved in each grid
group (shape, offset, ``center`` and gamma) where any did, then the first
five moved runs with the base and change values.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

SHAPES = [(100, 500), (225, 500), (350, 500), (100, 750),
          (60, 40), (400, 50), (50, 400), (2000, 300), (1000, 20), (4096, 512)]
TAU0 = (0.2, 0.4, 0.8, 1.0)
REPS = 3
OFFSETS = (0.0, 1e4)
SPARSITY = 5  # columns that shift, at most p
JUMP = 1.0


def grid_runs():
    """Each grid run's key and fields on the cpinfer that this interpreter
    imports: ``record()``'s, the two profiles and the two intervals, or the
    error it raised."""
    import numpy as np

    from cpinfer import full_pipeline

    for T, p in SHAPES:
        for i, tau0 in enumerate(TAU0):
            for rep in range(REPS):
                rng = np.random.default_rng([T, p, i, rep])
                Y = rng.standard_normal((T, p))
                Y[int(T * tau0):, : min(SPARSITY, p)] += JUMP
                for offset in OFFSETS:
                    X = Y + offset * np.linspace(-1.0, 1.0, p) if offset else Y
                    for center in (False, True):
                        for gamma in (None, 0.0):
                            key = f"{T}x{p} {tau0} {rep} {offset} {center} {gamma}"
                            try:
                                res = full_pipeline(X, center=center, gamma=gamma)
                            except Exception as exc:  # the error is part of the result
                                yield key, {"error": f"{type(exc).__name__}: {exc}"}
                                continue
                            inf = res.inference
                            yield key, {**res.record(),
                                        "objective_profile": res.detection.objective_profile,
                                        "loss_profile": res.loss_profile,
                                        "interval_int": inf.interval_int if inf else None,
                                        "interval_frac": inf.interval_frac if inf else None}


def _text(value) -> str:
    """A field's value as text that tells apart any two values that differ:
    ``repr`` (the shortest round-trip form of a float, with numpy's scalar
    type), or for an array its dtype, shape and the sha256 of its bytes."""
    import numpy as np

    if isinstance(value, np.ndarray):
        return f"{value.dtype} {value.shape} sha256 {hashlib.sha256(value.tobytes()).hexdigest()}"
    return repr(value)


def tree_runs(tree: str) -> tuple[str, list]:
    """The grid hash and the (key, {field: text}) of each run, from
    ``grid_runs`` in a subprocess that imports cpinfer from ``tree``; the
    hash is the sha256 of the lines it prints, one per run."""
    src = os.path.join(os.path.realpath(tree), "src")
    if not os.path.isfile(os.path.join(src, "cpinfer", "__init__.py")):
        raise RuntimeError(f"{tree}: no src/cpinfer here")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--runs", src],
                         env=env, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{tree}: the grid run exited {out.returncode}\n{out.stderr}")
    try:
        runs = [tuple(json.loads(line)) for line in out.stdout.splitlines()]
    except ValueError as exc:
        raise RuntimeError(f"{tree}: the grid run printed a line that is not a run: {exc}") from exc
    if not runs:
        raise RuntimeError(f"{tree}: the grid run printed no runs")
    return hashlib.sha256(out.stdout.encode()).hexdigest(), runs


def moved(base: list, change: list, shown: int = 5) -> list[str]:
    """The lines that say what moved between two trees' runs, paired in grid
    order: how many runs moved in each field, then in each grid group (shape,
    offset, ``center`` and gamma, read from the run's key) where any moved,
    then the first ``shown`` moved runs with each moved field's base and
    change values (``-`` where a run has no such field, as a run that raised
    has only ``error``)."""
    fields = list(dict.fromkeys(f for _, run in base + change for f in run))
    counts = dict.fromkeys(fields, 0)
    groups = {}  # group: [moved runs, runs]
    lines = []
    for (key, old), (_, new) in zip(base, change):
        shape, _tau0, _rep, offset, center, gamma = key.split()
        group = groups.setdefault(f"{shape} {offset} {center} {gamma}", [0, 0])
        group[1] += 1
        diffs = [f for f in fields if old.get(f, "-") != new.get(f, "-")]
        for f in diffs:
            counts[f] += 1
        group[0] += bool(diffs)
        if diffs and len(lines) < shown:
            lines.append(f"  {key}: " + "; ".join(f"{f} {old.get(f, '-')} -> {new.get(f, '-')}"
                                                  for f in diffs))
    return ([f"moved runs per field, of {len(base)}:"]
            + [f"  {f}: {n}" for f, n in counts.items()]
            + ["moved runs per group (shape offset center gamma):"]
            + [f"  {g}: {m} of {n}" for g, (m, n) in groups.items() if m]
            + [f"first {len(lines)} moved runs (base -> change):"] + lines)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--runs":
        import cpinfer

        where = os.path.dirname(os.path.dirname(os.path.realpath(cpinfer.__file__)))
        if where != argv[1]:
            raise SystemExit(f"imported cpinfer from {where}, not {argv[1]}")
        for key, fields in grid_runs():
            print(json.dumps([key, {name: _text(value) for name, value in fields.items()}]))
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        (base_hash, base), (change_hash, change) = (tree_runs(tree) for tree in argv)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{base_hash}  {argv[0]}\n{change_hash}  {argv[1]}")
    if base_hash == change_hash:
        print("same bits")
        return 0
    print("\n".join(moved(base, change)))
    print("bits differ")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
