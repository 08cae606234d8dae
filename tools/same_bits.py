"""Check that two source trees of cpinfer give the same bits.

    python tools/same_bits.py BASE_DIR CHANGE_DIR

Each tree (a checkout with ``src/cpinfer``) runs the same grid of
``full_pipeline`` calls in its own subprocess, under the caller's environment
and so under its BLAS settings (``OPENBLAS_NUM_THREADS=1 python tools/...``
compares them beside a one-thread BLAS, ``taskset -c 0 python tools/...`` on
one CPU).  The grid is the paper's four cells plus 60x40, 400x50, 50x400,
2000x300, 1000x20 and 4096x512, each with tau0 in {0.2, 0.4, 0.8, 1.0}
(1.0: no change), 3 replications, column offsets 0 and 1e4, ``center`` off
and on, and gamma tuned and 0: 960 runs.  A run's hash covers ``record()``,
the objective and loss profiles and the integer and fraction intervals, or
the error it raised.  The script prints each tree's hash and exits 1 when
they differ, and 2 when it cannot hash a tree.
"""

from __future__ import annotations

import hashlib
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


def _bits(value) -> bytes:
    """An exact byte form of a record value, profile or interval."""
    import numpy as np

    if value is None:
        return b"None"
    if isinstance(value, np.ndarray):
        return str(value.dtype).encode() + str(value.shape).encode() + value.tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(_bits(v) for v in value) + b")"
    if isinstance(value, (float, np.floating)):
        return type(value).__name__.encode() + float(value).hex().encode()
    return type(value).__name__.encode() + repr(value).encode()


def grid_hash() -> str:
    """The hash of the grid on the cpinfer that this interpreter imports."""
    import numpy as np

    from cpinfer import full_pipeline

    digest = hashlib.sha256()
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
                            digest.update(f"{T}x{p} {tau0} {rep} {offset} {center} {gamma}".encode())
                            try:
                                res = full_pipeline(X, center=center, gamma=gamma)
                            except Exception as exc:  # the error is part of the result
                                digest.update(_bits(f"{type(exc).__name__}: {exc}"))
                                continue
                            for key, value in res.record().items():
                                digest.update(key.encode() + _bits(value))
                            inf = res.inference
                            digest.update(_bits(res.detection.objective_profile))
                            digest.update(_bits(res.loss_profile))
                            digest.update(_bits(inf.interval_int if inf else None))
                            digest.update(_bits(inf.interval_frac if inf else None))
    return digest.hexdigest()


def tree_hash(tree: str) -> str:
    """``grid_hash`` run in a subprocess that imports cpinfer from ``tree``."""
    src = os.path.join(os.path.realpath(tree), "src")
    if not os.path.isfile(os.path.join(src, "cpinfer", "__init__.py")):
        raise RuntimeError(f"{tree}: no src/cpinfer here")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--hash", src],
                         env=env, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{tree}: the hash run exited {out.returncode}\n{out.stderr}")
    return out.stdout.strip()


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--hash":
        import cpinfer

        where = os.path.dirname(os.path.dirname(os.path.realpath(cpinfer.__file__)))
        if where != argv[1]:
            raise SystemExit(f"imported cpinfer from {where}, not {argv[1]}")
        print(grid_hash())
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        hashes = [tree_hash(tree) for tree in argv]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    for tree, h in zip(argv, hashes):
        print(f"{h}  {tree}")
    same = hashes[0] == hashes[1]
    print("same bits" if same else "bits differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
