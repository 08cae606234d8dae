"""Data model and elementary operations for mean-shift change-point analysis.

A time series is a T x p float array (rows are observations).  Split indices
k are 1-based: k in {1, ..., T}, where k = T encodes "no change".  All
operations are pure; inputs are never mutated.

The functions the pipeline calls accept the series as an array or as the
``SeriesStats`` built from it, so one pipeline validates its input once and
every criterion reads the same statistics.  One blocked pass over Y builds
them and checks finiteness, on two threads when ``_helper_pays``, with the
same bits as on one; after it, criteria read Y only through the one
block a split cuts and through ``SeriesStats.project``, which reads just the
columns of a sparse projection's support and keeps them, so a later
projection onto the same support reads no column of Y again.
Centring the columns is virtual: the statistics of Y - c are read from those
of Y, and no copy is made.  ``loss_profile_pd`` is the one two-segment loss;
the detector and the projected least-squares locator both read it.
"""

from __future__ import annotations

import copy
import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateJumpError",
    "ChangePointEstimate",
    "MeanPair",
    "as_series",
    "SeriesStats",
    "series_stats",
    "loss_profile_pd",
    "stopped_means",
    "soft_threshold",
]


class DegenerateJumpError(ValueError):
    """Raised when the estimated jump vector is (numerically) zero."""


def _shaped(data) -> np.ndarray:
    """``data`` as a T x p float array (1-D input becomes T x 1); ValueError
    unless T >= 2 and p >= 1."""
    Y = np.asarray(data, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise ValueError(f"time series must be 2-dimensional, got shape {Y.shape}")
    T, p = Y.shape
    if T < 2:
        raise ValueError(f"need at least 2 observations, got T={T}")
    if p < 1:
        raise ValueError("need at least one column")
    return Y


def _check_finite(Y: np.ndarray) -> None:
    if not np.all(np.isfinite(Y)):
        raise ValueError("time series contains non-finite entries")


def as_series(data) -> np.ndarray:
    """Validate and return a T x p float array (1-D input becomes T x 1)."""
    Y = _shaped(data)
    _check_finite(Y)
    return Y


_BLOCK = 1 << 15  # elements per row block of the pass (256 KiB)
_MIN_ROWS = 16    # rows per block at least: the block sums stay within Y.nbytes / 16
# project gathers a support that touches at most p / 16 of a row's cache lines and
# has at most p / 4 columns, and keeps the gathered block to project onto that support again.
# The refined support is projected twice (locator, then plugin), so one gather
# replaces two dense products.  A gather costs by the column, not by the line:
# numpy's Y[:, S] makes one strided pass over all T rows per column.  Timed with
# one BLAS thread, the benchmark's setting, at 20000x200: 1, 2, 10 and 16
# columns in at most 2 lines take 38, 74, 369 and 589 us, the dense product
# 0.91 ms and the product on a kept block of 16 columns 0.07 ms; row chunks
# (``_gather``) take the 16 columns to 347 us.  With two BLAS threads the dense
# product takes 0.49 ms, so a gather pays only when its block is read again.
# The rule decides which inputs gather, and so their bits; it stays as it is.
# The cap of p / 4 columns holds the kept block to T p / 4 values.
_GATHER = 16
_CHUNK = 1 << 10  # rows per chunk of a large series' gather
_GROUP = 1 << 17  # elements per stacked group of equal row blocks (1 MiB)
_THREAD_MIN = 1 << 20  # a series of 8 MiB: the floor for the pass's helper and for row chunks
# OpenBLAS takes its thread count from the first of these variables that is
# set when numpy loads, and starts one thread per CPU when none is.  A helper
# thread pays only beside a one-thread BLAS: beside a two-thread OpenBLAS on a
# 2-vCPU host the two callers queue for its worker, and the pass at 5000x1000,
# 20000x200 and 500x20000 took 7-73% longer than on one thread.
_BLAS_SERIAL = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                             "OMP_NUM_THREADS") if os.environ.get(v)), None) == "1"


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS
        return os.cpu_count() or 1


def _helper_pays(pieces: int, elements: int, floor: int) -> bool:
    """Whether work in ``pieces`` over ``elements`` array elements shares a
    helper thread beside this one: the one rule for every helper cpinfer
    starts.  True only for two pieces or more (with one, the helper reads
    nothing: beside a one-thread BLAS on 2 vCPUs the one-group pass of a
    20x60000 series took 1.2-1.4 ms with it and 0.93 ms without),
    ``elements`` at least the caller's ``floor``, BLAS on one thread
    (``_BLAS_SERIAL``) and two CPUs or more that the process may run on."""
    return pieces >= 2 and elements >= floor and _BLAS_SERIAL and _cpu_count() >= 2


class SeriesStats:
    """A validated T x p series with the statistics every criterion reads.

    One pass over row blocks of Y builds them, and a block is read from
    memory once while it is in cache.  Each block's column sums, a BLAS
    product with a vector of ones, are kept, and its dot product with itself
    is its sum of squares.  Equal blocks are read in stacked groups of about
    1 MiB (``_GROUP`` elements), one batched product and one batched dot per
    group; the ragged last block goes alone.  When ``_helper_pays`` for the
    groups, Y's elements and the floor ``_THREAD_MIN`` (8 MiB), one helper
    reads the first half of the groups and the caller the rest.  The block
    squares are added left to right, so nothing the pass returns depends on
    the thread that read a block.
    ``center`` c is the total of the block sums over T,
    and ``ss``, the sum of squares of Y - c, is ||Y||^2 - T ||c||^2 when
    that loses at most one bit (Higham 2002, sec. 1.9); otherwise a second
    read of Y sums ||B - c||^2 over the blocks, in the same groups and
    threads, each thread with its own block-sized buffer (the two-pass
    algorithm, so an error in c enters ``ss`` only at second order).  Criteria expand
    their squares about c, so large column offsets do not cancel.  NaN and
    inf propagate into these sums: only when one comes out non-finite is Y
    scanned for non-finite entries (finite entries whose squares overflow
    go on).  The segment sums at a split add the whole-block sums on each
    side and read at most the one block the split cuts, once per split.

    The criteria read every row less ``offset`` when there is one: it is
    None for the series as given, and c for the centred series Y - c that
    ``full_pipeline(center=True)`` analyses without a copy (its ``center``
    is 0 and its ``ss`` the same).  A copy is centred when it has an offset,
    and only then is anything subtracted.
    ``project`` is the one matrix-vector product with the rows; for a sparse
    vector it reads only the cache lines of its support, and it keeps the
    gathered T x |S| block Y[:, S] of raw columns for the next projection
    onto S itself.  The lambda criterion at each split is memoized here
    too, by ``tune``; it depends on ``offset``, so the centred copy starts a
    fresh memo, while the segment sums, read from Y alone, stay shared.  The
    copy starts with the block kept when it was made, and from then on each
    keeps its own: a projection that gathers sets the block of its object only.
    """

    def __init__(self, Y: np.ndarray):
        self.Y = Y
        self.T, self.p = Y.shape
        self._rows = max(_MIN_ROWS, _BLOCK // self.p)
        nb = max(1, self.T // self._rows)  # the last block takes the ragged rows
        self._bounds = [i * self._rows for i in range(nb)] + [self.T]
        self._block_sums = np.empty((nb, self.p))
        with np.errstate(all="ignore"):
            self.ss, self.center = self._pass()
        if not (math.isfinite(self.ss) and np.isfinite(self.center).all()):
            _check_finite(Y)
        self.offset: np.ndarray | None = None  # the column offsets of a centred copy
        self._sums: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._criteria: dict[int, np.ndarray] = {}  # filled by tune, per split
        self._kept: tuple[np.ndarray, np.ndarray] | None = None  # (S, Y[:, S])

    def _pass(self) -> tuple[float, np.ndarray]:
        """Fill the block sums; return the sum of squares about the column
        means c, and c."""
        nb, p, bounds = len(self._block_sums), self.p, self._bounds
        g = max(1, _GROUP // (self._rows * p))  # equal blocks per group
        groups = [(i, min(i + g, nb - 1)) for i in range(0, nb - 1, g)] + [(nb - 1, nb)]
        m_max = self.T - bounds[-2]  # the last block is the largest
        ones = np.ones(m_max)
        sq = np.empty(nb)  # each block's sum of squares, added in block order

        def read(todo):
            for i, j in todo:
                stack = self.Y[bounds[i] : bounds[j]].reshape(j - i, -1, p)
                np.matmul(ones[: stack.shape[1]], stack, out=self._block_sums[i:j])
                # the dot of a contiguous copy, as ``ravel`` makes: a strided dot rounds otherwise
                flat = np.ascontiguousarray(stack).reshape(j - i, 1, -1)
                np.matmul(flat, flat.transpose(0, 2, 1), out=sq[i:j, None, None])

        self._on_threads(groups, read)
        total_sq = float(sq.cumsum()[-1])
        center = self._block_sums.sum(axis=0) / self.T
        grand_sq = self.T * float(center @ center)
        if 2.0 * grand_sq <= total_sq < np.inf:  # the expansion loses at most one bit
            return total_sq - grand_sq, center

        # large offsets, NaN or inf, or squares that overflow: read Y again
        def read_centred(todo):
            buf = np.empty((m_max, p))  # one per thread
            for i, j in todo:
                for b in range(i, j):
                    lo, hi = bounds[b], bounds[b + 1]
                    d = np.subtract(self.Y[lo:hi], center, out=buf[: hi - lo]).ravel()
                    sq[b] = d @ d

        self._on_threads(groups, read_centred)
        return float(sq.cumsum()[-1]), center

    def _on_threads(self, groups: list[tuple[int, int]], read) -> None:
        """``read(groups)`` on this thread or, when ``_helper_pays`` for the
        groups, Y's elements and the floor ``_THREAD_MIN``, in halves: one
        helper reads the first ``len(groups) // 2`` groups and this thread the
        rest; a helper's exception is raised here."""
        if not _helper_pays(len(groups), self.Y.size, _THREAD_MIN):
            read(groups)
            return
        half = len(groups) // 2
        failed: list[BaseException] = []

        def helper():
            try:
                with np.errstate(all="ignore"):  # a new thread has numpy's default error state
                    read(groups[:half])
            except BaseException as exc:
                failed.append(exc)

        thread = threading.Thread(target=helper)
        thread.start()
        try:
            read(groups[half:])
        finally:
            thread.join()
        if failed:
            raise failed[0]

    def _segment_sums(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Column sums of rows 1..k and k+1..T; reads only the block cut at k."""
        b = min(k // self._rows, len(self._block_sums) - 1)
        lo, hi = self._bounds[b], self._bounds[b + 1]
        left = self._block_sums[:b].sum(axis=0)
        right = self._block_sums[b + 1 :].sum(axis=0)
        if k == lo:
            right += self._block_sums[b]
        else:
            left += self.Y[lo:k].sum(axis=0)
            right += self.Y[k:hi].sum(axis=0)
        return left, right

    def segment_means(self, k: int) -> list[tuple[int, np.ndarray]]:
        """(rows, column means) of each segment at split k; one segment at k = T."""
        if k == self.T:
            return [(self.T, self.center)]
        if k not in self._sums:
            self._sums[k] = self._segment_sums(k)
        left, right = self._sums[k]
        left, right = left / k, right / (self.T - k)
        if self.offset is not None:
            left, right = left - self.offset, right - self.offset
        return [(k, left), (self.T - k, right)]

    def project(self, eta: np.ndarray) -> np.ndarray:
        """The projections (y_t - offset)'eta of the rows, t = 1..T.

        The support S is gathered (``_gather``) in place of the dense
        product, which streams all of Y, only when S touches at most 1/16 of
        a row's 64-byte cache lines (8 float64 columns each) and has at most
        p / 4 columns; the gathered block is kept in place of the last.  A
        projection onto the kept support itself reads the block, which that
        support's gather would make again, so the result does not depend on
        earlier projections.  The offset is subtracted in place, so the peak
        is the block, one row chunk of it while it is gathered, and one
        T-vector.
        ValueError unless ``eta`` has p entries."""
        if eta.shape != (self.p,):
            raise ValueError(f"projection vector has shape {eta.shape}, expected ({self.p},)")
        cols = eta.nonzero()[0]
        kept = self._kept
        same = kept is not None and kept[0].shape == cols.shape and not np.count_nonzero(kept[0] != cols)
        block = kept[1] if same else None
        if block is None:
            lines = cols // 8  # 8 float64 columns to a 64-byte line; cols is sorted
            touched = np.count_nonzero(lines[1:] != lines[:-1]) + (lines.size > 0)
            if _GATHER * touched <= self.p and 4 * cols.size <= self.p:
                self._kept = None  # free the old block before the new gather
                block = _gather(self.Y, cols)
                self._kept = cols, block
        z = self.Y @ eta if block is None else block @ eta[cols]
        if self.offset is not None:
            z -= self.offset @ eta
        return z


def _gather(Y: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``Y[:, cols]``, with its bytes and its layout: Fortran order, strides
    (8, 8 T).  numpy's fancy index makes one strided pass over all T rows per
    column, which slows sharply once Y is past about 8 MiB, so a series of
    more than ``_CHUNK`` rows and at least ``_THREAD_MIN`` elements is
    gathered ``_CHUNK`` rows at a time into a block of that layout, and
    ``block @ eta[cols]`` runs the BLAS kernel of the one-shot gather."""
    T = Y.shape[0]
    if T <= _CHUNK or Y.size < _THREAD_MIN:
        return Y[:, cols]
    block = np.empty((T, cols.size), order="F")
    for lo in range(0, T, _CHUNK):
        block[lo : lo + _CHUNK] = Y[lo : lo + _CHUNK, cols]
    return block


def _centered(s: SeriesStats) -> SeriesStats:
    """The statistics of Y - c, read from those of Y without a copy of Y."""
    out = copy.copy(s)
    out.offset = s.center if s.offset is None else s.offset + s.center
    out.center = np.zeros(s.p)
    out._criteria = {}  # the criteria read the offset; the shared segment sums do not
    return out


def series_stats(data) -> SeriesStats:
    """``data`` itself when it is a SeriesStats, else the statistics of the
    series ``data``; ValueError on the inputs ``as_series`` rejects."""
    return data if isinstance(data, SeriesStats) else SeriesStats(_shaped(data))


@dataclass(frozen=True)
class ChangePointEstimate:
    """A split index k in {1, ..., T}; k == T encodes "no change".  Both are
    stored as ints; ValueError unless each is an integer, not a bool, with
    T >= 1 and k in 1..T."""

    k: int
    T: int

    def __post_init__(self):
        object.__setattr__(self, "T", _integer(self.T, "series length", 1))
        object.__setattr__(self, "k", _split_index(self.k, self.T, interior=False))

    @property
    def tau(self) -> float:
        """Fraction view k / T."""
        return self.k / self.T


@dataclass
class MeanPair:
    """Pre/post-split mean vectors with their nonzero supports; ValueError
    unless both are 1-D of one length.

    Supports are read from the vectors on each access, so they always equal
    the exact nonzero patterns (0-based column indices).
    """

    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        self.mu1 = np.asarray(self.mu1, dtype=float)
        self.mu2 = np.asarray(self.mu2, dtype=float)
        if self.mu1.ndim != 1 or self.mu1.shape != self.mu2.shape:
            raise ValueError(f"mean vectors must be 1-D of equal length, got shapes "
                             f"{self.mu1.shape} and {self.mu2.shape}")

    @property
    def support1(self) -> np.ndarray:
        return self.mu1.nonzero()[0]

    @property
    def support2(self) -> np.ndarray:
        return self.mu2.nonzero()[0]

    def jump(self) -> np.ndarray:
        return self.mu1 - self.mu2

    def informative_jump(self) -> np.ndarray:
        """mu1 - mu2; DegenerateJumpError when its norm is at most 1e-12 (||mu1||
        + ||mu2||), a rule with no units (two zero means are degenerate)."""
        eta = self.jump()
        if _norm(eta) <= 1e-12 * (_norm(self.mu1) + _norm(self.mu2)):
            raise DegenerateJumpError("mean estimates coincide: the jump is uninformative")
        return eta

    def jump_size(self) -> float:
        return _norm(self.jump())

    def projected_levels(self) -> tuple[float, float]:
        """Inner products of the jump with each mean (the two surrogate levels)."""
        eta = self.jump()
        return float(eta @ self.mu1), float(eta @ self.mu2)


def loss_profile_pd(Y, mu1, mu2) -> np.ndarray:
    """The two-segment loss L(k) = (1/T) [sum_{t<=k} ||y_t - mu1||^2 +
    sum_{t>k} ||y_t - mu2||^2] at every split: entry k-1 holds L(k), k = 1..T.

    T L(k) is the fit of mu2 to every row, ss + T ||mu2 - c||^2, plus the
    excess of mu1 over mu2 on rows 1..k, -2 (mu1 - mu2)'(y_t - (mu1 + mu2) / 2);
    one matrix-vector product reads the data.  ValueError unless ``mu1`` and
    ``mu2`` are each 1-D with p entries.
    """
    s = series_stats(Y)
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    if mu1.shape != (s.p,) or mu2.shape != (s.p,):
        raise ValueError(f"mean vectors have shapes {mu1.shape} and {mu2.shape}, expected ({s.p},)")
    v2 = mu2 - s.center
    eta = mu1 - mu2
    excess = -2.0 * (s.project(eta) - eta @ (0.5 * (mu1 + mu2)))
    return (s.ss + s.T * (v2 @ v2) + excess.cumsum()) / s.T


def _split_index(k, T: int, interior: bool = True) -> int:
    """``k`` as an int; ValueError unless k is an integer, not a bool, in
    1..T-1 (both segments non-empty), or in 1..T when not ``interior``."""
    return _integer(k, "split index", 1, T - interior)


def _fraction_split(T: int, tau: float) -> int | float:
    """floor(T * tau), but n when the double product lies within 4 ulps below an
    integer n (350 * 0.7 gives 245, not 244); a non-finite product as it is."""
    x = float(T * tau)
    n = math.ceil(x) if math.isfinite(x) else x
    return n if n - x <= 4 * math.ulp(x) else n - 1


def stopped_means(Y, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical means of rows 1..k and rows k+1..T, for an integer 1 <= k <= T-1."""
    s = series_stats(Y)
    (_, left), (_, right) = s.segment_means(_split_index(k, s.T))
    return left, right


def _real(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is a real number, not a bool."""
    if type(value) is float:  # the float test first, as in ``_integer``
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _nonnegative(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is a real number, not a
    bool, that is finite and nonnegative."""
    v = _real(value, name)
    if not 0.0 <= v < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {v}")
    return v


def _positive(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is a real number, not a
    bool, that is finite and positive."""
    v = _real(value, name)
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {v}")
    return v


def _level(value) -> float:
    """``value`` as a float; ValueError unless it is a real number, not a
    bool, in (0, 1)."""
    a = _real(value, "level")
    if not 0.0 < a < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {a}")
    return a


def _integer(value, name: str, floor: int, ceiling: int | None = None) -> int:
    """``value`` as an int; ValueError unless it is an integer, not a bool,
    of at least ``floor`` and, given a ``ceiling``, at most that."""
    # the int test first: an isinstance check against the ABC costs ~1 us
    integral = type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))
    if not integral or value < floor or (ceiling is not None and value > ceiling):
        bound = f">= {floor}" if ceiling is None else f"in {floor}..{ceiling}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _bool(value, name: str) -> bool:
    """``value`` as a Python bool; ValueError unless it is a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def soft_threshold(x, lam: float) -> np.ndarray:
    """Componentwise shrinkage sign(x) * max(|x| - lam, 0)."""
    return _shrink(np.asarray(x, dtype=float), _nonnegative(lam, "shrinkage level"))


def _shrink(x: np.ndarray, lam: float) -> np.ndarray:
    """``soft_threshold`` of a float array at a level already checked."""
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float array, as ``np.linalg.norm`` computes
    it (the square root of ``x.dot(x)``) without that wrapper's dispatch."""
    return math.sqrt(x.dot(x))
