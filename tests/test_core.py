import math
import os
import sys
import threading
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cpinfer.core as core
from cpinfer.core import (
    ChangePointEstimate,
    MeanPair,
    as_series,
    loss_profile_pd,
    series_stats,
    soft_threshold,
    stopped_means,
)
from loss_oracles import center_columns, design_means, loss_1d, loss_pd


class TestAsSeries:
    def test_validates_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            as_series([[1.0]])  # T < 2
        with pytest.raises(ValueError):
            as_series([[1.0, np.nan], [2.0, 3.0]])
        assert as_series([1.0, 2.0]).shape == (2, 1)

    @pytest.mark.parametrize("data, message", [
        (np.zeros((3, 2, 2)), "must be 2-dimensional"),
        (np.float64(1.0), "must be 2-dimensional"),
        (np.zeros((3, 0)), "need at least one column"),
    ])
    def test_shape_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            series_stats(data)


class TestCenterColumns:
    """The oracle that ``center=True`` is compared against."""

    def test_mean_removal(self):
        np.testing.assert_allclose(center_columns([[1.0], [3.0]]), [[-1.0], [1.0]])

    def test_zero_mean_input_unchanged(self):
        Y = np.array([[1.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(center_columns(Y), Y)

    def test_hand_example(self):
        out = center_columns([[1, 0], [2, 2], [3, 4]])
        np.testing.assert_allclose(out, [[-1, -2], [0, 0], [1, 2]])

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        Y = rng.normal(size=(37, 4)) * 10 + 5
        out = center_columns(Y)
        assert np.all(np.abs(out.sum(axis=0)) <= 1e-10 * Y.shape[0])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(20, 3))
        once = center_columns(Y)
        np.testing.assert_allclose(center_columns(once), once, atol=1e-14)

    def test_does_not_mutate_input(self):
        Y = np.ones((3, 2))
        center_columns(Y)
        np.testing.assert_array_equal(Y, np.ones((3, 2)))


class TestLoss1d:
    def test_exact_fit(self):
        assert loss_1d([0, 0, 1, 1], 2, 0.0, 1.0) == 0.0

    def test_hand_value(self):
        assert loss_1d([0, 0, 1, 1], 2, 0.0, 0.0) == pytest.approx(0.5)

    def test_k_equals_T_empties_second_sum(self):
        assert loss_1d([5.0, 5.0], 2, 5.0, 123.456) == 0.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            loss_1d([1.0, 2.0], 0, 0.0, 0.0)
        with pytest.raises(ValueError):
            loss_1d([1.0, 2.0], 3, 0.0, 0.0)

    def test_telescoping_decomposition(self):
        # the loss difference between two splits only involves the rows in between
        rng = np.random.default_rng(3)
        z = rng.normal(size=30)
        t1, t2 = 0.4, -0.2
        k0 = 12
        base = loss_1d(z, k0, t1, t2)
        for k in range(1, 31):
            lo, hi = min(k, k0), max(k, k0)
            sgn = 1.0 if k > k0 else -1.0
            tele = sgn * sum((z[t] - t1) ** 2 - (z[t] - t2) ** 2 for t in range(lo, hi)) / z.size
            assert loss_1d(z, k, t1, t2) - base == pytest.approx(tele, abs=1e-12)


class TestLossPd:
    def test_exact_fit_at_boundary(self):
        mu = np.array([2.0, -1.0])
        Y = np.tile(mu, (5, 1))
        assert loss_pd(Y, 5, mu, np.zeros(2)) == 0.0

    def test_hand_value(self):
        assert loss_pd([[0, 0], [1, 1]], 1, [0, 0], [0, 0]) == pytest.approx(1.0)

    def test_p1_matches_loss_1d(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=9)
        for k in range(1, 10):
            assert loss_pd(z[:, None], k, [0.2], [-0.1]) == pytest.approx(
                loss_1d(z, k, 0.2, -0.1), rel=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_pd([[0, 0], [1, 1]], 1, [0.0], [0.0, 0.0])

    def test_profile_agrees_pointwise(self):
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(14, 3))
        mu1, mu2 = rng.normal(size=3), rng.normal(size=3)
        prof = loss_profile_pd(Y, mu1, mu2)
        for k in range(1, 15):
            assert prof[k - 1] == pytest.approx(loss_pd(Y, k, mu1, mu2), rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    def test_detector_profile_exact_under_column_offsets(self, offset):
        from cpinfer.detect import detect_change
        from cpinfer.simbench import SimConfig, gen_dataset

        Y, _ = gen_dataset(SimConfig(T=120, p=60, s=5, tau0=0.4, seed=3), 0)
        Y += offset * np.linspace(-1.0, 1.0, 60)
        means = detect_change(Y, gamma=0.0).initial_means
        prof = loss_profile_pd(Y, means.mu1, means.mu2)
        ref = np.array([loss_pd(Y, k, means.mu1, means.mu2) for k in range(1, 121)])
        assert np.max(np.abs(prof - ref)) <= 1e-6 * np.mean(np.abs(np.diff(ref)))

    @pytest.mark.parametrize("shape1, shape2", [(50, 1), (1, 50), (49, 49), (51, 51), ((25, 2), 50)])
    def test_mean_lengths_must_match_the_columns(self, shape1, shape2):
        # a length-1 mean used to broadcast against the 50 columns, and a
        # 25x2 mean used to be flattened into 50 entries
        Y = np.random.default_rng(8).normal(size=(200, 50))
        with pytest.raises(ValueError, match=r"expected \(50,\)"):
            loss_profile_pd(Y, np.ones(shape1), np.zeros(shape2))

def _series(name, shape, layout="C", offset=0.0):
    """A T x p normal series plus ``offset`` linspace(-1, 1, p) in each row,
    laid out "C", "F", or as a "row view" or "column view": every 2nd row or
    column of a larger one, one stride for every element (a view, where
    ravel copies).  The offset is added in place, so the layout stays.  The
    seed is the CRC of the row's ``name``: no row's data hangs on another's."""
    T, p = shape
    step_t, step_p = {"row view": (2, 1), "column view": (1, 2)}.get(layout, (1, 1))
    Y = np.random.default_rng(zlib.crc32(name.encode())).normal(size=(T * step_t, p * step_p))[::step_t, ::step_p]
    if layout == "F":
        Y = np.asfortranarray(Y)
    Y += offset * np.linspace(-1.0, 1.0, p)
    return Y


NON_FINITE = "time series contains non-finite entries"
# Each input of the statistics pass: (shape, layout, column offset, entries
# added after the offset, the module constants it runs under beside the
# defaults, outcome: "ok" or the ValueError it raises).
PASSES = {
    # blocks of 8 elements: several rows, one row, one block, a ragged last block
    **{f"{T}x{p} in blocks of 8 elements": ((T, p), "C", 1e3, (), {"_BLOCK": 8, "_MIN_ROWS": 1}, "ok")
       for T, p in [(10, 3), (5, 20), (2, 1), (14, 2)]},
    # blocks of two rows: a block mean rounds by up to 2 eps |offset|, so a sum
    # of squares built from block means errs to first order in that (6.6e-12
    # relative); the second read errs only at second order in the error of c
    "11x2 in blocks of 4 elements, offsets 76000":
        ((11, 2), "C", 7.6e4, (), {"_BLOCK": 4, "_MIN_ROWS": 1}, "ok"),
    # eight blocks of 32 rows in two groups of four, then the ragged last block
    # of 44 rows: three groups; nine block squares, so a pairwise sum (np.sum's,
    # from eight terms) would differ
    **{f"300x1000, {layout}": ((300, 1000), layout, 0.0, (), {}, "ok")
       for layout in ("C", "F", "row view", "column view")},
    # column means above the noise: a second read
    **{f"300x1000, offsets {offset:g}": ((300, 1000), "C", offset, (), {}, "ok")
       for offset in (3.0, 1e4, 1e6)},
    **{f"300x1000, {layout}, offsets 1e+06": ((300, 1000), layout, 1e6, (), {}, "ok")
       for layout in ("F", "row view")},
    "20x500, one block": ((20, 500), "C", 0.0, (), {}, "ok"),  # one group: no helper
    # two blocks of 16 and 24 rows, each above _GROUP
    **{f"40x9000, offsets {offset:g}": ((40, 9000), "C", offset, (), {}, "ok") for offset in (0.0, 1e6)},
    "30x50, offsets 0.5": ((30, 50), "C", 0.5, (), {}, "ok"),  # offsets that one read takes
    # six row blocks, the last of 365 rows
    **{f"2000x100, offsets {offset:g}": ((2000, 100), "C", offset, (), {}, "ok")
       for offset in (0.0, 1.0, 1e4, 1e6)},
    # the third block holds 81 shifted rows: it and the blocks before pass the
    # one-bit test on their own, the blocks after it fail it, and so does the
    # pass's one guard over all of Y
    "2000x100, rows from 900 shifted": ((2000, 100), "C", 0.0, [(np.s_[900:, :50], 1e6)], {}, "ok"),
    # plain row-by-row sums, Y[:k].sum(axis=0), err by 5e-9 at offsets 1e6
    **{f"5000x200, offsets {offset:g}": ((5000, 200), "C", offset, (), {}, "ok")
       for offset in (0.0, 1e4, 1e6)},
    # row blocks [0, 32), [32, 64) and [64, 100), in two groups
    **{f"100x1000, {value} in row {row}": ((100, 1000), "C", 0.0, [((row, 7), value)], {}, NON_FINITE)
       for value in (np.nan, np.inf, -np.inf) for row in (0, 31, 32, 99)},
    **{f"100x1000, inf and -inf in rows {a} and {b} of one column":
       ((100, 1000), "C", 0.0, [((a, 3), np.inf), ((b, 3), -np.inf)], {}, NON_FINITE)
       for a, b in [(1, 2), (0, 99)]},
    # a finite entry whose square overflows: the sum of squares is inf
    "100x1000, 1e200 in row 5": ((100, 1000), "C", 0.0, [((5, 7), 1e200)], {}, "ok"),
}


class TestSeriesStatsPass:
    def test_block_sums_are_a_sixteenth_of_the_input_at_most(self):
        for shape in [(17, 3000), (4000, 500), (500, 20000), (16, 1)]:
            s = series_stats(np.zeros(shape))
            assert s._block_sums.nbytes <= np.zeros(shape).nbytes / 16

    @staticmethod
    def exact_ss(Y):
        """The sum of squares about the column means by math.fsum (inf when
        a square overflows).  y - m is exact when the offset dominates the
        spread (Sterbenz), so large offsets cost the oracle no precision."""
        T = Y.shape[0]
        sums = []
        for c in Y.T.tolist():
            m = math.fsum(c) / T
            sums.append(math.fsum((v - m) * (v - m) for v in c))
        return math.fsum(sums)

    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(2, 70), p=st.integers(1, 12),
           block=st.integers(1, 40), offset=st.floats(0.0, 1e6), shift=st.floats(0.0, 1e6),
           start=st.floats(0.0, 1.0))
    def test_sum_of_squares_property(self, seed, T, p, block, offset, shift, start):
        # small blocks: several per series, a ragged last one, single rows
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(T, p)) + offset * rng.uniform(0.0, 1.0, size=p)
        Y[int(start * (T - 1)) + 1 :, : (p + 1) // 2] += shift
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", block)
            mp.setattr(core, "_MIN_ROWS", 1)
            s = series_stats(Y)
        exact = self.exact_ss(Y)
        assert abs(s.ss - exact) <= 1e-12 * exact

    def test_centered_statistics_read_the_centred_series(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK", 8)
        monkeypatch.setattr(core, "_MIN_ROWS", 3)
        rng = np.random.default_rng(5)
        Y = rng.normal(size=(14, 4)) + 50.0
        Yc = center_columns(Y)
        s = series_stats(Y)
        c = core._centered(s)
        assert core._centered(c).offset.tolist() == c.offset.tolist()
        assert c.ss == s.ss
        np.testing.assert_array_equal(c.center, np.zeros(4))
        eta = rng.normal(size=4)
        np.testing.assert_allclose(c.project(eta), Yc @ eta, atol=1e-12)
        np.testing.assert_array_equal(s.project(eta), Y @ eta)
        for k in (1, 5, 13):
            for (_, m), (_, e) in zip(c.segment_means(k), series_stats(Yc).segment_means(k)):
                np.testing.assert_allclose(m, e, atol=1e-12)
        np.testing.assert_allclose(loss_profile_pd(c, eta, -eta), loss_profile_pd(Yc, eta, -eta),
                                   rtol=1e-12)


class TestThreadedPass:
    SHAPE = (300, 1000)

    @staticmethod
    def threads(monkeypatch, on: bool):
        """Read every series on two threads (``on``) or, beside a BLAS on
        its own threads, on one."""
        monkeypatch.setattr(core, "_THREAD_MIN", 0)
        monkeypatch.setattr(core, "_BLAS_SERIAL", on)
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)

    @staticmethod
    def helpers(monkeypatch) -> list:
        """The helper threads the passes start from now on."""
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        return started

    @staticmethod
    def bits(s) -> tuple:
        return float(s.ss).hex(), s.center.tobytes(), s._block_sums.tobytes()

    @staticmethod
    def block_loop(Y, bounds) -> tuple:
        """The bits of the pass read block by block on one thread, each
        block's squares summed as the dot of its C-order copy, and the reads
        of Y it takes: two when the expansion would lose more than one bit."""
        blocks = [Y[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        with np.errstate(all="ignore"):
            sums = np.array([np.ones(len(b)) @ b for b in blocks])
            center = sums.sum(axis=0) / Y.shape[0]
            total = 0.0
            for b in blocks:
                total += float(b.ravel() @ b.ravel())
            grand = Y.shape[0] * float(center @ center)
            if 2.0 * grand <= total < np.inf:
                return ((total - grand).hex(), center.tobytes(), sums.tobytes()), 1
            ss = 0.0
            for b in blocks:
                ss += float((b - center).ravel() @ (b - center).ravel())
        return (ss.hex(), center.tobytes(), sums.tobytes()), 2

    def check_pass(self, monkeypatch, Y, outcome):
        """``series_stats(Y)`` on one thread beside a threaded BLAS, then on
        two, with warnings as errors: the ValueError ``outcome``, or for "ok"
        the bits of ``block_loop``, ``exact_ss`` within 1e-12, and fsum's
        centre and segment means within 1.5e-15 max|Y| (up to 32 blocks), at
        every split up to 32 rows and at the block edges past that.
        On two threads a helper takes each of ``block_loop``'s reads when
        there are two groups or more; beside the block sums, a pass that
        reads C-ordered Y once in blocks of 16 rows or more (the default
        floor) allocates less than a row block."""
        T, p = Y.shape
        rows = max(core._MIN_ROWS, core._BLOCK // p)
        nb = max(1, T // rows)  # the last block takes the ragged rows
        bounds = [i * rows for i in range(nb)] + [T]
        groups = len(range(0, nb - 1, max(1, core._GROUP // (rows * p)))) + 1
        bits, reads = self.block_loop(Y, bounds)
        if outcome == "ok":
            cols = Y.T.tolist()
            exact = TestSeriesStatsPass.exact_ss(Y)

            def mean(lo, hi):
                return np.array([math.fsum(c[lo:hi]) for c in cols]) / (hi - lo)

            # the pass adds the block sums one by one: past 32 blocks (300 in
            # the fast-switch test) their roundings grow with the count
            bound = 1.5e-15 * max(1.0, nb / 32) * np.max(np.abs(Y))
            splits = set(range(1, T))
            edges = splits if T <= 32 else {1, rows - 1, rows, rows + 1, bounds[-2], T // 2, T - 1} & splits
            segments = {k: (mean(0, k), mean(k, T)) for k in edges}
        for on in (False, True):
            self.threads(monkeypatch, on)
            started = self.helpers(monkeypatch)
            tracemalloc.start()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if outcome != "ok":
                        with pytest.raises(ValueError, match=outcome):
                            series_stats(Y)
                    else:
                        s = series_stats(Y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(started) == (reads if on and groups > 1 else 0)
            assert not any(t.is_alive() for t in started)
            if reads == 1 and Y.flags.c_contiguous and rows >= 16:
                assert peak < 8 * (nb + T - bounds[-2]) * p
            if outcome == "ok":
                assert s._bounds == bounds and series_stats(s) is s
                assert self.bits(s) == bits
                assert s.ss == exact or abs(s.ss - exact) <= 1e-12 * exact
                assert np.max(np.abs(s.center - mean(0, T))) <= bound
                for k, (left, right) in segments.items():
                    (_, got_left), (_, got_right) = s.segment_means(k)
                    assert np.max(np.abs(got_left - left)) <= bound, k
                    assert np.max(np.abs(got_right - right)) <= bound, k

    @pytest.mark.parametrize("name", PASSES)
    def test_each_input_of_the_pass_gives_its_outcome(self, monkeypatch, name):
        shape, layout, offset, entries, constants, outcome = PASSES[name]
        for constant, value in constants.items():
            monkeypatch.setattr(core, constant, value)
        Y = _series(name, shape, layout, offset)
        for where, value in entries:
            Y[where] += value
        self.check_pass(monkeypatch, Y, outcome)

    @pytest.mark.parametrize("pieces, elements, blas, cpus, pays", [
        (2, 8, True, 2, True),
        (1, 8, True, 2, False),  # a helper would have nothing to read
        (2, 7, True, 2, False),  # below the floor
        (2, 8, False, 2, False),  # BLAS on its own threads
        (2, 8, True, 1, False),  # one CPU
    ])
    def test_one_rule_decides_a_helper(self, monkeypatch, pieces, elements, blas, cpus, pays):
        monkeypatch.setattr(core, "_BLAS_SERIAL", blas)
        monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
        assert core._helper_pays(pieces, elements, 8) == pays

    def test_many_small_groups_under_fast_thread_switches(self, monkeypatch):
        # one-row blocks in groups of two: 150 groups, the first 75 on the
        # helper and the rest on the caller, switching every microsecond
        monkeypatch.setattr(core, "_BLOCK", 1000)
        monkeypatch.setattr(core, "_MIN_ROWS", 1)
        monkeypatch.setattr(core, "_GROUP", 2000)
        rng = np.random.default_rng(15)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for offset in (0.0, 1e6):
                Y = rng.normal(size=self.SHAPE) + offset
                for _ in range(5):
                    self.check_pass(monkeypatch, Y, "ok")
        finally:
            sys.setswitchinterval(interval)

    def test_a_helper_failure_is_raised_in_the_caller(self, monkeypatch):
        self.threads(monkeypatch, on=True)
        s = series_stats(np.zeros(self.SHAPE))
        caller = threading.get_ident()

        def read(todo):
            if threading.get_ident() != caller:
                raise RuntimeError("helper failed")
            for _ in todo:
                pass

        with pytest.raises(RuntimeError, match="helper failed"):
            s._on_threads([(0, 1)] * 8, read)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_the_affinity_mask_decides_the_helper(self, monkeypatch):
        # under `taskset -c 0` this runs the one-CPU branch
        monkeypatch.setattr(core, "_THREAD_MIN", 0)
        monkeypatch.setattr(core, "_BLAS_SERIAL", True)
        started = self.helpers(monkeypatch)
        series_stats(np.zeros(self.SHAPE))
        assert len(started) == (len(os.sched_getaffinity(0)) >= 2)

    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        # macOS has no os.sched_getaffinity
        Y = np.random.default_rng(14).normal(size=self.SHAPE) + 1e6
        self.threads(monkeypatch, on=False)
        one = self.bits(series_stats(Y))
        monkeypatch.undo()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert core._cpu_count() == (os.cpu_count() or 1)
        monkeypatch.setattr(core, "_THREAD_MIN", 0)
        monkeypatch.setattr(core, "_BLAS_SERIAL", True)
        assert self.bits(series_stats(Y)) == one


class TestStoppedMeans:
    def test_piecewise_constant(self):
        left, right = stopped_means([[0.0], [0.0], [2.0], [2.0]], 2)
        np.testing.assert_allclose(left, [0.0])
        np.testing.assert_allclose(right, [2.0])

    def test_hand_means(self):
        left, right = stopped_means([[1.0], [3.0], [5.0]], 1)
        np.testing.assert_allclose(left, [1.0])
        np.testing.assert_allclose(right, [4.0])


class TestSoftThreshold:
    def test_direct_formula(self):
        np.testing.assert_allclose(soft_threshold([2.5, -0.5, 0.0], 1.0), [1.5, 0.0, 0.0])

    def test_identity_at_zero(self):
        x = np.array([0.3, -4.0, 2.0])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_support_shrinks(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=40)
        out = soft_threshold(x, 0.8)
        assert set(np.flatnonzero(out)) <= set(np.flatnonzero(x))

    def test_matches_prox_oracle(self):
        # per coordinate: argmin over m of (x - m)^2 + 2*lam*|m|, brute forced
        grid = np.linspace(-10.0, 10.0, 200001)
        rng = np.random.default_rng(8)
        for lam in (0.0, 0.3, 1.7):
            x = rng.uniform(-8, 8, size=12)
            expected = np.array([grid[np.argmin((xj - grid) ** 2 + 2 * lam * np.abs(grid))] for xj in x])
            np.testing.assert_allclose(soft_threshold(x, lam), expected, atol=2e-4)

    def test_lipschitz_and_monotone_in_lambda(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert np.all(np.abs(soft_threshold(x, 0.5) - soft_threshold(y, 0.5)) <= np.abs(x - y) + 1e-15)
        lams = [0.0, 0.2, 0.5, 1.0, 3.0]
        mags = [np.abs(soft_threshold(x, l)) for l in lams]
        for a, b in zip(mags, mags[1:]):
            assert np.all(b <= a + 1e-15)

S5 = [3, 4, 17, 250, 251]
# Each series' projections: (shape, layout, column offset, centred, rows per
# gather chunk (None: the defaults; else with the floor 0, so any T over it
# chunks), [(support, path), ...]).  The path is "dense" (Y @ eta),
# "gather" (Y[:, S] @ eta[S], keeping Y[:, S]), "kept" (the kept block) or,
# for a vector whose length, given in place of the support, is not p, "refused".
PROJECTIONS = {
    **{f"300x400, {layout}, supports of 0, 1, 5 and 400 columns{note}":
       ((300, 400), layout, 1e4, centred, None,
        [([], "gather"), ([17], "gather"), ([3, 50, 128, 260, 399], "gather"), (range(400), "dense")])
       for layout, centred, note in [("C", False, ""), ("C", True, ", centred"), ("F", True, ", centred")]},
    # the kept block serves its own support only: a strict subset is gathered again
    **{f"300x400, a kept block{note}{'' if chunk is None else ', 4-row chunks'}":
       ((300, 400), "C", 1e4, centred, chunk,
        [(S5, "gather"), (S5, "kept"), (S5, "kept"), ([4, 250], "gather"), ([4, 250], "kept")])
       for centred, note in [(False, ""), (True, ", centred")] for chunk in (None, 4)},
    **{f"300x400, supports outside the kept block{'' if chunk is None else ', 4-row chunks'}":
       ((300, 400), "C", 1e4, False, chunk,
        [([3, 250], "gather"), ([3, 251], "gather"), ([3, 250, 399], "gather"), ([4, 251], "gather")])
       for chunk in (None, 4)},
    # 25 cache lines a row: 11 columns in 3 lines, 16 in 16, 9 in 9, and 56
    # in 7, more than p / 4 columns
    "4000x200, centred, the gather rule counts cache lines":
        ((4000, 200), "C", 1e4, True, None,
         [([*range(10), 77], "gather"), (range(0, 128, 8), "dense"), (range(0, 72, 8), "gather"),
          (range(56), "dense")]),
    # 2^21 elements over _CHUNK rows: gathered in row chunks of the default size
    "4000x500, row chunks": ((4000, 500), "C", 0.0, False, None,
                             [([0, 7, 8, 300, 499], "gather"), ([0, 7, 8, 300, 499], "kept")]),
    "300x400, vectors of other lengths": ((300, 400), "C", 0.0, False, None,
                                          [(1, "refused"), (399, "refused"), (401, "refused")]),
    **{f"{T}x{p}, 4-row chunks, {note}": ((T, p), layout, 1e4, centred, 4, [(S, "gather"), (S, "kept")])
       for note, (T, p), layout, centred, S in [
           ("C", (24, 80), "C", False, [1, 8, 9, 33]),
           ("F", (24, 80), "F", False, [1, 8, 9, 33]),
           ("column view", (24, 40), "column view", False, [0, 5, 39]),
           ("row view", (12, 80), "row view", False, [2, 3, 70]),
           ("centred", (24, 80), "C", True, [1, 8, 9, 33]),
           ("T a multiple of the chunk", (20, 80), "C", False, [4, 17]),
           ("T ragged", (23, 80), "C", False, [4, 17]),
           ("empty support", (24, 80), "C", False, []),
           ("one column", (24, 80), "C", False, [9]),
       ]},
}


class TestSeriesStatsProject:
    @pytest.mark.parametrize("name", PROJECTIONS)
    def test_each_projection_has_the_bits_of_its_path(self, monkeypatch, name):
        shape, layout, offset, centred, chunk, projections = PROJECTIONS[name]
        if chunk is not None:
            monkeypatch.setattr(core, "_CHUNK", chunk)
            monkeypatch.setattr(core, "_THREAD_MIN", 0)
        Y = _series(name, shape, layout, offset)
        T, p = Y.shape
        s = core._centered(series_stats(Y)) if centred else series_stats(Y)
        rng = np.random.default_rng(0)
        for support, path in projections:
            if path == "refused":
                eta = np.zeros(support)
                eta[0] = 1.0  # a support the gather could read
                with pytest.raises(ValueError, match=r"projection vector has shape"):
                    s.project(eta)
                continue
            cols = np.array(support, dtype=np.intp)
            eta = np.zeros(p)
            eta[cols] = rng.normal(size=cols.size)
            expect = Y @ eta if path == "dense" else Y[:, cols] @ eta[cols]
            if centred:
                expect -= s.offset @ eta
            unread = {"dense": [], "gather": np.setdiff1d(np.arange(p), cols), "kept": slice(None)}[path]
            saved, kept = Y[:, unread].copy(), s._kept
            Y[:, unread] = np.nan  # the columns the path must not read
            tracemalloc.start()
            try:
                z = s.project(eta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            Y[:, unread] = saved
            assert z.tobytes() == expect.tobytes(), (support, path)
            slack = 24 * cols.size + 8192  # index arrays of |S| entries, array headers
            if path == "gather":
                one_shot = Y[:, cols]
                assert s._kept[0].tolist() == cols.tolist()
                assert s._kept[1].strides == one_shot.strides
                assert s._kept[1].tobytes(order="F") == one_shot.tobytes(order="F")
                # the block, then one row chunk of it or the output; a one-shot
                # gather holds no chunk, and its slack is 8p bytes
                chunked = T > core._CHUNK and Y.size >= core._THREAD_MIN
                held = 8 * T * cols.size + 8 * (max(T, core._CHUNK * cols.size) if chunked else T)
                assert held <= peak <= held + (slack if chunked else 8 * p)
            else:
                assert s._kept is kept
                assert peak <= 8 * T + slack  # the output alone


class TestChangePointEstimate:
    def test_tau_is_derived_view(self):
        est = ChangePointEstimate(3, 10)
        assert est.tau == 0.3


class TestMeanPair:
    def test_float64_means_are_kept_and_others_converted(self):
        mu1, mu2 = np.array([1.0, 0.0]), np.array([0.0, 2.5])
        mp = MeanPair(mu1, mu2)
        assert mp.mu1 is mu1 and mp.mu2 is mu2
        mp = MeanPair([1, 0], np.array([0.0, 2.5], dtype=np.float32))
        for mu, expected in ((mp.mu1, [1.0, 0.0]), (mp.mu2, [0.0, 2.5])):
            assert type(mu) is np.ndarray and mu.dtype == np.float64 and mu.tolist() == expected
        with pytest.raises(ValueError, match="mean vectors must be 1-D of equal length"):
            MeanPair(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_supports_are_exact_nonzero_patterns(self):
        mp = MeanPair([1.0, 0.0, -2.0], [0.0, 0.0, 3.0])
        assert list(mp.support1) == [0, 2]
        assert list(mp.support2) == [2]

    @pytest.mark.parametrize("mu1, mu2", [([1.0, 0.0], [1.0, 0.0, 2.0]), (1.0, 2.0),
                                          ([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0, 0.0, 1.0])])
    def test_unequal_lengths_rejected(self, mu1, mu2):
        with pytest.raises(ValueError, match="mean vectors must be 1-D of equal length"):
            MeanPair(mu1, mu2)

    def test_supports_follow_a_mean_changed_in_place(self):
        mp = MeanPair([1.0, 0.0, -2.0], [0.0, 0.0, 3.0])
        mp.mu1[0] = 0.0
        mp.mu2[1] = 4.0
        assert list(mp.support1) == [2]
        assert list(mp.support2) == [1, 2]

    def test_jump_recomputable(self):
        mp = MeanPair([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_allclose(mp.jump(), [1.0, -1.0])
        assert mp.jump_size() == pytest.approx(np.sqrt(2.0))

    def test_level_difference_identity(self):
        # theta1 - theta2 == ||mu1 - mu2||^2 for any pair
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.integers(1, 12)
            mp = MeanPair(rng.normal(size=p), rng.normal(size=p))
            t1, t2 = mp.projected_levels()
            assert t1 - t2 == pytest.approx(mp.jump_size() ** 2, rel=1e-10)

    def test_jump_above_relative_floor_is_returned(self):
        # ||mu1|| + ||mu2|| = 2 to the last bit, so this jump is 1e-11 of it;
        # tests/test_api.py meets the floor with a jump of 1e-13
        eta = MeanPair([1.0, 0.0], [1.0, 2e-11]).informative_jump()
        np.testing.assert_array_equal(eta, [0.0, -2e-11])

    def test_tiny_units_are_not_degenerate(self):
        # the rule has no units: the design means in units of 2^-100 keep
        # their jump, scaled exactly
        mu1, mu2 = design_means(500, 5)
        c = 2.0**-100
        eta = MeanPair(c * mu1, c * mu2).informative_jump()
        np.testing.assert_array_equal(eta, c * (mu1 - mu2))
