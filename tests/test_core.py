import math
import os
import sys
import threading
import tracemalloc
import warnings

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
from cpinfer.detect import thresholded_means
from cpinfer.infer import confidence_interval, plugin_sigma_sq, refit_means
from cpinfer.tune import bic_lambda
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

    def test_series_stats_blocks(self, monkeypatch):
        # blocks of 8 elements: several rows, one row, one block, and a ragged last block
        monkeypatch.setattr(core, "_BLOCK", 8)
        monkeypatch.setattr(core, "_MIN_ROWS", 1)
        rng = np.random.default_rng(7)
        for shape in [(10, 3), (5, 20), (2, 1), (14, 2)]:
            Y = rng.normal(size=shape) + 1e3
            s = series_stats(Y)
            assert series_stats(s) is s
            assert s.ss == pytest.approx(np.sum((Y - Y.mean(0)) ** 2), rel=1e-12)
            for k in range(1, shape[0]):
                (_, left), (_, right) = s.segment_means(k)
                np.testing.assert_allclose(left, Y[:k].mean(0), rtol=1e-13)
                np.testing.assert_allclose(right, Y[k:].mean(0), rtol=1e-13)


class TestSeriesStatsPass:
    # (100, 1000) has row blocks [0, 32), [32, 64) and [64, 100)
    SHAPE = (100, 1000)

    @staticmethod
    def rows(p):
        return max(core._MIN_ROWS, core._BLOCK // p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "last", "before_boundary", "after_boundary"])
    def test_non_finite_entry_rejected_without_warning(self, value, where):
        T, p = self.SHAPE
        row = {"first": 0, "last": T - 1, "before_boundary": self.rows(p) - 1,
               "after_boundary": self.rows(p)}[where]
        Y = np.random.default_rng(0).normal(size=self.SHAPE)
        Y[row, 7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                series_stats(Y)

    @pytest.mark.parametrize("rows", [(1, 2), (0, 99)])
    def test_opposite_infinities_in_one_column_rejected(self, rows):
        Y = np.random.default_rng(1).normal(size=self.SHAPE)
        Y[rows[0], 3], Y[rows[1], 3] = np.inf, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                series_stats(Y)

    def test_finite_input_whose_squares_overflow_is_not_rejected(self):
        Y = 1e200 * np.random.default_rng(2).normal(size=self.SHAPE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = series_stats(Y)
        assert np.isfinite(s.center).all()
        assert s.ss == np.inf

    def test_block_sums_are_a_sixteenth_of_the_input_at_most(self):
        for shape in [(17, 3000), (4000, 500), (500, 20000), (16, 1)]:
            s = series_stats(np.zeros(shape))
            assert s._block_sums.nbytes <= np.zeros(shape).nbytes / 16

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6])
    def test_sums_match_an_exact_oracle(self, offset):
        # plain row-by-row sums, Y[:k].sum(axis=0), err by 5e-9 at offset 1e6
        T, p = 5000, 200
        Y = np.random.default_rng(3).normal(size=(T, p)) + offset * np.linspace(-1.0, 1.0, p)
        cols = Y.T.tolist()
        s = series_stats(Y)
        bound = 1.5e-15 * np.max(np.abs(Y))
        center = np.array([math.fsum(c) for c in cols]) / T
        assert np.max(np.abs(s.center - center)) <= bound
        rows = self.rows(p)
        for k in (1, rows - 1, rows, rows + 1, T // 2, T - 1):
            (_, left), (_, right) = s.segment_means(k)
            exact_left = np.array([math.fsum(c[:k]) for c in cols]) / k
            exact_right = np.array([math.fsum(c[k:]) for c in cols]) / (T - k)
            assert np.max(np.abs(left - exact_left)) <= bound
            assert np.max(np.abs(right - exact_right)) <= bound

    @staticmethod
    def exact_ss(Y):
        """The sum of squares about the column means by math.fsum.  y - m is
        exact when the offset dominates the spread (Sterbenz), so large
        offsets cost the oracle no precision."""
        T = Y.shape[0]
        sums = []
        for c in Y.T.tolist():
            m = math.fsum(c) / T
            sums.append(math.fsum((v - m) ** 2 for v in c))
        return math.fsum(sums)

    @pytest.mark.parametrize("offset", [0.0, 1.0, 1e4, 1e6, "from_row_900"])
    def test_sum_of_squares_matches_an_exact_oracle(self, offset):
        T, p = 2000, 100  # six row blocks, the last of 365 rows
        rng = np.random.default_rng(4)
        Y = rng.normal(size=(T, p))
        if offset == "from_row_900":
            # the third block holds 81 offset rows: it and the blocks before
            # pass the one-bit test on their own, the blocks after it fail it,
            # and the pass's one guard over all of Y sends it to the second read
            Y[900:, : p // 2] += 1e6
            bounds = series_stats(Y)._bounds
            blocks = [Y[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            fast = [2 * len(b) * (b.mean(axis=0) @ b.mean(axis=0)) <= (b * b).sum() for b in blocks]
            assert fast == [True] * 3 + [False] * 3
        else:
            Y += offset * rng.uniform(-1.0, 1.0, size=p)
        tracemalloc.start()
        try:
            ss = series_stats(Y).ss
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if offset in (0.0, 1.0):  # the one-read branch allocates no row block
            assert peak < self.rows(p) * p * 8
        exact = self.exact_ss(Y)
        assert abs(ss - exact) <= 1e-12 * exact

    def test_one_read_expansion_agrees_with_the_centred_block(self):
        # one block, offsets small enough that the guard takes the expansion
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(30, 50)) + rng.uniform(-0.5, 0.5, size=50)
        bm = np.ones(30) @ Y / 30
        assert 2 * 30 * (bm @ bm) <= Y.ravel() @ Y.ravel()
        d = (Y - bm).ravel()
        assert series_stats(Y).ss == pytest.approx(d @ d, rel=1e-13, abs=0)

    def test_level_shift_takes_the_two_pass_branch(self):
        # the level shift of from_row_900 makes 2 T ||c||^2 exceed ||Y||^2,
        # the blocks' own sums of squares plus sum_b rows_b ||mean_b||^2, so
        # the expansion ||Y||^2 - T ||c||^2 would lose more than one bit and
        # the pass reads Y again to sum ||B - c||^2 over the blocks
        T, p = 2000, 100
        Y = np.random.default_rng(4).normal(size=(T, p))
        Y[900:, : p // 2] += 1e6
        s = series_stats(Y)
        blocks = [Y[lo:hi] for lo, hi in zip(s._bounds, s._bounds[1:])]
        within = sum(((b - b.mean(axis=0)) ** 2).sum() for b in blocks)
        between = sum(len(b) * (b.mean(axis=0) @ b.mean(axis=0)) for b in blocks)
        assert 2 * T * (s.center @ s.center) > within + between
        exact = self.exact_ss(Y)
        assert abs(s.ss - exact) <= 1e-12 * exact

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

    def test_sum_of_squares_exact_under_offsets_on_small_blocks(self, monkeypatch):
        # blocks of two rows: a block mean rounds by up to 2 eps |offset|, so a
        # sum of squares built from block means errs to first order in that
        # (6.6e-12 relative on this input); the two-pass branch errs only at
        # second order in the error of c
        monkeypatch.setattr(core, "_BLOCK", 4)
        monkeypatch.setattr(core, "_MIN_ROWS", 1)
        Y = np.random.default_rng(7).normal(size=(11, 2)) + np.array([7.6e4, -7.6e4])
        exact = self.exact_ss(Y)
        assert abs(series_stats(Y).ss - exact) <= 1e-12 * exact

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
    # (300, 1000) has row blocks of 32 rows: eight equal blocks in two groups
    # of four, then the ragged last block of 44 rows, three groups in all; nine
    # block squares, so a pairwise sum (np.sum's, from eight terms) would differ
    SHAPE = (300, 1000)

    @staticmethod
    def threads(monkeypatch, on: bool):
        """Read every series on two threads (``on``) or on one."""
        monkeypatch.setattr(core, "_THREAD_MIN", 0 if on else 1 << 62)
        monkeypatch.setattr(core, "_BLAS_SERIAL", True)
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
        block's squares summed as the dot of its C-order copy."""
        blocks = [Y[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        sums = np.array([np.ones(len(b)) @ b for b in blocks])
        center = sums.sum(axis=0) / Y.shape[0]
        total = 0.0
        for b in blocks:
            total += float(b.ravel() @ b.ravel())
        grand = Y.shape[0] * float(center @ center)
        if 2.0 * grand <= total < np.inf:
            ss = total - grand
        else:
            ss = 0.0
            for b in blocks:
                ss += float((b - center).ravel() @ (b - center).ravel())
        return ss.hex(), center.tobytes(), sums.tobytes()

    def inputs(self):
        rng = np.random.default_rng(11)
        Y = rng.normal(size=self.SHAPE)
        wide = rng.normal(size=(40, 9000))  # two blocks of 16 and 24 rows, each above _GROUP
        return {
            "odd_groups_ragged_last": Y,
            "single_block": rng.normal(size=(20, 500)),
            "block_above_group": wide,
            "fortran_order": np.asfortranarray(Y),
            # one stride for every element: a view, where ravel copies
            "column_strided_view": rng.normal(size=(300, 3000))[:, ::3],
            "row_strided_view": rng.normal(size=(600, 1000))[::2],
            "offset_3": Y + 3.0,
            "offset_1e4": Y + 1e4 * np.linspace(-1.0, 1.0, self.SHAPE[1]),
            "offset_1e6": Y + 1e6 * np.linspace(-1.0, 1.0, self.SHAPE[1]),
            "offset_1e6_wide": wide + 1e6,
        }

    def test_groups_on_one_or_two_threads_give_the_bits_of_a_block_loop(self, monkeypatch):
        s = series_stats(np.zeros(self.SHAPE))
        assert len(s._bounds) - 1 == 9 and core._GROUP // (s._rows * s.p) == 4
        assert series_stats(np.zeros((40, 9000)))._rows * 9000 > core._GROUP
        for name, Y in self.inputs().items():
            self.threads(monkeypatch, on=False)
            one = series_stats(Y)
            assert self.bits(one) == self.block_loop(Y, one._bounds), name
            self.threads(monkeypatch, on=True)
            started = self.helpers(monkeypatch)
            assert self.bits(series_stats(Y)) == self.bits(one), name
            # the column means exceed the noise: a second read, on two threads too;
            # one group gives a helper nothing to read, so none starts
            reads = 2 if name.startswith("offset") else 1
            assert len(started) == (0 if name == "single_block" else reads), name
            assert not any(t.is_alive() for t in started), name

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
        self.threads(monkeypatch, on=True)
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
                    s = series_stats(Y)
                    assert self.bits(s) == self.block_loop(Y, s._bounds)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_rejected_on_two_threads(self, monkeypatch, value):
        self.threads(monkeypatch, on=True)
        Y = np.random.default_rng(12).normal(size=self.SHAPE)
        Y[-1, 5] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time series contains non-finite entries"):
                series_stats(Y)

    def test_overflowing_squares_raise_no_warning_on_two_threads(self, monkeypatch):
        # numpy's error state is a context variable that a new thread does not
        # inherit, so the helper ignores floating-point errors itself
        self.threads(monkeypatch, on=True)
        started = self.helpers(monkeypatch)
        Y = 1e200 * np.random.default_rng(13).normal(size=self.SHAPE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = series_stats(Y)
        assert s.ss == np.inf and np.isfinite(s.center).all()
        assert len(started) == 2

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

    def test_one_thread_beside_a_threaded_blas(self, monkeypatch):
        self.threads(monkeypatch, on=True)
        monkeypatch.setattr(core, "_BLAS_SERIAL", False)
        started = self.helpers(monkeypatch)
        series_stats(np.zeros(self.SHAPE))
        assert started == []

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


_SPLIT_ENTRY_POINTS = {
    "stopped_means": lambda Y, k: stopped_means(Y, k),
    "bic_lambda": lambda Y, k: bic_lambda(Y, k),
    "thresholded_means": lambda Y, k: thresholded_means(Y, k, 0.1),
    "refit_means": lambda Y, k: refit_means(Y, k, [0], [1]),
    "plugin_sigma_sq": lambda Y, k: plugin_sigma_sq(Y, k, MeanPair([1.0, 0.0], [0.0, 1.0])),
    "confidence_interval": lambda Y, k: confidence_interval(k, 1.0, 0.2, 11.03, Y.shape[0]),
}


class TestSplitIndex:
    """Every entry point that takes a split index takes a numpy integer as
    the int; tests/test_api.py meets each with the values it refuses."""

    @pytest.mark.parametrize("name", sorted(_SPLIT_ENTRY_POINTS))
    def test_numpy_integer_split_accepted(self, name):
        Y = np.random.default_rng(0).normal(size=(10, 2))
        a, b = _SPLIT_ENTRY_POINTS[name](Y, np.int64(4)), _SPLIT_ENTRY_POINTS[name](Y, 4)
        assert repr(a) == repr(b)


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


class TestSeriesStatsProject:
    SHAPE = (300, 400)

    @pytest.mark.parametrize("nonzeros", [0, 1, 5, 400])  # 400: the dense product
    @pytest.mark.parametrize("center", [False, True])
    def test_matches_the_dense_product(self, nonzeros, center):
        rng = np.random.default_rng(11)
        Y = rng.normal(size=self.SHAPE) + 1e4 * rng.uniform(-1.0, 1.0, size=self.SHAPE[1])
        s = series_stats(Y)
        if center:
            s = core._centered(s)
        eta = np.zeros(self.SHAPE[1])
        eta[rng.choice(eta.size, nonzeros, replace=False)] = rng.normal(size=nonzeros)
        expect = Y @ eta - s.offset @ eta
        bound = 1e-13 * np.max(np.abs(Y)) * np.sum(np.abs(eta))
        np.testing.assert_allclose(s.project(eta), expect, rtol=0, atol=bound)

    def test_sparse_projection_reads_only_its_support(self):
        rng = np.random.default_rng(12)
        Y = rng.normal(size=self.SHAPE)
        s = series_stats(Y)
        eta = np.zeros(self.SHAPE[1])
        eta[[3, 250]] = [1.0, -2.0]
        Y[:, 4:250] = np.nan  # after the pass: the projection must not read these
        np.testing.assert_array_equal(s.project(eta), Y[:, 3] - 2.0 * Y[:, 250])

    def test_sparse_projection_allocates_the_support_only(self):
        T, p = 4000, 500
        s = series_stats(np.random.default_rng(13).normal(size=(T, p)))
        eta = np.zeros(p)
        eta[[0, 7, 8, 300, 499]] = 1.0
        tracemalloc.start()
        try:
            s.project(eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * T * (5 + 1) + 8 * p  # the gathered columns, the output, slack

    @pytest.mark.parametrize("cols, gathers", [
        (list(range(10)) + [77], True),   # 11 columns in 3 of a row's 25 cache lines
        (list(range(0, 128, 8)), False),  # 16 columns in 16 lines: the dense product
        (list(range(0, 72, 8)), True),    # 9 columns in 9 lines
        (list(range(56)), False),         # 56 columns in 7 lines: above p / 4 columns
    ])
    def test_gather_rule_counts_cache_lines(self, cols, gathers):
        T, p = 4000, 200
        rng = np.random.default_rng(14)
        Y = rng.normal(size=(T, p)) + 1e4 * rng.uniform(-1.0, 1.0, size=p)
        s = core._centered(series_stats(Y))
        eta = np.zeros(p)
        eta[cols] = rng.normal(size=len(cols))
        tracemalloc.start()
        try:
            z = s.project(eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if gathers:
            assert 8 * T * len(cols) <= peak <= 8 * T * (len(cols) + 1) + 8 * p
        else:
            assert peak <= 8 * T * 2 + 8 * p  # the product and the output, no T x nnz gather
        bound = 1e-13 * np.max(np.abs(Y)) * np.sum(np.abs(eta))
        np.testing.assert_allclose(z, Y @ eta - s.offset @ eta, rtol=0, atol=bound)

    @pytest.mark.parametrize("center", [False, True])
    def test_kept_block_serves_only_its_own_support(self, center):
        rng = np.random.default_rng(15)
        Y = rng.normal(size=self.SHAPE) + 1e4 * rng.uniform(-1.0, 1.0, size=self.SHAPE[1])
        Y0 = Y.copy()

        def stats(data):
            return core._centered(series_stats(data)) if center else series_stats(data)

        s = stats(Y)
        support = [3, 4, 17, 250, 251]
        eta = np.zeros(self.SHAPE[1])
        eta[support] = rng.normal(size=len(support))
        first = s.project(eta)
        Y[:, support] = np.nan  # the later projections onto the support must not read these
        for vector in (eta, 2.0 * eta):
            z = s.project(vector)
            assert np.isfinite(z).all()
            np.testing.assert_array_equal(z, stats(Y0).project(vector))
        np.testing.assert_array_equal(first, stats(Y0).project(eta))
        # a strict subset is gathered again, with the bits of a fresh gather
        Y[:] = Y0
        sub = np.zeros(self.SHAPE[1])
        sub[[4, 250]] = [1.5, -0.5]
        np.testing.assert_array_equal(s.project(sub), stats(Y0).project(sub))
        assert s._kept[0].tolist() == [4, 250]

    def test_support_outside_the_block_gathers_again(self):
        rng = np.random.default_rng(16)
        Y = rng.normal(size=self.SHAPE) + 1e4 * rng.uniform(-1.0, 1.0, size=self.SHAPE[1])
        s = series_stats(Y)
        bound = 1e-13 * np.max(np.abs(Y))
        for cols in ([3, 250], [3, 251], [3, 250, 399], [4, 251]):
            eta = np.zeros(self.SHAPE[1])
            eta[cols] = rng.normal(size=len(cols))
            np.testing.assert_allclose(s.project(eta), Y @ eta, rtol=0,
                                       atol=bound * np.sum(np.abs(eta)))
            assert s._kept[0].tolist() == cols

    @pytest.mark.parametrize("length", [1, 399, 401])
    def test_length_mismatch_rejected(self, length):
        s = series_stats(np.ones(self.SHAPE))
        eta = np.zeros(length)
        eta[0] = 1.0  # a support the gather could read
        with pytest.raises(ValueError):
            s.project(eta)


class TestChangePointEstimate:
    def test_tau_is_derived_view(self):
        est = ChangePointEstimate(3, 10)
        assert est.tau == 0.3
        assert not est.no_change

    def test_no_change_encoding(self):
        assert ChangePointEstimate(7, 7).no_change

    def test_numpy_integers_stored_as_ints(self):
        est = ChangePointEstimate(np.int64(3), np.int32(10))
        assert type(est.k) is int and type(est.T) is int
        assert est == ChangePointEstimate(3, 10)


class TestMeanPair:
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
