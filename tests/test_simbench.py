import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpinfer import core, simbench
from cpinfer.detect import _initial_split
from cpinfer.infer import limit_quantile
from cpinfer.simbench import (
    _AHEAD_MIN,
    MetricsReport,
    SimConfig,
    _ar1_noise,
    _datasets,
    ar1_covariance,
    gen_dataset,
    initializer_sweep,
    metrics_from_records,
    run_monte_carlo,
)
from loss_oracles import design_means


@pytest.fixture
def noiseless(monkeypatch):
    """gen_dataset without noise: the data is the design's mean layout."""

    def zeros(T, p, rho, rng, out):
        out.fill(0.0)
        return out

    monkeypatch.setattr(simbench, "_ar1_noise", zeros)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(T=10, p=5, s=3, tau0=0.5)  # 2s > p
        with pytest.raises(ValueError):
            SimConfig(T=10, p=10, s=2, tau0=0.0)
        with pytest.raises(ValueError):
            SimConfig(T=10, p=10, s=2, tau0=0.5, rho=1.0)

    @pytest.mark.parametrize("tau_init", [2.0, 1.0, 0.01, 0.0, np.nan, np.inf])
    def test_initial_split_checked_at_construction(self, tau_init):
        with pytest.raises(ValueError, match="initial fraction"):
            SimConfig(T=30, p=8, s=2, tau0=0.5, tau_init=tau_init)

    def test_extreme_valid_initial_splits(self):
        assert SimConfig(T=2, p=2, s=1, tau0=0.5, tau_init=0.5).tau_init == 0.5
        assert SimConfig(T=30, p=8, s=2, tau0=0.5, tau_init=0.99).tau_init == 0.99

    def test_k0_encoding(self):
        assert SimConfig(T=10, p=4, s=1, tau0=1.0).k0 == 10
        assert SimConfig(T=10, p=4, s=1, tau0=0.45).k0 == 4
        assert SimConfig(T=10, p=4, s=1, tau0=0.1).k0 == 1

    @given(T=st.integers(2, 2000), cents=st.integers(1, 100))
    @example(T=350, cents=70)
    @example(T=100, cents=29)
    @example(T=50, cents=58)
    def test_a_decimal_fraction_names_its_written_split(self, T, cents):
        # T * tau of the double tau can land a few ulps below the integer that
        # the decimal names (350 * 0.7 = 244.99999999999997); both the drawn
        # split and the initial split take the decimal's floor
        tau = cents / 100
        k = math.floor(T * Fraction(str(tau)))
        if k >= 1:
            assert SimConfig(T=T, p=2, s=1, tau0=tau).k0 == k
        if 1 <= k <= T - 1:
            assert _initial_split(T, tau) == k

    @pytest.mark.parametrize("T, tau0", [(10, 0.05), (10, 0.09), (2, 0.4), (99, 0.01)])
    def test_change_design_needs_a_true_split(self, T, tau0):
        # floor(T * tau0) = 0 puts no change in the data, yet such a design
        # used to report tpr and coverage as if it had one
        with pytest.raises(ValueError, match="true split"):
            SimConfig(T=T, p=4, s=1, tau0=tau0)

class TestNoise:
    def test_rho_zero_is_iid(self):
        rng = np.random.default_rng(0)
        rows = _ar1_noise(4000, 4, 0.0, rng)
        cov = np.cov(rows, rowvar=False)
        np.testing.assert_allclose(cov, np.eye(4), atol=0.08)

    def test_pairwise_covariance(self):
        rng = np.random.default_rng(1)
        rows = _ar1_noise(6000, 2, 0.5, rng)
        cov = np.cov(rows, rowvar=False)
        np.testing.assert_allclose(cov, [[1.0, 0.5], [0.5, 1.0]], atol=0.06)

    def test_sample_covariance_matches_target(self):
        rng = np.random.default_rng(2)
        n, p, rho = 50_000, 5, 0.5
        big = _ar1_noise(n, p, rho, rng)
        cov = np.cov(big, rowvar=False)
        np.testing.assert_allclose(cov, ar1_covariance(p, rho), atol=0.02)

    def test_unit_marginals_within_two_percent(self):
        rng = np.random.default_rng(3)
        big = _ar1_noise(60_000, 6, 0.5, rng)
        np.testing.assert_allclose(big.var(axis=0), np.ones(6), atol=0.02)

    @pytest.mark.parametrize("T, p, rho", [
        (200_000, 5, 0.5), (350, 500, 0.5), (7, 1, 0.5), (10, 9, 0.0),
        (50, 40, -0.9), (3, 300, 0.999), (1, 4, 0.3),
        # narrow series take the running sum too, at rho = -1/2 and 1/8
        (40, 31, -0.5), (40, 32, -0.5), (40, 31, 0.125), (40, 32, 0.125),
        # more columns than one chunk: 960 at rho = 1/2, 320 at rho = 1/8
        (64, 3000, 0.5), (30, 600, 0.125), (5, 961, -0.5), (6, 640, -0.125),
        (9, 200, -0.25), (9, 200, 1 / 16), (4, 100, 2.0**-400),
        # chunks of under two columns take the column loop: 960 // 500 and 960 // 1000
        (4, 100, 2.0**-500), (4, 100, 2.0**-1000),
    ])
    def test_matches_lfilter_bit_for_bit(self, T, p, rho):
        # the column recursion, and for rho = +-2^-k its running sum, is the
        # filter 1 / (1 - rho z^-1) along each row
        from scipy.signal import lfilter

        w = np.random.default_rng(7).standard_normal((T, p))
        w[:, 1:] *= np.sqrt(1.0 - rho * rho)
        expected = lfilter([1.0], [1.0, -rho], w, axis=1)
        got = _ar1_noise(T, p, rho, np.random.default_rng(7))
        assert np.array_equal(got, expected)


class TestGenDataset:
    def test_noiseless_layout(self, noiseless):
        cfg = SimConfig(T=4, p=4, s=1, tau0=0.5)
        Y, k0 = gen_dataset(cfg, 0)
        assert k0 == 2
        mu1, mu2 = design_means(4, 1)
        np.testing.assert_array_equal(Y, np.vstack([mu1, mu1, mu2, mu2]))

    def test_no_change_layout(self, noiseless):
        cfg = SimConfig(T=3, p=4, s=1, tau0=1.0)
        Y, k0 = gen_dataset(cfg, 0)
        assert k0 == 3
        mu1, _ = design_means(4, 1)
        np.testing.assert_array_equal(Y, np.tile(mu1, (3, 1)))

    def test_substream_determinism(self):
        cfg = SimConfig(T=12, p=6, s=2, tau0=0.5, seed=99)
        a, _ = gen_dataset(cfg, 3)
        b, _ = gen_dataset(cfg, 3)
        c, _ = gen_dataset(cfg, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_peak_allocation(self):
        # the AR(1) recursion and the means run in place on the array of
        # normals, so Y is the only T x p array; a column temporary is small
        cfg = SimConfig(T=350, p=500, s=5, tau0=0.4, seed=1)
        tracemalloc.start()
        try:
            Y, _ = gen_dataset(cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * Y.nbytes

    @pytest.mark.parametrize("T, p", [(100, 500), (225, 500), (350, 500), (100, 750)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_means_added_only_where_nonzero(self, T, p, seed):
        # adding the means to their 2s columns gives the bytes of dense rows
        cfg = SimConfig(T=T, p=p, s=5, tau0=0.4, seed=seed)
        mu1, mu2 = design_means(p, 5)
        expected = _ar1_noise(T, p, 0.5, simbench._rep_rng(seed, 3))
        expected[: cfg.k0] += mu1
        expected[cfg.k0 :] += mu2
        Y, _ = gen_dataset(cfg, 3)
        assert Y.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rho", [0.5, 0.3])  # the running sum and the column loop
    def test_fill_step_gives_gen_dataset_bytes(self, rho):
        # into a used array (NaN, then the last replication) as into a fresh one
        cfg = SimConfig(T=40, p=300, s=5, tau0=0.4, rho=rho, seed=8)
        Y = np.full((cfg.T, cfg.p), np.nan)
        for i in (2, 5):
            expected = _ar1_noise(cfg.T, cfg.p, rho, simbench._rep_rng(cfg.seed, i))
            expected[: cfg.k0, :5] += 1.0
            expected[cfg.k0 :, 5:10] += 1.0
            got, k0 = simbench._fill(cfg, i, Y)
            assert got is Y and k0 == cfg.k0
            assert Y.tobytes() == gen_dataset(cfg, i)[0].tobytes() == expected.tobytes()

    def test_aggregate_means_match_design(self):
        cfg = SimConfig(T=8, p=6, s=2, tau0=0.5, seed=5)
        acc = np.zeros((8, 6))
        reps = 20_000
        for i in range(reps):
            Y, _ = gen_dataset(cfg, i)
            acc += Y
        acc /= reps
        mu1, mu2 = design_means(6, 2)
        expected = np.vstack([np.tile(mu1, (4, 1)), np.tile(mu2, (4, 1))])
        np.testing.assert_allclose(acc, expected, atol=0.025)


class TestRunMonteCarlo:
    def test_noiseless_perfect_recovery(self, noiseless):
        cfg = SimConfig(T=20, p=6, s=2, tau0=0.5, reps=3)
        report = run_monte_carlo(cfg, estimator="pls_ci", c_alpha=11.03)
        assert report.bias == 0.0
        assert report.rmse == 0.0
        assert report.tpr == 1.0
        assert report.coverage == 1.0
        assert report.se_mean == 0.0
        assert report.reps_used == 3

    def test_noiseless_recovery_is_scored_at_the_drawn_split(self, noiseless):
        # T * tau0 = 10.5 but the data change at k0 = 10, where the interval
        # collapses; scored against 10.5 this run read coverage 0 and bias 0.0238
        cfg = SimConfig(T=21, p=6, s=2, tau0=0.5, reps=3)
        report = run_monte_carlo(cfg, estimator="pls_ci", c_alpha=11.03)
        assert report.coverage == 1.0
        assert report.bias == 0.0
        assert report.rmse == 0.0

    def test_metric_algebra_and_record_consistency(self):
        cfg = SimConfig(T=60, p=20, s=3, tau0=0.5, reps=12, seed=3, gamma_off=True)
        report = run_monte_carlo(cfg, estimator="pls_ci", c_alpha=11.03)
        assert report.rmse >= abs(report.bias)
        # coverage is recomputable from the per-replication records
        recs = [r for r in report.per_rep_records if r["covered"] is not None]
        manual = np.mean([r["ci_lo"] <= cfg.k0 <= r["ci_hi"] for r in recs])
        assert report.coverage == pytest.approx(manual)

    def test_default_critical_value_is_exact(self):
        cfg = SimConfig(T=60, p=20, s=3, tau0=0.5, reps=3, seed=3, alpha=0.1, gamma_off=True)
        default = run_monte_carlo(cfg, estimator="pls_ci")
        exact = run_monte_carlo(cfg, estimator="pls_ci", c_alpha=limit_quantile(0.1))
        assert default.per_rep_records == exact.per_rep_records
        assert default.coverage is not None

    def test_no_change_design_reports_tnr(self):
        cfg = SimConfig(T=40, p=10, s=2, tau0=1.0, reps=6, seed=4)
        report = run_monte_carlo(cfg, estimator="al1")
        assert report.tpr is None
        assert report.tnr is not None
        assert report.bias_all is not None

    def test_worker_count_does_not_change_results(self):
        cfg = SimConfig(T=40, p=10, s=2, tau0=0.5, reps=6, seed=8)
        serial = run_monte_carlo(cfg, estimator="pls", n_jobs=1)
        parallel = run_monte_carlo(cfg, estimator="pls", n_jobs=2)
        assert serial.per_rep_records == parallel.per_rep_records
        assert serial.rmse == parallel.rmse

    def test_pool_starts_no_more_workers_than_replications(self, monkeypatch):
        class SerialPool:  # records the requested size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(core, "_cpu_count", lambda: 4)
        cfg = SimConfig(T=40, p=10, s=2, tau0=0.5, reps=3, seed=8)
        pooled = run_monte_carlo(cfg, estimator="pls", n_jobs=64)
        run_monte_carlo(SimConfig(T=40, p=10, s=2, tau0=0.5, reps=5, seed=8), "pls", n_jobs=2)
        # nor more than there are CPUs
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        eight = SimConfig(T=40, p=10, s=2, tau0=0.5, reps=8, seed=8)
        capped = run_monte_carlo(eight, estimator="pls", n_jobs=64)
        assert sizes == [3, 2, 2]
        assert pooled.per_rep_records == run_monte_carlo(cfg, estimator="pls").per_rep_records
        assert capped.per_rep_records == run_monte_carlo(eight, estimator="pls").per_rep_records

    def test_replications_leave_scipy_unloaded(self):
        code = ("import sys; from cpinfer.simbench import SimConfig, run_monte_carlo; "
                "run_monte_carlo(SimConfig(T=20, p=6, s=2, tau0=0.5, reps=2)); "
                "print('scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(simbench.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_unknown_estimator_rejected(self, monkeypatch):
        # before any replication runs
        def replicate(*args, **kwargs):
            raise AssertionError("a replication ran")

        cfg = SimConfig(T=30, p=8, s=2, tau0=0.5, reps=2)
        monkeypatch.setattr(simbench, "_record", replicate)
        with pytest.raises(ValueError, match="unknown estimator 'nope'"):
            run_monte_carlo(cfg, estimator="nope")

    def test_reaggregation_rejects_unknown_estimator(self):
        # "bogus" used to summarize tau_tilde as "pls" does
        cfg = SimConfig(T=30, p=8, s=2, tau0=0.5, reps=2, seed=1)
        records = run_monte_carlo(cfg, estimator="pls").per_rep_records
        with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
            metrics_from_records(cfg, records, "bogus")

    def test_reaggregation_rejects_records_of_another_design(self):
        # records drawn at k0 = 12 used to be scored silently against 0.3
        records = run_monte_carlo(SimConfig(T=30, p=8, s=2, tau0=0.4, reps=2, seed=1),
                                  estimator="pls").per_rep_records
        other = SimConfig(T=30, p=8, s=2, tau0=0.3, reps=2, seed=1)
        with pytest.raises(ValueError, match="records do not come from this design"):
            metrics_from_records(other, records, "pls")

    def test_reaggregation_rejects_no_records(self, recwarn):
        # no records used to warn "Mean of empty slice" and report a NaN tpr
        cfg = SimConfig(T=30, p=8, s=2, tau0=0.4, reps=2, seed=1)
        with pytest.raises(ValueError, match="no records to summarize"):
            metrics_from_records(cfg, [])
        assert not recwarn.list

    def test_reaggregation_for_other_estimator(self):
        cfg = SimConfig(T=60, p=20, s=3, tau0=0.4, reps=8, seed=2)
        pls_report = run_monte_carlo(cfg, estimator="pls")
        al1_report = metrics_from_records(cfg, pls_report.per_rep_records, "al1")
        assert isinstance(al1_report, MetricsReport)
        assert al1_report.reps_used <= cfg.reps
        # AL1 locations come from k_hat, not k_tilde
        rec = pls_report.per_rep_records[0]
        if rec["changed"]:
            assert rec["k_hat"] is not None

    def test_all_replication_metrics_pin_a_miss_at_one(self):
        # k0 / T = 0.5: a change located at 0.7, a missed change pinned at 1,
        # and a degenerate run that kept its location 0.4
        def record(changed, tau_tilde, status):
            return {"k0": 5, "changed": changed, "tau_tilde": tau_tilde, "status": status,
                    "se": None, "covered": None}

        records = [record(True, 0.7, "ok"), record(False, None, "no_change"),
                   record(True, 0.4, "degenerate")]
        report = metrics_from_records(SimConfig(T=10, p=4, s=1, tau0=0.5), records, "pls")
        assert report.rmse_all == pytest.approx(math.sqrt((0.2**2 + 0.5**2 + 0.1**2) / 3))
        assert report.degenerate_count == 1


@pytest.fixture
def ahead(monkeypatch):
    """The look-ahead gate's host conditions forced on, whatever the BLAS
    threading and the affinity mask; the design decides."""
    monkeypatch.setattr(core, "_BLAS_SERIAL", True)
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)


def drawing_threads(monkeypatch, fail_at=None):
    """Wrap the fill step to note the thread of each draw (and raise
    DrawError on replication ``fail_at``); returns the list of names."""
    names = []
    fill = simbench._fill

    def draw(cfg, i, Y):
        names.append(threading.current_thread().name)
        if i == fail_at:
            raise DrawError(i)
        return fill(cfg, i, Y)

    monkeypatch.setattr(simbench, "_fill", draw)
    return names


class DrawError(Exception):
    pass


# one replication of _AHEAD_MIN elements: the smallest design drawn ahead
WIDE = dict(T=64, p=_AHEAD_MIN // 64, s=2, tau0=0.5)


class TestLookAhead:
    @pytest.mark.parametrize("reps", [1, 2, 3, 7])
    @pytest.mark.parametrize("serial_blas", [True, False])
    def test_same_data_in_order(self, monkeypatch, reps, serial_blas):
        monkeypatch.setattr(core, "_BLAS_SERIAL", serial_blas)
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        cfg = SimConfig(**WIDE, reps=reps, seed=11)
        expected = [gen_dataset(cfg, i) for i in range(reps)]
        names = drawing_threads(monkeypatch)
        got = list(_datasets(cfg))
        assert [(Y.tobytes(), k0) for Y, k0 in got] == [(Y.tobytes(), k0) for Y, k0 in expected]
        main = threading.current_thread().name
        assert all(n != main for n in names) == (serial_blas and reps > 1)

    @pytest.mark.parametrize("design, blas, cpus", [
        (dict(WIDE, T=WIDE["T"] - 1), True, 2),  # one element short of the gate
        (WIDE, False, 2),                         # BLAS on more threads
        (WIDE, True, 1),                          # one CPU
    ])
    def test_gate_draws_on_this_thread(self, monkeypatch, design, blas, cpus):
        monkeypatch.setattr(core, "_BLAS_SERIAL", blas)
        monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
        names = drawing_threads(monkeypatch)
        list(_datasets(SimConfig(**design, reps=3)))
        assert names == [threading.current_thread().name] * 3

    def test_arrays_made_on_the_calling_thread(self, monkeypatch, ahead):
        # a helper's allocation stays resident after the caller frees it;
        # nine replications reuse the pool's threads past _AHEAD + 1 arrays
        made = {}  # id of each array -> the thread that made it

        class Numpy:  # numpy, noting the thread of each np.empty
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                a = np.empty(*args, **kwargs)
                made[id(a)] = threading.current_thread().name
                return a

        fills = []
        fill = simbench._fill

        def draw(cfg, i, Y):
            fills.append((made.get(id(Y)), threading.current_thread().name))
            return fill(cfg, i, Y)

        monkeypatch.setattr(simbench, "np", Numpy())
        monkeypatch.setattr(simbench, "_fill", draw)
        list(_datasets(SimConfig(**WIDE, reps=9)))
        main = threading.current_thread().name
        assert len(fills) == 9 and all(maker == main != filler for maker, filler in fills)

    def test_one_thread_run_holds_one_replication(self, monkeypatch):
        # a for loop over the draws kept replication i alive while i + 1 was
        # drawn, and a serial replication at 350x500 took 3-4% longer
        monkeypatch.setattr(core, "_BLAS_SERIAL", False)
        drawn = []

        def draw(cfg, i):
            assert all(ref() is None for ref in drawn), f"replication {i - 1} alive"
            Y, k0 = gen_dataset(cfg, i)
            drawn.append(weakref.ref(Y))
            return Y, k0

        monkeypatch.setattr(simbench, "gen_dataset", draw)
        run_monte_carlo(SimConfig(**WIDE, reps=4), "pls", c_alpha=11.03)
        assert len(drawn) == 4

    @pytest.mark.parametrize("gamma_off", [False, True])
    def test_records_equal_serial_and_process_runs(self, monkeypatch, gamma_off):
        cfg = SimConfig(T=200, p=200, s=5, tau0=0.4, reps=6, seed=21, gamma_off=gamma_off)
        monkeypatch.setattr(core, "_BLAS_SERIAL", False)
        plain = run_monte_carlo(cfg, "pls_ci").per_rep_records
        processes = run_monte_carlo(cfg, "pls_ci", n_jobs=2).per_rep_records
        monkeypatch.setattr(core, "_BLAS_SERIAL", True)
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        names = drawing_threads(monkeypatch)
        ahead = run_monte_carlo(cfg, "pls_ci").per_rep_records
        assert threading.current_thread().name not in names
        assert ahead == plain == processes
        assert [r["rep"] for r in ahead] == list(range(6))

    def test_draw_error_surfaces_with_its_type(self, monkeypatch, ahead):
        threads = threading.active_count()
        drawing_threads(monkeypatch, fail_at=4)
        with pytest.raises(DrawError, match="4") as failure:
            run_monte_carlo(SimConfig(**WIDE, reps=7), "pls", c_alpha=11.03)
        # the traceback, kept, holds the run's frames, yet no helper is left
        assert failure.tb is not None and threading.active_count() == threads

    def test_failed_pipeline_stops_the_threads(self, monkeypatch, ahead):
        threads = threading.active_count()
        calls = []
        real = simbench.full_pipeline

        def pipeline(Y, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("pipeline failed")
            return real(Y, **kwargs)

        monkeypatch.setattr(simbench, "full_pipeline", pipeline)
        with pytest.raises(RuntimeError, match="pipeline failed") as failure:
            run_monte_carlo(SimConfig(**WIDE, reps=9), "pls")
        assert failure.tb is not None and threading.active_count() == threads


class TestLowDimensionalInference:
    def test_mean_standard_error_level(self):
        # T=350, p=50 inference cell: the average sigma^2/xi^2 sits near 0.16
        # and coverage near the nominal level
        cfg = SimConfig(T=350, p=50, s=5, tau0=0.2, reps=100, seed=13, gamma_off=True)
        rep = run_monte_carlo(cfg, estimator="pls_ci", c_alpha=11.03)
        assert 0.10 <= rep.se_mean <= 0.25
        assert 0.88 <= rep.coverage <= 1.0


class TestInitializerSweep:
    def test_noiseless_constant_row(self, noiseless):
        cfg = SimConfig(T=24, p=8, s=2, tau0=0.5)
        rows = initializer_sweep(cfg, [0.2, 0.35, 0.5, 0.65, 0.8])
        ks = {r["k_hat"] for r in rows}
        assert ks == {12}
        assert all(r["changed"] for r in rows)
