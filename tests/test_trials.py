import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from bundled import DET, IDW, bundled_scenario
from oracles import det_bootstrap_error, sequential_bootstrap_report

import pamsim
from pamsim import trials
from pamsim.scenario import (
    ProbabilityTable,
    probability_table,
)
from pamsim.trials import (
    MIN_RESAMPLES,
    RANDOM_PER_TRIAL,
    CountTable,
    InsufficientStatisticsError,
    RunPlan,
    bootstrap_report,
    estimate,
    sample,
)
from pamsim.witness import I_DW_CLASSICAL_BOUND, det_witness, report_from_table


def single_cell_table(p_e, p_d):
    return ProbabilityTable(np.array([[p_e]]), np.array([[p_d]]), np.array([[1.0 - p_e - p_d]]))


class TestSample:
    def test_degenerate_cell(self):
        counts = sample(single_cell_table(1.0, 0.0), RunPlan(1000, seed=1))
        assert counts.n_e[0, 0] == 1000
        assert counts.n_d[0, 0] == 0

    def test_balanced_cell_large_n(self):
        # binomial sd at N=1e6 is 5e-4, so 2e-3 is a 4-sigma allowance
        counts = sample(single_cell_table(0.5, 0.5), RunPlan(1_000_000, seed=2))
        assert abs(counts.n_e[0, 0] / 1_000_000 - 0.5) < 0.002

    def test_deterministic_for_fixed_seed(self):
        table = probability_table(bundled_scenario(DET, visibility=0.9))
        plan = RunPlan(5000, seed=77)
        c1, c2 = sample(table, plan), sample(table, plan)
        np.testing.assert_array_equal(c1.n_e, c2.n_e)
        np.testing.assert_array_equal(c1.n_d, c2.n_d)
        c3 = sample(table, RunPlan(5000, seed=78))
        assert not np.array_equal(c1.n_e, c3.n_e)

    def test_random_per_trial_order(self):
        table = probability_table(bundled_scenario(DET))
        plan = RunPlan(1000, seed=4, setting_order=RANDOM_PER_TRIAL)
        counts = sample(table, plan)
        assert counts.n_trials.sum() == 1000 * 8
        # cells receive uneven but close-to-uniform shares
        assert counts.n_trials.std() > 0
        again = sample(table, plan)
        np.testing.assert_array_equal(counts.n_e, again.n_e)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            RunPlan(0)
        with pytest.raises(ValueError):
            RunPlan(10, setting_order="sorted")


class TestEstimate:
    def test_fair_sampling_plain(self):
        counts = CountTable(np.array([[800]]), np.array([[200]]), np.array([[0]]))
        table = estimate(counts, fair_sampling=True)
        assert table.p_e[0, 0] == 0.8
        assert table.p_d[0, 0] == 0.2
        assert table.p_none[0, 0] == 0.0

    def test_no_postselection_keeps_no_clicks(self):
        counts = CountTable(np.array([[80]]), np.array([[20]]), np.array([[900]]))
        table = estimate(counts, fair_sampling=False)
        assert table.p_e[0, 0] == pytest.approx(0.08)
        assert table.p_d[0, 0] == pytest.approx(0.02)
        assert table.p_none[0, 0] == pytest.approx(0.90)

    def test_postselection_renormalizes(self):
        counts = CountTable(np.array([[80]]), np.array([[20]]), np.array([[900]]))
        table = estimate(counts, fair_sampling=True)
        assert table.p_e[0, 0] == 0.8
        assert table.p_d[0, 0] == 0.2

    def test_empty_postselected_cell(self):
        counts = CountTable(np.array([[0]]), np.array([[0]]), np.array([[100]]))
        with pytest.raises(InsufficientStatisticsError):
            estimate(counts, fair_sampling=True)

    def test_consistency_at_large_n(self):
        table = probability_table(
            bundled_scenario(DET, visibility=0.9, efficiency=0.8, fair_sampling=False)
        )
        counts = sample(table, RunPlan(1_000_000, seed=6))
        est = estimate(counts, fair_sampling=False)
        assert np.abs(est.p_e - table.p_e).max() < 5e-3
        assert np.abs(est.p_d - table.p_d).max() < 5e-3
        assert np.abs(est.p_none - table.p_none).max() < 5e-3


class TestBootstrap:
    def test_ideal_run_recovers_unit_det(self):
        table = probability_table(bundled_scenario(DET))
        counts = sample(table, RunPlan(100_000, seed=8))
        report = bootstrap_report(counts, resamples=2000, seed=8, fair_sampling=True)
        assert report.uncertainties["det_abs"] < 0.01
        assert abs(report.det_abs - 1.0) <= 3 * max(report.uncertainties["det_abs"], 1e-12)

    def test_sigma_shrinks_with_n(self):
        table = probability_table(bundled_scenario(IDW))
        sigmas = {}
        for n in (10_000, 40_000):
            counts = sample(table, RunPlan(n, seed=9))
            report = bootstrap_report(counts, resamples=4000, seed=9, fair_sampling=True)
            sigmas[n] = report.uncertainties["i_dw"]
        ratio = sigmas[10_000] / sigmas[40_000]
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_deterministic(self):
        table = probability_table(bundled_scenario(IDW, visibility=0.9))
        counts = sample(table, RunPlan(2000, seed=10))
        r1 = bootstrap_report(counts, resamples=500, seed=10, fair_sampling=True)
        r2 = bootstrap_report(counts, resamples=500, seed=10, fair_sampling=True)
        assert r1 == r2
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_reports_sigma_violations(self):
        s = bundled_scenario(DET, visibility=0.9, efficiency=0.5, fair_sampling=False)
        counts = sample(probability_table(s), RunPlan(200_000, seed=11))
        report = bootstrap_report(counts, resamples=1000, seed=11, fair_sampling=False)
        # eta^2 V^2 = 0.2025; far above 0 in units of its error
        assert report.det_abs == pytest.approx(0.2025, abs=0.01)
        assert report.sigma_det > 10
        assert report.r == max((report.i_dw - 3.0) / 4.0, 0.0)

    @pytest.mark.parametrize("n_prep", [3, 4])
    @pytest.mark.parametrize("fair", [True, False])
    def test_point_values_are_the_table_report(self, n_prep, fair):
        counts = random_counts(n_prep, 2, seed=n_prep)
        table_report = report_from_table(estimate(counts, fair))
        report = bootstrap_report(counts, 100, 0, fair)
        assert report.i_dw == table_report.i_dw
        assert report.det_abs == table_report.det_abs
        # det W and its resamples only where W's four preparations exist
        assert (report.det_abs is None) == (n_prep == 3)
        assert ("det_abs" in report.uncertainties) == (n_prep == 4)

    def test_resample_floor(self):
        counts = CountTable(
            np.full((3, 2), 50), np.full((3, 2), 50), np.zeros((3, 2), dtype=int)
        )
        with pytest.raises(ValueError):
            bootstrap_report(counts, resamples=50, seed=0, fair_sampling=True)


def workers(monkeypatch, n):
    monkeypatch.setattr(trials, "_usable_cpus", lambda: n)


def random_counts(n_prep, n_meas, seed=0):
    n_e, n_d, n_none = np.random.default_rng(seed).integers(50, 500, size=(3, n_prep, n_meas))
    return CountTable(n_e, n_d, n_none)


ORACLE_RESAMPLES = 20_000
# relative Monte Carlo error of a bootstrap standard deviation is about 1/sqrt(2B)
ORACLE_TOLERANCE = 5 / np.sqrt(2 * ORACLE_RESAMPLES)
CLIP = "dimension_witness_at_the_clip"  # I_DW within a standard error of 3


def oracle_counts(config, fair):
    if config == CLIP:
        s = bundled_scenario(IDW, visibility=0.7835, efficiency=0.6, fair_sampling=fair)
    else:
        s = bundled_scenario(config, fair_sampling=fair)
    return sample(probability_table(s), RunPlan(100_000, seed=1))


class TestClosedFormErrors:
    @pytest.mark.parametrize(
        "config, fair",
        [(c, f) for c in (DET, IDW, "fitted_no_fsa") for f in (True, False)] + [(CLIP, True)],
    )
    def test_matches_multinomial_bootstrap(self, config, fair):
        counts = oracle_counts(config, fair)
        report = bootstrap_report(counts, ORACLE_RESAMPLES, 3, fair)
        oracle = sequential_bootstrap_report(counts, ORACLE_RESAMPLES, 3, fair)
        # det_abs too: the det-only bootstrap draws other streams, to the same spread
        for name, error in oracle.uncertainties.items():
            assert report.uncertainties[name] == pytest.approx(error, rel=ORACLE_TOLERANCE), name
        if config == CLIP:
            assert abs(report.i_dw - I_DW_CLASSICAL_BOUND) < report.uncertainties["i_dw"]
            assert 0.0 < report.uncertainties["r"] < report.uncertainties["i_dw"] / 4

    @pytest.mark.parametrize("fair", [True, False])
    def test_without_w_nothing_is_drawn(self, monkeypatch, fair):
        # the I_DW and R errors read the counts only: seed and resample count are unused
        def no_draw(*args):
            raise AssertionError("a table without W drew resamples")

        monkeypatch.setattr(trials, "_resample_cell", no_draw)
        counts = random_counts(3, 2)
        reports = {
            json.dumps(bootstrap_report(counts, b, seed, fair).to_json_dict())
            for b, seed in ((MIN_RESAMPLES, 0), (10**6, 7))
        }
        assert len(reports) == 1

    @pytest.mark.parametrize("fair", [True, False])
    def test_idw_and_r_errors_ignore_the_seed(self, fair):
        counts = random_counts(4, 2)
        first, second = (bootstrap_report(counts, 200, seed, fair) for seed in (0, 1))
        assert first.uncertainties["det_abs"] != second.uncertainties["det_abs"]
        for name in ("i_dw", "r"):
            assert first.uncertainties[name] == second.uncertainties[name]

    def test_deterministic_cells_have_no_error(self):
        # every cell all e or all d: D is +-1 in every resample
        counts = CountTable(
            np.array([[10, 0], [10, 0], [0, 10]]), np.array([[0, 10], [0, 10], [10, 0]]),
            np.zeros((3, 2), dtype=int),
        )
        report = bootstrap_report(counts, MIN_RESAMPLES, 0, True)
        assert report.uncertainties == {"i_dw": 0.0, "r": 0.0}
        assert report.sigma_idw is None


def postselection_risk(risky, shape=(4, 2)):
    """Cells with 500 detections each, except the `risky` ones ({(i, j): detections})
    that sit among 10000 undetected trials, so that a multinomial resample of all
    of a cell's trials empties them in some resamples."""
    n_e, n_d, n_none = np.full(shape, 250), np.full(shape, 250), np.zeros(shape, dtype=int)
    for cell, detected in risky.items():
        n_e[cell], n_d[cell], n_none[cell] = detected, 0, 10_000
    return CountTable(n_e, n_d, n_none)


def outcome_in_time(fn, seconds=60):
    """fn()'s result or error, run on a daemon thread. Threads it starts are
    daemons too, so a hang fails the test instead of blocking the run."""
    outcome = []

    def run():
        try:
            outcome.append(fn())
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"no outcome within {seconds} s"
    return outcome[0]


class TestDetBootstrap:
    @pytest.mark.parametrize("shape", [(4, 2), (5, 3)])
    @pytest.mark.parametrize("fair", [True, False])
    def test_independent_of_chunk_size_and_workers(self, monkeypatch, shape, fair):
        # a 5 x 3 table: cells outside W keep their stream slots and draw nothing
        counts = random_counts(*shape, seed=shape[0])
        resamples = 20_000
        expected = det_bootstrap_error(counts, resamples, 4, fair)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for chunk in (1000, 8192, 10**6):
                monkeypatch.setattr(trials, "_CHUNK", chunk)
                for n in (1, 2, counts.n_prep * counts.n_meas):
                    workers(monkeypatch, n)
                    got = bootstrap_report(counts, resamples, 4, fair).uncertainties["det_abs"]
                    assert got == expected, (chunk, n)
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("fair", [True, False])
    @pytest.mark.parametrize("resamples", [101, 333])
    def test_matches_sequential_reference(self, fair, resamples):
        s = bundled_scenario(DET, visibility=0.9, efficiency=0.4, fair_sampling=fair)
        counts = sample(probability_table(s), RunPlan(5000, seed=resamples))
        report = bootstrap_report(counts, resamples, 17, fair)
        assert report.uncertainties["det_abs"] == det_bootstrap_error(counts, resamples, 17, fair)
        assert report.det_abs == det_witness(estimate(counts, fair))

    @pytest.mark.parametrize("n_workers", [1, 6])
    def test_sparse_postselected_cell_has_a_finite_error(self, monkeypatch, n_workers):
        # cell (2, 1) of W has one detection in 10001 trials; the full multinomial
        # bootstrap empties it, but the fair-sampling draw holds its one detection
        workers(monkeypatch, n_workers)
        counts = postselection_risk({(2, 1): 1})
        with pytest.raises(InsufficientStatisticsError):
            sequential_bootstrap_report(counts, 100, 0, True)
        error = bootstrap_report(counts, 100, 0, True).uncertainties["det_abs"]
        assert np.isfinite(error) and error > 0.0
        assert error == det_bootstrap_error(counts, 100, 0, True)

    def test_cell_outside_w_cannot_empty(self):
        # the full bootstrap empties cell (2, 1) of a 3 x 2 table, which no error reads
        counts = postselection_risk({(2, 1): 1}, shape=(3, 2))
        with pytest.raises(InsufficientStatisticsError):
            sequential_bootstrap_report(counts, 100, 0, True)
        report = bootstrap_report(counts, 100, 0, True)
        assert all(np.isfinite(error) for error in report.uncertainties.values())
        assert report.uncertainties["i_dw"] > 0.0

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(trials.os, "sched_getaffinity", raising=False)
        assert trials._usable_cpus() == (trials.os.cpu_count() or 1)

    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(1, 300), st.integers(1, 300), st.integers(0, 300)),
            min_size=8,
            max_size=8,
        ),
        n_prep=st.sampled_from([3, 4]),
        seed=st.integers(0, 2**32 - 1),
        fair=st.booleans(),
    )
    @example(cells=[(1, 1, 300)] * 8, n_prep=4, seed=0, fair=True)
    def test_same_seed_same_report(self, cells, n_prep, seed, fair):
        # (1, 1, 300) is a postselected cell that a multinomial resample could empty
        n_e, n_d, n_none = (np.array(col[: n_prep * 2]).reshape(n_prep, 2) for col in zip(*cells))
        counts = CountTable(n_e, n_d, n_none)
        first, second = (bootstrap_report(counts, 100, seed, fair) for _ in range(2))
        assert first == second
        assert first.to_json_dict() == second.to_json_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(4, 2), (5, 3)]),
        data=st.data(),
        resamples=st.integers(MIN_RESAMPLES, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fair_sampling_is_moot_without_undetected_trials(self, shape, data, resamples, seed):
        # with n_none = 0 the detected trials are all trials: both models are one model
        cells = data.draw(
            st.lists(
                st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)).filter(any),
                min_size=shape[0] * shape[1],
                max_size=shape[0] * shape[1],
            )
        )
        n_e, n_d = (np.reshape(col, shape) for col in zip(*cells))
        counts = CountTable(n_e, n_d, np.zeros(shape, dtype=int))
        fair, plain = (bootstrap_report(counts, resamples, seed, f) for f in (True, False))
        assert fair.to_json_dict() == plain.to_json_dict()

    @staticmethod
    def third_chunk_fails(monkeypatch, raised):
        """bootstrap_report's error when the third chunk of cell (1, 0) raises
        `raised`, drawn by 2 workers, once all threads it started have ended."""
        monkeypatch.setattr(trials, "_CHUNK", 50)
        workers(monkeypatch, 2)
        counts = random_counts(4, 2)
        failing = int(counts.n_d[1, 0])  # the n_d of cell (1, 0) only
        assert np.count_nonzero(counts.n_d == failing) == 1
        real, calls = trials._resample_cell, []

        def resample_cell(rng, n, n_d, size):
            if n_d == failing:
                calls.append(size)
                if len(calls) == 3:
                    raise raised("third chunk of cell (1, 0)")
            return real(rng, n, n_d, size)

        monkeypatch.setattr(trials, "_resample_cell", resample_cell)
        baseline = threading.active_count()
        error = outcome_in_time(lambda: bootstrap_report(counts, 1000, 0, True))
        assert threading.active_count() == baseline
        return error

    def test_worker_error_propagates_and_threads_end(self, monkeypatch):
        error = self.third_chunk_fails(monkeypatch, RuntimeError)
        assert isinstance(error, RuntimeError) and "third chunk" in str(error)

    def test_worker_memory_error_is_a_domain_error(self, monkeypatch):
        error = self.third_chunk_fails(monkeypatch, MemoryError)
        assert isinstance(error, ValueError) and "resamples 1000 is too large" in str(error)

    def test_combining_error_stops_the_workers(self, monkeypatch):
        # the workers run ahead; when the combining thread fails they must not
        # stay blocked on their full queues
        monkeypatch.setattr(trials, "_CHUNK", 10)
        workers(monkeypatch, 2)
        real, calls = trials.abs_det, []

        def second_chunk_fails(w):
            calls.append(1)
            if len(calls) == 2:
                time.sleep(0.5)  # ample time for the workers to fill their queues
                raise RuntimeError("combining failed")
            return real(w)

        monkeypatch.setattr(trials, "abs_det", second_chunk_fails)
        baseline = threading.active_count()
        error = outcome_in_time(lambda: bootstrap_report(random_counts(4, 2), 10_000, 0, False))
        assert isinstance(error, RuntimeError) and "combining failed" in str(error)
        assert threading.active_count() == baseline

    def test_memory_grows_with_resamples_only(self):
        # drawing each cell's resamples at once kept every cell's (resamples, 3)
        # int64 draw and two float64 vectors: about 184 B per resample at 4 x 2
        counts = random_counts(4, 2)
        resamples = 400_000
        bootstrap_report(counts, MIN_RESAMPLES, 0, True)  # first-call allocations
        tracemalloc.start()
        try:
            bootstrap_report(counts, resamples, 0, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / resamples <= 64


def test_import_does_not_load_thread_pool():
    # the bootstrap imports its executor module lazily, when it first draws; a
    # three-preparation table has no W, so its bootstrap draws nothing
    loaded = "print('concurrent.futures' in sys.modules)"
    code = (
        f"import sys, pamsim; {loaded}; import numpy as np; from pamsim import trials; "
        f"trials.bootstrap_report(trials.CountTable(*np.full((3, 3, 2), 50)), 100, 0, True); "
        f"{loaded}"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pamsim.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["False", "False"]


class TestCountTableCsv:
    def test_round_trip(self, tmp_path):
        table = probability_table(bundled_scenario(DET, efficiency=0.5, fair_sampling=False))
        counts = sample(table, RunPlan(1000, seed=12))
        path = tmp_path / "counts.csv"
        path.write_text(counts.to_csv(), encoding="utf-8")
        again = CountTable.from_csv(path)
        np.testing.assert_array_equal(counts.n_e, again.n_e)
        np.testing.assert_array_equal(counts.n_d, again.n_d)
        np.testing.assert_array_equal(counts.n_none, again.n_none)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,n_e\n0,0,5\n")
        with pytest.raises(ValueError):
            CountTable.from_csv(path)

    def test_incomplete_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,n_e,n_d,n_none\n0,0,5,5,0\n1,1,5,5,0\n")
        with pytest.raises(ValueError):
            CountTable.from_csv(path)

    def test_negative_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,n_e,n_d,n_none\n-1,0,5,5,0\n1,0,5,5,0\n")
        with pytest.raises(ValueError, match="got '-1' on line 2 of counts CSV"):
            CountTable.from_csv(path)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountTable(np.array([[-1]]), np.array([[1]]), np.array([[0]]))
