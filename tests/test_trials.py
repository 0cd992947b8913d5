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

import pamsim
from pamsim import trials
from pamsim.scenario import (
    ProbabilityTable,
    det_witness_settings,
    dimension_witness_settings,
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
from pamsim.witness import (
    DET_CLASSICAL_BOUND,
    I_DW_CLASSICAL_BOUND,
    WitnessReport,
    det_witness,
    dimension_witness,
    report_from_table,
)


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
        table = probability_table(det_witness_settings(visibility=0.9))
        plan = RunPlan(5000, seed=77)
        c1, c2 = sample(table, plan), sample(table, plan)
        np.testing.assert_array_equal(c1.n_e, c2.n_e)
        np.testing.assert_array_equal(c1.n_d, c2.n_d)
        c3 = sample(table, RunPlan(5000, seed=78))
        assert not np.array_equal(c1.n_e, c3.n_e)

    def test_random_per_trial_order(self):
        table = probability_table(det_witness_settings())
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
            det_witness_settings(visibility=0.9, efficiency=0.8, fair_sampling=False)
        )
        counts = sample(table, RunPlan(1_000_000, seed=6))
        est = estimate(counts, fair_sampling=False)
        assert np.abs(est.p_e - table.p_e).max() < 5e-3
        assert np.abs(est.p_d - table.p_d).max() < 5e-3
        assert np.abs(est.p_none - table.p_none).max() < 5e-3


class TestBootstrap:
    def test_ideal_run_recovers_unit_det(self):
        table = probability_table(det_witness_settings())
        counts = sample(table, RunPlan(100_000, seed=8))
        report = bootstrap_report(counts, resamples=2000, seed=8, fair_sampling=True)
        assert report.uncertainties["det_abs"] < 0.01
        assert abs(report.det_abs - 1.0) <= 3 * max(report.uncertainties["det_abs"], 1e-12)

    def test_sigma_shrinks_with_n(self):
        table = probability_table(dimension_witness_settings())
        sigmas = {}
        for n in (10_000, 40_000):
            counts = sample(table, RunPlan(n, seed=9))
            report = bootstrap_report(counts, resamples=4000, seed=9, fair_sampling=True)
            sigmas[n] = report.uncertainties["i_dw"]
        ratio = sigmas[10_000] / sigmas[40_000]
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_deterministic(self):
        table = probability_table(dimension_witness_settings(visibility=0.9))
        counts = sample(table, RunPlan(2000, seed=10))
        r1 = bootstrap_report(counts, resamples=500, seed=10, fair_sampling=True)
        r2 = bootstrap_report(counts, resamples=500, seed=10, fair_sampling=True)
        assert r1 == r2
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_reports_sigma_violations(self):
        s = det_witness_settings(visibility=0.9, efficiency=0.5, fair_sampling=False)
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


def sequential_bootstrap_report(c, resamples, seed, fair_sampling):
    """Reference: every cell drawn in row-major order into (B, n_prep, n_meas) arrays."""
    observed = estimate(c, fair_sampling)
    point_det = det_witness(observed) if observed.n_prep >= 4 else None
    point_idw = dimension_witness(observed)
    trials_ = c.n_trials
    root = np.random.SeedSequence(seed, spawn_key=(1,))
    streams = root.spawn(c.n_prep * c.n_meas)
    shape = (resamples, c.n_prep, c.n_meas)
    n_e, n_d, n_none = np.empty(shape), np.empty(shape), np.empty(shape)
    for i in range(c.n_prep):
        for j in range(c.n_meas):
            rng = np.random.default_rng(streams[i * c.n_meas + j])
            freqs = np.array([c.n_e[i, j], c.n_d[i, j], c.n_none[i, j]], dtype=float)
            draws = rng.multinomial(int(trials_[i, j]), freqs / freqs.sum(), size=resamples)
            n_e[:, i, j], n_d[:, i, j], n_none[:, i, j] = draws[:, 0], draws[:, 1], draws[:, 2]
    if fair_sampling:
        denom = n_e + n_d
        if denom.min() <= 0:
            raise InsufficientStatisticsError("a bootstrap resample emptied a postselected cell")
    else:
        denom = n_e + n_d + n_none
    p_e, p_d = n_e / denom, n_d / denom
    dv = p_e - p_d
    idw = dv[:, 0, 0] + dv[:, 0, 1] + dv[:, 1, 0] - dv[:, 1, 1] - dv[:, 2, 0]
    r = np.maximum((idw - I_DW_CLASSICAL_BOUND) / 4.0, 0.0)
    unc = {"i_dw": float(np.std(idw, ddof=1)), "r": float(np.std(r, ddof=1))}
    sigma_idw = sigma_det = None
    if unc["i_dw"] > 0.0:
        sigma_idw = max((point_idw - I_DW_CLASSICAL_BOUND) / unc["i_dw"], 0.0)
    if point_det is not None:
        w00 = p_d[:, 0, 0] - p_d[:, 1, 0]
        w01 = p_d[:, 0, 1] - p_d[:, 1, 1]
        w10 = p_d[:, 2, 0] - p_d[:, 3, 0]
        w11 = p_d[:, 2, 1] - p_d[:, 3, 1]
        unc["det_abs"] = float(np.std(np.abs(w00 * w11 - w01 * w10), ddof=1))
        if unc["det_abs"] > 0.0:
            sigma_det = max((point_det - DET_CLASSICAL_BOUND) / unc["det_abs"], 0.0)
    return WitnessReport(
        i_dw=point_idw,
        det_abs=point_det,
        sigma_det=sigma_det,
        sigma_idw=sigma_idw,
        uncertainties=unc,
    )


def workers(monkeypatch, n):
    monkeypatch.setattr(trials, "_usable_cpus", lambda: n)


def counts_for(settings_fn, fair, seed, trials_per_setting=5000):
    s = settings_fn(visibility=0.9, efficiency=0.4, fair_sampling=fair)
    return sample(probability_table(s), RunPlan(trials_per_setting, seed=seed))


class TestConcurrentBootstrap:
    @pytest.mark.parametrize("settings_fn", [dimension_witness_settings, det_witness_settings])
    @pytest.mark.parametrize("fair", [True, False])
    @pytest.mark.parametrize("resamples", [101, 333])
    def test_matches_sequential_oracle(self, settings_fn, fair, resamples):
        counts = counts_for(settings_fn, fair, seed=resamples)
        expected = sequential_bootstrap_report(counts, resamples, 17, fair).to_json_dict()
        assert bootstrap_report(counts, resamples, 17, fair).to_json_dict() == expected

    @pytest.mark.parametrize("settings_fn", [dimension_witness_settings, det_witness_settings])
    @pytest.mark.parametrize("fair", [True, False])
    def test_independent_of_worker_count(self, monkeypatch, settings_fn, fair):
        counts = counts_for(settings_fn, fair, seed=3)
        n_cells = counts.n_prep * counts.n_meas
        reports = []
        for n in (1, n_cells):
            workers(monkeypatch, n)
            reports.append(bootstrap_report(counts, 257, 5, fair).to_json_dict())
        assert reports[0] == reports[1]
        assert reports[0] == sequential_bootstrap_report(counts, 257, 5, fair).to_json_dict()

    def test_extra_cells_keep_their_streams(self):
        # a 5 x 3 table: cells outside the witnesses still take their stream slots
        rng = np.random.default_rng(0)
        n_e, n_d, n_none = rng.integers(50, 500, size=(3, 5, 3))
        counts = CountTable(n_e, n_d, n_none)
        for fair in (True, False):
            expected = sequential_bootstrap_report(counts, 199, 9, fair).to_json_dict()
            assert bootstrap_report(counts, 199, 9, fair).to_json_dict() == expected

    @pytest.mark.parametrize("n_workers", [1, 6])
    def test_emptied_postselected_cell_raises(self, monkeypatch, n_workers):
        # cell (2, 1) has one detection in 10001 trials: some resample empties it
        workers(monkeypatch, n_workers)
        n_e, n_d = np.full((3, 2), 500), np.full((3, 2), 500)
        n_none = np.zeros((3, 2), dtype=int)
        n_e[2, 1], n_d[2, 1], n_none[2, 1] = 1, 0, 10_000
        counts = CountTable(n_e, n_d, n_none)
        with pytest.raises(InsufficientStatisticsError):
            sequential_bootstrap_report(counts, 100, 0, True)
        with pytest.raises(
            InsufficientStatisticsError, match=r"emptied a postselected cell \(i=2, j=1\)"
        ):
            bootstrap_report(counts, 100, 0, True)
        bootstrap_report(counts, 100, 0, False)  # no postselection, nothing to empty

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
        # a postselected cell such as (1, 1, 300) can be emptied by a resample:
        # then the same seed must give the same error
        n_e, n_d, n_none = (np.array(col[: n_prep * 2]).reshape(n_prep, 2) for col in zip(*cells))
        counts = CountTable(n_e, n_d, n_none)

        def outcome():
            try:
                report = bootstrap_report(counts, 100, seed, fair)
            except InsufficientStatisticsError as exc:
                return "error", str(exc)
            return report, report.to_json_dict()

        assert outcome() == outcome()


def random_counts(n_prep, n_meas, seed=0):
    n_e, n_d, n_none = np.random.default_rng(seed).integers(50, 500, size=(3, n_prep, n_meas))
    return CountTable(n_e, n_d, n_none)


def postselection_risk(risky, shape=(3, 2)):
    """Cells with 500 detections each, except the `risky` ones ({(i, j): detections})
    that sit among 3000 undetected trials and so empty in some resamples."""
    n_e, n_d, n_none = np.full(shape, 250), np.full(shape, 250), np.zeros(shape, dtype=int)
    for cell, detected in risky.items():
        n_e[cell], n_d[cell], n_none[cell] = detected, 0, 3000
    return CountTable(n_e, n_d, n_none)


def first_emptied(c, cell, resamples, seed):
    """Index of the first resample that empties `cell`'s detections, or None."""
    streams = np.random.SeedSequence(seed, spawn_key=(1,)).spawn(c.n_prep * c.n_meas)
    counts = np.array([c.n_e[cell], c.n_d[cell], c.n_none[cell]])
    rng = np.random.default_rng(streams[cell[0] * c.n_meas + cell[1]])
    draws = rng.multinomial(counts.sum(), counts / counts.sum(), size=resamples)
    empty = np.flatnonzero(draws[:, 0] + draws[:, 1] == 0)
    return int(empty[0]) if len(empty) else None


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


class TestStreamedBootstrap:
    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3)])
    @pytest.mark.parametrize("fair", [True, False])
    def test_independent_of_chunk_size_and_workers(self, monkeypatch, shape, fair):
        counts = random_counts(*shape, seed=shape[0])
        resamples = 203
        expected = json.dumps(sequential_bootstrap_report(counts, resamples, 4, fair).to_json_dict())
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for chunk in (1, 7, 100, resamples, 10**6):
                monkeypatch.setattr(trials, "_CHUNK", chunk)
                for n in (1, 2, counts.n_prep * counts.n_meas):
                    workers(monkeypatch, n)
                    got = json.dumps(bootstrap_report(counts, resamples, 4, fair).to_json_dict())
                    assert got == expected, (chunk, n)
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("n_workers", [1, 2, 6])
    def test_first_emptied_cell_in_cell_order_wins(self, monkeypatch, n_workers):
        # (0, 0) empties in a later chunk than (2, 1): the error still names (0, 0)
        workers(monkeypatch, n_workers)
        counts = postselection_risk({(0, 0): 7, (2, 1): 5})
        for seed in range(100):
            early = first_emptied(counts, (0, 0), 20_000, seed)
            late = first_emptied(counts, (2, 1), 20_000, seed)
            if None not in (early, late) and early > late >= MIN_RESAMPLES:
                break
        else:
            pytest.fail("no seed below 100 empties (0, 0) in a later resample than (2, 1)")
        monkeypatch.setattr(trials, "_CHUNK", late + 1)
        with pytest.raises(InsufficientStatisticsError, match=r"cell \(i=0, j=0\)"):
            bootstrap_report(counts, early + 1, seed, True)
        with pytest.raises(InsufficientStatisticsError, match=r"cell \(i=2, j=1\)"):
            bootstrap_report(counts, late + 1, seed, True)  # (0, 0) not yet emptied

    def test_worker_error_propagates_and_threads_end(self, monkeypatch):
        monkeypatch.setattr(trials, "_CHUNK", 50)
        workers(monkeypatch, 2)
        real, calls = trials._resample_cell, {}

        def third_chunk_fails(cell, *args):
            calls[cell] = calls.get(cell, 0) + 1
            if cell == (1, 0) and calls[cell] == 3:
                raise RuntimeError("third chunk of cell (1, 0)")
            return real(cell, *args)

        monkeypatch.setattr(trials, "_resample_cell", third_chunk_fails)
        baseline = threading.active_count()
        error = outcome_in_time(lambda: bootstrap_report(random_counts(3, 2), 1000, 0, True))
        assert isinstance(error, RuntimeError) and "third chunk" in str(error)
        assert threading.active_count() == baseline

    def test_combining_error_stops_the_workers(self, monkeypatch):
        # the workers run ahead; when the combining thread fails they must not
        # stay blocked on their full queues
        monkeypatch.setattr(trials, "_CHUNK", 10)
        workers(monkeypatch, 2)
        real, calls = trials.idw_sum, []

        def second_chunk_fails(d):
            calls.append(1)
            if len(calls) == 2:
                time.sleep(0.5)  # ample time for the workers to fill their queues
                raise RuntimeError("combining failed")
            return real(d)

        monkeypatch.setattr(trials, "idw_sum", second_chunk_fails)
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
    # the bootstrap runs its own threads, so no executor module is loaded
    code = "import sys, pamsim; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(pamsim.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


class TestCountTableCsv:
    def test_round_trip(self, tmp_path):
        table = probability_table(det_witness_settings(efficiency=0.5, fair_sampling=False))
        counts = sample(table, RunPlan(1000, seed=12))
        path = tmp_path / "counts.csv"
        counts.to_csv(path)
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
