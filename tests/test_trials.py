import math

import numpy as np
import pytest

from pamsim.scenario import (
    ProbabilityTable,
    det_witness_settings,
    dimension_witness_settings,
    probability_table,
)
from pamsim.trials import (
    RANDOM_PER_TRIAL,
    CountTable,
    InsufficientStatisticsError,
    RunPlan,
    bootstrap_report,
    estimate,
    sample,
)


def single_cell_table(p_e, p_d):
    return ProbabilityTable(np.array([[p_e]]), np.array([[p_d]]))


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
        assert r1.to_json() == r2.to_json()

    def test_reports_sigma_violations(self):
        s = det_witness_settings(visibility=0.9, efficiency=0.5, fair_sampling=False)
        counts = sample(probability_table(s), RunPlan(200_000, seed=11))
        report = bootstrap_report(counts, resamples=1000, seed=11, fair_sampling=False)
        # eta^2 V^2 = 0.2025; far above 0 in units of its error
        assert report.det_abs == pytest.approx(0.2025, abs=0.01)
        assert report.sigma_det > 10
        assert report.r == max((report.i_dw - 3.0) / 4.0, 0.0)

    def test_resample_floor(self):
        counts = CountTable(
            np.full((3, 2), 50), np.full((3, 2), 50), np.zeros((3, 2), dtype=int)
        )
        with pytest.raises(ValueError):
            bootstrap_report(counts, resamples=50, seed=0, fair_sampling=True)


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
        with pytest.raises(ValueError, match=r"\(-1, 0\) on line 2"):
            CountTable.from_csv(path)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountTable(np.array([[-1]]), np.array([[1]]), np.array([[0]]))
