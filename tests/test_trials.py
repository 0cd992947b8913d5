import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from bundled import DET, IDW, bundled_scenario
from oracles import det_bootstrap_error, sequential_bootstrap_report

from pamsim.scenario import (
    ProbabilityTable,
    probability_table,
)
from pamsim.trials import (
    INT64_MAX,
    MIN_RESAMPLES,
    RANDOM_PER_TRIAL,
    CountTable,
    InsufficientStatisticsError,
    RunPlan,
    bootstrap_report,
    estimate,
    sample,
)
from pamsim.witness import I_DW_CLASSICAL_BOUND, report_from_table


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
        # det_abs too: away from the null the exact sd(det) is the bootstrap's sd(|det|)
        for name, error in oracle.uncertainties.items():
            assert report.uncertainties[name] == pytest.approx(error, rel=ORACLE_TOLERANCE), name
        if config == CLIP:
            assert abs(report.i_dw - I_DW_CLASSICAL_BOUND) < report.uncertainties["i_dw"]
            assert 0.0 < report.uncertainties["r"] < report.uncertainties["i_dw"] / 4

    @pytest.mark.parametrize("n_prep", [3, 4])
    @pytest.mark.parametrize("fair", [True, False])
    def test_nothing_is_drawn(self, forbid_generators, n_prep, fair):
        # the errors read the counts only: seed and resample count are unused
        counts = random_counts(n_prep, 2)
        forbid_generators()
        reports = {
            json.dumps(bootstrap_report(counts, b, seed, fair).to_json_dict())
            for b, seed in ((MIN_RESAMPLES, 0), (10**6, 7))
        }
        assert len(reports) == 1

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


def w_counts(config):
    """Counts of `config` as a run records them, undetected trials included, with a
    fourth preparation at alpha = 0 added to the three-preparation config so that it has W."""
    s = bundled_scenario(config, fair_sampling=False)
    if config == IDW:
        s = replace(s, alphas=(*s.alphas, 0.0))
    return sample(probability_table(s), RunPlan(100_000, seed=1))


class TestDetBootstrap:
    """The exact |det W| error against the bootstrap of the model it is exact for."""

    @pytest.mark.parametrize("config", [DET, IDW, "fitted_no_fsa"])
    @pytest.mark.parametrize("fair", [True, False])
    def test_matches_det_bootstrap_away_from_the_null(self, config, fair):
        counts = w_counts(config)
        report = bootstrap_report(counts, MIN_RESAMPLES, 0, fair)
        # far from 0, |det W| and det W differ by a sign only, so their spreads agree
        assert report.sigma_det > 10
        oracle = det_bootstrap_error(counts, ORACLE_RESAMPLES, 4, fair)
        assert report.uncertainties["det_abs"] == pytest.approx(oracle, rel=ORACLE_TOLERANCE)

    def test_sparse_postselected_cell_has_a_finite_error(self):
        # cell (2, 1) of W has one detection in 10001 trials; the full multinomial
        # bootstrap empties it, but with fair sampling its one detection is held fixed
        counts = postselection_risk({(2, 1): 1})
        with pytest.raises(InsufficientStatisticsError):
            sequential_bootstrap_report(counts, 100, 0, True)
        error = bootstrap_report(counts, 100, 0, True).uncertainties["det_abs"]
        assert np.isfinite(error) and error > 0.0

    def test_cell_outside_w_cannot_empty(self):
        # the full bootstrap empties cell (2, 1) of a 3 x 2 table, which no error reads
        counts = postselection_risk({(2, 1): 1}, shape=(3, 2))
        with pytest.raises(InsufficientStatisticsError):
            sequential_bootstrap_report(counts, 100, 0, True)
        report = bootstrap_report(counts, 100, 0, True)
        assert all(np.isfinite(error) for error in report.uncertainties.values())
        assert report.uncertainties["i_dw"] > 0.0

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


REPLICAS = 500
REPLICA_TRIALS = 10_000
NOMINAL = {1: 0.683, 2: 0.954}  # P(|Z| < k) for a standard normal Z


class TestCoverage:
    """Each reported error, checked end to end against a known truth: the share of
    seeded `sample` replicas whose estimate lies within k errors of the truth."""

    @pytest.mark.parametrize(
        "config, fair, efficiency",
        [(c, f, None) for c in (DET, IDW, "fitted_no_fsa") for f in (True, False)]
        + [(DET, f, 0.3) for f in (True, False)],
    )
    def test_errors_cover_the_truth(self, config, fair, efficiency):
        changes = {} if efficiency is None else {"efficiency": efficiency}
        # the truth is postselected with fair sampling; the counts are drawn as `simulate`
        # draws them, from the table without postselection, undetected trials included, so
        # that the detected counts vary as in a real run
        scenario = bundled_scenario(config, fair_sampling=fair, **changes)
        truth = report_from_table(probability_table(scenario))
        table = probability_table(replace(scenario, fair_sampling=False))
        names = ["i_dw"] + ["r"] * (truth.r > 0.0) + ["det_abs"] * (truth.det_abs is not None)
        z = {name: [] for name in names}
        for seed in range(REPLICAS):
            counts = sample(table, RunPlan(REPLICA_TRIALS, seed=seed))
            report = bootstrap_report(counts, MIN_RESAMPLES, 0, fair)
            for name in names:
                miss = getattr(report, name) - getattr(truth, name)
                z[name].append(abs(miss) / report.uncertainties[name])
        # At det_witness_ideal's phases the detected fractions make W = [[0, -1], [1, 0]],
        # and both -1 and 1 come from cells whose fraction is 0 or 1, which never vary.
        # So det W = 1 + a d for zero-mean a and d: its error is a product of normals, whose
        # sd the exact error gives, but whose narrow peak lies within 1 sd far more often
        # than a normal's.  Per detected trial that holds at any efficiency, and without
        # fair sampling at efficiency 1, where the fractions are the p_d.
        degenerate = config == DET and (fair or efficiency is None)
        for name, scores in z.items():
            for k, nominal in NOMINAL.items():
                coverage = np.mean(np.less(scores, k))
                if name == "det_abs" and degenerate:
                    assert coverage >= nominal, (name, k)
                else:
                    tolerance = 4 * np.sqrt(nominal * (1.0 - nominal) / REPLICAS)  # binomial sd
                    assert coverage == pytest.approx(nominal, abs=tolerance), (name, k)


class TestCountTableCsv:
    def test_trial_limit_is_the_int64_maximum(self):
        assert INT64_MAX == np.iinfo(np.int64).max
        assert type(INT64_MAX) is int

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

    def test_missing_column_is_named_with_the_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,n_e,n_none\n0,0,5,0\n")
        with pytest.raises(ValueError) as info:
            CountTable.from_csv(path)
        assert str(info.value).endswith(
            "missing ['n_d'] from the header ['i', 'j', 'n_e', 'n_none']"
        )

    def test_byte_order_mark_shows_in_the_header(self, tmp_path):
        # a spreadsheet export's UTF-8 BOM sticks to the first column name
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfi,j,n_e,n_d,n_none\n0,0,5,5,0\n")
        with pytest.raises(ValueError) as info:
            CountTable.from_csv(path)
        assert str(info.value).endswith(
            "missing ['i'] from the header ['\\ufeffi', 'j', 'n_e', 'n_d', 'n_none']"
        )

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
