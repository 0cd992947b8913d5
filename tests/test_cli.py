import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import shlex
import stat
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamsim import cli
from pamsim.cli import ConfigError, _write_outputs, build_parser, main
from pamsim.spacetime import Event, Schedule, reference_schedule
from pamsim.witness import DET_CLASSICAL_BOUND, I_DW_CLASSICAL_BOUND, I_DW_QUANTUM, R_QUANTUM


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_config(path, scenario, trials=2000, seed=123, resamples=500):
    cfg = {
        "scenario": scenario,
        "plan": {"trials_per_setting": trials, "seed": seed, "setting_order": "round-robin"},
        "resamples": resamples,
    }
    path.write_text(json.dumps(cfg))
    return str(path)


DET_SCENARIO = {
    "alphas_pi": [0.0, 1.0, -0.5, 0.5],
    "betas_pi": [0.5, 0.0],
    "visibility": 1.0,
    "efficiency": 1.0,
    "fair_sampling": True,
}


class TestPredict:
    def test_det_settings_ideal(self, configs_dir, tmp_path):
        rc = main(
            ["predict", "--config", str(configs_dir / "det_witness_ideal.json"), "--out", str(tmp_path)]
        )
        assert rc == 0
        report = read_json(tmp_path / "witness.json")
        assert abs(report["det_abs"] - 1.0) < 1e-12
        assert (tmp_path / "probabilities.csv").exists()
        assert (tmp_path / "dw_terms.csv").exists()
        assert (tmp_path / "witness.csv").exists()

    def test_idw_settings_ideal(self, configs_dir, tmp_path):
        rc = main(
            ["predict", "--config", str(configs_dir / "dimension_witness_ideal.json"), "--out", str(tmp_path)]
        )
        assert rc == 0
        report = read_json(tmp_path / "witness.json")
        assert abs(report["i_dw"] - I_DW_QUANTUM) < 1e-12
        assert abs(report["r"] - R_QUANTUM) < 1e-12

    @pytest.mark.parametrize(
        "config", ["det_witness_ideal", "dimension_witness_ideal", "fitted_no_fsa"]
    )
    def test_dw_terms_sum_to_reported_i_dw(self, configs_dir, tmp_path, config):
        rc = main(["predict", "--config", str(configs_dir / f"{config}.json"), "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "dw_terms.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["term"], r["i"], r["j"], r["sign"]) for r in rows] == [
            ("D_00", "0", "0", "1"),
            ("D_01", "0", "1", "1"),
            ("D_10", "1", "0", "1"),
            ("D_11", "1", "1", "-1"),
            ("D_20", "2", "0", "-1"),
        ]
        signed_sum = sum(int(r["sign"]) * float(r["value"]) for r in rows)
        assert signed_sum == read_json(tmp_path / "witness.json")["i_dw"]

    def test_zero_visibility(self, tmp_path):
        scenario = dict(DET_SCENARIO, visibility=0.0)
        cfg = write_config(tmp_path / "cfg.json", scenario)
        rc = main(["predict", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        report = read_json(tmp_path / "out" / "witness.json")
        assert report["det_abs"] == 0.0
        assert report["i_dw"] == 0.0

    def test_missing_config(self, tmp_path):
        assert main(["predict", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["predict", "--config", str(bad)]) == 1

    def test_config_without_scenario(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["predict", "--config", str(empty)]) == 1


class TestSimulateAndReport:
    def test_simulate_ideal(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, trials=20_000)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "witness.json")
        sigma = report["uncertainties"]["det_abs"]
        assert abs(report["det_abs"] - 1.0) <= 3 * max(sigma, 1e-12)
        assert (out / "counts.csv").exists()
        assert (out / "estimated.csv").exists()

    def test_prints_sigma_above_each_classical_bound(self, configs_dir, tmp_path, capsys):
        cfg = str(configs_dir / "fitted_no_fsa.json")
        argv = ["simulate", "--config", cfg, "--trials", "10000", "--resamples", "100"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"sigma above {DET_CLASSICAL_BOUND:g})" in out
        assert f"sigma above {I_DW_CLASSICAL_BOUND:g})" in out

    def test_no_error_reads_seed_or_resamples(self, tmp_path):
        # report's errors are closed forms: another --seed or --resamples changes no byte
        counts = str(Path(__file__).resolve().parent / "golden" / "det_witness_counts.csv")
        written = []
        for seed, resamples in (("1", "100"), ("2", "5000")):
            out = tmp_path / f"seed{seed}"
            flags = ["--seed", seed, "--resamples", resamples, "--out", str(out)]
            assert main(["report", "--counts", counts, *flags]) == 0
            written.append((out / "witness.json").read_bytes())
        assert written[0] == written[1]

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "witness.json").read_bytes() == (out2 / "witness.json").read_bytes()
        assert (out1 / "counts.csv").read_bytes() == (out2 / "counts.csv").read_bytes()

    def test_report_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, seed=321)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
        rep_out = tmp_path / "rep"
        rc = main(
            [
                "report",
                "--counts", str(sim_out / "counts.csv"),
                "--seed", "321",
                "--resamples", "500",
                "--fair-sampling", "true",
                "--out", str(rep_out),
            ]
        )
        assert rc == 0
        assert (sim_out / "witness.json").read_bytes() == (rep_out / "witness.json").read_bytes()

    def test_flag_overrides_change_run(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, seed=1)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "2", "--out", str(out2)]) == 0
        assert (out1 / "counts.csv").read_bytes() != (out2 / "counts.csv").read_bytes()

    def test_fair_sampling_draws_undetected_trials(self, tmp_path):
        # the counts are drawn as a run records them, and `estimate` postselects them: at
        # efficiency 0.3 about 7 trials in 10 go undetected
        scenario = {**DET_SCENARIO, "efficiency": 0.3}
        cfg = write_config(tmp_path / "cfg.json", scenario, trials=10_000, seed=5)
        sim_out, rep_out = tmp_path / "sim", tmp_path / "rep"
        assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
        with open(sim_out / "counts.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        detected = sum(int(r["n_e"]) + int(r["n_d"]) for r in rows)
        undetected = sum(int(r["n_none"]) for r in rows)
        assert 0.25 < detected / (detected + undetected) < 0.35
        counts = str(sim_out / "counts.csv")
        argv = ["report", "--counts", counts, "--fair-sampling", "true", "--out", str(rep_out)]
        assert main(argv) == 0
        assert (sim_out / "witness.json").read_bytes() == (rep_out / "witness.json").read_bytes()

    def test_report_missing_counts(self, tmp_path):
        assert main(["report", "--counts", str(tmp_path / "nope.csv")]) == 1

    def test_report_rejects_zero_resamples(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, seed=321)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == 0
        counts = str(sim_out / "counts.csv")
        rep_out = tmp_path / "rep"
        assert main(["report", "--counts", counts, "--resamples", "0", "--out", str(rep_out)]) == 1
        assert not (rep_out / "witness.json").exists()

    @pytest.mark.parametrize(
        "flags, config_resamples, message",
        [
            (["--resamples", "0"], 500, "resamples must be >= 100"),
            ([], 99, "resamples must be >= 100"),
            (["--trials", "0"], 500, "--trials must be >= 1"),
            (["--trials", "-3"], 500, "argument --trials: expected a non-negative integer, got '-3'"),
        ],
    )
    def test_simulate_bad_sizes_are_config_errors(
        self, tmp_path, capsys, flags, config_resamples, message
    ):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, resamples=config_resamples)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), *flags]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "witness.json").exists()

    def test_nan_phase_is_config_error(self, tmp_path, capsys):
        scenario = dict(DET_SCENARIO, alphas_pi=[math.nan, 1.0, -0.5, 0.5])
        cfg = write_config(tmp_path / "cfg.json", scenario)
        for command in ("predict", "simulate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
            assert "finite" in capsys.readouterr().err

    def test_report_negative_index_is_config_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("i,j,n_e,n_d,n_none\n-1,0,50,50,0\n1,0,50,50,0\n")
        assert main(["report", "--counts", str(counts), "--out", str(tmp_path)]) == 1
        message = "expected a non-negative integer, got '-1' on line 2 of counts CSV"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1,5,5", "line 3 of counts CSV does not have 5 fields"),
            ("0,1,5,5,0,7", "line 3 of counts CSV does not have 5 fields"),
            ("0,1,+5,5,0", "expected a non-negative integer, got '+5'"),
            ("0,1,5,1_000,0", "expected a non-negative integer, got '1_000'"),
            ("0,1,5,5, 5", "expected a non-negative integer, got ' 5'"),
            ("+0,1,5,5,0", "expected a non-negative integer, got '+0' on line 3 of counts CSV"),
            ("x,1,5,5,0", "expected a non-negative integer, got 'x' on line 3 of counts CSV"),
            ("0,1,5,\uff15,0", "expected a non-negative integer, got '\uff15' on line 3"),
            (f"0,1,{2**63},0,0", "cell (0, 1) on line 3 of counts CSV has more than 2**63 - 1 trials"),
            # int64 counts would wrap to a negative total
            (f"0,1,{2**62},{2**62},0", "cell (0, 1) on line 3 of counts CSV has more than 2**63 - 1"),
            # int() refuses more digits with advice to call sys.set_int_max_str_digits()
            (f"0,1,{'9' * 4301},5,0", "expected at most 4300 digits, got 4301 on line 3"),
            (f"{'1' * 4301},1,5,5,0", "expected at most 4300 digits, got 4301 on line 3 of"),
            (f"0,{'0' * 4301},5,5,0", "expected at most 4300 digits, got 4301 on line 3 of"),
            (f"0,1,5,{'5' * 4301},0", "expected at most 4300 digits, got 4301 on line 3"),
            (f"0,1,5,5,{'9' * 4302}", "expected at most 4300 digits, got 4302 on line 3"),
        ],
        ids=[
            "short", "long", "plus", "underscore", "space", "plus-index",
            "letter-index", "fullwidth-digit", "count-overflow", "sum-overflow", "count-digits",
            "i-digits", "j-zero-digits", "n_d-digits", "n_none-digits",
        ],
    )
    def test_report_malformed_row_is_config_error(self, tmp_path, capsys, row, message):
        counts = tmp_path / "counts.csv"
        counts.write_text(f"i,j,n_e,n_d,n_none\n0,0,50,50,0\n{row}\n")
        out = tmp_path / "out"
        assert main(["report", "--counts", str(counts), "--out", str(out)]) == 1
        assert f"counts file {counts}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "trials, order, flags",
        [
            (10**30, "round-robin", []),
            (2**61, "random-per-trial", []),  # 8 cells draw 2**64 trials at once
            (2000, "round-robin", ["--trials", str(10**30)]),
        ],
        ids=["config", "random-total", "flag"],
    )
    def test_trials_beyond_int64_are_domain_errors(self, tmp_path, capsys, trials, order, flags):
        cfg = tmp_path / "cfg.json"
        plan = {"trials_per_setting": trials, "setting_order": order}
        cfg.write_text(json.dumps({"scenario": DET_SCENARIO, "plan": plan}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trials_per_setting ") and "more than 2**63 - 1" in err
        assert not (out / "counts.csv").exists()

    @pytest.mark.parametrize("resamples", [10**20, 2**62], ids=["over-intp", "over-bytes"])
    @pytest.mark.parametrize("source", ["config", "simulate-flag", "report-flag"])
    def test_resamples_beyond_numpy_are_domain_errors(self, tmp_path, capsys, resamples, source):
        # both lie beyond the largest resample count accepted
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, resamples=resamples)
        counts = tmp_path / "counts.csv"
        counts.write_text("i,j,n_e,n_d,n_none\n0,0,50,50,0\n")
        argv = {
            "config": ["simulate", "--config", cfg],
            "simulate-flag": ["simulate", "--config", cfg, "--resamples", str(resamples)],
            "report-flag": ["report", "--counts", str(counts), "--resamples", str(resamples)],
        }[source]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: resamples {resamples} is too large")
        assert not out.exists()

    @staticmethod
    def sparse_counts(path, detected):
        """Counts with 500 detections in every cell of W but (2, 1), which has
        `detected` e events among 10001 trials."""
        cells = {(i, j): "250,250,0" for i in range(4) for j in range(2)}
        cells[2, 1] = f"{detected},0,{10_001 - detected}"
        rows = [f"{i},{j},{counts}" for (i, j), counts in cells.items()]
        path.write_text("i,j,n_e,n_d,n_none\n" + "\n".join(rows) + "\n")
        return ["report", "--counts", str(path), "--resamples", "100", "--fair-sampling", "true"]

    def test_sparse_postselected_cell_has_a_finite_error(self, tmp_path):
        # one detection in 10001 trials: the fair-sampling error holds it fixed
        argv = self.sparse_counts(tmp_path / "counts.csv", 1)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        report = read_json(tmp_path / "out" / "witness.json")
        assert math.isfinite(report["uncertainties"]["det_abs"])
        assert report["uncertainties"]["det_abs"] > 0.0

    def test_undetected_postselected_cell_exits_before_any_draw(
        self, tmp_path, capsys, forbid_generators
    ):
        forbid_generators()
        argv = self.sparse_counts(tmp_path / "counts.csv", 0)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert "cell (i=2, j=1) has no detected events to postselect on" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fair", ["true", "false"])
    def test_cell_without_trials_is_named(self, tmp_path, capsys, fair):
        counts = tmp_path / "counts.csv"
        counts.write_text("i,j,n_e,n_d,n_none\n0,0,5,5,0\n0,1,5,5,0\n1,0,5,5,0\n1,1,0,0,0\n")
        out = tmp_path / "out"
        argv = ["report", "--counts", str(counts), "--fair-sampling", fair, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: cell (i=1, j=1) has no trial; every cell needs at least one\n"
        )
        assert not out.exists()

    def test_plan_without_trials_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": DET_SCENARIO, "plan": {"seed": 1}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert "trials_per_setting" in err

    def test_underflowed_efficiency_is_a_domain_error(self, tmp_path, capsys):
        scenario = dict(DET_SCENARIO, visibility=0.0, efficiency=5e-324)
        cfg = write_config(tmp_path / "cfg.json", scenario)
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "cell (i=0, j=0): its detection probability is 0" in err


BUNDLED_CONFIGS = ("det_witness_ideal", "dimension_witness_ideal", "fitted_no_fsa")
SIMULATE = ["simulate", "--trials", "2000", "--resamples", "200"]


class TestWitnessCsv:
    @pytest.mark.parametrize("config", BUNDLED_CONFIGS)
    @pytest.mark.parametrize(
        "command",
        (
            ["predict"],
            SIMULATE,
            ["report", "--resamples", "200", "--fair-sampling", "true"],
            ["report", "--resamples", "200", "--fair-sampling", "false"],
        ),
        ids=("predict", "simulate", "report-fair", "report-unfair"),
    )
    def test_every_field_is_a_number(self, configs_dir, tmp_path, config, command):
        cfg = str(configs_dir / f"{config}.json")
        if command[0] == "report":
            assert main([*SIMULATE, "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
            inputs = ["--counts", str(tmp_path / "sim" / "counts.csv")]
        else:
            inputs = ["--config", cfg]
        assert main([*command, *inputs, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "witness.csv", newline="", encoding="utf-8") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["i_dw"] and row["r"]
        # each field is the witness.json value: float() of a repr is exact, "" is null
        report = read_json(tmp_path / "witness.json")
        errors = report.pop("uncertainties")
        expected = {**report, **{f"{k}_err": errors.get(k) for k in ("det_abs", "i_dw", "r")}}
        assert list(row) == list(expected)
        assert {k: float(v) if v else None for k, v in row.items()} == expected
        grid = "probabilities.csv" if command[0] == "predict" else "estimated.csv"
        with open(tmp_path / grid, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for value in (v for r in rows for v in r.values()):
            float(value)


class TestBounds:
    def test_idw_d2_certificate(self, tmp_path):
        assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "bounds.json")
        assert payload["value"] == 3.0
        assert sorted(payload) == ["dimension", "strategy", "value", "witness"]

    def test_idw_d3_saturates(self, tmp_path):
        assert main(["bounds", "--witness", "idw", "-d", "3", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "bounds.json")["value"] == 5.0

    def test_det_d2_null(self, tmp_path):
        rc = main(
            ["bounds", "--witness", "det", "-d", "2", "--restarts", "300", "--seed", "7", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "bounds.json")
        assert payload["value"] == 0.0
        assert sorted(payload) == ["dimension", "strategy", "value", "witness"]

    def test_negative_restarts_exit_code(self, tmp_path):
        argv = ["bounds", "--witness", "det", "-d", "2", "--restarts", "-3", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert not (tmp_path / "bounds.json").exists()

    def test_zero_restarts_is_deterministic_only(self, tmp_path):
        argv = ["bounds", "--witness", "det", "-d", "3", "--restarts", "0", "--out", str(tmp_path)]
        assert main(argv) == 0
        payload = read_json(tmp_path / "bounds.json")
        assert payload["value"] == 1.0
        assert "restarts" not in payload

    @pytest.mark.parametrize(
        "witness, dimension, message",
        [
            ("idw", "0", "--dimension must be >= 1, got 0"),
            ("idw", "-1", "argument --dimension/-d: expected a non-negative integer, got '-1'"),
            ("det", "1", "--dimension must be >= 2, got 1"),
        ],
        ids=["idw-0", "idw--1", "det-1"],
    )
    def test_out_of_range_dimension_exit_code(self, tmp_path, capsys, witness, dimension, message):
        argv = ["bounds", "--witness", witness, "-d", dimension, "--out", str(tmp_path)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bounds.json").exists()

    @pytest.mark.parametrize("below", ("", "sub"), ids=["file", "below-file"])
    def test_out_that_cannot_be_a_directory_exit_code(self, tmp_path, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / below if below else taken
        assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --out {out}: cannot create the directory")
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--restarts", "5"], "--restarts"),
            (["--seed", "3"], "--seed"),
            (["--restarts", "5", "--seed", "3"], "--restarts or --seed"),
        ],
    )
    def test_idw_takes_no_search_flags(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        assert main(["bounds", "--witness", "idw", "-d", "2", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --witness idw takes no {named}\n"
        assert not out.exists()

    def test_det_search_defaults(self, tmp_path):
        bare, explicit = tmp_path / "bare", tmp_path / "explicit"
        assert main(["bounds", "--witness", "det", "--out", str(bare)]) == 0
        argv = ["bounds", "--witness", "det", "--restarts", "10000", "--seed", "0"]
        assert main([*argv, "--out", str(explicit)]) == 0
        assert (bare / "bounds.json").read_bytes() == (explicit / "bounds.json").read_bytes()

    @pytest.mark.parametrize("restarts", (0, 1, 64, 65, 130, 10_000, 2**31))
    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_det_search_flags_change_no_byte(self, tmp_path, capsys, d, restarts):
        # --restarts and --seed are range-checked, then ignored: the bound is closed-form
        argv = ["bounds", "--witness", "det", "-d", str(d)]
        given, bare = tmp_path / "given", tmp_path / "bare"
        assert main([*argv, "--restarts", str(restarts), "--seed", "17", "--out", str(given)]) == 0
        searched = capsys.readouterr().out.replace(str(given), str(bare))
        assert main([*argv, "--out", str(bare)]) == 0
        assert capsys.readouterr().out == searched
        assert (given / "bounds.json").read_bytes() == (bare / "bounds.json").read_bytes()

    # (d, --restarts, --seed): value, encode, decode; the strategy is the first maximising
    # vertex pair in lexicographic (encode, decode) order, whatever the ignored flags
    PINNED_DET = {
        (2, 2000, 11): (0.0, [0, 0, 0, 0], ["dd"]),
        (3, 500, 12): (1.0, [0, 1, 0, 2], ["dd", "de", "ed"]),
        (2, 300, 0): (0.0, [0, 0, 0, 0], ["dd"]),
        (2, 500, 5): (0.0, [0, 0, 0, 0], ["dd"]),
        (4, 50, 5): (2.0, [0, 1, 2, 3], ["dd", "ee", "de", "ed"]),
        (3, 130, 23): (1.0, [0, 1, 0, 2], ["dd", "de", "ed"]),
        (2, 10000, 0): (0.0, [0, 0, 0, 0], ["dd"]),
        (3, 10000, 0): (1.0, [0, 1, 0, 2], ["dd", "de", "ed"]),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_DET))
    def test_det_results_are_pinned(self, tmp_path, case):
        value, encode, decode = self.PINNED_DET[case]
        d, restarts, seed = map(str, case)
        argv = ["bounds", "--witness", "det", "-d", d, "--restarts", restarts, "--seed", seed]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        payload = read_json(tmp_path / "bounds.json")
        assert payload["value"] == value
        assert payload["strategy"] == {
            "encode": encode,
            "decode": [list(row) for row in decode],
        }

    @pytest.mark.parametrize("d", (8, 12, 8000))
    def test_idw_enumerates_nothing_at_large_dimension(self, tmp_path, capsys, d):
        # d = 8 was refused with 33,554,432 strategies while the enumeration ran, and d = 8000
        # has a strategy count of more digits than int-to-str converts
        out = tmp_path / "out"
        assert main(["bounds", "--witness", "idw", "-d", str(d), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"classical I_DW bound (d={d}): 5\n")
        payload = read_json(out / "bounds.json")
        assert payload["value"] == 5.0
        assert payload["strategy"] == {
            "encode": [0, 1, 2],
            "decode": [list(row) for row in ("ee", "ed", "dd")],
        }

    @pytest.mark.parametrize("d", (7, 8, 12, 100, 1000, 5000, 8000))
    def test_det_enumerates_nothing_at_large_dimension(self, tmp_path, capsys, d):
        # d = 7 was refused with 39,337,984 strategies while the enumeration ran
        out = tmp_path / "out"
        assert main(["bounds", "--witness", "det", "-d", str(d), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"classical |det W| bound (d={d}): 2\n")
        payload = read_json(out / "bounds.json")
        assert payload["value"] == 2.0
        assert payload["strategy"] == {
            "encode": [0, 1, 2, 3],
            "decode": [list(row) for row in ("dd", "ee", "de", "ed")],
        }

    @pytest.mark.parametrize("witness, value", [("idw", 5.0), ("det", 2.0)])
    def test_writes_a_small_bound_at_five_million_messages(self, tmp_path, capsys, witness, value):
        # a strategy lists only the messages it sends, so its size does not grow with d
        out = tmp_path / "out"
        assert main(["bounds", "--witness", witness, "-d", "5000001", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_json(out / "bounds.json")["value"] == value
        assert (out / "bounds.json").stat().st_size < 1000

    @pytest.mark.parametrize("witness", ["idw", "det"])
    def test_is_quick_at_huge_dimension(self, tmp_path, witness):
        start = time.perf_counter()
        argv = ["bounds", "--witness", witness, "-d", str(10**12), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("witness, saturated", [("idw", 3), ("det", 4)])
    def test_bounds_json_past_saturation_differs_only_in_dimension(self, witness, saturated, data):
        d = data.draw(st.integers(1 if witness == "idw" else 2, 10**12), label="d")

        def payload(dimension):
            with tempfile.TemporaryDirectory() as out:
                argv = ["bounds", "--witness", witness, "-d", str(dimension), "--out", out]
                assert main(argv) == 0
                return read_json(Path(out) / "bounds.json")

        at_d, at_saturated = payload(d), payload(min(d, saturated))
        assert at_d.pop("dimension") == d
        at_saturated.pop("dimension")
        assert at_d == at_saturated

    @pytest.mark.parametrize("witness, name, value", [("idw", "I_DW", 5), ("det", "|det W|", 2)])
    def test_takes_the_most_digits_int_converts(self, tmp_path, capsys, witness, name, value):
        # 4300 digits, the interpreter's default limit, is the only upper bound of -d
        d, out = "9" * 4300, tmp_path / "out"
        assert main(["bounds", "--witness", witness, "-d", d, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"classical {name} bound (d={d}): {value}\n")
        assert read_json(out / "bounds.json")["dimension"] == int(d)
        assert (out / "bounds.json").stat().st_size < 5000


class TestSpacetime:
    def test_bundled_fixture_passes(self, configs_dir, tmp_path):
        rc = main(
            ["spacetime", str(configs_dir / "reference_geometry_schedule.json"), "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "spacetime.json")
        assert payload["all_passed"] is True
        assert len(payload["conditions"]) == 5

    def test_perturbed_schedule_fails(self, tmp_path):
        base = reference_schedule()
        events = dict(base.events)
        bc = events["bob_choice"]
        events["bob_choice"] = Event("bob_choice", bc.position, bc.time + 200.0)
        path = tmp_path / "late.json"
        path.write_text(json.dumps(Schedule(events, base.media).to_json_dict()))
        rc = main(["spacetime", str(path), "--out", str(tmp_path / "out")])
        assert rc == 3
        payload = read_json(tmp_path / "out" / "spacetime.json")
        c1 = next(c for c in payload["conditions"] if c["name"] == "C1")
        assert c1["passed"] is False

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["spacetime", str(empty)]) == 1

    @pytest.mark.parametrize("defect", ["duplicate label", "two coordinates"])
    def test_bad_event_is_config_error_naming_it(self, configs_dir, tmp_path, capsys, defect):
        doc = read_json(configs_dir / "reference_geometry_schedule.json")
        events = {event["label"]: event for event in doc["events"]}
        if defect == "duplicate label":
            # a later bob_choice that fails C4 would silently replace the first
            doc["events"].append(dict(events["bob_choice"], time_ns=5.0))
            label = "bob_choice"
        else:
            events["alice_measurement"]["position_m"] = [0.0, 0.0]
            label = "alice_measurement"
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["spacetime", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and repr(label) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("medias", "schedule config has unknown key 'medias'"),
            ("event key", "events[0] config has unknown key 'colour'"),
            ("time bool", "events[0] config: time_ns must be a JSON number, got True"),
            (
                "position string",
                "events[0] config: position_m must be a list of JSON numbers, got ['0', 0, 0]",
            ),
            ("speed string", "media 'charlie_alice' config: speed_c must be a JSON number, got '0.68'"),
        ],
        ids=["medias", "event-key", "time-bool", "position-string", "speed-string"],
    )
    def test_bad_key_is_config_error_naming_it(self, configs_dir, tmp_path, capsys, defect, message):
        doc = read_json(configs_dir / "reference_geometry_schedule.json")
        event, link = doc["events"][0], doc["media"]["charlie_alice"]
        if defect == "medias":
            # a misspelt section must not pass C5 as "no links declared"
            doc["medias"] = doc.pop("media")
        elif defect == "event key":
            event["colour"] = "red"
        elif defect == "time bool":
            event["time_ns"] = True
        elif defect == "position string":
            event["position_m"] = ["0", 0, 0]
        else:
            link["speed_c"] = "0.68"
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["spacetime", str(path), "--out", str(out)]) == 1
        assert f"schedule file {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            ("event", "time_ns", 10**400, "events[0] config: time_ns is too large for a float"),
            (
                "event",
                "position_m",
                [0.0, 10**400, 0.0],
                "events[0] config: position_m is too large for a float",
            ),
            ("link", "speed_c", 10**400, "media 'charlie_alice' config: speed_c is too large"),
            ("link", "length_m", 10**400, "media 'charlie_alice' config: length_m is too large"),
            ("link", "length_m", math.nan, "link length must be finite and non-negative, got nan"),
            ("link", "length_m", math.inf, "link length must be finite and non-negative, got inf"),
        ],
        ids=["time-huge", "position-huge", "speed-huge", "length-huge", "length-nan", "length-inf"],
    )
    def test_unrepresentable_number_is_config_error(
        self, configs_dir, tmp_path, capsys, where, key, value, message
    ):
        doc = read_json(configs_dir / "reference_geometry_schedule.json")
        (doc["events"][0] if where == "event" else doc["media"]["charlie_alice"])[key] = value
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
        out = tmp_path / "out"
        assert main(["spacetime", str(path), "--out", str(out)]) == 1
        assert f"schedule file {path}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_is_config_error_naming_it(self, configs_dir, tmp_path, capsys):
        text = (configs_dir / "reference_geometry_schedule.json").read_text()
        # a second time_ns for the first event, which json.load would keep
        repeated = text.replace('"time_ns":', '"time_ns": 5.0, "time_ns":', 1)
        assert repeated != text
        path = tmp_path / "schedule.json"
        path.write_text(repeated)
        out = tmp_path / "out"
        assert main(["spacetime", str(path), "--out", str(out)]) == 1
        assert f"schedule file {path}: repeated key 'time_ns'" in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv, config_seed, message",
        [
            (["simulate", "--seed", "-1"], 123, "argument --seed: expected a non-negative"),
            (["report", "--seed", "-1"], 123, "argument --seed: expected a non-negative"),
            (["bounds", "--witness", "det", "--seed", "-3"], 123, "argument --seed: expected"),
            (["simulate"], -1, "cfg.json: seed must be >= 0, got -1"),
        ],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv, config_seed, message):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, seed=config_seed)
        counts = tmp_path / "counts.csv"
        counts.write_text("i,j,n_e,n_d,n_none\n0,0,50,50,0\n")
        inputs = {"simulate": ["--config", cfg], "report": ["--counts", str(counts)]}
        out = tmp_path / "out"
        assert main([*argv, *inputs.get(argv[0], []), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (["simulate", "--trials", "2_000"], "--trials", "2_000"),
            (["simulate", "--resamples", "+1_00"], "--resamples", "+1_00"),
            (["report", "--resamples", "+100"], "--resamples", "+100"),
            (["bounds", "--witness", "idw", "-d", " 3"], "--dimension/-d", " 3"),
            # str.isdecimal and int take any Unicode decimal digit
            (["bounds", "--witness", "idw", "-d", "\uff13"], "--dimension/-d", "\uff13"),
            (["bounds", "--witness", "idw", "-d", "\u0663"], "--dimension/-d", "\u0663"),
            (["simulate", "--seed", "\uff13"], "--seed", "\uff13"),
            (["report", "--seed", "1\uff10"], "--seed", "1\uff10"),
        ],
        ids=[
            "trials-underscore", "simulate-resamples-plus", "report-resamples-plus", "d-space",
            "d-fullwidth", "d-arabic-indic", "simulate-seed-fullwidth", "report-seed-fullwidth",
        ],
    )
    def test_integer_flags_are_strict(self, tmp_path, capsys, argv, flag, text):
        # `int` would take each of these, as --seed and --restarts never did
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO)
        counts = tmp_path / "counts.csv"
        counts.write_text("i,j,n_e,n_d,n_none\n0,0,50,50,0\n")
        inputs = {"simulate": ["--config", cfg], "report": ["--counts", str(counts)]}
        out = tmp_path / "out"
        assert main([*argv, *inputs.get(argv[0], []), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a non-negative integer, got {text!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bounds", "--witness", "idw", "-d"], "--dimension/-d"),
            (["simulate", "--trials"], "--trials"),
            (["simulate", "--seed"], "--seed"),
            (["report", "--seed"], "--seed"),
            (["simulate", "--resamples"], "--resamples"),
            (["report", "--resamples"], "--resamples"),
            (["bounds", "--witness", "det", "--restarts"], "--restarts"),
            (["bounds", "--witness", "det", "--seed"], "--seed"),
        ],
        ids=[
            "dimension", "trials", "simulate-seed", "report-seed",
            "simulate-resamples", "report-resamples", "bounds-restarts", "bounds-seed",
        ],
    )
    def test_integer_flags_refuse_more_digits_than_int_converts(
        self, tmp_path, capsys, argv, flag
    ):
        # int() refuses more digits with advice to call sys.set_int_max_str_digits()
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO)
        counts = tmp_path / "counts.csv"
        counts.write_text("i,j,n_e,n_d,n_none\n0,0,50,50,0\n")
        inputs = {"simulate": ["--config", cfg], "report": ["--counts", str(counts)]}
        out = tmp_path / "out"
        assert main([*argv, "1" * 4301, *inputs.get(argv[0], []), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: expected at most 4300 digits, got 4301\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--trials", "200", "--seed"],
            ["bounds", "--witness", "det", "--restarts"],
            ["bounds", "--witness", "det", "--seed"],
        ],
        ids=["simulate-seed", "bounds-restarts", "bounds-seed"],
    )
    def test_integer_flags_take_the_most_digits_int_converts(self, tmp_path, argv):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO)
        inputs = {"simulate": ["--config", cfg]}
        out = tmp_path / "out"
        assert main([*argv, "7" * 4300, *inputs.get(argv[0], []), "--out", str(out)]) == 0
        assert out.is_dir()

    def test_missing_required_flag(self):
        assert main(["predict"]) == 1

    @pytest.mark.parametrize("flag", ["--seed", "--resamples"])
    def test_predict_takes_no_sampling_flags(self, configs_dir, tmp_path, capsys, flag):
        out = tmp_path / "out"
        cfg = str(configs_dir / "det_witness_ideal.json")
        assert main(["predict", "--config", cfg, flag, "3", "--out", str(out)]) == 1
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_bool(self, configs_dir):
        rc = main(
            [
                "predict",
                "--config", str(configs_dir / "det_witness_ideal.json"),
                "--fair-sampling", "maybe",
            ]
        )
        assert rc == 1


class TestStrictConfig:
    """A config key that pamsim does not know, or a fair_sampling that is
    not a JSON boolean, exits 1 instead of running another experiment."""

    @pytest.mark.parametrize("command", ["predict", "simulate"])
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("scenario", "visiblity", 0.5, "scenario config has unknown key 'visiblity'"),
            ("scenario", "fair_sampling", "false", "fair_sampling must be true or false, got 'false'"),
            ("scenario", "fair_sampling", 0, "fair_sampling must be true or false, got 0"),
            ("scenario", "fair_sampling", None, "fair_sampling must be true or false, got None"),
            ("plan", "setting_ordr", "random-per-trial", "plan config has unknown key 'setting_ordr'"),
            (None, "resample", 100, "top-level config has unknown key 'resample'"),
            (None, "schedule", {}, "top-level config has unknown key 'schedule'"),
            ("scenario", "visibility", True, "scenario config: visibility must be a JSON number, got True"),
            ("scenario", "efficiency", "0.5", "scenario config: efficiency must be a JSON number, got '0.5'"),
            (
                "scenario",
                "alphas_pi",
                [0.0, 1.0, -0.5, "0.5"],
                "scenario config: alphas_pi must be a list of JSON numbers, got [0.0, 1.0, -0.5, '0.5']",
            ),
            (None, "outputs", 3, "top-level config: outputs must be a JSON string, got 3"),
            # JSON integers beyond the float range
            ("scenario", "visibility", 10**400, "scenario config: visibility is too large for a float"),
            ("scenario", "efficiency", 10**400, "scenario config: efficiency is too large for a float"),
            ("scenario", "betas_pi", [0.5, 10**400], "scenario config: betas_pi is too large for a float"),
        ],
        ids=[
            "visiblity", "fair-string", "fair-0", "fair-null", "setting_ordr", "resample", "schedule",
            "visibility-bool", "efficiency-string", "phase-string", "outputs-number",
            "visibility-huge", "efficiency-huge", "phase-huge",
        ],
    )
    def test_refused(self, tmp_path, capsys, command, section, key, value, message):
        self.assert_refused(tmp_path, capsys, command, section, key, value, message)

    @pytest.mark.parametrize("command", ["predict", "simulate"])
    @pytest.mark.parametrize(
        "section, key",
        [("plan", "trials_per_setting"), ("plan", "seed"), (None, "resamples")],
    )
    @pytest.mark.parametrize("value", [2.7, 150.0, "150", True])
    def test_integer_keys_take_only_json_integers(
        self, tmp_path, capsys, command, section, key, value
    ):
        # int() would truncate 2.7 to 2 and read "150" and True as numbers
        message = f"{section or 'top-level'} config: {key} must be a JSON integer, got {value!r}"
        self.assert_refused(tmp_path, capsys, command, section, key, value, message)

    @staticmethod
    def assert_refused(tmp_path, capsys, command, section, key, value, message):
        cfg = {
            "scenario": dict(DET_SCENARIO),
            "plan": {"trials_per_setting": 2000, "seed": 1},
            "resamples": 500,
        }
        (cfg[section] if section else cfg)[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config file {path}: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "simulate"])
    @pytest.mark.parametrize("section", ["scenario", None])
    def test_repeated_key_refused(self, tmp_path, capsys, command, section):
        # json.load would keep the last value, V = 0.5 or 10 resamples
        scenario = json.dumps(DET_SCENARIO)[1:-1]
        plan = '"plan": {"trials_per_setting": 2000, "seed": 1}'
        if section:
            text = f'{{"scenario": {{{scenario}, "visibility": 0.5}}, {plan}, "resamples": 500}}'
            key = "visibility"
        else:
            text = f'{{"scenario": {{{scenario}}}, {plan}, "resamples": 500, "resamples": 10}}'
            key = "resamples"
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert f"config file {path}: repeated key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_defaults_are_the_config_defaults(self, tmp_path):
        # RunPlan.seed, RunConfig.resamples and Scenario.fair_sampling
        counts = tmp_path / "counts.csv"
        rows = [f"{i},{j},{40 + 7 * i},{60 - 5 * j},9" for i in range(4) for j in range(2)]
        counts.write_text("i,j,n_e,n_d,n_none\n" + "\n".join(rows) + "\n")
        bare, explicit = tmp_path / "bare", tmp_path / "explicit"
        assert main(["report", "--counts", str(counts), "--out", str(bare)]) == 0
        argv = ["--seed", "0", "--resamples", "10000", "--fair-sampling", "true"]
        assert main(["report", "--counts", str(counts), *argv, "--out", str(explicit)]) == 0
        assert (bare / "witness.json").read_bytes() == (explicit / "witness.json").read_bytes()


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["predict", "--config"], "config"),
        (["simulate", "--config"], "config"),
        (["report", "--counts"], "counts"),
        (["spacetime"], "schedule"),
    ],
    ids=["predict", "simulate", "report", "spacetime"],
)
def test_directory_input_is_config_error(tmp_path, capsys, argv, kind):
    out = tmp_path / "out"
    assert main([*argv, str(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {kind} file {tmp_path}: {os.strerror(errno.EISDIR)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, taken, make",
    [
        (["bounds", "--witness", "idw", "-d", "2"], "bounds.json", os.mkdir),
        (["predict", "--config", "det_witness_ideal.json"], "witness.json", os.mkdir),
        # opening a FIFO to compare its bytes would wait for a writer
        (["bounds", "--witness", "idw", "-d", "2"], "bounds.json", os.mkfifo),
    ],
    ids=["bounds", "predict", "fifo"],
)
def test_unwritable_output_file_is_config_error(configs_dir, tmp_path, capsys, argv, taken, make):
    argv = [str(configs_dir / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "o"
    out.mkdir()
    make(out / taken)
    kind = stat.S_IFMT((out / taken).lstat().st_mode)
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: cannot write {taken} (not a regular file)\n"
    assert stat.S_IFMT((out / taken).lstat().st_mode) == kind
    assert os.listdir(out) == [taken]


def test_refused_output_file_leaves_the_directory_as_it_was(configs_dir, tmp_path, capsys):
    # the refused witness.json comes after three files predict would have written
    out = tmp_path / "o"
    (out / "witness.json").mkdir(parents=True)
    (out / "scenario.json").write_text("kept\n")
    before = sorted(p.name for p in out.iterdir())
    argv = ["predict", "--config", str(configs_dir / "det_witness_ideal.json"), "--out", str(out)]
    assert main(argv) == 1
    assert sorted(p.name for p in out.iterdir()) == before
    assert (out / "scenario.json").read_text() == "kept\n"
    assert "cannot write witness.json (not a regular file)" in capsys.readouterr().err


def fail_writing(monkeypatch, name):
    """Make `_write_outputs` fail with EACCES on closing the temporary of `name`,
    once its text has gone in, as a close that cannot flush would."""

    @contextlib.contextmanager
    def failing_open(path, *args, **kwargs):
        with open(path, *args, **kwargs) as fh:
            yield fh
            if Path(path).name == f".{name}.tmp":
                raise PermissionError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(cli, "open", failing_open, raising=False)


def test_failed_write_leaves_no_file_behind(tmp_path, capsys, monkeypatch):
    fail_writing(monkeypatch, "b.txt")
    (tmp_path / "a.txt").write_text("kept\n")
    files = {"a.txt": "new\n", "b.txt": "partial\n"}
    with pytest.raises(ConfigError, match="cannot write b.txt \\(Permission denied\\)"):
        _write_outputs(str(tmp_path), files)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
    assert (tmp_path / "a.txt").read_text() == "kept\n"
    _write_outputs(str(tmp_path), {"a.txt": files["a.txt"]})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
    assert (tmp_path / "a.txt").read_text() == "new\n"
    assert capsys.readouterr().out == f"wrote {tmp_path}/a.txt\n"


def test_temporary_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    (out / ".bounds.json.tmp").mkdir(parents=True)
    assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: --out {out}: cannot write bounds.json "
        "(.bounds.json.tmp is not a regular file)\n"
    )
    assert sorted(p.name for p in out.iterdir()) == [".bounds.json.tmp"]
    assert (out / ".bounds.json.tmp").is_dir()


def test_output_path_too_long_to_stat_is_config_error(tmp_path, capsys):
    # --out and its bounds.json fit in PATH_MAX, its .bounds.json.tmp does not, so the
    # check of a stale temporary, before anything is written, fails with ENAMETOOLONG
    limit = os.pathconf(tmp_path, "PC_PATH_MAX")
    out = str(tmp_path)
    while len(out) < limit - 15:  # components of 200 characters, the last one shorter
        out += "/" + "p" * max(1, min(199, limit - 15 - len(out) - 1))
    assert len(f"{out}/bounds.json") < limit <= len(f"{out}/.bounds.json.tmp")
    assert main(["bounds", "--witness", "idw", "-d", "2", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: cannot write bounds.json (File name too long)\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "target", ["../victim.txt", "../absent.txt", "bounds.json"], ids=["file", "dangling", "loop"]
)
def test_symlinked_output_name_is_replaced_not_followed(tmp_path, capsys, target):
    # the symlink is replaced by a regular file, and what it points to is left as it was;
    # `pathlib`'s exists() takes a loop (ELOOP) for an absent file, as it takes ENOENT
    out = tmp_path / "o"
    out.mkdir()
    victim = tmp_path / "victim.txt"
    victim.write_text("kept\n")
    (out / "bounds.json").symlink_to(target)
    assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert victim.read_text() == "kept\n"
    assert not (tmp_path / "absent.txt").exists()
    assert not (out / "bounds.json").is_symlink()
    assert stat.S_ISREG((out / "bounds.json").lstat().st_mode)
    assert read_json(out / "bounds.json")["value"] == 3.0
    assert sorted(p.name for p in out.iterdir()) == ["bounds.json"]


def test_output_name_symlinked_to_a_directory_is_refused(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    target = tmp_path / "d"
    target.mkdir()
    (target / "x.txt").write_text("kept\n")
    (out / "bounds.json").symlink_to("../d")
    assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --out {out}: cannot write bounds.json (not a regular file)\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["bounds.json"]
    assert os.readlink(out / "bounds.json") == "../d"
    assert sorted(p.name for p in target.iterdir()) == ["x.txt"]
    assert (target / "x.txt").read_text() == "kept\n"


@pytest.mark.parametrize("spelling", ["o/", "./o", "o/.", "o//", "./o/./"])
def test_out_is_displayed_as_its_path(tmp_path, monkeypatch, capsys, spelling):
    # the "wrote" line and the error messages spell --out as `pathlib` does
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--witness", "idw", "-d", "2", "--out", spelling]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "wrote o/bounds.json"
    (tmp_path / "o" / "bounds.json").unlink()
    (tmp_path / "o" / "bounds.json").mkdir()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --out o: cannot write bounds.json (not a regular file)\n"
    )
    (tmp_path / "o" / "bounds.json").rmdir()
    (tmp_path / "o" / ".bounds.json.tmp").mkdir()
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --out o: cannot write bounds.json (.bounds.json.tmp is not a regular file)\n"
    )
    (tmp_path / "o" / ".bounds.json.tmp").rmdir()
    (tmp_path / "o").rmdir()
    (tmp_path / "o").write_text("a file\n")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: --out o: cannot create the directory (")


@pytest.mark.parametrize(
    "target",
    ["../victim.txt", "../absent.txt", ".bounds.json.tmp"],
    ids=["file", "dangling", "loop"],
)
def test_symlinked_temporary_is_not_followed(tmp_path, capsys, target):
    out = tmp_path / "o"
    out.mkdir()
    victim = tmp_path / "victim.txt"
    victim.write_text("kept\n")
    (out / ".bounds.json.tmp").symlink_to(target)
    assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(out)]) == 0
    assert victim.read_text() == "kept\n"
    assert not (tmp_path / "absent.txt").exists()
    assert not (out / "bounds.json").is_symlink()
    assert read_json(out / "bounds.json")["value"] == 3.0
    assert sorted(p.name for p in out.iterdir()) == ["bounds.json"]


def test_temporary_swapped_for_a_symlink_after_its_creation_gets_no_write(
    tmp_path, monkeypatch, capsys
):
    # a symlink put in place of the temporary right after its exclusive create, whether by
    # `open(..., "x")` or by `os.open` with O_EXCL, must not receive the file's text: a
    # reopen of the temporary by name would follow it out of --out.  Nor may the rename,
    # which goes by name, make the symlink the output
    out = tmp_path / "o"
    victim = tmp_path / "victim.txt"
    victim.write_text("kept\n")
    swaps = []
    os_open = os.open

    def swap(path):
        if Path(path).name == ".bounds.json.tmp":
            Path(path).unlink()
            Path(path).symlink_to("../victim.txt")
            swaps.append(path)

    def swapping_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "x" in mode:
            swap(path)
        return fh

    def swapping_os_open(path, flags, *args, **kwargs):
        fd = os_open(path, flags, *args, **kwargs)
        if flags & os.O_EXCL:
            swap(path)
        return fd

    monkeypatch.setattr(cli, "open", swapping_open, raising=False)
    monkeypatch.setattr(os, "open", swapping_os_open)
    assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(out)]) == 1
    assert len(swaps) == 1
    assert victim.read_text() == "kept\n"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --out {out}: cannot write bounds.json "
        "(.bounds.json.tmp was replaced while it was written)\n"
    )
    assert list(out.iterdir()) == []


def test_temporary_swapped_after_it_was_written_leaves_no_output(configs_dir, tmp_path, capsys):
    # the third of predict's five temporaries is swapped for a symlink once written and
    # closed: the check before the renames refuses it, so no output file is renamed
    out = tmp_path / "o"
    victim = tmp_path / "victim.txt"
    victim.write_text("kept\n")
    real_open = open

    @contextlib.contextmanager
    def swapping_open(path, *args, **kwargs):
        with real_open(path, *args, **kwargs) as fh:
            yield fh
        if Path(path).name == ".dw_terms.csv.tmp":
            Path(path).unlink()
            Path(path).symlink_to("../victim.txt")

    argv = ["predict", "--config", str(configs_dir / "det_witness_ideal.json"), "--out", str(out)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "open", swapping_open, raising=False)
        assert main(argv) == 1
    assert "(.dw_terms.csv.tmp was replaced while it was written)" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert victim.read_text() == "kept\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_output_files_take_mode_0o666_less_the_umask(configs_dir, tmp_path, umask, mode):
    argv = ["predict", "--config", str(configs_dir / "det_witness_ideal.json")]
    old = os.umask(umask)
    try:
        assert main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    names = ("scenario.json", "probabilities.csv", "dw_terms.csv", "witness.json", "witness.csv")
    assert modes == dict.fromkeys(names, mode)


def test_rerun_rewrites_a_file_whose_mode_a_new_file_would_not_have(configs_dir, tmp_path):
    # a kept file keeps its mode, so only one with the mode a new file gets is kept
    argv = ["predict", "--config", str(configs_dir / "det_witness_ideal.json")]
    argv += ["--out", str(tmp_path)]
    old = os.umask(0o022)
    try:
        assert main(argv) == 0
        (tmp_path / "witness.json").chmod(0o444)
        before = inodes(tmp_path)
        assert main(argv) == 0
        after = inodes(tmp_path)
        assert {n for n in before if after[n] != before[n]} == {"witness.json"}
        os.umask(0o027)
        assert main(argv) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(before, 0o640)
    assert not {i for i, _ in inodes(tmp_path).values()} & {i for i, _ in after.values()}


def test_stale_temporary_file_is_replaced(tmp_path):
    (tmp_path / ".a.txt.tmp").write_text("stale and longer than the new text\n")
    _write_outputs(str(tmp_path), {"a.txt": "new\n"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
    assert (tmp_path / "a.txt").read_text() == "new\n"


@pytest.mark.parametrize(
    "argv, taken",
    [
        (["predict", "--config", "det_witness_ideal.json"], "witness.json"),
        (["simulate", "--config", "det_witness_ideal.json", "--trials", "2000"], "counts.csv"),
        (["report", "--counts", "counts.csv"], "estimated.csv"),
        (["bounds", "--witness", "idw", "-d", "2"], "bounds.json"),
        (["bounds", "--witness", "det", "-d", "2", "--restarts", "10"], "bounds.json"),
        (["spacetime", "reference_geometry_schedule.json"], "spacetime.json"),
    ],
    ids=["predict", "simulate", "report", "bounds-idw", "bounds-det", "spacetime"],
)
def test_failed_write_prints_no_result(configs_dir, tmp_path, capsys, argv, taken):
    # a script reading stdout must not see the result of a run that exits 1
    counts = tmp_path / "counts.csv"
    cells = "".join(f"{i},{j},60,40,0\n" for i in range(4) for j in range(2))
    counts.write_text("i,j,n_e,n_d,n_none\n" + cells)
    paths = {"counts.csv": str(counts)}
    argv = [paths.get(a, str(configs_dir / a) if a.endswith(".json") else a) for a in argv]
    if argv[0] in ("simulate", "report"):
        argv += ["--resamples", "100"]
    out = tmp_path / "o"
    (out / taken).mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out}: cannot write {taken} (")


def test_failed_write_keeps_temporaries_it_did_not_write(tmp_path, monkeypatch):
    fail_writing(monkeypatch, "a.txt")
    stale = tmp_path / ".b.txt.tmp"
    stale.write_text("stale\n")
    files = {"a.txt": "new\n", "b.txt": "new\n"}
    with pytest.raises(ConfigError, match="cannot write a.txt \\(Permission denied\\)"):
        _write_outputs(str(tmp_path), files)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".b.txt.tmp"]
    assert stale.read_text() == "stale\n"


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate", "--out", ""], {}, "pamsim simulate: error: argument --out: "),
        (["predict", "--out", ""], {}, "pamsim predict: error: argument --out: "),
        (["simulate"], {"outputs": ""}, "error: config file cfg.json: top-level config: outputs "),
    ],
    ids=["simulate-flag", "predict-flag", "config"],
)
def test_empty_out_is_refused_before_any_work(tmp_path, monkeypatch, capsys, argv, config, message):
    # `pathlib` spells an empty path ".", so an unset `--out "$OUT"` would write here
    monkeypatch.chdir(tmp_path)
    plan = {"trials_per_setting": 100}
    Path("cfg.json").write_text(json.dumps({"scenario": DET_SCENARIO, "plan": plan, **config}))

    def refuse(*args, **kwargs):
        raise AssertionError("computed before the refusal")

    monkeypatch.setattr(cli, "probability_table", refuse)
    assert main([argv[0], "--config", "cfg.json", *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.endswith("got ''\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


PREDICT_FILES = ("scenario.json", "probabilities.csv", "dw_terms.csv", "witness.json", "witness.csv")


def predict_argv(configs_dir, out):
    return ["predict", "--config", str(configs_dir / "det_witness_ideal.json"), "--out", str(out)]


def inodes(out):
    """Each entry of `out` -> its (inode, mtime in ns), as os.lstat gives them."""
    return {p.name: (p.lstat().st_ino, p.lstat().st_mtime_ns) for p in out.iterdir()}


def test_rerun_keeps_every_file(configs_dir, tmp_path, capsys):
    argv = predict_argv(configs_dir, tmp_path)
    assert main(argv) == 0
    printed = capsys.readouterr().out
    before, data = inodes(tmp_path), {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == sorted(PREDICT_FILES)
    assert main(argv) == 0
    assert capsys.readouterr().out == printed
    assert inodes(tmp_path) == before
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == data


def test_same_size_with_other_bytes_is_replaced(tmp_path):
    (tmp_path / "a.txt").write_text("old\n")
    before = (tmp_path / "a.txt").stat().st_ino
    _write_outputs(str(tmp_path), {"a.txt": "new\n"})
    assert (tmp_path / "a.txt").stat().st_ino != before
    assert (tmp_path / "a.txt").read_text() == "new\n"
    assert os.listdir(tmp_path) == ["a.txt"]


def test_symlink_to_identical_bytes_is_replaced_by_a_file(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    target = tmp_path / "target.txt"
    target.write_text("same\n")
    before = inodes(tmp_path)["target.txt"]
    (out / "a.txt").symlink_to("../target.txt")
    _write_outputs(str(out), {"a.txt": "same\n"})
    assert not (out / "a.txt").is_symlink()
    assert stat.S_ISREG((out / "a.txt").lstat().st_mode)
    assert (out / "a.txt").read_text() == "same\n"
    assert inodes(tmp_path)["target.txt"] == before
    assert target.read_text() == "same\n"
    assert os.listdir(out) == ["a.txt"]


def test_identical_hard_linked_output_is_replaced(tmp_path):
    # were it kept, the next run that changes the file would change the twin too
    out = tmp_path / "o"
    out.mkdir()
    twin = tmp_path / "twin.txt"
    twin.write_text("same\n")
    os.link(twin, out / "a.txt")
    _write_outputs(str(out), {"a.txt": "same\n"})
    assert (out / "a.txt").stat().st_ino != twin.stat().st_ino
    assert (out / "a.txt").read_text() == "same\n"
    assert twin.read_text() == "same\n"
    assert twin.stat().st_nlink == 1


def test_unchanged_output_still_clears_a_stale_temporary(tmp_path):
    (tmp_path / "a.txt").write_text("same\n")
    (tmp_path / ".a.txt.tmp").write_text("stale\n")
    _write_outputs(str(tmp_path), {"a.txt": "same\n"})
    assert os.listdir(tmp_path) == ["a.txt"]
    assert (tmp_path / "a.txt").read_text() == "same\n"


def test_unchanged_output_still_refuses_a_directory_temporary(tmp_path, capsys):
    argv = ["bounds", "--witness", "idw", "-d", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    before = inodes(tmp_path)
    (tmp_path / ".bounds.json.tmp").mkdir()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --out {tmp_path}: cannot write bounds.json "
        "(.bounds.json.tmp is not a regular file)\n"
    )
    assert inodes(tmp_path)["bounds.json"] == before["bounds.json"]


def count_writes(monkeypatch):
    """Counts of `_write_outputs`' exclusive creates and renames, as they are made."""
    calls = {"create": 0, "replace": 0}
    real_open, real_replace = open, os.replace

    def counting_open(path, mode="r", *args, **kwargs):
        calls["create"] += "x" in mode
        return real_open(path, mode, *args, **kwargs)

    def counting_replace(*args, **kwargs):
        calls["replace"] += 1
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    monkeypatch.setattr(os, "replace", counting_replace)
    return calls


def test_rerun_creates_and_renames_only_changed_files(configs_dir, tmp_path, monkeypatch, capsys):
    argv = predict_argv(configs_dir, tmp_path)
    calls = count_writes(monkeypatch)
    assert main(argv) == 0
    assert calls == {"create": 5, "replace": 5}
    calls.update(create=0, replace=0)
    assert main(argv) == 0
    assert calls == {"create": 0, "replace": 0}
    written = (tmp_path / "dw_terms.csv").read_bytes()
    (tmp_path / "dw_terms.csv").write_bytes(written.replace(b"D_00", b"D_99"))
    assert main(argv) == 0
    assert calls == {"create": 1, "replace": 1}
    assert (tmp_path / "dw_terms.csv").read_bytes() == written
    # the "wrote" line names every file, kept or written
    wrote = f"wrote {tmp_path}/{', '.join(PREDICT_FILES)}"
    assert capsys.readouterr().out.splitlines().count(wrote) == 3


def test_failed_write_of_a_changed_file_keeps_every_file(configs_dir, tmp_path, monkeypatch, capsys):
    argv = predict_argv(configs_dir, tmp_path)
    assert main(argv) == 0
    (tmp_path / "witness.json").write_text("edited\n")
    before = inodes(tmp_path)
    data = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fail_writing(monkeypatch, "witness.json")
    assert main(argv) == 1
    assert "cannot write witness.json (Permission denied)" in capsys.readouterr().err
    assert inodes(tmp_path) == before
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == data


class TestParserReuse:
    """`main` reuses one parser per process; no call may see another's flags."""

    def test_main_reuses_one_parser_and_build_parser_makes_new_ones(self):
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()

    def test_commands_are_the_reused_parsers_subparsers(self):
        parser, commands = cli._parser()
        (action,) = parser._subparsers._group_actions
        assert commands is action.choices
        assert list(commands) == ["predict", "simulate", "report", "bounds", "spacetime"]
        assert [p.prog for p in commands.values()] == [f"pamsim {name}" for name in commands]

    def test_entry_reads_sys_argv(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        argv = ["pamsim", "bounds", "--witness", "idw", "-d", "2", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exit:
            cli.entry()
        assert exit.value.code == 0
        assert capsys.readouterr().out == f"classical I_DW bound (d=2): 3\nwrote {out}/bounds.json\n"
        assert read_json(out / "bounds.json")["value"] == 3.0

    def test_search_flags_do_not_carry_over(self, tmp_path, capsys):
        # --witness idw refuses --restarts and --seed, so it fails if they carry over
        det = ["bounds", "--witness", "det", "-d", "2"]
        assert main([*det, "--restarts", "5", "--seed", "3", "--out", str(tmp_path / "d")]) == 0
        assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(tmp_path / "i")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "first, code",
        [
            (["bounds", "--witness", "idw", "--bogus"], 1),
            (["bounds", "--witness", "idw", "extra"], 1),
            (["-h"], 0),
            (["bounds", "-h"], 0),
        ],
        ids=["bad-flag", "leftover-argument", "help", "command-help"],
    )
    def test_good_call_after_an_exit(self, tmp_path, capsys, first, code):
        assert main(first) == code
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["bounds", "--witness", "idw", "-d", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"classical I_DW bound (d=2): 3\nwrote {out}/bounds.json\n"
        assert read_json(out / "bounds.json")["value"] == 3.0

    def test_report_takes_its_own_seed_default_after_simulate(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", DET_SCENARIO, trials=2000)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--seed", "9", "--out", str(sim)]) == 0
        counts = ["report", "--counts", str(sim / "counts.csv"), "--resamples", "500"]
        bare, zero = tmp_path / "bare", tmp_path / "zero"
        assert main([*counts, "--out", str(bare)]) == 0
        assert main([*counts, "--seed", "0", "--out", str(zero)]) == 0
        witness = (bare / "witness.json").read_bytes()
        assert witness == (zero / "witness.json").read_bytes()
        assert witness == (sim / "witness.json").read_bytes()  # no error reads a seed

    def test_output_goes_to_the_streams_of_the_call(self):
        main(["bounds", "-h"])  # the parser exists before the redirected calls
        help_out, help_err, bad_out, bad_err = (io.StringIO() for _ in range(4))
        with contextlib.redirect_stdout(help_out), contextlib.redirect_stderr(help_err):
            assert main(["-h"]) == 0
        with contextlib.redirect_stdout(bad_out), contextlib.redirect_stderr(bad_err):
            assert main(["bounds", "--bogus"]) == 1
        assert help_out.getvalue().startswith("usage: pamsim ")
        assert "predict" in help_out.getvalue()
        assert help_err.getvalue() == bad_out.getvalue() == ""
        assert bad_err.getvalue().startswith("usage: pamsim bounds ")
        assert "pamsim bounds: error: " in bad_err.getvalue()


def parse_outcome(parse, argv):
    """What `parse(argv)` gives under COLUMNS=80: its namespace or ("exit", SystemExit code),
    then what it printed to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def full_parse(argv):
    return build_parser().parse_args(argv)


def argv_tokens():
    """Command names; every flag of every command, with its abbreviations and `=` forms;
    values; -h, --, an unknown command and an unknown flag."""
    commands = cli._parser()[1]
    flags = sorted({flag for p in commands.values() for flag in p._option_string_actions})
    longs = [flag for flag in flags if flag.startswith("--")]
    abbreviations = sorted({flag[:n] for flag in longs for n in range(3, len(flag))} - set(flags))
    equals = [f"{flag}={value}" for flag in longs for value in ("2", "idw", "")]
    values = ["0", "2", "-1", "idw", "det", "true", "maybe", "c.json", "s.json", "out", ""]
    specials = ["-d2", "-hd", "-h", "--", "bogus", "--bogus"]
    return [*commands, *flags, *abbreviations, *equals, *values, *specials]


ARGV_TOKENS = argv_tokens()


class TestDispatch:
    """`cli._parse` hands argv to its command's parser; it must act as the full parse."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bounds"],
            ["spacetime", "--", "s.json"],
            ["spacetime", "--", "-h"],
            ["predict", "--config", "c", "extra"],
            ["bounds", "-d2", "--witness=det"],
            ["bounds", "--wit", "idw", "--h"],
            ["report", "--counts", "c", "--seed", "-1"],
            ["bogus", "--witness", "idw"],
            ["--", "bounds", "--witness", "idw"],
        ],
    )
    def test_hard_cases_match_the_full_parse(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(full_parse, argv)

    @settings(max_examples=300, deadline=None)
    @given(
        argv=st.one_of(
            st.lists(st.sampled_from(ARGV_TOKENS), max_size=8),
            st.builds(
                lambda command, rest: [command, *rest],
                st.sampled_from(list(cli._parser()[1])),
                st.lists(st.sampled_from(ARGV_TOKENS), max_size=8),
            ),
        )
    )
    def test_dispatch_matches_the_full_parse(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(full_parse, argv)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Each `pamsim ...` command of the README's command-line block, as argv."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("pamsim ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands, "the README has no pamsim command block"
    for argv in commands:
        # the parser exits on a flag the command does not take
        assert cli._parse(argv).func


def test_readme_flag_list_is_each_parsers_options():
    # each "- `command`: `--flag`, `-d/--dimension`, ..." line of the README's flag list
    section = README.read_text(encoding="utf-8").split("### Flags", 1)[1].split("\n#", 1)[0]
    listed = {}
    for line in section.splitlines():
        command, colon, flags = line.removeprefix("- `").partition("`:")
        if line.startswith("- `") and colon:
            found = re.findall(r"`(-[^`]*)`", flags)
            listed[command] = {name for text in found for name in text.split("/")}
    options = {
        command: {name for action in parser._actions for name in action.option_strings}
        - {"-h", "--help"}
        for command, parser in cli._parser()[1].items()
    }
    assert listed == options


def test_readme_commands_run(configs_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        argv = [str(configs_dir.parent / a) if a.startswith("configs/") else a for a in argv]
        assert main(argv) == 0, argv
        # the "wrote" line names exactly the files in the output directory
        out = argv[argv.index("--out") + 1]
        wrote = capsys.readouterr().out.splitlines()[-1]
        assert wrote.startswith(f"wrote {out}/"), (argv, wrote)
        names = wrote[len(f"wrote {out}/") :].split(", ")
        assert sorted(names) == sorted(p.name for p in Path(out).iterdir()), argv
        if argv[0] == "report":
            # the README's promise: report on simulate's counts reproduces its witness.json
            simulated = Path(argv[argv.index("--counts") + 1]).parent / "witness.json"
            reported = Path(argv[argv.index("--out") + 1]) / "witness.json"
            assert reported.read_bytes() == simulated.read_bytes()
