import csv
import json
import math
import shlex
from pathlib import Path

import pytest

from pamsim.cli import build_parser, main
from pamsim.spacetime import Event, Schedule, reference_schedule
from pamsim.witness import I_DW_QUANTUM, R_QUANTUM


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
        ],
        ids=[
            "short", "long", "plus", "underscore", "space",
            "plus-index", "letter-index", "fullwidth-digit", "count-overflow", "sum-overflow",
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
        # numpy refuses either count with a message that does not name the key
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

    def test_report_names_the_emptied_cell(self, tmp_path, capsys):
        # 2 detections in 302 trials per cell: some resample empties cell (0, 0)
        counts = tmp_path / "counts.csv"
        rows = [f"{i},{j},1,1,300" for i in range(4) for j in range(2)]
        counts.write_text("i,j,n_e,n_d,n_none\n" + "\n".join(rows) + "\n")
        argv = ["report", "--counts", str(counts), "--resamples", "100", "--out", str(tmp_path)]
        assert main(argv + ["--fair-sampling", "true"]) == 2
        err = capsys.readouterr().err
        assert "emptied a postselected cell (i=0, j=0)" in err
        assert main(argv + ["--fair-sampling", "false"]) == 0

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
        assert payload["n_strategies"] == 128
        assert "strategy" in payload

    def test_idw_d3_saturates(self, tmp_path):
        assert main(["bounds", "--witness", "idw", "-d", "3", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "bounds.json")["value"] == 5.0

    def test_det_d2_null(self, tmp_path):
        rc = main(
            ["bounds", "--witness", "det", "-d", "2", "--restarts", "300", "--seed", "7", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "bounds.json")
        assert payload["deterministic_max"] == 0.0
        assert payload["mixture_max"] <= 1e-9
        assert payload["n_strategies"] == 256

    def test_negative_restarts_exit_code(self, tmp_path):
        argv = ["bounds", "--witness", "det", "-d", "2", "--restarts", "-3", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert not (tmp_path / "bounds.json").exists()

    def test_zero_restarts_is_deterministic_only(self, tmp_path):
        argv = ["bounds", "--witness", "det", "-d", "3", "--restarts", "0", "--out", str(tmp_path)]
        assert main(argv) == 0
        payload = read_json(tmp_path / "bounds.json")
        assert payload["restarts"] == 0
        assert payload["mixture_max"] == 0.0
        assert payload["value"] == payload["deterministic_max"] == 1.0

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

    def test_enumeration_cap_exit_code(self, tmp_path):
        # 8^3 * 2^16 = 33,554,432 strategies exceeds the default cap
        out = tmp_path / "out"
        assert main(["bounds", "--witness", "idw", "-d", "8", "--out", str(out)]) == 2
        assert not out.exists()


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


def readme_commands():
    """Each `pamsim ...` command of the README's command-line block, as argv."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("pamsim ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert commands, "the README has no pamsim command block"
    for argv in commands:
        # the parser exits on a flag the command does not take
        assert build_parser().parse_args(argv).func


def test_readme_commands_run(configs_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        argv = [str(configs_dir.parent / a) if a.startswith("configs/") else a for a in argv]
        assert main(argv) == 0, argv
        if argv[0] == "report":
            # the README's promise: report on simulate's counts reproduces its witness.json
            simulated = Path(argv[argv.index("--counts") + 1]).parent / "witness.json"
            reported = Path(argv[argv.index("--out") + 1]) / "witness.json"
            assert reported.read_bytes() == simulated.read_bytes()
