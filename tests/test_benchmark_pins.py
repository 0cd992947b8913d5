"""The benchmark's tracer installs on the names of pamsim it wraps and counts.

`perfbench/tracing.py` looks each name up with `inspect.getattr_static`, so a
deleted or renamed one fails here, not only in the traced benchmark run; so
does a changed signature of a bound function that the benchmark calls or
whose arguments its tracer counts work from.
"""

import importlib
import inspect
import json

import pytest

import pamsim.classical
import pamsim.witness
from pamsim import classical, cli


@pytest.mark.parametrize(
    "config", ("det_witness_ideal.json", "dimension_witness_ideal.json", "fitted_no_fsa.json")
)
@pytest.mark.parametrize("d", ("2", "3", "4"))
def test_tracer_installs_and_counts_no_line_search(configs_dir, tmp_path, monkeypatch, d, config):
    monkeypatch.syspath_prepend(str(configs_dir.parent / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    stub = inspect.getattr_static(classical, "_best_coordinate_move")
    det = ["bounds", "--witness", "det", "-d", d, "--restarts", "5", "--seed", "1"]
    predict = ["predict", "--config", str(configs_dir / config)]
    tracer.begin()
    with tracer.installed():
        assert cli.main([*det, "--out", str(tmp_path / "bounds")]) == 0
        assert cli.main([*predict, "--out", str(tmp_path / "predict")]) == 0
    summary = tracer.summary()
    assert summary["cli.main.calls"] == 2
    assert summary["classical.classical_max_det.calls"] == 1
    assert tracer.counts["classical.det.line_searches"] == 0
    assert inspect.getattr_static(classical, "_best_coordinate_move") is stub


def test_tracer_pins_the_linear_bound_signatures(configs_dir, tmp_path, monkeypatch):
    # the benchmark calls the I_DW bounds through the CLI and `retrocausal_max` directly, and
    # its work counter takes the arguments of each `classical_max_linear` call
    monkeypatch.syspath_prepend(str(configs_dir.parent / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    values = []
    tracer.begin()
    with tracer.installed():
        for d in ("2", "3", "4"):
            out = tmp_path / f"idw_d{d}"
            assert cli.main(["bounds", "--witness", "idw", "-d", d, "--out", str(out)]) == 0
            values.append(json.loads((out / "bounds.json").read_text())["value"])
        # both names looked up at call time, as the benchmark's workloads do
        retro = pamsim.classical.retrocausal_max(pamsim.witness.dimension_witness, 2, 3, 2, 0.5)
    assert values == [3.0, 5.0, 5.0]
    assert retro == 4.0
    summary = tracer.summary()
    assert summary["classical.classical_max_linear.calls"] == 3
    assert summary["classical.retrocausal_max.calls"] == 1
