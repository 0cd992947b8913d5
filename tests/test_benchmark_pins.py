"""The benchmark's tracer installs on the names of pamsim it wraps and counts.

`perfbench/tracing.py` looks each name up with `inspect.getattr_static`, so a
deleted or renamed one fails here, not only in the traced benchmark run.
"""

import importlib
import inspect

import pytest

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
