"""Scenarios of the bundled configs, with any field replaced, for tests that vary them."""

from dataclasses import replace
from pathlib import Path

from pamsim.scenario import Scenario, load_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DET = "det_witness_ideal"  # four preparations: the 2x2 witness matrix
IDW = "dimension_witness_ideal"  # three preparations: the linear dimension witness


def bundled_scenario(name: str, **changes) -> Scenario:
    """The scenario of `configs/<name>.json`, with the Scenario fields in `changes` replaced."""
    scenario = Scenario.from_json_dict(load_json(CONFIGS / f"{name}.json")["scenario"])
    return replace(scenario, **changes)
