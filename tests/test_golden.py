"""Deterministic CLI commands reproduce the committed golden outputs byte for byte.

`tests/golden/regen.py` lists the cases and rebuilds the goldens after an
intended output change.
"""

import pytest

from golden.regen import CASES, GOLDEN, recorded, run_case


def test_every_golden_directory_is_a_listed_case():
    found = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name != "__pycache__")
    assert found == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_byte_identical_to_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == recorded(name)
