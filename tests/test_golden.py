"""Deterministic CLI commands reproduce the committed golden outputs byte for byte.

`tests/golden/regen.py` lists the cases and rebuilds the goldens after an
intended output change.  Its `mismatches()` is what CI runs against the
installed package, so it is tested here too.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden import regen
from golden.regen import CASES, GOLDEN, recorded, run_case

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_golden_directory_is_a_listed_case():
    found = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name != "__pycache__")
    assert found == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_byte_identical_to_golden(name, tmp_path):
    assert run_case(CASES[name], tmp_path) == recorded(name)


@pytest.fixture
def one_case(tmp_path, monkeypatch):
    """A copy of the `bounds_idw_d2` goldens, made the only case."""
    name = "bounds_idw_d2"
    shutil.copytree(GOLDEN / name, tmp_path / name)
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    monkeypatch.setattr(regen, "CASES", {name: CASES[name]})
    return tmp_path / name


def flip_a_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "change, found",
    [
        (lambda c: flip_a_byte(c / "files" / "bounds.json"), "bounds_idw_d2: files/bounds.json"),
        (lambda c: flip_a_byte(c / "stdout"), "bounds_idw_d2: stdout"),
        (lambda c: (c / "exit_code").write_text("1\n"), "bounds_idw_d2: exit_code"),
        (lambda c: (c / "files" / "bounds.json").unlink(), "bounds_idw_d2: files/bounds.json"),
        (lambda c: (c / "files" / "x.json").write_text("{}\n"), "bounds_idw_d2: files/x.json"),
        (lambda c: (c.parent / "stray").mkdir(), "stray: not a listed case"),
    ],
    ids=["output-byte", "stdout-byte", "exit-code", "missing-file", "extra-file", "unlisted-dir"],
)
def test_each_difference_is_one_mismatch(one_case, change, found):
    change(one_case)
    assert regen.mismatches() == [found]


def test_runner_needs_neither_pytest_nor_hypothesis():
    # as CI runs it on the installed package: pamsim and the goldens alone on the path
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; import pamsim, regen; "
        "bad = regen.mismatches(); "
        "print(json.dumps([bad, pamsim.__file__, sorted({'pytest', 'hypothesis'} & "
        "{m.partition('.')[0] for m in sys.modules})]))"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(SRC), str(GOLDEN)],
        capture_output=True, text=True, check=True,
    )
    bad, pamsim_file, loaded = json.loads(run.stdout)
    assert bad == []
    assert Path(pamsim_file).is_relative_to(SRC)
    assert loaded == []
