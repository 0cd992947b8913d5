"""numpy on first use: the commands that compute with no array never load it.

Each check runs in a fresh interpreter in isolated mode, with pamsim's `src` first on
its path, and reads only `sys.modules`: an attribute read of the lazily loaded module
would itself execute numpy.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import pamsim
from pamsim._lazy import _lazy

SRC = Path(pamsim.__file__).resolve().parents[1]
SCHEDULE = Path(__file__).resolve().parents[1] / "configs" / "reference_geometry_schedule.json"
CONFIG = SCHEDULE.with_name("dimension_witness_ideal.json")
CORE = "numpy._core"  # imported by numpy's own __init__, so present once numpy has run


def run_isolated(code: str) -> list:
    """The JSON lines that `code` prints in a fresh `python -I` that imports pamsim from
    `SRC`; `loaded()` in `code` says whether numpy has run."""
    prelude = (
        f"import contextlib, io, json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
        f"def loaded():\n    return {CORE!r} in sys.modules\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", prelude + code], capture_output=True, text=True, check=True
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_only_array_commands_load_numpy(tmp_path):
    out = str(tmp_path / "out")
    argvs = [
        *(["bounds", "--witness", "idw", "-d", str(d), "--out", out] for d in (2, 3, 4)),
        *(["bounds", "--witness", "det", "-d", str(d), "--out", out] for d in (2, 3)),
        ["spacetime", str(SCHEDULE)],
        ["--help"],
        ["bounds", "--witness", "none"],  # a usage error
        ["predict", "--config", str(CONFIG), "--out", out],
    ]
    code = f"""
import pamsim
print(json.dumps(["import pamsim", 0, loaded()]))
pamsim.retrocausal_max(pamsim.dimension_witness, 2, 3, 2, 0.5)
print(json.dumps(["retrocausal_max", 0, loaded()]))
from pamsim.cli import main
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(json.dumps([argv[0], code, loaded()]))
"""
    runs = run_isolated(code)
    assert [name for name, _, _ in runs] == [
        "import pamsim", "retrocausal_max", *(argv[0] for argv in argvs)
    ]
    assert [code for _, code, _ in runs] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0]
    # predict computes with arrays: it loads numpy, so the checks before it can fail
    assert [numpy for _, _, numpy in runs] == [False] * 10 + [True]


def test_numpy_imported_first_is_used_unchanged():
    [[same, before]] = run_isolated(
        "import numpy\nbefore = loaded()\nimport pamsim._lazy\n"
        "print(json.dumps([pamsim._lazy.np is numpy, before]))"
    )
    assert same and before


def test_import_numpy_after_pamsim_returns_the_object_pamsim_uses():
    [[same, first_use]] = run_isolated(
        "import pamsim\nimport numpy\n"
        "print(json.dumps([numpy is pamsim._lazy.np, numpy.arange(4).sum().item()]))"
    )
    assert same and first_use == 6


def test_first_use_through_pamsim_loads_numpy():
    [[before, first_use, same]] = run_isolated(
        "import pamsim._lazy\nbefore = loaded()\nfirst_use = pamsim._lazy.np.arange(4).tolist()\n"
        "import numpy\nprint(json.dumps([before, first_use, numpy is pamsim._lazy.np]))"
    )
    assert not before and first_use == [0, 1, 2, 3] and same


def test_missing_module_is_refused_and_not_registered():
    name = "pamsim_no_such_module"
    with pytest.raises(ModuleNotFoundError, match=name):
        _lazy(name)
    assert name not in sys.modules
