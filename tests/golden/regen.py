"""Rebuild the golden outputs that `tests/test_golden.py` compares byte for byte.

Each case runs one deterministic CLI command in a fresh working directory,
writing into `out/` there, and records what the command wrote: the files in
`out/` (kept under `files/`, since `out/` is git-ignored), its stdout and
stderr, and its exit code.  `simulate` is left out, because numpy does
not promise its `Generator` streams across versions.
`report` draws nothing: its errors are closed forms.  It runs on two
fixtures, the counts that `pamsim.trials.sample` drew without fair sampling
at visibility 0.9 and efficiency 0.6, 100000 trials per setting, seed
20260810: `dimension_witness_counts.csv` for the three preparations of
`dimension_witness_ideal`, and `det_witness_counts.csv` for the four of
`det_witness_ideal`, which have W.  The
`error_*` cases are the README's usage errors (exit 1) and domain errors
(exit 2); they record the exit code, an empty stdout and the message on
stderr, and write nothing.

Run from the repository root after an intended output change:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

from pamsim.cli import main

GOLDEN = Path(__file__).resolve().parent
CONFIGS = GOLDEN.parent.parent / "configs"
COUNTS = GOLDEN / "dimension_witness_counts.csv"
DET_COUNTS = GOLDEN / "det_witness_counts.csv"


def _bounds(witness: str, d: int, *extra: str) -> list[str]:
    return ["bounds", "--witness", witness, "-d", str(d), *extra, "--out", "out"]


def _simulate(*flags: str) -> list[str]:
    config = str(CONFIGS / "det_witness_ideal.json")
    return ["simulate", "--config", config, *flags, "--out", "out"]


def _report(*flags: str) -> list[str]:
    return ["report", "--counts", str(COUNTS), *flags, "--out", "out"]


CASES = {
    **{
        f"predict_{name}": ["predict", "--config", str(CONFIGS / f"{name}.json"), "--out", "out"]
        for name in ("det_witness_ideal", "dimension_witness_ideal", "fitted_no_fsa")
    },
    **{f"bounds_idw_d{d}": _bounds("idw", d) for d in (*range(1, 9), 8000)},
    **{f"bounds_det_d{d}": _bounds("det", d) for d in (*range(2, 8), 12)},
    "spacetime": ["spacetime", str(CONFIGS / "reference_geometry_schedule.json"), "--out", "out"],
    **{
        f"report_{name}_fair_{fair}": [
            "report", "--counts", str(counts), "--fair-sampling", fair, "--out", "out"
        ]
        for name, counts in (("dimension_witness", COUNTS), ("det_witness", DET_COUNTS))
        for fair in ("true", "false")
    },
    # the README's error cases: each writes nothing; the domain errors (beyond int64 or
    # the resample limit) exit 2, the others 1
    "error_negative_seed": _report("--seed", "-1"),
    "error_bounds_idw_d0": _bounds("idw", 0),
    "error_bounds_det_d1": _bounds("det", 1),
    "error_config_is_a_directory": ["predict", "--config", ".", "--out", "out"],
    "error_resamples_99": _report("--resamples", "99"),
    "error_trials_0": _simulate("--trials", "0"),
    "error_trials_beyond_int64": _simulate("--trials", "9223372036854775808"),
    "error_resamples_beyond_limit": _report("--resamples", "384307168202282326"),
    "error_fair_sampling_maybe": _report("--fair-sampling", "maybe"),
}


def run_case(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Run `pamsim argv` in `workdir` and return what it wrote, by golden file name:
    `exit_code`, `stdout`, `stderr` and `files/<name>` for each file in `out/`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # argparse wraps its usage lines to the terminal width, which COLUMNS fixes
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            code = main(argv)
    finally:
        os.chdir(cwd)
    found = {
        "exit_code": f"{code}\n".encode(),
        "stdout": stdout.getvalue().encode(),
        "stderr": stderr.getvalue().encode(),
    }
    out = workdir / "out"
    if out.is_dir():
        found.update((f"files/{path.name}", path.read_bytes()) for path in sorted(out.iterdir()))
    return found


def recorded(name: str) -> dict[str, bytes]:
    """The golden files of case `name`, as `run_case` returns them."""
    case = GOLDEN / name
    return {
        path.relative_to(case).as_posix(): path.read_bytes()
        for path in sorted(case.rglob("*"))
        if path.is_file()
    }


def regenerate() -> None:
    """Rewrite every case directory from a fresh run, and drop directories of unlisted cases."""
    for stale in GOLDEN.iterdir():
        if stale.is_dir() and stale.name not in CASES and stale.name != "__pycache__":
            shutil.rmtree(stale)
    for name, argv in CASES.items():
        case = GOLDEN / name
        shutil.rmtree(case, ignore_errors=True)
        with tempfile.TemporaryDirectory() as work:
            files = run_case(argv, Path(work))
        for rel, data in files.items():
            (case / rel).parent.mkdir(parents=True, exist_ok=True)
            (case / rel).write_bytes(data)
        print(f"{name}: exit {files['exit_code'].decode().strip()}, {len(files) - 3} output files")


if __name__ == "__main__":
    regenerate()
