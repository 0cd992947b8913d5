"""Seeded inputs, operation sequences and correctness checks of the workloads.

Each workload is a fixed list of steps that one client runs in order, each
step only after the previous one has returned (a closed loop). A step drives
pamsim the way a user does: the README commands through
``pamsim.cli.main(argv)``, heralded preparation and the retrocausal sweep
through the library API. Steps look pamsim's functions up on their modules at
call time, so the wrappers the traced run installs are the ones called.

pamsim only ever sees the generated configs, schedules and seed values, never
the workload's name.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import pamsim.classical
import pamsim.cli
import pamsim.scenario
import pamsim.witness
from pamsim import reference_schedule, retrocausality

TRIALS_PER_SETTING = 1_000_000
RESAMPLES = 100_000
# (preparations, fair_sampling, setting_order): covers both flag values and
# both orders on the three-preparation (I_DW) and four-preparation (det W) sets.
ANALYSIS_CASES = (
    (3, True, "round-robin"),
    (3, False, "random-per-trial"),
    (4, True, "random-per-trial"),
    (4, False, "round-robin"),
)
IDW_DIMENSIONS = (2, 3, 4)
RETRO_LEAKS = 6
DET_RUNS = ((2, 2000), (3, 500))  # (message dimension, restarts)
TOL = 1e-12

SIZES = {
    "trials_per_setting": TRIALS_PER_SETTING,
    "resamples": RESAMPLES,
    "analysis_cases": len(ANALYSIS_CASES),
    "idw_dimensions": list(IDW_DIMENSIONS),
    "retro_leaks": RETRO_LEAKS,
    "det_runs": [list(run) for run in DET_RUNS],
}


@dataclass
class Step:
    """One operation of a session."""

    name: str  # unique in the session
    metric: str  # per-command metric this step's time adds to
    weight: float  # share of its time that goes into that metric
    call: Callable[[], object]
    check: Callable[[object], str | None]  # error message, None when correct
    out: Path | None = None  # directory whose files must repeat byte for byte


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = pamsim.cli.main(argv)
        return code, sink.getvalue()

    return call


def _exit_error(result: tuple[int, str]) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}: {text.strip()[-300:]}"
    return None


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _draw(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 6)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def closed_form_witness(scenario: dict) -> tuple[float, float | None]:
    """(I_DW, |det W|) from p_e = eta (1 + V cos(alpha - beta)) / 2."""
    eta, vis = scenario["efficiency"], scenario["visibility"]
    p_e, p_d = [], []
    for a in scenario["alphas_pi"]:
        row_e, row_d = [], []
        for b in scenario["betas_pi"]:
            c = vis * math.cos(math.pi * (a - b))
            e, d = eta * (1.0 + c) / 2.0, eta * (1.0 - c) / 2.0
            if scenario["fair_sampling"]:
                e, d = e / (e + d), d / (e + d)
            row_e.append(e)
            row_d.append(d)
        p_e.append(row_e)
        p_d.append(row_d)
    dv = [[e - d for e, d in zip(re, rd)] for re, rd in zip(p_e, p_d)]
    i_dw = dv[0][0] + dv[0][1] + dv[1][0] - dv[1][1] - dv[2][0]
    if len(p_d) < 4:
        return i_dw, None
    w = [[p_d[2 * k][l] - p_d[2 * k + 1][l] for l in (0, 1)] for k in (0, 1)]
    return i_dw, abs(w[0][0] * w[1][1] - w[0][1] * w[1][0])


def _check_predict(scenario: dict, out: Path, result) -> str | None:
    error = _exit_error(result)
    if error:
        return error
    report = _read_json(out / "witness.json")
    i_dw, det_abs = closed_form_witness(scenario)
    if abs(report["i_dw"] - i_dw) > TOL:
        return f"I_DW {report['i_dw']!r} differs from closed form {i_dw!r}"
    if (det_abs is None) != (report["det_abs"] is None) or (
        det_abs is not None and abs(report["det_abs"] - det_abs) > TOL
    ):
        return f"|det W| {report['det_abs']!r} differs from closed form {det_abs!r}"
    return None


def _heralded_vs_direct(scenario):
    return (
        pamsim.scenario.heralded_table(scenario),
        pamsim.scenario.probability_table(scenario),
    )


def _check_herald(tables) -> str | None:
    heralded, direct = tables
    for name in ("p_e", "p_d", "p_none"):
        gap = float(abs(getattr(heralded, name) - getattr(direct, name)).max())
        if gap > TOL:
            return f"heralded {name} differs from direct preparation by {gap:.3g}"
    return None


def _check_report(simulated: Path, reported: Path, result) -> str | None:
    error = _exit_error(result)
    if error:
        return error
    if (reported / "witness.json").read_bytes() != (simulated / "witness.json").read_bytes():
        return "report witness.json differs from the one simulate wrote"
    return None


def _perturbed_schedule(rng: random.Random) -> dict:
    # Moving every event by at most 1 ns keeps all five causal conditions of
    # the reference schedule satisfied: its tightest margin, 2.7 ns between
    # the preparer's photon arrival and measurement, exceeds the 2 ns that
    # two moved events can close.
    doc = reference_schedule().to_json_dict()
    for event in doc["events"]:
        event["time_ns"] = round(event["time_ns"] + rng.uniform(-1.0, 1.0), 6)
    return doc


def analysis(seed: int, work: Path) -> list[Step]:
    rng = random.Random(seed)
    steps = []
    share = 1.0 / len(ANALYSIS_CASES)
    for k, (n_prep, fair, order) in enumerate(ANALYSIS_CASES):
        scenario = {
            "alphas_pi": [_draw(rng, -1.0, 1.0) for _ in range(n_prep)],
            "betas_pi": [_draw(rng, -1.0, 1.0) for _ in range(2)],
            "visibility": _draw(rng, 0.8, 1.0),
            "efficiency": _draw(rng, 0.1, 1.0),
            "fair_sampling": fair,
        }
        plan_seed = _seed(rng)
        config = work / f"case{k}.json"
        config.write_text(
            json.dumps(
                {
                    "scenario": scenario,
                    "plan": {
                        "trials_per_setting": TRIALS_PER_SETTING,
                        "seed": plan_seed,
                        "setting_order": order,
                    },
                    "resamples": RESAMPLES,
                },
                indent=2,
            ),
            encoding="utf-8",
        )
        schedule = work / f"case{k}_schedule.json"
        schedule.write_text(json.dumps(_perturbed_schedule(rng), indent=2), encoding="utf-8")
        direct = pamsim.scenario.Scenario.from_json_dict(scenario)

        out = work / "out" / f"case{k}"
        predicted, simulated, reported, checked = (
            out / "predict", out / "simulate", out / "report", out / "spacetime"
        )
        steps += [
            Step(
                f"case{k}.predict", "predict_s", share,
                _cli(["predict", "--config", str(config), "--out", str(predicted)]),
                partial(_check_predict, scenario, predicted), predicted,
            ),
            Step(
                f"case{k}.herald", "herald_s", share,
                partial(_heralded_vs_direct, direct), _check_herald,
            ),
            Step(
                f"case{k}.simulate", "simulate_s", share,
                _cli(["simulate", "--config", str(config), "--out", str(simulated)]),
                _exit_error, simulated,
            ),
            Step(
                f"case{k}.report", "report_s", share,
                _cli([
                    "report", "--counts", str(simulated / "counts.csv"),
                    "--seed", str(plan_seed), "--resamples", str(RESAMPLES),
                    "--fair-sampling", str(fair).lower(), "--out", str(reported),
                ]),
                partial(_check_report, simulated, reported), reported,
            ),
            Step(
                f"case{k}.spacetime", "spacetime_s", share,
                _cli(["spacetime", str(schedule), "--out", str(checked)]),
                _exit_error, checked,
            ),
        ]
    return steps


# ---------------------------------------------------------------------------
# bounds: exhaustive I_DW bounds, retrocausal sweep, determinant-null search
# ---------------------------------------------------------------------------


def _check_idw(dimension: int, out: Path, result) -> str | None:
    error = _exit_error(result)
    if error:
        return error
    expected = 3.0 if dimension == 2 else 5.0
    value = _read_json(out / "bounds.json")["value"]
    if value != expected:
        return f"I_DW bound for d={dimension} is {value!r}, expected {expected}"
    return None


def _retro_sweep_point(leak: float) -> float:
    return pamsim.classical.retrocausal_max(pamsim.witness.dimension_witness, 2, 3, 2, leak)


def _check_retro(leak: float, value: float) -> str | None:
    r = retrocausality(value)
    if r > leak:
        return f"R = {r!r} exceeds leak {leak!r}"
    return None


def _check_det(dimension: int, out: Path, result) -> str | None:
    error = _exit_error(result)
    if error:
        return error
    value = _read_json(out / "bounds.json")["value"]
    if dimension == 2 and value > 1e-9:
        return f"|det W| bound for d=2 is {value!r}, expected 0"
    return None


def bounds(seed: int, work: Path) -> list[Step]:
    rng = random.Random(seed)
    steps = []
    for d in IDW_DIMENSIONS:
        out = work / "out" / f"idw_d{d}"
        steps.append(
            Step(
                f"idw.d{d}", "bounds_idw_s", 1.0,
                _cli(["bounds", "--witness", "idw", "-d", str(d), "--out", str(out)]),
                partial(_check_idw, d, out), out,
            )
        )
    for n in range(RETRO_LEAKS):
        leak = _draw(rng, 0.01, 1.0)
        steps.append(
            Step(
                f"retro.{n}", "retro_sweep_s", 1.0,
                partial(_retro_sweep_point, leak), partial(_check_retro, leak),
            )
        )
    for d, restarts in DET_RUNS:
        out = work / "out" / f"det_d{d}"
        argv = [
            "bounds", "--witness", "det", "-d", str(d), "--restarts", str(restarts),
            "--seed", str(_seed(rng)), "--out", str(out),
        ]
        steps.append(
            Step(
                f"det.d{d}", "bounds_det_s", 1.0,
                _cli(argv), partial(_check_det, d, out), out,
            )
        )
    return steps


WORKLOADS = {"analysis": analysis, "bounds": bounds}
