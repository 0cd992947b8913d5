"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
"""

import json
import math
from time import perf_counter

import numpy as np
from bundled import DET, IDW, bundled_scenario
from oracles import enumerate_deterministic, mixture_table

from pamsim.classical import (
    classical_max_det,
    retrocausal_max,
    setting_aware_max,
    strategy_table,
)
from pamsim.cli import main
from pamsim.scenario import (
    heralded_table,
    probability_table,
)
from pamsim.spacetime import (
    C_M_PER_NS,
    LIGHT_LIKE,
    Event,
    Schedule,
    interval,
    reference_schedule,
    validate,
)
from pamsim.trials import RunPlan, bootstrap_report, estimate, sample
from pamsim.witness import (
    I_DW_QUANTUM,
    R_QUANTUM,
    det_witness,
    dimension_witness,
    sigma_violation,
)

SEED = 20260810


def _finish(label, budget, t0, checks):
    elapsed = perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    in_budget = budget is None or elapsed < budget
    ok = not failed and in_budget
    budget_note = "" if budget is None else f", budget {budget:g}s"
    print(f"[{label}] {'PASS' if ok else 'FAIL'} in {elapsed:.2f}s{budget_note}")
    assert not failed, f"{label} failed checks: {failed}"
    assert in_budget, f"{label} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_ideal_quantum_predictions(configs_dir, tmp_path):
    t0 = perf_counter()
    out_det = tmp_path / "det"
    out_idw = tmp_path / "idw"
    rc_det = main(
        ["predict", "--config", str(configs_dir / "det_witness_ideal.json"), "--out", str(out_det)]
    )
    rc_idw = main(
        ["predict", "--config", str(configs_dir / "dimension_witness_ideal.json"), "--out", str(out_idw)]
    )
    det_report = json.loads((out_det / "witness.json").read_text())
    idw_report = json.loads((out_idw / "witness.json").read_text())
    checks = [
        ("predict exits cleanly", rc_det == 0 and rc_idw == 0),
        ("|det W| = 1 within 1e-12", abs(det_report["det_abs"] - 1.0) <= 1e-12),
        ("I_DW = 1+2*sqrt(2) within 1e-12", abs(idw_report["i_dw"] - I_DW_QUANTUM) <= 1e-12),
        ("R = (sqrt(2)-1)/2 within 1e-12", abs(idw_report["r"] - R_QUANTUM) <= 1e-12),
    ]
    _finish("criterion-1 ideal predictions", 1.0, t0, checks)


def test_criterion_2_classical_bounds_by_oracle():
    t0 = perf_counter()
    idw_values = [
        dimension_witness(strategy_table(s, 3, 2)) for s in enumerate_deterministic(2, 3, 2)
    ]
    det_values = [
        det_witness(strategy_table(s, 4, 2)) for s in enumerate_deterministic(2, 4, 2)
    ]
    search = classical_max_det(2, restarts=10_000, seed=SEED)
    checks = [
        ("128 deterministic strategies", len(idw_values) == 128),
        ("max I_DW exactly 3", max(idw_values) == 3.0),
        ("256 deterministic strategies", len(det_values) == 256),
        ("max |det W| exactly 0", max(det_values) == 0.0),
        ("mixture search <= 1e-9 over 1e4 restarts", search.mixture_max <= 1e-9),
        ("search restarts recorded", search.restarts == 10_000),
    ]
    _finish("criterion-2 classical bounds", 10.0, t0, checks)


def test_criterion_3_loss_noise_scaling_laws():
    t0 = perf_counter()
    etas = np.arange(0.1, 1.01, 0.1)
    vees = np.arange(0.1, 1.01, 0.1)
    det_ok = True
    idw_ok = True
    for eta in etas:
        for v in vees:
            raw = probability_table(
                bundled_scenario(DET, visibility=float(v), efficiency=float(eta), fair_sampling=False)
            )
            if abs(det_witness(raw) - eta**2 * v**2) > 1e-12:
                det_ok = False
            fsa = probability_table(bundled_scenario(IDW, visibility=float(v)))
            if abs(dimension_witness(fsa) - v * I_DW_QUANTUM) > 1e-12:
                idw_ok = False
    checks = [
        ("|det W| = eta^2 V^2 on the 10x10 grid", det_ok),
        ("I_DW = V (1+2*sqrt(2)) on the grid", idw_ok),
    ]
    _finish("criterion-3 scaling laws", 1.0, t0, checks)


def test_criterion_4_reported_value_reconstruction():
    t0 = perf_counter()
    v_fit = math.sqrt(0.778)
    det_fsa = det_witness(probability_table(bundled_scenario(DET, visibility=v_fit)))
    eta_fit = math.sqrt(0.0268 / 0.778)
    det_raw = det_witness(
        probability_table(
            bundled_scenario(DET, visibility=v_fit, efficiency=eta_fit, fair_sampling=False)
        )
    )
    checks = [
        ("V=sqrt(0.778) gives |det W| = 0.778 +- 0.001", abs(det_fsa - 0.778) <= 1e-3),
        ("eta=sqrt(0.0268/0.778) gives 0.0268 +- 0.0005", abs(det_raw - 0.0268) <= 5e-4),
        ("sigma(0.0268/0.0006) ~= 44.7", abs(sigma_violation(0.0268, 0.0006, 0.0) - 44.7) <= 0.1),
        ("sigma(3.445/0.043 over 3) ~= 10.3", abs(sigma_violation(3.445, 0.043, 3.0) - 10.3) <= 0.1),
    ]
    _finish("criterion-4 reported-value fit", None, t0, checks)


def test_criterion_5_finite_statistics_behavior():
    t0 = perf_counter()
    table = probability_table(bundled_scenario(IDW))
    sigmas = {}
    for k, n in enumerate((1_000, 10_000, 100_000)):
        counts = sample(table, RunPlan(n, seed=SEED + k))
        report = bootstrap_report(counts, resamples=4000, seed=SEED + k, fair_sampling=True)
        sigmas[n] = report.uncertainties["i_dw"]
    ratio_low = sigmas[1_000] / sigmas[10_000]
    ratio_high = sigmas[10_000] / sigmas[100_000]
    sqrt10 = math.sqrt(10.0)

    raw = probability_table(
        bundled_scenario(DET, visibility=0.9, efficiency=0.8, fair_sampling=False)
    )
    counts = sample(raw, RunPlan(1_000_000, seed=SEED))
    est = estimate(counts, fair_sampling=False)
    max_dev = max(
        np.abs(est.p_e - raw.p_e).max(),
        np.abs(est.p_d - raw.p_d).max(),
        np.abs(est.p_none - raw.p_none).max(),
    )
    checks = [
        ("sigma ratio 1e3/1e4 within 20% of sqrt(10)", abs(ratio_low / sqrt10 - 1.0) <= 0.2),
        ("sigma ratio 1e4/1e5 within 20% of sqrt(10)", abs(ratio_high / sqrt10 - 1.0) <= 0.2),
        ("estimates within 5e-3 of analytic at N=1e6", max_dev <= 5e-3),
    ]
    _finish("criterion-5 finite statistics", 60.0, t0, checks)


def test_criterion_6_remote_preparation_equivalence():
    t0 = perf_counter()
    max_dev = 0.0
    for config in (DET, IDW):
        for fair in (True, False):
            s = bundled_scenario(config, fair_sampling=fair)
            direct = probability_table(s)
            heralded = heralded_table(s)
            max_dev = max(
                max_dev,
                np.abs(heralded.p_e - direct.p_e).max(),
                np.abs(heralded.p_d - direct.p_d).max(),
                np.abs(heralded.p_none - direct.p_none).max(),
            )
    checks = [("heralded tables match direct tables within 1e-12", max_dev <= 1e-12)]
    _finish("criterion-6 remote preparation", 1.0, t0, checks)


def test_criterion_7_spacetime_validation():
    t0 = perf_counter()
    base = reference_schedule()
    report = validate(base)

    events = dict(base.events)
    bc = events["bob_choice"]
    events["bob_choice"] = Event("bob_choice", bc.position, bc.time + 200.0)
    perturbed = validate(Schedule(events, base.media))

    boundary = interval(
        Event("a", (0.0, 0.0, 0.0), 0.0), Event("b", (46.0, 0.0, 0.0), 46.0 / C_M_PER_NS)
    )
    checks = [
        ("bundled geometry passes all five conditions", report.all_passed),
        ("bob_choice +200 ns fails C1", not perturbed["C1"].passed),
        ("46 m at 46m/c is light-like within tolerance", boundary == LIGHT_LIKE),
    ]
    _finish("criterion-7 spacetime", 1.0, t0, checks)


def test_criterion_8_retrocausality_interpolation():
    t0 = perf_counter()
    r0 = retrocausal_max(dimension_witness, 2, 3, 2, leak=0.0)
    r1 = retrocausal_max(dimension_witness, 2, 3, 2, leak=1.0)
    r_half = retrocausal_max(dimension_witness, 2, 3, 2, leak=0.5)

    rng = np.random.default_rng(SEED)
    strategies = list(enumerate_deterministic(2, 3, 2))
    leaked = setting_aware_max(dimension_witness, 2, 3, 2)
    bound_ok = True
    for leak in np.linspace(0.0, 1.0, 11):
        picks = rng.choice(len(strategies), size=4, replace=False)
        weights = rng.dirichlet(np.ones(4))
        components = [(weights[k], strategies[p]) for k, p in enumerate(picks)]
        base = dimension_witness(mixture_table(components, 3, 2))
        value = (1 - leak) * base + leak * leaked
        achieved_r = max((value - 3.0) / 4.0, 0.0)
        if achieved_r > leak + 1e-12:
            bound_ok = False
    checks = [
        ("leak 0 gives max I_DW = 3", r0 == 3.0),
        ("leak 1 gives max I_DW = 5", r1 == 5.0),
        ("leak 0.5 interpolates to 4 within 1e-12", abs(r_half - 4.0) <= 1e-12),
        ("R never exceeds the leak probability", bound_ok),
    ]
    _finish("criterion-8 retrocausality", 10.0, t0, checks)
