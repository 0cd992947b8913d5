"""Finite-run simulation: sampling, counting, and standard errors.

Only `sample` draws random numbers.  Its randomness is derived from a
numpy SeedSequence so results are independent of evaluation order:
spawn key (0,) and one child stream per cell in row-major order (plus
one leading stream for the random setting order).

The standard errors of `bootstrap_report` are closed forms under the
plug-in model of the counts, and draw nothing.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from ._lazy import np
from .scenario import ProbabilityTable, grid_csv_text, read_section
# det_witness and dimension_witness are unused here, but perfbench/tracing.py wraps them
from .witness import (
    DET_CONTRAST,
    DET_SHAPE,
    IDW_COEF,
    WitnessReport,
    det_witness,
    dimension_witness,
    report_from_table,
    retrocausality_error,
)

ROUND_ROBIN = "round-robin"
RANDOM_PER_TRIAL = "random-per-trial"
INT64_MAX = 2**63 - 1  # the most trials a cell's int64 counts can hold
# the range a resample count is checked against: no error reads it, but `--resamples`
# and the config key `resamples` are accepted, with the limits they always had, until
# the benchmark stops passing them
MIN_RESAMPLES = 100
MAX_RESAMPLES = INT64_MAX // (3 * 8)

_SAMPLE_KEY = 0


def non_negative_int(text: str) -> int:
    """Parse a non-negative integer of ASCII digits, refusing "+5", " 5" and "1_000", and
    more digits than the interpreter converts (sys.get_int_max_str_digits(), 4300 unless set)."""
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # of ASCII digits, int() refuses only past the digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"expected at most {limit} digits, got {len(text)}") from None


class InsufficientStatisticsError(ValueError):
    """A postselected cell has no detected events to normalize by."""


@dataclass(frozen=True)
class CountTable:
    """Per-setting event counts, integer arrays of shape (n_prep, n_meas)."""

    n_e: np.ndarray
    n_d: np.ndarray
    n_none: np.ndarray

    def __post_init__(self):
        n_e = np.asarray(self.n_e, dtype=np.int64)
        n_d = np.asarray(self.n_d, dtype=np.int64)
        n_none = np.asarray(self.n_none, dtype=np.int64)
        if n_e.shape != n_d.shape or n_e.shape != n_none.shape or n_e.ndim != 2:
            raise ValueError("count arrays must share one 2-d shape")
        if n_e.min() < 0 or n_d.min() < 0 or n_none.min() < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "n_e", n_e)
        object.__setattr__(self, "n_d", n_d)
        object.__setattr__(self, "n_none", n_none)

    @property
    def n_prep(self) -> int:
        return self.n_e.shape[0]

    @property
    def n_meas(self) -> int:
        return self.n_e.shape[1]

    @property
    def n_trials(self) -> np.ndarray:
        return self.n_e + self.n_d + self.n_none

    def to_csv(self) -> str:
        return grid_csv_text({"n_e": self.n_e, "n_d": self.n_d, "n_none": self.n_none})

    @classmethod
    def from_csv(cls, path: str | Path) -> "CountTable":
        cells: dict[tuple[int, int], tuple[int, ...]] = {}
        fields = ("i", "j", "n_e", "n_d", "n_none")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [name for name in fields if name not in header]
            if missing:  # the header's repr shows a byte-order mark, as in '\ufeffi'
                raise ValueError(
                    f"counts CSV must have columns {sorted(fields)}; "
                    f"missing {missing} from the header {header!r}"
                )
            for row in reader:
                where = f"line {reader.line_num} of counts CSV"
                if None in row or None in row.values():
                    raise ValueError(f"{where} does not have {len(reader.fieldnames)} fields")
                try:
                    i, j, *counts = (non_negative_int(row[name]) for name in fields)
                except ValueError as exc:
                    raise ValueError(f"{exc} on {where}") from exc
                if sum(counts) > INT64_MAX:
                    raise ValueError(f"cell ({i}, {j}) on {where} has more than 2**63 - 1 trials")
                if (i, j) in cells:
                    raise ValueError(f"duplicate cell ({i}, {j}) on {where}")
                cells[i, j] = tuple(counts)
        if not cells:
            raise ValueError("counts CSV contains no rows")
        shape = tuple(max(index) + 1 for index in zip(*cells))
        if len(cells) != shape[0] * shape[1]:
            raise ValueError("counts CSV does not cover a complete (i, j) grid")
        grid = np.zeros((*shape, 3), dtype=np.int64)  # n_e, n_d, n_none per cell
        for key, counts in cells.items():
            grid[key] = counts
        return cls(*np.moveaxis(grid, -1, 0))


@dataclass(frozen=True)
class RunPlan:
    """How many trials to draw per setting and in what order."""

    trials_per_setting: int
    seed: int = 0
    setting_order: str = ROUND_ROBIN

    def __post_init__(self):
        if self.trials_per_setting < 1:
            raise ValueError("trials_per_setting must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.setting_order not in (ROUND_ROBIN, RANDOM_PER_TRIAL):
            raise ValueError(
                f"setting_order must be {ROUND_ROBIN!r} or {RANDOM_PER_TRIAL!r}, "
                f"got {self.setting_order!r}"
            )

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunPlan":
        return cls(**read_section(d, _PLAN_KEYS, "plan", ("trials_per_setting",)))


_PLAN_KEYS = {"trials_per_setting": int, "seed": int, "setting_order": str}


def _cell_pvals(t: ProbabilityTable, i: int, j: int) -> np.ndarray:
    p = np.array([t.p_e[i, j], t.p_d[i, j], t.p_none[i, j]])
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample(t: ProbabilityTable, plan: RunPlan) -> CountTable:
    """Draw per-cell multinomial counts; deterministic for a fixed seed."""
    n_cells = t.n_prep * t.n_meas
    root = np.random.SeedSequence(plan.seed, spawn_key=(_SAMPLE_KEY,))
    streams = root.spawn(n_cells + 1)

    per_draw = plan.trials_per_setting * (n_cells if plan.setting_order == RANDOM_PER_TRIAL else 1)
    if per_draw > INT64_MAX:
        raise ValueError(
            f"trials_per_setting {plan.trials_per_setting} is too large: {plan.setting_order} "
            f"order draws {per_draw} trials at once, more than 2**63 - 1"
        )
    cell_trials = np.full(n_cells, plan.trials_per_setting)
    if plan.setting_order == RANDOM_PER_TRIAL:
        order_rng = np.random.default_rng(streams[0])
        cell_trials = order_rng.multinomial(per_draw, np.full(n_cells, 1.0 / n_cells))

    draws = [
        np.random.default_rng(stream).multinomial(int(n), _cell_pvals(t, *cell))
        for cell, stream, n in zip(np.ndindex(t.n_prep, t.n_meas), streams[1:], cell_trials)
    ]
    return CountTable(*np.moveaxis(np.reshape(draws, (t.n_prep, t.n_meas, 3)), -1, 0))


def _per_trial(c: CountTable, fair: bool) -> np.ndarray:
    """The counts each cell's frequencies are taken per: detected trials with fair
    sampling (InsufficientStatisticsError for a cell with none), else all trials."""
    if not fair:
        return c.n_trials
    detected = c.n_e + c.n_d
    if detected.min() <= 0:
        i, j = np.argwhere(detected == 0)[0]
        raise InsufficientStatisticsError(
            f"cell (i={i}, j={j}) has no detected events to postselect on"
        )
    return detected


def estimate(c: CountTable, fair_sampling: bool) -> ProbabilityTable:
    """Relative frequencies; with fair sampling, per detected trial."""
    if c.n_trials.min() <= 0:
        i, j = np.argwhere(c.n_trials <= 0)[0]
        raise ValueError(f"cell (i={i}, j={j}) has no trial; every cell needs at least one")
    denom = _per_trial(c, fair_sampling)
    p_none = np.zeros(denom.shape) if fair_sampling else c.n_none / denom
    return ProbabilityTable(c.n_e / denom, c.n_d / denom, p_none)


def _idw_error(t: ProbabilityTable, n: np.ndarray) -> float:
    """Standard deviation of I_DW under the plug-in multinomial model of the estimated
    table `t`, whose frequencies are taken per `n` trials of each cell.  The cells
    are independent, so
    Var I_DW = sum_ij IDW_COEF[i, j]^2 Var <D_ij>, with

        Var <D_ij> = (p_e (1 - p_e) + p_d (1 - p_d) + 2 p_e p_d) / n
                   = (p_e + p_d - (p_e - p_d)^2) / n,

    which is 4 q (1 - q) / n_det for q = n_d / n_det with fair sampling (the
    delta method); the first form has no negative term to cancel.
    """
    var = (t.p_e * (1.0 - t.p_e) + t.p_d * (1.0 - t.p_d) + 2.0 * t.p_e * t.p_d) / n
    return math.sqrt(sum(coef * coef * var[ij] for ij, coef in np.ndenumerate(IDW_COEF) if coef))


def _det_error(t: ProbabilityTable, n: np.ndarray) -> float:
    """Standard deviation of det W under the plug-in binomial model of the estimated
    table `t`, in which each cell's p_d is Binomial(n, p_d)/n for the `n` trials its
    frequencies are taken per (with fair sampling n = n_det is held fixed, as in
    `_idw_error`).  W's entries are contrasts of p_d over disjoint cells
    (`DET_CONTRAST`), so they are independent, with

        Var W[k, l] = sum_i DET_CONTRAST[k, i]^2 p_d(i, l) (1 - p_d(i, l)) / n(i, l),

    and det W = w00 w11 - w01 w10 has Var = Var(w00 w11) + Var(w01 w10), where
    Var(x y) = v_x v_y + v_x mu_y^2 + v_y mu_x^2 for independent x and y.
    """
    n_rows, n_prep = DET_SHAPE  # W is square: its columns are measurements
    contrast = np.asarray(DET_CONTRAST)
    mu = contrast @ t.p_d[:n_prep, :n_rows]
    v = contrast**2 @ (t.p_d * (1.0 - t.p_d) / n)[:n_prep, :n_rows]
    pairs = (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    return math.sqrt(sum(v[x] * v[y] + v[x] * mu[y] ** 2 + v[y] * mu[x] ** 2 for x, y in pairs))


def bootstrap_report(
    c: CountTable, resamples: int, seed: int, fair_sampling: bool
) -> WitnessReport:
    """Witness report with standard errors, and sigma_* as violations of the classical bounds.

    Reported values are the plug-in estimates.  Every error is a closed form that
    draws nothing: the exact standard deviations of I_DW (`_idw_error`) and of
    det W (`_det_error`) under the plug-in model of the counts, and that of R for
    a normal I_DW clipped at the bound (`witness.retrocausality_error`).  Each
    cell's frequencies are taken per all its trials, or with fair sampling per
    its detected ones, held fixed; so the two `fair_sampling` values give the
    same report on counts without undetected trials.

    `resamples` is range-checked and otherwise unused, and `seed` is unused:
    both stay in the signature until the benchmark that passes them drops them.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if resamples > MAX_RESAMPLES:
        raise ValueError(f"resamples {resamples} is too large: at most {MAX_RESAMPLES} are taken")
    table = estimate(c, fair_sampling)
    report = report_from_table(table)
    per_trial = _per_trial(c, fair_sampling)
    sd_idw = _idw_error(table, per_trial)
    uncertainties = {"i_dw": sd_idw, "r": retrocausality_error(report.i_dw, sd_idw)}
    if report.det_abs is not None:
        uncertainties["det_abs"] = _det_error(table, per_trial)
    return report.with_errors(uncertainties)
