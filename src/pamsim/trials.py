"""Finite-run simulation: sampling, counting, and bootstrap errors.

Randomness is derived from numpy SeedSequence streams so results are
independent of evaluation order: `sample` uses spawn key (0,) and one
child stream per cell in row-major order (plus one leading stream for
the random setting order), `bootstrap_report` uses spawn key (1,) and
one child stream per cell.  The bootstrap streams its resamples: each
cell draws chunks of `_CHUNK` rows from its own generator (exactly the
rows of one draw of them all), one thread per usable CPU drawing every
n-th cell, and the calling thread folds each chunk into one vector per
quantity, so memory grows with the resample count only, not with the
cells.  The output depends on neither the thread count nor the chunk size.
"""

from __future__ import annotations

import csv
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scenario import ProbabilityTable, read_section, write_grid_csv
from .witness import (
    DET_CLASSICAL_BOUND,
    DET_CONTRAST,
    I_DW_CLASSICAL_BOUND,
    WitnessReport,
    abs_det,
    det_witness,
    dimension_witness,
    idw_sum,
    retrocausality,
    sigma_violation,
    witness_entries,
)

ROUND_ROBIN = "round-robin"
RANDOM_PER_TRIAL = "random-per-trial"
MIN_RESAMPLES = 100
INT64_MAX = np.iinfo(np.int64).max  # the most trials a cell's counts can hold
MAX_RESAMPLES = INT64_MAX // (3 * 8)  # the most resamples taken: more than any memory holds
_CHUNK = 8192  # resample rows a cell draws at a time

_SAMPLE_KEY = 0
_BOOTSTRAP_KEY = 1


def non_negative_int(text: str) -> int:
    """Parse a non-negative integer of ASCII digits, refusing "+5", " 5" and "1_000"."""
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return int(text)


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

    def to_csv(self, path: str | Path) -> None:
        write_grid_csv(path, {"n_e": self.n_e, "n_d": self.n_d, "n_none": self.n_none})

    @classmethod
    def from_csv(cls, path: str | Path) -> "CountTable":
        cells: dict[tuple[int, int], tuple[int, ...]] = {}
        fields = ("i", "j", "n_e", "n_d", "n_none")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(fields).issubset(reader.fieldnames):
                raise ValueError(f"counts CSV must have columns {sorted(fields)}")
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


def estimate(c: CountTable, fair_sampling: bool) -> ProbabilityTable:
    """Relative frequencies; with fair sampling, per detected trial."""
    trials = c.n_trials
    if trials.min() <= 0:
        raise ValueError("every cell needs at least one trial")
    if fair_sampling:
        detected = c.n_e + c.n_d
        if detected.min() <= 0:
            bad = np.argwhere(detected == 0)[0]
            raise InsufficientStatisticsError(
                f"cell (i={bad[0]}, j={bad[1]}) has no detected events to postselect on"
            )
        return ProbabilityTable(
            c.n_e / detected, c.n_d / detected, np.zeros(detected.shape)
        )
    return ProbabilityTable(c.n_e / trials, c.n_d / trials, c.n_none / trials)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resample_cell(
    cell: tuple[int, int],
    rng: np.random.Generator,
    counts: tuple[int, int, int],
    size: int,
    fair: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(<D>, p_d) vectors of the next `size` resamples of `cell`, drawn from `rng`."""
    freqs = np.array(counts, dtype=float)
    draws = rng.multinomial(sum(counts), freqs / freqs.sum(), size=size)
    # counts are integers far below 2**53, so int64 sums and true division
    # give exactly the floats that float arithmetic on the counts would
    n_e, n_d, n_none = draws.T
    denom = n_e + n_d
    if fair:
        if denom.min() <= 0:
            raise InsufficientStatisticsError(
                f"a bootstrap resample emptied a postselected cell (i={cell[0]}, j={cell[1]})"
            )
    else:
        denom += n_none
    p_d = n_d / denom
    return n_e / denom - p_d, p_d


def _draw_cells(jobs, resamples: int, fair: bool, out, stop: threading.Event) -> None:
    """Put on `out`, chunk by chunk, {k: (<D>, p_d) vectors or the error raised}
    for the jobs (k, (cell, rng, counts)), until done or `stop` is set."""
    for lo in range(0, resamples, _CHUNK):
        chunk = {}
        for k, job in jobs:
            try:
                chunk[k] = _resample_cell(*job, min(_CHUNK, resamples - lo), fair)
            except BaseException as exc:  # raised by the thread that combines
                chunk[k] = exc
        if stop.is_set():
            return
        out.put(chunk)


@contextmanager
def _drawing(jobs: list, resamples: int, fair: bool):
    """Yield the chunk queues of n = min(jobs, usable CPUs) threads, thread w
    drawing jobs w, w + n, ...; on exit, stop the threads and wait for them."""
    import queue

    n = min(len(jobs), _usable_cpus())
    queues = [queue.Queue(maxsize=2) for _ in range(n)]
    stop = threading.Event()
    args = [(jobs[w::n], resamples, fair, out, stop) for w, out in enumerate(queues)]
    threads = [threading.Thread(target=_draw_cells, args=a) for a in args]
    try:
        for thread in threads:
            thread.start()
        yield queues
    finally:
        stop.set()
        for out, thread in zip(queues, threads):
            while not out.empty():  # free a worker blocked in `put`, so that it sees `stop`
                out.get_nowait()
            if thread.is_alive():
                thread.join()


def bootstrap_report(
    c: CountTable, resamples: int, seed: int, fair_sampling: bool
) -> WitnessReport:
    """Witness report with parametric-bootstrap standard errors.

    Each resample redraws every cell from a multinomial at the observed
    raw frequencies and recomputes the witnesses; reported values are
    the plug-in estimates, uncertainties are resample standard
    deviations, and sigma_* are violations of the classical bounds.
    A failing cell raises once every cell is drawn: the first in row-major order.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if resamples > MAX_RESAMPLES:
        raise ValueError(f"resamples {resamples} is too large: at most {MAX_RESAMPLES} are taken")
    observed = estimate(c, fair_sampling)
    point_det = det_witness(observed) if observed.n_prep >= DET_CONTRAST.shape[1] else None
    point_idw = dimension_witness(observed)

    cells = [(i, j) for i in range(c.n_prep) for j in range(c.n_meas)]
    streams = np.random.SeedSequence(seed, spawn_key=(_BOOTSTRAP_KEY,)).spawn(len(cells))
    rngs = map(np.random.default_rng, streams)
    counts = [(int(c.n_e[ij]), int(c.n_d[ij]), int(c.n_none[ij])) for ij in cells]
    jobs = list(enumerate(zip(cells, rngs, counts)))
    try:
        idw_samples = np.empty(resamples)
        det_samples = np.empty(resamples) if point_det is not None else None
        errors = {}
        with _drawing(jobs, resamples, fair_sampling) as queues:
            for lo in range(0, resamples, _CHUNK):
                chunk = {k: v for out in queues for k, v in out.get().items()}
                errors.update((k, v) for k, v in chunk.items() if isinstance(v, BaseException))
                if errors:
                    continue  # an earlier cell may still fail in a later chunk
                d, p_d = ({cells[k]: v[n] for k, v in chunk.items()} for n in (0, 1))
                idw_samples[lo : lo + _CHUNK] = idw_sum(d)
                if det_samples is not None:
                    det_samples[lo : lo + _CHUNK] = abs_det(witness_entries(p_d))
        if errors:
            raise errors[min(errors)]

        uncertainties = {
            "i_dw": float(np.std(idw_samples, ddof=1)),
            "r": float(np.std(retrocausality(idw_samples), ddof=1)),
        }
        if det_samples is not None:
            uncertainties["det_abs"] = float(np.std(det_samples, ddof=1))
    except MemoryError as exc:
        raise ValueError(f"resamples {resamples} is too large: {exc}") from exc

    def sigma(point, name, bound):
        err = uncertainties.get(name, 0.0)
        return sigma_violation(point, err, bound) if err > 0.0 else None

    return WitnessReport(
        i_dw=point_idw,
        det_abs=point_det,
        sigma_det=sigma(point_det, "det_abs", DET_CLASSICAL_BOUND),
        sigma_idw=sigma(point_idw, "i_dw", I_DW_CLASSICAL_BOUND),
        uncertainties=uncertainties,
    )
