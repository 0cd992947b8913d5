"""Experiment configuration and exact outcome probabilities.

A scenario is a list of preparation phases alpha_i, a list of
measurement phases beta_j, and two imperfection parameters: visibility
V (fringe contrast, multiplies the interference term) and efficiency
eta (per-trial detection probability of the measured photon,
conditioned on successful preparation).

Outcome-label convention (normative for the whole package): outcome
"e" is the projector onto (|H> + e^{i beta}|V>)/sqrt(2) and outcome
"d" the projector onto (|H> - e^{i beta}|V>)/sqrt(2).  With this
assignment the ideal four-preparation witness matrix has |det| = 1 and
the ideal three-preparation witness equals 1 + 2*sqrt(2); the opposite
assignment reproduces neither.

For a phase-ket preparation the exact cell probabilities are

    p_e = eta * (1 + V cos(alpha - beta)) / 2
    p_d = eta * (1 - V cos(alpha - beta)) / 2
    p_none = 1 - eta

With fair sampling enabled, no-detection trials are discarded and each
cell is renormalized to p_e + p_d = 1 (which removes eta entirely).

Config and schedule files are parsed here, by `load_json` and
`read_section`: each value must have the JSON type that its key takes.
Every output file is written here too, by `write_json` and `write_csv`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qubits import Ket2, Ket4, PHI_PLUS, born, canonical_phase, herald, phase_ket

TABLE_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    """Immutable experiment configuration."""

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    visibility: float = 1.0
    efficiency: float = 1.0
    fair_sampling: bool = True

    def __post_init__(self):
        if len(self.alphas) == 0:
            raise ValueError("scenario needs at least one preparation phase")
        if len(self.betas) == 0:
            raise ValueError("scenario needs at least one measurement phase")
        if not all(math.isfinite(phase) for phase in (*self.alphas, *self.betas)):
            raise ValueError("preparation and measurement phases must be finite")
        _check_noise_params(self.visibility, self.efficiency)
        object.__setattr__(self, "alphas", tuple(canonical_phase(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(canonical_phase(b) for b in self.betas))

    @property
    def n_prep(self) -> int:
        return len(self.alphas)

    @property
    def n_meas(self) -> int:
        return len(self.betas)

    def to_json_dict(self) -> dict:
        return {
            "alphas_pi": [a / math.pi for a in self.alphas],
            "betas_pi": [b / math.pi for b in self.betas],
            "visibility": self.visibility,
            "efficiency": self.efficiency,
            "fair_sampling": self.fair_sampling,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Scenario":
        kw = read_section(d, _SCENARIO_KEYS, "scenario", ("alphas_pi", "betas_pi"))
        alphas, betas = (tuple(p * math.pi for p in kw.pop(k)) for k in ("alphas_pi", "betas_pi"))
        return cls(alphas=alphas, betas=betas, **kw)


# a bool is not a number, nor is a string holding one; `tuple` takes a list of numbers
_JSON_TYPES = {
    int: "a JSON integer",
    float: "a JSON number",
    str: "a JSON string",
    bool: "true or false",
    list: "a JSON array",
    dict: "a JSON object",
    tuple: "a list of JSON numbers",
}


def _is_json(value, parser: type) -> bool:
    if parser is tuple:
        return type(value) is list and all(_is_json(x, float) for x in value)
    return type(value) is parser or (parser is float and type(value) is int)


def read_section(raw: dict, parsers: dict, section: str, required: tuple = ()) -> dict:
    """Parse JSON object `raw` with `parsers`, a type of `_JSON_TYPES` or a
    nested section's parser per key, refusing an unknown key or a missing
    `required` one.  Absent keys stay absent: the dataclass has defaults."""
    if not isinstance(raw, dict):
        raise ValueError(f"{section} config must be a JSON object, got {raw!r}")
    kw = {}
    for key, value in raw.items():
        if key not in parsers:
            raise ValueError(f"{section} config has unknown key {key!r}")
        parser = parsers[key]
        if parser in _JSON_TYPES and not _is_json(value, parser):
            # a bool key's refusal keeps its established form, without the section
            where = key if parser is bool else f"{section} config: {key}"
            raise ValueError(f"{where} must be {_JSON_TYPES[parser]}, got {value!r}")
        try:
            kw[key] = tuple(map(float, value)) if parser is tuple else parser(value)
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise ValueError(f"{section} config: {key} is too large for a float") from exc
    for key in required:
        if key not in raw:
            raise ValueError(f"{section} config is missing key {key!r}")
    return kw


def load_json(path) -> object:
    """The JSON document in file `path`, refusing a repeated key."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def write_json(path, payload: dict) -> None:
    """Write `payload` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path, header: list, rows) -> None:
    """Write CSV `header` then `rows`: a float as its repr, None as an empty field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


_SCENARIO_KEYS = {
    "alphas_pi": tuple,
    "betas_pi": tuple,
    "visibility": float,
    "efficiency": float,
    "fair_sampling": bool,
}


def det_witness_settings(**noise) -> Scenario:
    """Four-preparation settings certifying the 2x2 witness matrix;
    `noise` sets any of visibility, efficiency and fair_sampling."""
    return Scenario((0.0, math.pi, -math.pi / 2, math.pi / 2), (math.pi / 2, 0.0), **noise)


def dimension_witness_settings(**noise) -> Scenario:
    """Three-preparation settings for the linear dimension witness;
    `noise` sets any of visibility, efficiency and fair_sampling."""
    return Scenario((math.pi / 4, 3 * math.pi / 4, -math.pi / 2), (math.pi / 2, 0.0), **noise)


@dataclass(frozen=True)
class ProbabilityTable:
    """Per-setting outcome probabilities, shape (n_prep, n_meas) each."""

    p_e: np.ndarray
    p_d: np.ndarray
    p_none: np.ndarray

    def __post_init__(self):
        p_e, p_d, p_none = (np.asarray(a, dtype=float) for a in (self.p_e, self.p_d, self.p_none))
        if p_e.shape != p_d.shape or p_e.shape != p_none.shape or p_e.ndim != 2:
            raise ValueError("probability arrays must share one 2-d shape")
        # written so that NaN, which fails every comparison, is rejected
        for name, arr in (("p_e", p_e), ("p_d", p_d), ("p_none", p_none)):
            if not (arr.min() >= -TABLE_TOL and arr.max() <= 1.0 + TABLE_TOL):
                raise ValueError(f"{name} has entries outside [0, 1]")
        total = p_e + p_d + p_none
        if not np.abs(total - 1.0).max() <= TABLE_TOL:
            raise ValueError("cell probabilities must sum to 1")
        object.__setattr__(self, "p_e", p_e)
        object.__setattr__(self, "p_d", p_d)
        object.__setattr__(self, "p_none", p_none)

    @property
    def n_prep(self) -> int:
        return self.p_e.shape[0]

    @property
    def n_meas(self) -> int:
        return self.p_e.shape[1]

    def to_csv(self, path) -> None:
        write_grid_csv(path, {"p_e": self.p_e, "p_d": self.p_d, "p_none": self.p_none})

    def d_values(self) -> np.ndarray:
        """Per-cell expectation <D_ij> = p_e - p_d."""
        return self.p_e - self.p_d

    def postselected(self) -> "ProbabilityTable":
        """Renormalize every cell onto the detected outcomes (p_none -> 0)."""
        det = self.p_e + self.p_d
        if det.min() <= 0.0:
            bad = np.argwhere(det <= 0.0)[0]
            raise ValueError(
                f"cannot postselect cell (i={bad[0]}, j={bad[1]}): "
                "its detection probability is 0"
            )
        zeros = np.zeros_like(self.p_e)
        return ProbabilityTable(self.p_e / det, self.p_d / det, zeros)


def write_grid_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write CSV `i,j,<columns>` with one row per cell of the equal-shape
    2-d arrays in `columns`, each value as a plain Python int or float."""
    cells = np.stack(list(columns.values()), axis=-1)
    rows = ([i, j, *cells[i, j].tolist()] for i, j in np.ndindex(cells.shape[:2]))
    write_csv(path, ["i", "j", *columns], rows)


def _check_noise_params(visibility: float, efficiency: float) -> None:
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")


def quantum_cell(
    alpha: float, beta: float, visibility: float = 1.0, efficiency: float = 1.0
) -> tuple[float, float, float]:
    """Exact (p_e, p_d, p_none) for a phase-ket preparation, no postselection."""
    _check_noise_params(visibility, efficiency)
    c = visibility * math.cos(alpha - beta)
    p_e = efficiency * (1.0 + c) / 2.0
    p_d = efficiency * (1.0 - c) / 2.0
    return p_e, p_d, 1.0 - efficiency


def _table(s: Scenario, row) -> ProbabilityTable:
    """The table whose row i holds `row(alphas[i])`, a (p_e, p_d, p_none)
    per measurement phase, postselected under fair sampling."""
    cells = np.array([row(a) for a in s.alphas], dtype=float)  # (n_prep, n_meas, 3)
    table = ProbabilityTable(*cells.transpose(2, 0, 1).copy())
    return table.postselected() if s.fair_sampling else table


def probability_table(s: Scenario) -> ProbabilityTable:
    """Exact outcome probabilities for every (alpha_i, beta_j) cell."""
    return _table(s, lambda a: [quantum_cell(a, b, s.visibility, s.efficiency) for b in s.betas])


def _dephased_born(state: Ket2, projector: Ket2, visibility: float) -> float:
    # Visibility interpolates the ideal Born probability toward the
    # fully dephased value 1/2; for phase kets this equals
    # (1 + V cos(alpha - beta)) / 2 exactly.
    return visibility * born(state, projector) + (1.0 - visibility) * 0.5


def heralded_table(s: Scenario, pair: Ket4 = PHI_PLUS) -> ProbabilityTable:
    """Outcome probabilities when each preparation is heralded from `pair`.

    For every alpha_i the two heralding routes that relabel to alpha_i
    (sender phase alpha_i with outcome +1, sender phase alpha_i - pi
    with outcome -1) are averaged with weights proportional to their
    heralding probabilities.  For PHI_PLUS the result must match
    `probability_table` exactly: the delayed preparation leaves no
    statistical trace.
    """
    if pair.norm_error() > 1e-9:
        raise ValueError("pair state must be normalized")

    def row(a: float) -> list[tuple[float, float, float]]:
        routes = [herald(pair, a, +1), herald(pair, a - math.pi, -1)]
        total = sum(w for w, _ in routes)

        def detected(phase: float) -> float:
            proj = phase_ket(phase)
            born_sum = sum(w * _dephased_born(state, proj, s.visibility) for w, state in routes)
            return s.efficiency * born_sum / total

        return [(detected(b), detected(b + math.pi), 1.0 - s.efficiency) for b in s.betas]

    return _table(s, row)
