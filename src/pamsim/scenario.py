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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        return cls(alphas=kw.pop("alphas_pi"), betas=kw.pop("betas_pi"), **kw)


def read_section(raw: dict, parsers: dict, section: str, required: tuple = ()) -> dict:
    """Parse config section `raw` key by key with `parsers`, refusing a
    key `parsers` lacks and a missing `required` key.  Absent keys stay
    absent, so the dataclass built from the result takes their defaults.
    An `int` parser takes only a JSON integer: a bool, float or string is
    refused, not truncated."""
    if not isinstance(raw, dict):
        raise ValueError(f"{section} config must be a JSON object, got {raw!r}")
    for key, value in raw.items():
        if key not in parsers:
            raise ValueError(f"{section} config has unknown key {key!r}")
        if parsers[key] is int and type(value) is not int:
            raise ValueError(f"{section} config: {key} must be a JSON integer, got {value!r}")
    for key in required:
        if key not in raw:
            raise ValueError(f"{section} config is missing key {key!r}")
    return {key: parsers[key](value) for key, value in raw.items()}


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """`object_pairs_hook` for json.load that refuses a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _phases(units_of_pi) -> tuple[float, ...]:
    return tuple(float(p) * math.pi for p in units_of_pi)


def _fair_sampling(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"fair_sampling must be true or false, got {value!r}")
    return value


_SCENARIO_KEYS = {
    "alphas_pi": _phases,
    "betas_pi": _phases,
    "visibility": float,
    "efficiency": float,
    "fair_sampling": _fair_sampling,
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
    p_none: np.ndarray | None = None

    def __post_init__(self):
        p_e = np.asarray(self.p_e, dtype=float)
        p_d = np.asarray(self.p_d, dtype=float)
        if self.p_none is None:
            p_none = 1.0 - p_e - p_d
        else:
            p_none = np.asarray(self.p_none, dtype=float)
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


def probability_table(s: Scenario) -> ProbabilityTable:
    """Exact outcome probabilities for every (alpha_i, beta_j) cell."""
    p_e = np.empty((s.n_prep, s.n_meas))
    p_d = np.empty_like(p_e)
    p_none = np.empty_like(p_e)
    for i, a in enumerate(s.alphas):
        for j, b in enumerate(s.betas):
            p_e[i, j], p_d[i, j], p_none[i, j] = quantum_cell(
                a, b, s.visibility, s.efficiency
            )
    table = ProbabilityTable(p_e, p_d, p_none)
    return table.postselected() if s.fair_sampling else table


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
    p_e = np.empty((s.n_prep, s.n_meas))
    p_d = np.empty_like(p_e)
    p_none = np.empty_like(p_e)
    for i, a in enumerate(s.alphas):
        routes = [herald(pair, a, +1), herald(pair, a - math.pi, -1)]
        total = sum(w for w, _ in routes)
        for j, b in enumerate(s.betas):
            proj_e = phase_ket(b)
            proj_d = phase_ket(b + math.pi)
            pe = sum(w * _dephased_born(state, proj_e, s.visibility) for w, state in routes)
            pd = sum(w * _dephased_born(state, proj_d, s.visibility) for w, state in routes)
            p_e[i, j] = s.efficiency * pe / total
            p_d[i, j] = s.efficiency * pd / total
            p_none[i, j] = 1.0 - s.efficiency
    table = ProbabilityTable(p_e, p_d, p_none)
    return table.postselected() if s.fair_sampling else table
