"""Witness quantities computed from a probability table.

Index convention (0-based): preparations i, measurements j.  Each
witness is defined once, as a +-1 matrix that every other path (the
bootstrap, the CLI term dump, the classical bounds) derives from:

    W[k, l] = sum_i DET_CONTRAST[k, i] p_d(i, l) = p_d(2k, l) - p_d(2k+1, l)
    I_DW = sum_ij IDW_COEF[i, j] <D_ij> = <D_00> + <D_01> + <D_10> - <D_11> - <D_20>

with <D_ij> = p_e(i, j) - p_d(i, j) and k, l in {0, 1}: rows of W pair
up consecutive preparations, its columns follow the measurement index.

Classical bounds for message dimension 2: det(W) = 0 for independent
devices, I_DW <= 3 even with shared randomness (see `classical`).  The
retrocausality measure is R = max((I_DW - 3)/4, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import ProbabilityTable

IDW_COEF = np.array([[1, 1], [1, -1], [-1, 0]])  # on <D_ij>, (preparation, measurement)
DET_CONTRAST = np.array([[1, -1, 0, 0], [0, 0, 1, -1]])  # on p_d, (row of W, preparation)

I_DW_CLASSICAL_BOUND = 3.0
DET_CLASSICAL_BOUND = 0.0
I_DW_QUANTUM = 1.0 + 2.0 * math.sqrt(2.0)
R_QUANTUM = (math.sqrt(2.0) - 1.0) / 2.0


def check_shape(what: str, shape: tuple[int, int], needed: tuple[int, int]) -> None:
    """Refuse an (n_prep, n_meas) shape smaller than `needed`."""
    if shape[0] < needed[0] or shape[1] < needed[1]:
        raise ValueError(
            f"{what} needs >= {needed[0]} preparations and >= {needed[1]} measurements, "
            f"got {shape[0]} x {shape[1]}"
        )


def witness_matrix(t: ProbabilityTable) -> np.ndarray:
    """The 2x2 matrix of paired p_d differences."""
    check_shape("witness matrix", t.p_d.shape, DET_CONTRAST.shape[::-1])
    return np.array(witness_entries(t.p_d))


def witness_entries(p_d):
    """W as nested rows, from p_d looked up as p_d[i, j].

    The cells may be scalars (a table's array) or per-resample vectors
    (a dict keyed by (i, j)); the arithmetic is the same either way:
    an in-order sum over the nonzero contrast entries.
    """
    n_cols = len(DET_CONTRAST)  # W is square
    return tuple(
        tuple(sum(c * p_d[i, l] for i, c in enumerate(row) if c) for l in range(n_cols))
        for row in DET_CONTRAST
    )


def det(w):
    """w00 w11 - w01 w10 for nested rows w[k][l] of scalars or arrays."""
    return w[0][0] * w[1][1] - w[0][1] * w[1][0]


def abs_det(w):
    """|det w| (see det)."""
    return abs(det(w))


def det_witness(t: ProbabilityTable) -> float:
    """|det W| of the witness matrix."""
    return float(abs_det(witness_matrix(t)))


def dimension_witness(t: ProbabilityTable) -> float:
    """Signed five-term sum of <D_ij> = p_e - p_d."""
    check_shape("dimension witness", t.p_d.shape, IDW_COEF.shape)
    return float(idw_sum(t.d_values()))


def idw_sum(d):
    """I_DW from <D_ij> looked up as d[i, j] (see witness_entries)."""
    return sum(c * d[ij] for ij, c in np.ndenumerate(IDW_COEF) if c)


def retrocausality(i_dw: float | np.ndarray) -> float | np.ndarray:
    """R = max((I_DW - 3)/4, 0); elementwise for an array of I_DW values."""
    excess = (i_dw - I_DW_CLASSICAL_BOUND) / 4.0
    return np.maximum(excess, 0.0) if np.ndim(excess) else max(excess, 0.0)


def sigma_violation(value: float, std_err: float, bound: float) -> float:
    """Standard deviations by which `value` exceeds `bound` (clamped at 0)."""
    if std_err <= 0.0:
        raise ValueError(f"std_err must be positive, got {std_err}")
    return float(max((value - bound) / std_err, 0.0))


@dataclass(frozen=True)
class WitnessReport:
    """Witness values with optional bootstrap uncertainties.

    `det_abs` and its sigma are None for tables with fewer than four
    preparations.  `r` is derived from the report's own `i_dw`.
    `uncertainties` maps quantity name -> standard error.
    """

    i_dw: float
    det_abs: float | None = None
    sigma_det: float | None = None
    sigma_idw: float | None = None
    uncertainties: dict[str, float] = field(default_factory=dict)

    @property
    def r(self) -> float:
        return retrocausality(self.i_dw)

    def to_json_dict(self) -> dict:
        return {
            "det_abs": self.det_abs,
            "i_dw": self.i_dw,
            "r": self.r,
            "sigma_det": self.sigma_det,
            "sigma_idw": self.sigma_idw,
            "uncertainties": dict(sorted(self.uncertainties.items())),
        }


def report_from_table(t: ProbabilityTable) -> WitnessReport:
    """Analytic witness report (no uncertainties) from an exact table."""
    det_abs = det_witness(t) if t.n_prep >= DET_CONTRAST.shape[1] else None
    return WitnessReport(i_dw=dimension_witness(t), det_abs=det_abs)
