"""Witness quantities computed from a probability table.

Index convention (0-based): with preparations i = 0..3 and
measurements j = 0..1, the 2x2 witness matrix is

    W[k, l] = p_d(2k, l) - p_d(2k+1, l),    k, l in {0, 1}

i.e. rows pair up consecutive preparations and columns follow the
measurement index.  The linear dimension witness uses the first three
preparations:

    I_DW = <D_00> + <D_01> + <D_10> - <D_11> - <D_20>,
    <D_ij> = p_e(i, j) - p_d(i, j)

Classical bounds for message dimension 2: det(W) = 0 for independent
devices, I_DW <= 3 even with shared randomness (see `classical`).  The
retrocausality measure is R = max((I_DW - 3)/4, 0).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import ProbabilityTable

I_DW_CLASSICAL_BOUND = 3.0
DET_CLASSICAL_BOUND = 0.0
I_DW_QUANTUM = 1.0 + 2.0 * math.sqrt(2.0)
R_QUANTUM = (math.sqrt(2.0) - 1.0) / 2.0


def witness_matrix(t: ProbabilityTable) -> np.ndarray:
    """The 2x2 matrix of paired p_d differences."""
    if t.n_prep < 4 or t.n_meas < 2:
        raise ValueError(
            f"witness matrix needs >= 4 preparations and >= 2 measurements, "
            f"got {t.n_prep} x {t.n_meas}"
        )
    return np.array(witness_entries(t.p_d))


def witness_entries(p_d):
    """W as nested rows, from p_d looked up as p_d[i, j].

    The cells may be scalars (a table's array) or per-resample vectors
    (a dict keyed by (i, j)); the arithmetic is the same either way.
    """
    return (
        (p_d[0, 0] - p_d[1, 0], p_d[0, 1] - p_d[1, 1]),
        (p_d[2, 0] - p_d[3, 0], p_d[2, 1] - p_d[3, 1]),
    )


def abs_det(w):
    """|w00 w11 - w01 w10| for nested rows of scalars or vectors."""
    return abs(w[0][0] * w[1][1] - w[0][1] * w[1][0])


def det_witness(t: ProbabilityTable) -> float:
    """|det W| of the witness matrix."""
    return abs_det(witness_matrix(t))


def dimension_witness(t: ProbabilityTable) -> float:
    """Signed five-term sum of <D_ij> = p_e - p_d."""
    if t.n_prep < 3 or t.n_meas < 2:
        raise ValueError(
            f"dimension witness needs >= 3 preparations and >= 2 measurements, "
            f"got {t.n_prep} x {t.n_meas}"
        )
    return float(idw_sum(t.d_values()))


def idw_sum(d):
    """The five-term I_DW sum from <D_ij> looked up as d[i, j] (see witness_entries)."""
    return d[0, 0] + d[0, 1] + d[1, 0] - d[1, 1] - d[2, 0]


def retrocausality(i_dw: float) -> float:
    """R = max((I_DW - 3)/4, 0)."""
    return max((i_dw - I_DW_CLASSICAL_BOUND) / 4.0, 0.0)


def sigma_violation(value: float, std_err: float, bound: float) -> float:
    """Standard deviations by which `value` exceeds `bound` (clamped at 0)."""
    if std_err <= 0.0:
        raise ValueError(f"std_err must be positive, got {std_err}")
    return max((value - bound) / std_err, 0.0)


CSV_FIELDS = (
    "det_abs",
    "i_dw",
    "r",
    "sigma_det",
    "sigma_idw",
    "det_abs_err",
    "i_dw_err",
    "r_err",
)


@dataclass(frozen=True)
class WitnessReport:
    """Witness values with optional bootstrap uncertainties.

    `det_abs` and its sigma are None for tables with fewer than four
    preparations.  `r` is always recomputed from the report's own
    `i_dw`.  `uncertainties` maps quantity name -> standard error.
    """

    i_dw: float
    det_abs: float | None = None
    sigma_det: float | None = None
    sigma_idw: float | None = None
    uncertainties: dict[str, float] = field(default_factory=dict)
    r: float | None = None

    def __post_init__(self):
        expected = retrocausality(self.i_dw)
        if self.r is None:
            object.__setattr__(self, "r", expected)
        elif self.r != expected:
            raise ValueError(f"r={self.r} inconsistent with i_dw={self.i_dw}")

    def to_json_dict(self) -> dict:
        return {
            "det_abs": self.det_abs,
            "i_dw": self.i_dw,
            "r": self.r,
            "sigma_det": self.sigma_det,
            "sigma_idw": self.sigma_idw,
            "uncertainties": dict(sorted(self.uncertainties.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, d: dict) -> "WitnessReport":
        return cls(
            i_dw=d["i_dw"],
            det_abs=d.get("det_abs"),
            sigma_det=d.get("sigma_det"),
            sigma_idw=d.get("sigma_idw"),
            uncertainties=dict(d.get("uncertainties", {})),
            r=d.get("r"),
        )

    def to_csv_row(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        row = {
            "det_abs": self.det_abs,
            "i_dw": self.i_dw,
            "r": self.r,
            "sigma_det": self.sigma_det,
            "sigma_idw": self.sigma_idw,
            "det_abs_err": self.uncertainties.get("det_abs"),
            "i_dw_err": self.uncertainties.get("i_dw"),
            "r_err": self.uncertainties.get("r"),
        }
        writer.writerow({k: ("" if v is None else repr(v)) for k, v in row.items()})
        return buf.getvalue()


def report_from_table(t: ProbabilityTable) -> WitnessReport:
    """Analytic witness report (no uncertainties) from an exact table."""
    det_abs = det_witness(t) if t.n_prep >= 4 else None
    return WitnessReport(i_dw=dimension_witness(t), det_abs=det_abs)
