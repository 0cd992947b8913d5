"""Witness quantities computed from a probability table.

Index convention (0-based): preparations i, measurements j.  Each
witness is defined once, as a +-1 matrix that every other path (the
standard errors, the CLI term dump, the classical bounds) derives from:

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
from dataclasses import dataclass, field, replace

from ._lazy import np
from .scenario import ProbabilityTable

# nested tuples, so that importing pamsim computes nothing with numpy; `np.asarray` of one
# is the +-1 matrix
IDW_COEF = ((1, 1), (1, -1), (-1, 0))  # on <D_ij>, (preparation, measurement)
DET_CONTRAST = ((1, -1, 0, 0), (0, 0, 1, -1))  # on p_d, (row of W, preparation)
IDW_SHAPE = (len(IDW_COEF), len(IDW_COEF[0]))
DET_SHAPE = (len(DET_CONTRAST), len(DET_CONTRAST[0]))

I_DW_CLASSICAL_BOUND = 3.0
DET_CLASSICAL_BOUND = 0.0
# the classical bound that each witness's sigma counts standard errors above
SIGMA_BOUNDS = {"det_abs": DET_CLASSICAL_BOUND, "i_dw": I_DW_CLASSICAL_BOUND}
I_DW_QUANTUM = 1.0 + 2.0 * math.sqrt(2.0)
R_QUANTUM = (math.sqrt(2.0) - 1.0) / 2.0


def check_shape(what: str, shape: tuple[int, int], needed: tuple[int, int]) -> None:
    """Refuse an (n_prep, n_meas) shape smaller than `needed`."""
    if shape[0] < needed[0] or shape[1] < needed[1]:
        raise ValueError(
            f"{what} needs >= {needed[0]} preparations and >= {needed[1]} measurements, "
            f"got {shape[0]} x {shape[1]}"
        )


def witness_entries(p_d):
    """W as nested rows, from p_d looked up as p_d[i, j]: each entry an in-order
    sum over the nonzero contrast entries."""
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
    check_shape("witness matrix", t.p_d.shape, DET_SHAPE[::-1])
    return float(abs_det(witness_entries(t.p_d)))


def dimension_witness(t: ProbabilityTable) -> float:
    """Signed five-term sum of <D_ij> = p_e - p_d."""
    check_shape("dimension witness", t.p_d.shape, IDW_SHAPE)
    return float(idw_sum(t.d_values()))


def idw_sum(d):
    """I_DW from <D_ij> looked up as d[i, j] (see witness_entries)."""
    return sum(c * d[ij] for ij, c in np.ndenumerate(IDW_COEF) if c)


def retrocausality(i_dw: float) -> float:
    """R = max((I_DW - 3)/4, 0)."""
    return max((i_dw - I_DW_CLASSICAL_BOUND) / 4.0, 0.0)


def retrocausality_error(i_dw: float, std_err: float) -> float:
    """Standard deviation of R = max(Z, 0) for Z ~ N((i_dw - 3)/4, (std_err/4)^2).

    With s = std_err/4, a = E[Z]/s, P = Phi(a), Q = 1 - P and phi = phi(a),
    Var R = s^2 (P + a^2 P Q + a phi (Q - P) - phi^2), the moments of a normal
    clipped at 0.  The bracket after P is never positive, so summing it first
    keeps Var R <= s^2 in floats too, as max(Z, 0) being 1-Lipschitz demands.
    0 when std_err is 0.
    """
    if std_err == 0.0:
        return 0.0
    s = std_err / 4.0
    a = (i_dw - I_DW_CLASSICAL_BOUND) / 4.0 / s
    p, q = math.erfc(-a / math.sqrt(2.0)) / 2.0, math.erfc(a / math.sqrt(2.0)) / 2.0
    phi = math.exp(-a * a / 2.0) / math.sqrt(2.0 * math.pi)
    var = p + (a * a * p * q + a * phi * (q - p) - phi * phi)
    return s * math.sqrt(max(var, 0.0))


def sigma_violation(value: float, std_err: float, bound: float) -> float:
    """Standard deviations by which `value` exceeds `bound` (clamped at 0)."""
    if std_err <= 0.0:
        raise ValueError(f"std_err must be positive, got {std_err}")
    return float(max((value - bound) / std_err, 0.0))


@dataclass(frozen=True)
class WitnessReport:
    """Witness values with optional standard errors.

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

    def with_errors(self, uncertainties: dict[str, float]) -> "WitnessReport":
        """This report with the standard errors `uncertainties` and, for each
        witness whose error is positive, its sigma above the classical bound."""
        sigma = {}
        for name, bound in SIGMA_BOUNDS.items():
            err = uncertainties.get(name, 0.0)
            sigma[name] = sigma_violation(getattr(self, name), err, bound) if err > 0.0 else None
        return replace(
            self, sigma_det=sigma["det_abs"], sigma_idw=sigma["i_dw"], uncertainties=uncertainties
        )

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
    """Witness report (no uncertainties) of a table; |det W| if it has W's preparations."""
    det_abs = det_witness(t) if t.n_prep >= DET_SHAPE[1] else None
    return WitnessReport(i_dw=dimension_witness(t), det_abs=det_abs)
