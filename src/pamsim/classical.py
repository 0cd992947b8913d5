"""Classical message-passing models and their witness bounds.

A deterministic strategy encodes each preparation index into a message
m in {0..d-1} and decodes (message, measurement index) into one of the
two outcomes.  Two kinds of randomness sit on top:

- *Shared* randomness: an arbitrary convex mixture of deterministic
  strategies, where one random variable selects the encoder and decoder
  jointly.  Linear witnesses such as the dimension witness are
  maximized at deterministic strategies by convexity, so their bounds
  hold against shared randomness too.

- *Independent* randomness: the encoder and decoder are randomized
  separately, with no correlation between them.  This is the
  communication structure of a prepare-and-measure experiment whose
  boxes share no prior common cause.  The determinant witness is only
  a null test against this class: with d = 2 every product of a
  stochastic encoder and a stochastic decoder has det W = 0, whereas
  *correlated* mixtures reach |det W| = 1/4 (see tests for an explicit
  two-strategy example).  `classical_max_det` therefore bounds the
  independent (product) space, and `classical_max_linear` the full
  mixture space.

Both bounds are closed forms: a table of the bound and its first
maximiser by message dimension, argued in the bound's docstring and
checked by enumerations that live in the test suite.  The I_DW bounds
take the witness as a callable.  The package's own `dimension_witness`
on `IDW_SHAPE` is I_DW by definition, so its values at the maximisers
are read from the tables and it is never called, nor is numpy.  Any
other callable is probed: its affine form (c0, C) in p_e is read once
per call, refused unless it is I_DW's, and the witness is evaluated at
each maximiser it returns.  The probe's arrays are built on its first
call.  A maximiser's decode table lists only the messages its encoder
sends, so its size does not grow with d.
Outcome encoding: decode entries are 1 for outcome "e" and 0 for
outcome "d".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

from ._lazy import np
from .scenario import ProbabilityTable
from .witness import IDW_COEF, IDW_SHAPE
from .witness import dimension_witness as _dimension_witness  # bound once, at import

TableFunctional = Callable[[ProbabilityTable], float]


@dataclass(frozen=True)
class DeterministicStrategy:
    """encode: preparation -> message; decode[message][measurement] -> outcome.

    Decode entries are 1 for outcome "e", 0 for outcome "d".
    """

    encode: tuple[int, ...]
    decode: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.decode)
        if d == 0:
            raise ValueError("decode table must have at least one message row")
        if any(not 0 <= m < d for m in self.encode):
            raise ValueError("encode maps to a message outside the decode table")
        if any(bit not in (0, 1) for row in self.decode for bit in row):
            raise ValueError("decode entries must be 0 (outcome d) or 1 (outcome e)")

    def to_json_dict(self) -> dict:
        return {
            "encode": list(self.encode),
            "decode": [["e" if bit else "d" for bit in row] for row in self.decode],
        }


def strategy_table(
    strategy: DeterministicStrategy, n_prep: int, n_meas: int
) -> ProbabilityTable:
    """Evaluate a strategy into outcome probabilities (p_none = 0)."""
    encode, decode = strategy.encode, strategy.decode
    if len(encode) < n_prep:
        raise IndexError(f"strategy encodes {len(encode)} preparations, need {n_prep}")
    if any(len(row) < n_meas for row in decode):
        raise IndexError(f"strategy decodes fewer than {n_meas} measurements")
    return _pe_table(
        np.array([[float(decode[encode[i]][j]) for j in range(n_meas)] for i in range(n_prep)])
    )


def _pe_table(p_e: np.ndarray) -> ProbabilityTable:
    """The no-loss table whose outcome-"e" probabilities are `p_e`."""
    return ProbabilityTable(p_e, 1.0 - p_e, np.zeros(p_e.shape))


def _check_dimension(d: int) -> None:
    if d < 1:
        raise ValueError(f"message dimension must be >= 1, got {d}")


def _affine_form(witness: TableFunctional, n_prep: int, n_meas: int) -> tuple[float, np.ndarray]:
    """(c0, C) with witness(table) = c0 + sum(C * p_e), read off the all-"d" table and the
    n_prep * n_meas unit tables and checked at all-"e" and at a fixed interior table, whose
    entries 1/2, 1/3, ... are distinct and strictly inside (0, 1).  (Evenly spaced entries
    would not do: their W has equal rows, so det W would pass as affine.)"""
    zero = np.zeros((n_prep, n_meas))
    c0 = witness(_pe_table(zero))
    coef = np.empty((n_prep, n_meas))
    for i, j in np.ndindex(n_prep, n_meas):
        unit = zero.copy()
        unit[i, j] = 1.0
        coef[i, j] = witness(_pe_table(unit)) - c0
    interior = 1.0 / np.arange(2.0, coef.size + 2.0).reshape(coef.shape)
    for p_e in (np.ones(coef.shape), interior):
        _affine_value(witness, c0, coef, p_e)
    return c0, coef


def _affine_value(witness: TableFunctional, c0: float, coef: np.ndarray, p_e: np.ndarray) -> float:
    """The witness at the table of `p_e`, refused (ValueError) unless (c0, C) predicts it."""
    value = witness(_pe_table(p_e))
    expected = c0 + float(np.sum(coef * p_e))
    tol = 1e-9 * (1.0 + abs(c0) + np.abs(coef).sum())
    if not math.isclose(value, expected, rel_tol=0.0, abs_tol=tol):
        raise ValueError(
            f"witness is not affine in p_e: it gives {value!r} where its unit-table "
            f"coefficients predict {expected!r}"
        )
    return value


@cache
def _idw_affine() -> tuple[float, np.ndarray]:
    """I_DW's affine form (c0, C) in p_e: <D_ij> = 2 p_e - 1 without loss, so c0 =
    -sum(IDW_COEF) = -1 and C = 2 * IDW_COEF."""
    coef = np.asarray(IDW_COEF)
    return -coef.sum(), 2 * coef


def _idw_form(witness: TableFunctional, n_prep: int, n_meas: int) -> tuple[float, np.ndarray]:
    """The affine form (c0, C) of `witness`, refused (ValueError) unless it is I_DW's."""
    c0, coef = _affine_form(witness, n_prep, n_meas)
    idw_c0, idw_coef = _idw_affine()
    if coef.shape != idw_coef.shape or c0 != idw_c0 or (coef != idw_coef).any():
        why = f"c0 = -1 and C = {idw_coef.tolist()}, got {c0!r} and {coef.tolist()}"
        raise ValueError(f"the bound is a closed form of I_DW, whose affine form in p_e is {why}")
    return c0, coef


# At min(d, 3) messages: the I_DW bound and its first maximiser in lexicographic (encode,
# decode) order, with a decode row (1 for "e") for each message 0..max(encode) it sends.
_IDW_VERTICES = {
    1: (1.0, (0, 0, 0), ((1, 0),)),  # ed
    2: (3.0, (0, 0, 1), ((1, 0), (0, 0))),  # ed/dd
    3: (5.0, (0, 1, 2), ((1, 1), (1, 0), (0, 0))),  # ee/ed/dd
}


# I_DW's setting-aware maximum at min(d, 2) messages: the value of `_aware_max`, which the
# test suite checks it against.
_AWARE_VALUES = {1: 1.0, 2: 5.0}


def _aware_max(d: int) -> tuple[float, np.ndarray]:
    """(value, p_e) of I_DW's setting-aware maximiser at min(d, 2) messages: "e" wherever the
    cell's coefficient is positive, or at d = 1, where its column's sum is; c0 + sum(C * p_e)."""
    c0, coef = _idw_affine()
    positive = (coef.sum(axis=0) if d == 1 else coef) > 0.0
    p_e = np.broadcast_to(positive, coef.shape).astype(float)
    return float(c0 + np.sum(coef * p_e)), p_e


@cache
def _maxima_p_e() -> dict:
    """The p_e of I_DW's maximisers by `_idw_values` key: ("causal", k) at k = min(d, 3)
    messages (`_IDW_VERTICES`) and ("aware", k), setting-aware, at k = min(d, 2)."""
    p_e = {
        ("causal", k): np.array(decode, dtype=float)[list(encode)]
        for k, (_, encode, decode) in _IDW_VERTICES.items()
    }
    return {**p_e, **{("aware", k): _aware_max(k)[1] for k in _AWARE_VALUES}}


def _idw_values(witness: TableFunctional, n_prep: int, n_meas: int, maxima) -> list:
    """The witness at each of `maxima`, I_DW's maximisers as ("causal", min(d, 3)) or
    ("aware", min(d, 2)).  For the package's own `dimension_witness` on `IDW_SHAPE`, whose
    affine form is I_DW's by definition, these are the values of `_IDW_VERTICES` and
    `_AWARE_VALUES`, the witness's exact floats on those 0/1 tables.  Any other callable is
    probed: its affine form is read once and refused unless it is I_DW's, then the witness
    is evaluated at each maximiser's p_e and checked against that form."""
    if witness is _dimension_witness and (n_prep, n_meas) == IDW_SHAPE:
        return [
            _IDW_VERTICES[k][0] if kind == "causal" else _AWARE_VALUES[k] for kind, k in maxima
        ]
    c0, coef = _idw_form(witness, n_prep, n_meas)
    return [_affine_value(witness, c0, coef, _maxima_p_e()[key].copy()) for key in maxima]


def classical_max_linear(
    witness: TableFunctional, d: int, n_prep: int, n_meas: int
) -> tuple[float, DeterministicStrategy]:
    """Exact maximum of I_DW over d-message strategies with shared randomness.

    I_DW = D00 + D01 + D10 - D11 - D20 (`IDW_COEF`) is linear in the
    table, so by convexity its maximum sits at a deterministic strategy,
    where every D_ij is +-1.  5 needs D00 = D01 = D10 = +1 and
    D11 = D20 = -1: preparations 0 and 1 differ at measurement 1, and
    preparation 2 differs from both at measurement 0, which takes three
    distinct messages, so d >= 3.  At d = 2 two preparations share a
    message and so a row of D; the three cases give 2 D00 - D20,
    D01 + D10 - D11 and D00 + D01 - D11, each at most 3.  At d = 1,
    I_DW = D00 <= 1.  The strategy returned is the first maximiser in
    lexicographic (encode, decode) order (`_IDW_VERTICES`), which the
    test suite checks against an enumeration of the encoders; the value
    is the witness at its table.

    Nothing is enumerated.  The package's own `dimension_witness` on
    `IDW_SHAPE` is not called: the value is read from the table.  Any
    other witness is evaluated at the 9 tables that read its affine form
    in p_e and at the maximiser's; ValueError if that form is not I_DW's
    on `IDW_SHAPE`.  The strategy's decode table lists only the messages
    its encoder sends, whatever d.
    """
    _check_dimension(d)
    [value] = _idw_values(witness, n_prep, n_meas, [("causal", min(d, 3))])
    _, encode, decode = _IDW_VERTICES[min(d, 3)]
    return value, DeterministicStrategy(encode=encode, decode=decode)


# ---------------------------------------------------------------------------
# Determinant witness over the independent (product) randomness space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetBoundResult:
    """Outcome of the determinant-witness bound.

    `value` is the closed-form bound, attained by the deterministic
    `strategy`, as |det W| peaks at a vertex (deterministic) pair.
    """

    value: float
    strategy: DeterministicStrategy

    def to_json_dict(self) -> dict:
        return {"value": self.value, "strategy": self.strategy.to_json_dict()}


# At min(d, 4) messages: the bound and its first maximising vertex pair in lexicographic
# (encode, decode) order, with a decode row (1 for "e") for each message 0..max(encode) it
# sends.
_DET_VERTICES = {
    2: (0.0, (0, 0, 0, 0), ((0, 0),)),  # dd
    3: (1.0, (0, 1, 0, 2), ((0, 0), (0, 1), (1, 0))),  # dd/de/ed
    4: (2.0, (0, 1, 2, 3), ((0, 0), (1, 1), (0, 1), (1, 0))),  # dd/ee/de/ed
}


def classical_max_det(d: int) -> DetBoundResult:
    """Maximize |det W| over d-dimensional strategies with independent
    encoder/decoder randomness, on the preparations and measurements that
    `DET_CONTRAST` defines W over.

    The value is closed-form.  |det W| is multilinear in the independent
    encoder and decoder mixtures, so its maximum sits at a vertex
    (deterministic) pair.  Each contrast row is one +1 and one -1
    preparation, on disjoint preparations (the test suite pins
    `DET_CONTRAST`), so at a vertex each entry of W is y[m+, l] - y[m-, l]
    in {-1, 0, 1}, for the p_d rows y of the decoder, and |ad - bc| <= 2.
    At d = 2 the bound is 0, by the rank argument of Bowles, Quintino &
    Brunner (PRL 112, 140407, 2014).  Reaching 2 needs all four entries
    +-1, hence four distinct messages: the bound is 1 at d = 3 and 2 at
    d >= 4.  The strategy returned is the first maximising vertex pair in
    lexicographic (encode, decode) order (`_DET_VERTICES`), which the test
    suite checks against an enumeration of the vertex pairs.

    Nothing is enumerated or drawn.  The strategy's decode table lists
    only the messages its encoder sends, whatever d.
    """
    if d < 2:
        raise ValueError(f"determinant search needs message dimension >= 2, got {d}")
    value, encode, decode = _DET_VERTICES[min(d, 4)]
    return DetBoundResult(value, DeterministicStrategy(encode=encode, decode=decode))


# `perfbench/tracing.py` counts the calls of this name as `classical.det.line_searches`, so it
# stays, with no caller, until the benchmark stops counting it: the |det W| bound is
# closed-form and no line search is left to count.
def _best_coordinate_move(*args, **kwargs):
    raise NotImplementedError("the |det W| bound is closed-form; there is no line search")


# ---------------------------------------------------------------------------
# Retrocausal models
# ---------------------------------------------------------------------------


def setting_aware_max(witness: TableFunctional, d: int, n_prep: int, n_meas: int) -> float:
    """Exact I_DW maximum when the encoder also sees the measurement
    index, over encode: (i, j) -> m and decode: (m, j) -> outcome.

    With d >= 2 every cell's outcome is free, so each D_ij takes the sign
    of its coefficient: 5.  With d = 1 a column shares one outcome, and
    the best is "e" in column 0 (coefficients 1 + 1 - 1) and "d" in
    column 1 (1 - 1): 1.  The value is the witness at that table, read
    from I_DW's affine form for the package's own `dimension_witness`
    and evaluated, with its checks, for any other witness, which is
    refused with ValueError as `classical_max_linear` refuses it.
    """
    _check_dimension(d)
    [value] = _idw_values(witness, n_prep, n_meas, [("aware", min(d, 2))])
    return float(value)


def retrocausal_max(
    witness: TableFunctional, d: int, n_prep: int, n_meas: int, leak: float
) -> float:
    """Maximum I_DW at a given leak probability (optimal base):
    (1 - leak) * `classical_max_linear` + leak * `setting_aware_max`, with
    their witness checks from one read of the witness's affine form, and
    the setting-aware maximiser left out at leak 0.  The package's own
    `dimension_witness` is not called, as in those bounds.  No strategy
    is built."""
    # written so that NaN, which fails every comparison, is refused
    if not 0.0 <= leak <= 1.0:
        raise ValueError(f"leak must be in [0, 1], got {leak}")
    _check_dimension(d)
    if leak == 0.0:
        [causal] = _idw_values(witness, n_prep, n_meas, [("causal", min(d, 3))])
        return causal
    maxima = [("causal", min(d, 3)), ("aware", min(d, 2))]
    causal, leaked = _idw_values(witness, n_prep, n_meas, maxima)
    return (1.0 - leak) * causal + leak * float(leaked)
