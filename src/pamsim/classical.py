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
  independent (product) space, in closed form, and `classical_max_linear`
  the full mixture space.

Linear bounds are exact without enumerating decoders: a linear witness
is affine in p_e, and for a fixed encoder the best decoder picks every
(message, measurement) bit on its own, so the maximum is found in closed
form per encoder, over all encoders at once.  The affine form (c0, C)
is read off the witness once per bound, and `retrocausal_max` reads it
once for both of its maxima; the maximisers themselves take (c0, C).
The test suite checks these results against brute-force enumeration.
`classical_max_linear` refuses loudly when its strategy count exceeds
`DEFAULT_ENUMERATION_CAP`; `classical_max_det` enumerates nothing.
Outcome encoding: decode entries are 1 for outcome "e" and 0 for
outcome "d".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .scenario import ProbabilityTable
from .witness import DET_CONTRAST

DEFAULT_ENUMERATION_CAP = 10_000_000

TableFunctional = Callable[[ProbabilityTable], float]


class EnumerationCapExceeded(RuntimeError):
    """Strategy space too large for exhaustive enumeration, or strategy too large to write."""


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


def strategy_count(d: int, n_prep: int, n_meas: int) -> int:
    return d**n_prep * 2 ** (d * n_meas)


def _check_cap(d: int, n_prep: int, n_meas: int) -> None:
    """Refuse more strategies than the cap; 2**(d * n_meas) decoders alone over it refuse
    before the count is built, so a huge d costs no huge integer."""
    if d * n_meas >= DEFAULT_ENUMERATION_CAP.bit_length():
        raise EnumerationCapExceeded(
            f"message dimension {d} gives at least 2**{d * n_meas} strategies, more than "
            f"the enumeration cap of {DEFAULT_ENUMERATION_CAP}"
        )
    count = strategy_count(d, n_prep, n_meas)
    if count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{count} strategies exceed the enumeration cap of {DEFAULT_ENUMERATION_CAP}"
        )


def _lex_grid(base: int, length: int) -> np.ndarray:
    """Every tuple in range(base)**length as a row, in itertools.product order."""
    return np.indices((base,) * length).reshape(length, -1).T


def _grid_strategy(encoder: np.ndarray, decode: np.ndarray) -> DeterministicStrategy:
    """The strategy of one `_lex_grid` encoder row and a (d, n_meas) 0/1 decode array."""
    return DeterministicStrategy(
        encode=tuple(encoder.tolist()), decode=tuple(map(tuple, decode.astype(int).tolist()))
    )


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


def classical_max_linear(
    witness: TableFunctional,
    d: int,
    n_prep: int,
    n_meas: int,
) -> tuple[float, DeterministicStrategy]:
    """Exact maximum of a linear table functional over all mixtures.

    By convexity the maximum is attained at a deterministic strategy.
    Writing the witness as c0 + sum(C * p_e), an encoder sends the mass
    S[m, j] = sum(C[i, j] for i with encode(i) = m) to decode bit (m, j),
    so its best decoder sets exactly the bits with S > 0.  All d**n_prep
    encoders are scored at once; ties go to the first strategy in
    lexicographic (encode, decode) order, and the value returned is the
    witness evaluated at that strategy.  Raises ValueError if the witness
    is not affine in p_e.
    """
    _check_dimension(d)
    _check_cap(d, n_prep, n_meas)
    return _linear_max(witness, d, *_affine_form(witness, n_prep, n_meas))


def _linear_max(
    witness: TableFunctional, d: int, c0: float, coef: np.ndarray
) -> tuple[float, DeterministicStrategy]:
    """`classical_max_linear` of the witness whose affine form is (c0, coef)."""
    n_prep, n_meas = coef.shape
    # mass[e, m, j] = S[m, j] of encoder e, summed in preparation order
    encoders = _lex_grid(d, n_prep)
    rows = np.arange(len(encoders))
    mass = np.zeros((len(encoders), d, n_meas))
    for i, row in enumerate(coef):
        mass[rows, encoders[:, i]] += row
    bits = mass > 0.0
    # Score each encoder by the table its best decoder produces, summed row
    # by row: strategies that produce the same table tie exactly.
    score = np.zeros(len(encoders))
    for i in range(n_prep):
        score += np.where(bits[rows, encoders[:, i]], coef[i], 0.0).sum(axis=1)
    best = int(np.argmax(score))

    p_e = bits[best][encoders[best]].astype(float)
    return _affine_value(witness, c0, coef, p_e), _grid_strategy(encoders[best], bits[best])


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
        return {**asdict(self), "strategy": self.strategy.to_json_dict()}


def _contrast_preparations(contrast: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The +1 and the -1 preparation of each contrast row, refused (ValueError) unless
    the contrast is two rows, each one +1 and one -1, on disjoint preparations."""
    one_pair = np.zeros(contrast.shape[1])
    one_pair[[0, -1]] = -1, 1
    paired = len(contrast) == 2 and (np.sort(contrast, axis=1) == one_pair).all()
    if not paired or (np.count_nonzero(contrast, axis=0) > 1).any():
        why = "two rows, each one +1 and one -1, on disjoint preparations"
        raise ValueError(f"the contrast must be {why}, got {contrast.tolist()}")
    return contrast.argmax(axis=1), contrast.argmin(axis=1)


# At min(d, 4) messages: the bound and its first maximising vertex pair in lexicographic
# (encode, decode) order, as the messages (m+, m-) that the +1 and the -1 preparation of
# each contrast row send, and the decode rows by message (1 for "e"), padded with "d" rows.
_DET_VERTICES = {
    2: (0.0, ((0, 0), (0, 0)), ((0, 0), (0, 0))),  # dd/dd
    3: (1.0, ((0, 1), (0, 2)), ((0, 0), (0, 1), (1, 0))),  # dd/de/ed
    4: (2.0, ((0, 1), (2, 3)), ((0, 0), (1, 1), (0, 1), (1, 0))),  # dd/ee/de/ed
}


def classical_max_det(d: int) -> DetBoundResult:
    """Maximize |det W| over d-dimensional strategies with independent
    encoder/decoder randomness, on the preparations and measurements that
    `DET_CONTRAST` defines W over.

    The value is closed-form.  |det W| is multilinear in the independent
    encoder and decoder mixtures, so its maximum sits at a vertex
    (deterministic) pair.  Each contrast row is one +1 and one -1
    preparation, on disjoint preparations (any other contrast is refused
    with ValueError), so at a vertex each entry of W is y[m+, l] - y[m-, l]
    in {-1, 0, 1}, for the p_d rows y of the decoder, and |ad - bc| <= 2.
    At d = 2 the bound is 0, by the rank argument of Bowles, Quintino &
    Brunner (PRL 112, 140407, 2014).  Reaching 2 needs all four entries
    +-1, hence four distinct messages: the bound is 1 at d = 3 and 2 at
    d >= 4.  The strategy returned is the first maximising vertex pair in
    lexicographic (encode, decode) order (`_DET_VERTICES`), which the test
    suite checks against an enumeration of the vertex pairs.

    Nothing is enumerated or drawn.  The strategy's decode table has d
    rows, so a d whose table alone exceeds `DEFAULT_ENUMERATION_CAP`
    entries is refused before any is built.
    """
    if d < 2:
        raise ValueError(f"determinant search needs message dimension >= 2, got {d}")
    plus, minus = _contrast_preparations(DET_CONTRAST)
    n_meas, n_prep = DET_CONTRAST.shape  # W is n_meas x n_meas
    if d * n_meas > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"message dimension {d} gives a strategy of {d * n_meas} decode entries, more "
            f"than the enumeration cap of {DEFAULT_ENUMERATION_CAP}"
        )

    value, messages, decode = _DET_VERTICES[min(d, 4)]
    encode = np.zeros(n_prep, dtype=int)  # a preparation outside W sends message 0
    encode[plus], encode[minus] = np.transpose(messages)
    decode += ((0,) * n_meas,) * (d - len(decode))
    return DetBoundResult(
        value=value,
        strategy=DeterministicStrategy(encode=tuple(encode.tolist()), decode=decode),
    )


# `perfbench/tracing.py` counts the calls of this name as `classical.det.line_searches`, so it
# stays, with no caller, until the benchmark stops counting it: the |det W| bound is
# closed-form and no line search is left to count.
def _best_coordinate_move(*args, **kwargs):
    raise NotImplementedError("the |det W| bound is closed-form; there is no line search")


# ---------------------------------------------------------------------------
# Retrocausal models
# ---------------------------------------------------------------------------


def setting_aware_max(
    witness: TableFunctional,
    d: int,
    n_prep: int,
    n_meas: int,
) -> float:
    """Exact witness maximum when the encoder also sees the measurement
    index, over encode: (i, j) -> m and decode: (m, j) -> outcome.

    With d >= 2 every cell's outcome is free, so the maximum of
    c0 + sum(C * p_e) is c0 + sum(max(C, 0)); with d = 1 a column shares
    one outcome, giving c0 + sum_j max(0, sum_i C[i, j]).  The value is
    the witness evaluated at that table.  Raises ValueError if the
    witness is not affine in p_e.
    """
    _check_dimension(d)
    return _setting_aware_max(witness, d, *_affine_form(witness, n_prep, n_meas))


def _setting_aware_max(witness: TableFunctional, d: int, c0: float, coef: np.ndarray) -> float:
    """`setting_aware_max` of the witness whose affine form is (c0, coef)."""
    if d == 1:
        p_e = np.broadcast_to(coef.sum(axis=0) > 0.0, coef.shape).astype(float)
    else:
        p_e = (coef > 0.0).astype(float)
    return float(_affine_value(witness, c0, coef, p_e))


def retrocausal_max(
    witness: TableFunctional,
    d: int,
    n_prep: int,
    n_meas: int,
    leak: float,
) -> float:
    """Maximum witness value at a given leak probability (optimal base):
    (1 - leak) * `classical_max_linear` + leak * `setting_aware_max`, with
    the same checks, from one read of the witness's affine form."""
    # written so that NaN, which fails every comparison, is refused
    if not 0.0 <= leak <= 1.0:
        raise ValueError(f"leak must be in [0, 1], got {leak}")
    _check_dimension(d)
    _check_cap(d, n_prep, n_meas)
    form = _affine_form(witness, n_prep, n_meas)
    causal, _ = _linear_max(witness, d, *form)
    if leak == 0.0:
        return causal
    leaked = _setting_aware_max(witness, d, *form)
    return (1.0 - leak) * causal + leak * leaked
