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
  two-strategy example).  `classical_max_det` therefore searches the
  independent (product) space, and `classical_max_linear` the full
  mixture space.

Linear bounds are exact without enumerating decoders: a linear witness
is affine in p_e, and for a fixed encoder the best decoder picks every
(message, measurement) bit on its own, so the maximum is found in closed
form per encoder, over all encoders at once.  The test suite checks
these results against brute-force enumeration.  `classical_max_linear`
and `classical_max_det` refuse loudly when their strategy count exceeds
`DEFAULT_ENUMERATION_CAP`.  Outcome encoding: decode entries are 1 for
outcome "e" and 0 for outcome "d".

The determinant search's climbs build their candidate matrices
elementwise, not through BLAS (see `classical_max_det`), so their
rounding does not depend on the BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .scenario import ProbabilityTable
from .witness import DET_CONTRAST, abs_det, det

DEFAULT_ENUMERATION_CAP = 10_000_000

TableFunctional = Callable[[ProbabilityTable], float]


class EnumerationCapExceeded(RuntimeError):
    """Strategy space too large for exhaustive enumeration."""


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


def _check_cap(count: int) -> None:
    if count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{count} strategies exceed the enumeration cap of {DEFAULT_ENUMERATION_CAP}"
        )


def _lex_grid(base: int, length: int) -> np.ndarray:
    """Every tuple in range(base)**length as a row, in itertools.product order.

    C-contiguous: numpy's matrix products may round differently on strided
    operands, and the determinant climbs are meant to repeat bit for bit.
    """
    return np.ascontiguousarray(np.indices((base,) * length).reshape(length, -1).T)


def _grid_strategy(encoder: np.ndarray, decode: np.ndarray) -> DeterministicStrategy:
    """The strategy of one `_lex_grid` encoder row and a (d, n_meas) 0/1 decode array."""
    return DeterministicStrategy(
        encode=tuple(encoder.tolist()), decode=tuple(map(tuple, decode.astype(int).tolist()))
    )


def _affine_coefficients(
    witness: TableFunctional, n_prep: int, n_meas: int
) -> tuple[float, np.ndarray]:
    """(c0, C) with witness(table) = c0 + sum(C * p_e) for an affine witness,
    read off the all-"d" table and the n_prep * n_meas unit tables."""
    zero = np.zeros((n_prep, n_meas))
    c0 = witness(_pe_table(zero))
    coef = np.empty((n_prep, n_meas))
    for i, j in np.ndindex(n_prep, n_meas):
        unit = zero.copy()
        unit[i, j] = 1.0
        coef[i, j] = witness(_pe_table(unit)) - c0
    return c0, coef


def _check_affine(
    witness: TableFunctional, c0: float, coef: np.ndarray, p_e: np.ndarray, value: float
) -> None:
    """Refuse a witness that (c0, C) does not reproduce at the maximizer
    `p_e` (where it took `value`), at all-"e" and at a fixed interior table."""
    interior = np.random.default_rng(0).random(coef.shape)
    ones = np.ones(coef.shape)
    tol = 1e-9 * (1.0 + abs(c0) + np.abs(coef).sum())
    for table, got in (
        (p_e, value),
        (ones, witness(_pe_table(ones))),
        (interior, witness(_pe_table(interior))),
    ):
        expected = c0 + float(np.sum(coef * table))
        if not math.isclose(got, expected, rel_tol=0.0, abs_tol=tol):
            raise ValueError(
                f"witness is not affine in p_e: it gives {got!r} where its unit-table "
                f"coefficients predict {expected!r}"
            )


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
    if d < 1:
        raise ValueError(f"message dimension must be >= 1, got {d}")
    _check_cap(strategy_count(d, n_prep, n_meas))
    c0, coef = _affine_coefficients(witness, n_prep, n_meas)

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

    strategy = _grid_strategy(encoders[best], bits[best])
    table = strategy_table(strategy, n_prep, n_meas)
    value = witness(table)
    _check_affine(witness, c0, coef, table.p_e, value)
    return value, strategy


# ---------------------------------------------------------------------------
# Determinant witness over the independent (product) randomness space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetBoundResult:
    """Outcome of the determinant-witness search.

    `value` is the exact bound `deterministic_max`, as |det W| peaks at a
    vertex (deterministic) pair; `mixture_max` is the best value reached by
    hill climbs over independent randomization from one seeded start stream.
    """

    value: float
    strategy: DeterministicStrategy
    deterministic_max: float
    mixture_max: float
    n_strategies: int
    restarts: int
    seed: int

    def to_json_dict(self) -> dict:
        return {**asdict(self), "strategy": self.strategy.to_json_dict()}


# Candidate matrices per line search, which sizes a lockstep block of restarts,
# and vertex pairs per slice of the exhaustive pass: bounds the stacks built.
_BLOCK_CANDIDATES = 4096


def _restart_block(ce: np.ndarray, dd: np.ndarray) -> int:
    """Restarts per lockstep block: 256 at d = 2, 50 at d = 3."""
    return max(1, _BLOCK_CANDIDATES // max(len(ce), len(dd)))


def _entries(w: np.ndarray) -> np.ndarray:
    """A (..., 2, 2) stack as nested rows w[k][l] of (...) arrays, for `det`."""
    return np.moveaxis(w, (-2, -1), (0, 1))


def _message_pairs(contrast: np.ndarray, encoders: np.ndarray, d: int) -> np.ndarray:
    """(n_enc, contrast rows) index m+ * d + m- of the messages a contrast row
    compares: that row of the encoder's vertex matrix is one-hot(m+) - one-hot(m-)."""
    one_pair = np.zeros(contrast.shape[1])
    one_pair[[0, -1]] = -1, 1
    if not (np.sort(contrast, axis=1) == one_pair).all():
        raise ValueError(f"each contrast row must be one +1 and one -1, got {contrast.tolist()}")
    return encoders[:, contrast.argmax(axis=1)] * d + encoders[:, contrast.argmin(axis=1)]


def _encoder_candidates(y: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """ce @ y[:, None] entries first, (2, 2, R, n_enc) from y (R, d, 2): each
    entry is the one subtraction y[m+] - y[m-] that the product also rounds to."""
    yt = np.ascontiguousarray(y.transpose(2, 0, 1))  # (column, R, message)
    diff = (yt[:, :, :, None] - yt[:, :, None, :]).reshape(*yt.shape[:2], -1)
    return np.stack([diff[:, :, p] for p in pairs.T])


def _decoder_candidates(x: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """x[:, None] @ dd entries first, (2, 2, R, n_dec) from x (R, 2, d): column l
    of decoder b adds the columns m of x with bit m set in patterns[b, l], in
    order from 0.0 as the product does, gathered from every subset's sum."""
    sums = np.zeros((x.shape[1], len(x), 1))  # (row, R, subset)
    for column in np.ascontiguousarray(x.transpose(2, 1, 0))[..., None]:
        sums = np.concatenate((sums, sums + column), axis=2)
    return np.stack([sums[:, :, p] for p in patterns.T], axis=1)


def _best_coordinate_move(
    w: np.ndarray, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact line search from each matrix w[r] toward each candidate
    vertex matrix candidates[:, :, r, k] (entries first; overwritten).

    Along w(t) = (1-t) w + t b the determinant is quadratic in t, so
    |det| on [0, 1] peaks at an endpoint or the interior extremum.
    Returns per row r: (best |det|, candidate index, t).
    """
    w = np.ascontiguousarray(_entries(w))[..., None]
    delta = np.subtract(candidates, w, out=candidates)
    det_w, det_delta = det(w), det(delta)
    cross = (
        w[0][0] * delta[1][1]
        + delta[0][0] * w[1][1]
        - w[0][1] * delta[1][0]
        - delta[0][1] * w[1][0]
    )
    del delta, candidates  # free the (2, 2, R, K) stack before scoring
    at_one = np.abs(det_w + cross + det_delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = -cross / (2.0 * det_delta)
    # NaN and +-inf, where det_delta = 0, fail both comparisons
    valid = (t_star > 0.0) & (t_star < 1.0)
    t_star = np.where(valid, t_star, 0.0)
    at_star = np.where(
        valid, np.abs(det_w + cross * t_star + det_delta * t_star**2), -np.inf
    )
    rows = np.arange(len(at_one))
    best_at_one = np.argmax(at_one, axis=1)
    best_at_star = np.argmax(at_star, axis=1)
    one = at_one[rows, best_at_one]
    star = at_star[rows, best_at_star]
    use_star = star > one
    return (
        np.where(use_star, star, one),
        np.where(use_star, best_at_star, best_at_one),
        np.where(use_star, t_star[rows, best_at_star], 1.0),
    )


def _start_points(ce: np.ndarray, dd: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet(1, ..., 1) encoder and decoder mixtures from the rows of
    unit exponentials `e` (encoder weights first), projected onto the
    vertex matrices: x (R, 2, d) and y (R, d, 2).

    Each row is scaled by the reciprocal of its in-order sum (cumsum), as
    Generator.dirichlet computes it.  The projection is a stacked (R, 1, K)
    @ (K, M) matmul: it takes the same vector-matrix path as one row at a
    time, where a 2-D matmul rounds some rows differently, so a restart
    starts, and climbs, the same way whichever block it falls in.  These
    and the W = x @ y products are the climb's only matmuls, so only they
    may round differently under another BLAS build.
    """
    n_enc = len(ce)
    points = []
    for weights, vertices in ((e[:, :n_enc], ce), (e[:, n_enc:], dd)):
        weights = weights * (1.0 / np.cumsum(weights, axis=1)[:, -1:])
        mixed = weights[:, None] @ vertices.reshape(len(vertices), -1)
        points.append(mixed.reshape(-1, *vertices.shape[1:]))
    return points[0], points[1]


def _climb(ce: np.ndarray, dd: np.ndarray, pairs: np.ndarray, e: np.ndarray) -> np.ndarray:
    """|det W| that coordinate ascent reaches from the starting point of
    each row of `e` (`_start_points`), all rows climbing in lockstep.

    Each round moves the encoder mixture x, then the decoder mixture y,
    of every climb still improving; a climb stops after a round with no
    move, or after 200 rounds.  `pairs` are the message pairs of the rows
    of ce (`_message_pairs`); dd must be 0/1.
    """
    patterns = (dd.astype(np.intp) << np.arange(dd.shape[1])[:, None]).sum(axis=1)
    x, y = _start_points(ce, dd, e)
    w = x @ y
    current = abs_det(_entries(w))
    active = np.arange(len(e))
    for _ in range(200):
        if not active.size:
            break
        xa, ya, wa, ca = x[active], y[active], w[active], current[active]
        enc_val, a, t = _best_coordinate_move(wa, _encoder_candidates(ya, pairs))
        enc_moved = enc_val > ca + 1e-15
        t = t[enc_moved, None, None]
        xa[enc_moved] = (1.0 - t) * xa[enc_moved] + t * ce[a[enc_moved]]
        wa[enc_moved] = xa[enc_moved] @ ya[enc_moved]
        ca[enc_moved] = abs_det(_entries(wa[enc_moved]))
        dec_val, b, t = _best_coordinate_move(wa, _decoder_candidates(xa, patterns))
        dec_moved = dec_val > ca + 1e-15
        t = t[dec_moved, None, None]
        ya[dec_moved] = (1.0 - t) * ya[dec_moved] + t * dd[b[dec_moved]]
        wa[dec_moved] = xa[dec_moved] @ ya[dec_moved]
        ca[dec_moved] = abs_det(_entries(wa[dec_moved]))
        x[active], y[active], w[active], current[active] = xa, ya, wa, ca
        active = active[enc_moved | dec_moved]
    return current


def _vertex_max(dd: np.ndarray, pairs: np.ndarray) -> tuple[float, int, int]:
    """(|det W|, a, b) at the first maximizing vertex pair (encoder a, decoder b)
    in row-major order.  The dets are small integers, so exact."""
    best = (-1.0, 0, 0)
    step = max(1, _BLOCK_CANDIDATES // len(dd))
    for start in range(0, len(pairs), step):
        dets = abs_det(_encoder_candidates(dd, pairs[start : start + step])).T
        a, b = np.unravel_index(np.argmax(dets), dets.shape)
        if dets[a, b] > best[0]:
            best = (float(dets[a, b]), start + int(a), int(b))
    return best


def classical_max_det(d: int, restarts: int = 10_000, seed: int = 0) -> DetBoundResult:
    """Maximize |det W| over d-dimensional strategies with independent
    encoder/decoder randomness, on the preparations and measurements that
    `DET_CONTRAST` defines W over.

    All deterministic strategies are checked exhaustively; on top of
    that, seeded random-restart coordinate ascent runs over the product
    of the encoder-mixture and decoder-mixture simplices, with an exact
    quadratic line search per coordinate move.  Restarts climb in
    lockstep blocks sized so that each line search scores about
    `_BLOCK_CANDIDATES` candidate matrices; restart k always starts from
    row k of one seeded stream of exponentials, so the result depends only
    on (restarts, seed).  Each `DET_CONTRAST` row is one +1 and one -1
    preparation, so a candidate matrix entry is one subtraction (encoder
    moves) or an in-order sum of mixture columns (decoder moves): built
    elementwise, not through BLAS.  The maximum of the bilinear objective is attained
    at a vertex pair, so the returned value is the exhaustive maximum and
    the climbs are a numerical confirmation rather than an extension of
    the bound.
    """
    if d < 2:
        raise ValueError(f"determinant search needs message dimension >= 2, got {d}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    n_meas, n_prep = DET_CONTRAST.shape  # W is n_meas x n_meas
    _check_cap(strategy_count(d, n_prep, n_meas))

    encoders = _lex_grid(d, n_prep)  # (n_enc, n_prep) messages
    decoders = _lex_grid(2, d * n_meas).reshape(-1, d, n_meas)  # (n_dec, d, n_meas) bits
    # contrast @ one-hot(encoder): shape (n_enc, 2, d)
    ce = DET_CONTRAST @ (encoders[:, :, None] == np.arange(d)).astype(float)
    # p_d rows of each decoder: (n_dec, d, n_meas)
    dd = 1.0 - decoders.astype(float)
    pairs = _message_pairs(DET_CONTRAST, encoders, d)

    det_max, a, b = _vertex_max(dd, pairs)

    mixture_max = 0.0
    rng = np.random.default_rng(seed)
    block = _restart_block(ce, dd)
    for start in range(0, restarts, block):
        e = rng.standard_exponential((min(block, restarts - start), len(ce) + len(dd)))
        mixture_max = max(mixture_max, float(_climb(ce, dd, pairs, e).max()))

    return DetBoundResult(
        value=det_max,
        strategy=_grid_strategy(encoders[a], decoders[b]),
        deterministic_max=det_max,
        mixture_max=mixture_max,
        n_strategies=strategy_count(d, n_prep, n_meas),
        restarts=restarts,
        seed=seed,
    )


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
    if d < 1:
        raise ValueError(f"message dimension must be >= 1, got {d}")
    c0, coef = _affine_coefficients(witness, n_prep, n_meas)
    if d == 1:
        p_e = np.broadcast_to(coef.sum(axis=0) > 0.0, coef.shape).astype(float)
    else:
        p_e = (coef > 0.0).astype(float)
    value = witness(_pe_table(p_e))
    _check_affine(witness, c0, coef, p_e, value)
    return float(value)


def retrocausal_max(
    witness: TableFunctional,
    d: int,
    n_prep: int,
    n_meas: int,
    leak: float,
) -> float:
    """Maximum witness value at a given leak probability (optimal base)."""
    # written so that NaN, which fails every comparison, is refused
    if not 0.0 <= leak <= 1.0:
        raise ValueError(f"leak must be in [0, 1], got {leak}")
    causal, _ = classical_max_linear(witness, d, n_prep, n_meas)
    if leak == 0.0:
        return causal
    leaked = setting_aware_max(witness, d, n_prep, n_meas)
    return (1.0 - leak) * causal + leak * leaked
