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
`classical_max_linear` and `classical_max_det` refuse loudly when their
strategy count exceeds `DEFAULT_ENUMERATION_CAP`.  Outcome encoding:
decode entries are 1 for outcome "e" and 0 for outcome "d".

The determinant climbs' line searches run on the product grid of their
candidates, restarts innermost, and build the candidate matrices
elementwise, not through BLAS (see `_mixture_max`), so their
rounding does not depend on the BLAS build.  They write every grid-sized
value in place into one workspace per thread (`_grid_buffers`): five
float64 and two bool arrays, allocated on the thread's first search and
grown only when a larger grid arrives; `_mixture_max` keeps its grids
within `_BLOCK_CANDIDATES` elements.  A line search therefore allocates, and
page-faults in, no grid array, and concurrent searches in other threads
use workspaces of their own.
"""

from __future__ import annotations

import math
import threading
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
    `mixture_max` is the best value reached by hill climbs over independent
    randomization from one seeded start stream.
    """

    value: float
    strategy: DeterministicStrategy
    mixture_max: float
    n_strategies: int
    restarts: int
    seed: int

    def to_json_dict(self) -> dict:
        return {**asdict(self), "strategy": self.strategy.to_json_dict()}


# Restarts x the larger of the encoder and decoder counts, which sizes a lockstep
# block of restarts.  A block's line-search grids are no larger, so the workspace
# of `_best_coordinate_move` holds at most 7 such arrays (672 KB) per thread.
_BLOCK_CANDIDATES = 16384
_workspace = threading.local()


def _restart_block(ce: np.ndarray, dd: np.ndarray) -> int:
    """Restarts per lockstep block: 1024 at d = 2, 202 at d = 3."""
    return max(1, _BLOCK_CANDIDATES // max(len(ce), len(dd)))


def _entries(w: np.ndarray) -> np.ndarray:
    """A (..., 2, 2) stack as nested rows w[k][l] of (...) arrays, for `det`."""
    return w.transpose(-2, -1, *range(w.ndim - 2))


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


def _message_pairs(contrast: np.ndarray, encoders: np.ndarray, d: int) -> np.ndarray:
    """(n_enc, contrast rows) index m+ * d + m- of the messages a contrast row
    compares: that row of the encoder's vertex matrix is one-hot(m+) - one-hot(m-)."""
    plus, minus = _contrast_preparations(contrast)
    return encoders[:, plus] * d + encoders[:, minus]


def _encoder_grid(pairs: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The product grid of the encoder moves, row-0 pair x row-1 pair: the kept
    message pairs (m+, m-) of one contrast row, and the first encoder of `pairs`
    at each grid cell, in grid order (which is encoder order for `DET_CONTRAST`,
    whose encoders sort by row-0 pair, then row-1 pair).  A pair (m, m) with
    m >= 1 gives the same zero row as the earlier (0, 0), so it is dropped:
    d = 3 keeps 7 of 9 pairs, 49 of 81 encoders."""
    plus, minus = np.divmod(np.arange(d * d), d)
    kept = np.flatnonzero((plus != minus) | (plus == 0))
    _, first = np.unique(pairs[:, 0] * d * d + pairs[:, 1], return_index=True)
    return plus[kept], minus[kept], first.reshape(d * d, d * d)[np.ix_(kept, kept)].ravel()


def _decoder_grid(dd: np.ndarray) -> np.ndarray:
    """The product grid of the decoder moves, column-0 subset x column-1 subset
    of messages (those with p_d = 1): the flattened grid cell of each decoder,
    which gathers the grid into decoder order.  dd must hold every decoder."""
    subsets = (dd.astype(np.intp) << np.arange(dd.shape[1])[:, None]).sum(axis=1)
    return subsets[:, 0] << dd.shape[1] | subsets[:, 1]


def _encoder_rows(y: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> list:
    """Entries [k][l] of the encoder candidates from y (R, d, 2): row k of a
    candidate is y[m+] - y[m-], one subtraction per kept pair and restart, as
    (P, 1, R) arrays for row 0 and (1, P, R) arrays for row 1 of the grid."""
    yt = np.ascontiguousarray(y.transpose(2, 1, 0))  # (column, message, R)
    rows = yt[:, plus] - yt[:, minus]  # (column, pair, R)
    return [[rows[0, :, None], rows[1, :, None]], [rows[0, None], rows[1, None]]]


def _decoder_columns(x: np.ndarray) -> list:
    """Entries [k][l] of the decoder candidates from x (R, 2, d): column l of a
    candidate adds the columns m of x in one message subset, in order from 0.0
    as x @ dd does, so each subset's sum is built once; (P, 1, R) arrays for
    column 0 and (1, P, R) arrays for column 1 of the grid."""
    sums = np.zeros((2, 1, len(x)))  # (row, subset, R)
    for column in np.ascontiguousarray(x.transpose(2, 1, 0))[:, :, None]:
        sums = np.concatenate((sums, sums + column), axis=1)
    return [[sums[k, :, None], sums[k, None]] for k in range(2)]


def _grid_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Five float64 and then two bool arrays of `shape`, views of this thread's workspace:
    allocated on first use, grown only when a larger grid arrives, and overwritten by the
    next call in the same thread."""
    size = math.prod(shape)
    if getattr(_workspace, "size", 0) < size:
        _workspace.size = size
        _workspace.buffers = (*np.empty((5, size)), *np.empty((2, size), dtype=bool))
    return tuple(buffer[:size].reshape(shape) for buffer in _workspace.buffers)


def _best_coordinate_move(
    w: np.ndarray, candidates: list, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact line search from each matrix w[r] (R, 2, 2) toward each candidate
    vertex matrix of a product grid.

    Each entry candidates[k][l] broadcasts to the (P0, P1, R) grid, restarts
    innermost; `order`, a permutation, gathers the flattened grid into
    candidate order (by default the grid order is the candidate order).
    Every grid value is the one that candidate's own scalar arithmetic
    gives, so ties and first maxima are those of a materialised (R, K)
    stack.  Along w(t) = (1-t) w + t b the determinant is quadratic in t,
    so |det| on [0, 1] peaks at an endpoint or the interior extremum.
    Returns per row r: (best |det|, first maximizing candidate index, t),
    as new arrays.

    Every grid-sized value is written in place into this thread's
    workspace (`_grid_buffers`), in the order the plain expressions
    evaluate, so each value is bit for bit what they give and no call
    allocates (or page-faults in) a grid array.
    """
    n = len(w)
    w = np.ascontiguousarray(_entries(w))  # w[k][l] of shape (R,)
    (d00, d01), (d10, d11) = (
        [c - w_kl for c, w_kl in zip(c_row, w_row)] for c_row, w_row in zip(candidates, w)
    )
    grid = np.broadcast_shapes(d00.shape, d01.shape, d10.shape, d11.shape)
    det_delta, tmp, cross, at_one, t_star, valid, invalid = _grid_buffers(grid)
    det_w = det(w)
    np.subtract(np.multiply(d00, d11, out=det_delta), np.multiply(d01, d10, out=tmp), out=det_delta)
    np.add(w[0][0] * d11, d00 * w[1][1], out=cross)
    np.subtract(cross, w[0][1] * d10, out=cross)
    np.subtract(cross, d01 * w[1][0], out=cross)
    np.abs(np.add(np.add(det_w, cross, out=at_one), det_delta, out=at_one), out=at_one)
    # t_star is NaN or +-inf where det_delta = 0 and its square may overflow:
    # such values fail both comparisons, so `valid` masks all they give
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(np.negative(cross, out=t_star), np.multiply(2.0, det_delta, out=tmp), out=t_star)
        np.greater(t_star, 0.0, out=valid)
        np.logical_and(valid, np.less(t_star, 1.0, out=invalid), out=valid)
        at_star = np.add(det_w, np.multiply(cross, t_star, out=cross), out=cross)
        np.multiply(det_delta, np.square(t_star, out=tmp), out=tmp)
        np.abs(np.add(at_star, tmp, out=at_star), out=at_star)
    np.copyto(at_star, -np.inf, where=np.logical_not(valid, out=invalid))
    at_one, at_star, t_star = (a.reshape(-1, n) for a in (at_one, at_star, t_star))
    if order is not None:  # into buffers free by now; "clip" takes no copy, as "raise" does
        at_one = np.take(at_one, order, axis=0, out=tmp.reshape(-1, n), mode="clip")
        at_star = np.take(at_star, order, axis=0, out=det_delta.reshape(-1, n), mode="clip")
    rows = np.arange(n)
    best_at_one = np.argmax(at_one, axis=0)
    best_at_star = np.argmax(at_star, axis=0)
    one = at_one[best_at_one, rows]
    star = at_star[best_at_star, rows]
    use_star = star > one
    cell = best_at_star if order is None else order[best_at_star]
    return (
        np.where(use_star, star, one),
        np.where(use_star, best_at_star, best_at_one),
        np.where(use_star, t_star[cell, rows], 1.0),
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
    of ce (`_message_pairs`); dd must be 0/1 and hold every decoder.
    """
    plus, minus, enc_rows = _encoder_grid(pairs, dd.shape[1])
    dec_cells = _decoder_grid(dd)
    x, y = _start_points(ce, dd, e)
    w = x @ y
    current = abs_det(_entries(w))
    active = np.arange(len(e))
    for _ in range(200):
        if not active.size:
            break
        if active.size == len(e):  # every climb: work on the arrays themselves
            xa, ya, wa, ca = x, y, w, current
        else:
            xa, ya, wa, ca = x[active], y[active], w[active], current[active]
        enc_val, a, t = _best_coordinate_move(wa, _encoder_rows(ya, plus, minus))
        enc_moved = enc_val > ca + 1e-15
        t = t[enc_moved, None, None]
        xa[enc_moved] = (1.0 - t) * xa[enc_moved] + t * ce[enc_rows[a[enc_moved]]]
        wa[enc_moved] = xa[enc_moved] @ ya[enc_moved]
        ca[enc_moved] = abs_det(_entries(wa[enc_moved]))
        dec_val, b, t = _best_coordinate_move(wa, _decoder_columns(xa), dec_cells)
        dec_moved = dec_val > ca + 1e-15
        t = t[dec_moved, None, None]
        ya[dec_moved] = (1.0 - t) * ya[dec_moved] + t * dd[b[dec_moved]]
        wa[dec_moved] = xa[dec_moved] @ ya[dec_moved]
        ca[dec_moved] = abs_det(_entries(wa[dec_moved]))
        if xa is not x:
            x[active], y[active], w[active], current[active] = xa, ya, wa, ca
        active = active[enc_moved | dec_moved]
    return current


# At min(d, 4) messages: the bound and its first maximising vertex pair in lexicographic
# (encode, decode) order, as the messages (m+, m-) that the +1 and the -1 preparation of
# each contrast row send, and the decode rows by message (1 for "e"), padded with "d" rows.
_DET_VERTICES = {
    2: (0.0, ((0, 0), (0, 0)), ((0, 0), (0, 0))),  # dd/dd
    3: (1.0, ((0, 1), (0, 2)), ((0, 0), (0, 1), (1, 0))),  # dd/de/ed
    4: (2.0, ((0, 1), (2, 3)), ((0, 0), (1, 1), (0, 1), (1, 0))),  # dd/ee/de/ed
}


def classical_max_det(d: int, restarts: int = 10_000, seed: int = 0) -> DetBoundResult:
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

    `mixture_max` records the best value that seeded climbs over the
    independent mixtures reach (`_mixture_max`): a numerical confirmation,
    not part of the bound.
    """
    if d < 2:
        raise ValueError(f"determinant search needs message dimension >= 2, got {d}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    plus, minus = _contrast_preparations(DET_CONTRAST)
    n_meas, n_prep = DET_CONTRAST.shape  # W is n_meas x n_meas
    _check_cap(d, n_prep, n_meas)

    value, messages, decode = _DET_VERTICES[min(d, 4)]
    encode = np.zeros(n_prep, dtype=int)  # a preparation outside W sends message 0
    encode[plus], encode[minus] = np.transpose(messages)
    decode += ((0,) * n_meas,) * (d - len(decode))
    return DetBoundResult(
        value=value,
        strategy=DeterministicStrategy(encode=tuple(encode.tolist()), decode=decode),
        mixture_max=_mixture_max(d, restarts, seed),
        n_strategies=strategy_count(d, n_prep, n_meas),
        restarts=restarts,
        seed=seed,
    )


def _mixture_max(d: int, restarts: int, seed: int) -> float:
    """The best |det W| that `restarts` seeded climbs reach, or 0.0 for none (which
    imports no numpy.random).

    Random-restart coordinate ascent runs over the product of the
    encoder-mixture and decoder-mixture simplices, with an exact quadratic
    line search per coordinate move.  Restarts climb in lockstep blocks of
    `_BLOCK_CANDIDATES` // (the larger of the encoder and decoder counts);
    restart k always starts from row k of one seeded stream of
    exponentials, so the result depends only on (restarts, seed).

    Row k of an encoder candidate is y[m+] - y[m-] for one message pair,
    and column l of a decoder candidate is the in-order sum of the mixture
    columns in one message subset.  The candidates are therefore product
    grids, row-0 pair x row-1 pair and column-0 subset x column-1 subset:
    each entry is built once per pair or subset and restart, as a (P, R)
    array with the restarts innermost, and only the line search's own
    values span the grid.  Pairs (m, m) with m >= 1 repeat the zero row of
    the earlier (0, 0) and are dropped (49 of 81 encoders are searched at
    d = 3).  All of it is elementwise, not BLAS, and every value and first
    maximum is the one a materialised candidate stack gives.
    """
    if restarts == 0:
        return 0.0
    n_meas, n_prep = DET_CONTRAST.shape
    encoders = _lex_grid(d, n_prep)  # (n_enc, n_prep) messages
    decoders = _lex_grid(2, d * n_meas).reshape(-1, d, n_meas)  # (n_dec, d, n_meas) bits
    # contrast @ one-hot(encoder): shape (n_enc, 2, d)
    ce = DET_CONTRAST @ (encoders[:, :, None] == np.arange(d)).astype(float)
    # p_d rows of each decoder: (n_dec, d, n_meas)
    dd = 1.0 - decoders.astype(float)
    pairs = _message_pairs(DET_CONTRAST, encoders, d)

    mixture_max = 0.0
    block = _restart_block(ce, dd)
    # the grids have at most max(len(ce), len(dd)) cells; the cap keeps a block within the bound
    assert block * max(len(ce), len(dd)) <= _BLOCK_CANDIDATES
    rng = np.random.default_rng(seed)
    for start in range(0, restarts, block):
        e = rng.standard_exponential((min(block, restarts - start), len(ce) + len(dd)))
        mixture_max = max(mixture_max, float(_climb(ce, dd, pairs, e).max()))
    return mixture_max


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
