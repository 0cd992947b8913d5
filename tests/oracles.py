"""Brute-force references for the classical bounds.

`enumerate_deterministic` lists every deterministic strategy in
lexicographic (encode, decode) order, the order whose first maximizer
`classical_max_linear` must return.  `linear_max` finds that maximizer
of an affine witness by enumerating the encoders only, the reference for
the closed form of `classical_max_linear` at any dimension.  Both
references return their maximizer with the decode rows of the messages
0..max(encode) that it sends, as the closed forms do.
`mixture_table` evaluates a convex mixture of strategies (shared
randomness) as one table.

`vertex_max_det` enumerates the vertex pairs of the determinant witness,
the reference for the closed form of `classical_max_det`;
`independent_mixture_dets` samples the independent mixtures that the
closed form must bound.

`sequential_bootstrap_report` is the full parametric bootstrap, every cell
redrawn from its multinomial, the reference for the closed-form errors of
`bootstrap_report`.  `det_bootstrap_error` redraws only the p_d of W's cells,
each from the binomial that the exact |det W| error of `bootstrap_report`
assumes, so away from the null the two agree to the bootstrap's own
Monte Carlo error.
"""

import itertools

import numpy as np

from pamsim.classical import DeterministicStrategy, _affine_form, strategy_table
from pamsim.scenario import ProbabilityTable
from pamsim.trials import InsufficientStatisticsError, estimate
from pamsim.witness import (
    DET_CLASSICAL_BOUND,
    DET_CONTRAST,
    I_DW_CLASSICAL_BOUND,
    WitnessReport,
    abs_det,
    det_witness,
    dimension_witness,
)


def lex_grid(base, length):
    """Every tuple in range(base)**length as a row, in itertools.product order."""
    return np.indices((base,) * length).reshape(length, -1).T


def grid_strategy(encoder, decode):
    """The strategy of one `lex_grid` encoder row and a (d, n_meas) 0/1 decode array, its
    decode trimmed to the rows of the messages 0..max(encoder) that the encoder sends."""
    sent = decode[: encoder.max() + 1]
    return DeterministicStrategy(
        encode=tuple(encoder.tolist()), decode=tuple(map(tuple, sent.astype(int).tolist()))
    )


def linear_max(witness, d, n_prep, n_meas):
    """(max, first maximizing strategy in lexicographic (encode, decode) order) of an affine
    witness over every d-message deterministic strategy.  Writing the witness as
    c0 + sum(C * p_e), an encoder sends the mass S[m, j] = sum(C[i, j] for i with
    encode(i) = m) to decode bit (m, j), so its best decoder sets exactly the bits with
    S > 0: only the d**n_prep encoders are enumerated.  Each is scored by the table its best
    decoder produces, summed row by row, so strategies with equal tables tie exactly; the
    value is the witness evaluated at the first maximizer's table."""
    c0, coef = _affine_form(witness, n_prep, n_meas)
    encoders = lex_grid(d, n_prep)
    rows = np.arange(len(encoders))
    mass = np.zeros((len(encoders), d, n_meas))  # S[m, j] of each encoder, in preparation order
    for i, row in enumerate(coef):
        mass[rows, encoders[:, i]] += row
    bits = mass > 0.0
    score = np.zeros(len(encoders))
    for i in range(n_prep):
        score += np.where(bits[rows, encoders[:, i]], coef[i], 0.0).sum(axis=1)
    best = int(np.argmax(score))
    strategy = grid_strategy(encoders[best], bits[best])
    return witness(strategy_table(strategy, n_prep, n_meas)), strategy


def enumerate_deterministic(d, n_prep, n_meas):
    """Yield every deterministic strategy exactly once."""
    decode_rows = list(itertools.product((0, 1), repeat=n_meas))
    for encode in itertools.product(range(d), repeat=n_prep):
        for decode in itertools.product(decode_rows, repeat=d):
            yield DeterministicStrategy(encode=encode, decode=decode)


def mixture_table(components, n_prep, n_meas):
    """No-loss table of the mixture [(weight, strategy), ...]: the weighted
    sum of the strategies' p_e arrays."""
    p_e = np.zeros((n_prep, n_meas))
    for weight, strategy in components:
        p_e += weight * strategy_table(strategy, n_prep, n_meas).p_e
    return ProbabilityTable(p_e, 1.0 - p_e, np.zeros(p_e.shape))


def canonical_rows(grid):
    """Indices of the canonical rows of a `lex_grid`, which are the first of each class
    of rows equal up to relabelling: e[0] = 0 and each e[i] <= max(e[:i]) + 1."""
    prior = np.maximum.accumulate(grid, axis=1)[:, :-1]
    return np.flatnonzero((grid[:, 0] == 0) & (grid[:, 1:] <= prior + 1).all(axis=1))


def entries(w):
    """A (..., 2, 2) stack as nested rows w[k][l] of (...) arrays, for `abs_det`."""
    return w.transpose(-2, -1, *range(w.ndim - 2))


def message_pairs(contrast, encoders, d):
    """(n_enc, contrast rows) index m+ * d + m- of the messages a contrast row of one +1
    and one -1 preparation compares: that row of the encoder's vertex matrix is
    one-hot(m+) - one-hot(m-)."""
    plus, minus = contrast.argmax(axis=1), contrast.argmin(axis=1)
    return encoders[:, plus] * d + encoders[:, minus]


def encoder_candidates(y, pairs):
    """ce @ y[:, None] entries first, (2, 2, R, n_enc) from y (R, d, 2) and the message
    pairs of the encoders (`message_pairs`): each entry is the one subtraction
    y[m+] - y[m-] that the product also rounds to."""
    yt = np.ascontiguousarray(y.transpose(2, 0, 1))  # (column, R, message)
    diff = (yt[:, :, :, None] - yt[:, :, None, :]).reshape(*yt.shape[:2], -1)
    return diff[:, :, pairs.T].transpose(2, 0, 1, 3)


def vertex_max(dd, encoders, pairs):
    """Exact (|det W|, a, b) at the first maximizing vertex pair (encoder row a, decoder b) in
    row-major order, scoring only canonical encoders: relabelling messages keeps |det W|.
    The decoders' p_d rows dd serve as the y of `encoder_candidates`."""
    rows = canonical_rows(encoders)
    dets = abs_det(encoder_candidates(dd, pairs[rows])).T
    a, b = np.unravel_index(np.argmax(dets), dets.shape)
    return float(dets[a, b]), int(rows[a]), int(b)


def vertex_max_det(d):
    """(max |det W|, first maximizing strategy) over every d-message vertex pair on the
    preparations and measurements of `DET_CONTRAST`."""
    n_meas, n_prep = np.asarray(DET_CONTRAST).shape
    encoders = lex_grid(d, n_prep)
    decoders = lex_grid(2, d * n_meas).reshape(-1, d, n_meas)
    pairs = message_pairs(np.asarray(DET_CONTRAST), encoders, d)
    value, a, b = vertex_max(1.0 - decoders.astype(float), encoders, pairs)
    return value, grid_strategy(encoders[a], decoders[b])


def independent_mixture_dets(d, n, seed):
    """|det W| of n seeded independent mixtures: a Dirichlet encoder per preparation, and
    per message a Dirichlet mixture of the decode rows."""
    rng = np.random.default_rng(seed)
    n_meas, n_prep = np.asarray(DET_CONTRAST).shape
    encoder = rng.dirichlet(np.ones(d), size=(n, n_prep))  # (n, n_prep, d)
    rows = 1.0 - lex_grid(2, n_meas)  # p_d of each decode row
    decoder = rng.dirichlet(np.ones(len(rows)), size=(n, d)) @ rows  # (n, d, n_meas) p_d
    return abs_det(entries(np.asarray(DET_CONTRAST) @ encoder @ decoder))


def sequential_bootstrap_report(c, resamples, seed, fair_sampling):
    """Reference: every cell drawn in row-major order into (B, n_prep, n_meas) arrays."""
    observed = estimate(c, fair_sampling)
    point_det = det_witness(observed) if observed.n_prep >= 4 else None
    point_idw = dimension_witness(observed)
    trials_ = c.n_trials
    root = np.random.SeedSequence(seed, spawn_key=(1,))
    streams = root.spawn(c.n_prep * c.n_meas)
    shape = (resamples, c.n_prep, c.n_meas)
    n_e, n_d, n_none = np.empty(shape), np.empty(shape), np.empty(shape)
    for i in range(c.n_prep):
        for j in range(c.n_meas):
            rng = np.random.default_rng(streams[i * c.n_meas + j])
            freqs = np.array([c.n_e[i, j], c.n_d[i, j], c.n_none[i, j]], dtype=float)
            draws = rng.multinomial(int(trials_[i, j]), freqs / freqs.sum(), size=resamples)
            n_e[:, i, j], n_d[:, i, j], n_none[:, i, j] = draws[:, 0], draws[:, 1], draws[:, 2]
    if fair_sampling:
        denom = n_e + n_d
        if denom.min() <= 0:
            raise InsufficientStatisticsError("a bootstrap resample emptied a postselected cell")
    else:
        denom = n_e + n_d + n_none
    p_e, p_d = n_e / denom, n_d / denom
    dv = p_e - p_d
    idw = dv[:, 0, 0] + dv[:, 0, 1] + dv[:, 1, 0] - dv[:, 1, 1] - dv[:, 2, 0]
    r = np.maximum((idw - I_DW_CLASSICAL_BOUND) / 4.0, 0.0)
    unc = {"i_dw": float(np.std(idw, ddof=1)), "r": float(np.std(r, ddof=1))}
    sigma_idw = sigma_det = None
    if unc["i_dw"] > 0.0:
        sigma_idw = max((point_idw - I_DW_CLASSICAL_BOUND) / unc["i_dw"], 0.0)
    if point_det is not None:
        w00 = p_d[:, 0, 0] - p_d[:, 1, 0]
        w01 = p_d[:, 0, 1] - p_d[:, 1, 1]
        w10 = p_d[:, 2, 0] - p_d[:, 3, 0]
        w11 = p_d[:, 2, 1] - p_d[:, 3, 1]
        unc["det_abs"] = float(np.std(np.abs(w00 * w11 - w01 * w10), ddof=1))
        if unc["det_abs"] > 0.0:
            sigma_det = max((point_det - DET_CLASSICAL_BOUND) / unc["det_abs"], 0.0)
    return WitnessReport(
        i_dw=point_idw,
        det_abs=point_det,
        sigma_det=sigma_det,
        sigma_idw=sigma_idw,
        uncertainties=unc,
    )


def det_bootstrap_error(c, resamples, seed, fair_sampling):
    """Reference: the |det W| bootstrap error, W's eight cells drawn in row-major order, each
    from its row-major stream slot of `seed`'s spawn key (1,), all `resamples` rows at once:
    p_d* = Binomial(n, n_d/n)/n, with n the cell's trials, or its detected trials
    n_e + n_d with fair sampling."""
    streams = np.random.SeedSequence(seed, spawn_key=(1,)).spawn(c.n_prep * c.n_meas)
    p_d = np.empty((resamples, 4, 2))
    for i in range(4):
        for j in range(2):
            n_d = int(c.n_d[i, j])
            n = n_d + int(c.n_e[i, j]) + (0 if fair_sampling else int(c.n_none[i, j]))
            rng = np.random.default_rng(streams[i * c.n_meas + j])
            p_d[:, i, j] = rng.binomial(n, n_d / n, resamples) / n
    w00 = p_d[:, 0, 0] - p_d[:, 1, 0]
    w01 = p_d[:, 0, 1] - p_d[:, 1, 1]
    w10 = p_d[:, 2, 0] - p_d[:, 3, 0]
    w11 = p_d[:, 2, 1] - p_d[:, 3, 1]
    return float(np.std(np.abs(w00 * w11 - w01 * w10), ddof=1))
