import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import enumerate_deterministic, mixture_table

from pamsim import classical
from pamsim.classical import (
    DeterministicStrategy,
    EnumerationCapExceeded,
    _affine_coefficients,
    _climb,
    _decoder_candidates,
    _encoder_candidates,
    _entries,
    _lex_grid,
    _message_pairs,
    _restart_block,
    _start_points,
    _vertex_max,
    classical_max_det,
    classical_max_linear,
    retrocausal_max,
    setting_aware_max,
    strategy_count,
    strategy_table,
)
from pamsim.scenario import ProbabilityTable
from pamsim.witness import (
    DET_CONTRAST,
    IDW_COEF,
    abs_det,
    det_witness,
    dimension_witness,
    retrocausality,
)

ALWAYS_E = DeterministicStrategy(encode=(0, 0, 0, 0), decode=((1, 1),))
ALWAYS_D = DeterministicStrategy(encode=(0, 0, 0, 0), decode=((0, 0),))

# (d, n_prep, n_meas) cases checked against brute-force enumeration
ORACLE_CASES = ((1, 3, 2), (2, 3, 2), (3, 3, 2), (4, 3, 2), (2, 4, 2), (3, 4, 3))
# (d, n_prep) cases whose determinant-search starting points are checked bit for bit
START_CASES = ((2, 4), (3, 4), (4, 4), (5, 4), (2, 5), (3, 5))


def brute_force_linear(witness, d, n_prep, n_meas):
    """Witness at every deterministic strategy; the first maximum is kept.

    Values are cached per table, so each distinct table is evaluated once.
    """
    cache = {}
    best_value, best = -np.inf, None
    for s in enumerate_deterministic(d, n_prep, n_meas):
        key = np.array(s.decode)[list(s.encode)].tobytes()
        if key not in cache:
            cache[key] = witness(strategy_table(s, n_prep, n_meas))
        if cache[key] > best_value:
            best_value, best = cache[key], s
    return best_value, best


def brute_force_setting_aware(witness, d, n_prep, n_meas):
    """Witness at every encode: (i, j) -> m, decode: (m, j) -> outcome."""
    cache = {}
    decode_rows = list(itertools.product((0, 1), repeat=n_meas))
    for encode in itertools.product(range(d), repeat=n_prep * n_meas):
        for decode in itertools.product(decode_rows, repeat=d):
            p_e = np.array(
                [
                    [float(decode[encode[i * n_meas + j]][j]) for j in range(n_meas)]
                    for i in range(n_prep)
                ]
            )
            key = p_e.tobytes()
            if key not in cache:
                cache[key] = witness(ProbabilityTable(p_e, 1.0 - p_e, np.zeros_like(p_e)))
    return max(cache.values())


def affine_witness(c0, coef_e, coef_d):
    """c0 + sum(coef_e * p_e) + sum(coef_d * p_d)."""
    return lambda t: float(c0 + np.sum(coef_e * t.p_e) + np.sum(coef_d * t.p_d))


def random_witness(seed, n_prep, n_meas):
    rng = np.random.default_rng(seed)
    shape = (n_prep, n_meas)
    return affine_witness(rng.normal(), rng.normal(size=shape), rng.normal(size=shape))


def integer_witnesses(n_prep, n_meas):
    """Affine witnesses with small integer coefficients: exact arithmetic,
    many ties."""
    coefs = st.lists(
        st.integers(-3, 3), min_size=n_prep * n_meas, max_size=n_prep * n_meas
    ).map(lambda v: np.array(v, dtype=float).reshape(n_prep, n_meas))
    return st.builds(affine_witness, st.integers(-5, 5), coefs, coefs)


def quadratic_witness(t):
    return float(t.p_e[0, 0] * t.p_e[1, 0])


def in_order_dirichlet(weights):
    """Unit exponentials over their sum taken left to right, as
    Generator.dirichlet(np.ones(K)) computes it."""
    total = 0.0
    for w in weights:
        total += w
    return weights * (1.0 / total)


def reference_climb(ce, dd, row):
    """One restart of the coordinate ascent from one exponential row, one
    2x2 matrix at a time."""

    def det(w):
        return w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]

    def best_move(w, candidates):
        # best endpoint move; an interior extremum wins only if strictly better
        at_one, at_star = [], []
        for b in candidates:
            delta = b - w
            cross = (
                w[0, 0] * delta[1, 1] + delta[0, 0] * w[1, 1]
                - w[0, 1] * delta[1, 0] - delta[0, 1] * w[1, 0]
            )
            at_one.append(abs(det(w) + cross + det(delta)))
            t = -cross / (2.0 * det(delta)) if det(delta) != 0.0 else math.nan
            if 0.0 < t < 1.0:
                at_star.append((abs(det(w) + cross * t + det(delta) * t**2), t))
            else:
                at_star.append((-math.inf, 0.0))
        a = int(np.argmax(at_one))
        k = int(np.argmax([v for v, _ in at_star]))
        if at_star[k][0] > at_one[a]:
            return at_star[k][0], k, at_star[k][1]
        return at_one[a], a, 1.0

    x = np.tensordot(in_order_dirichlet(row[: len(ce)]), ce, axes=1)
    y = np.tensordot(in_order_dirichlet(row[len(ce) :]), dd, axes=1)
    current = abs(det(x @ y))
    for _ in range(200):
        improved = False
        value, a, t = best_move(x @ y, ce @ y)
        if value > current + 1e-15:
            x = (1.0 - t) * x + t * ce[a]
            current, improved = abs(det(x @ y)), True
        value, b, t = best_move(x @ y, x @ dd)
        if value > current + 1e-15:
            y = (1.0 - t) * y + t * dd[b]
            current, improved = abs(det(x @ y)), True
        if not improved:
            break
    return current


def per_restart_start_points(ce, dd, e):
    """Dirichlet starting points normalised and projected one exponential
    row at a time: the reference that `_start_points` must match bit for bit."""
    ce_flat, dd_flat = ce.reshape(len(ce), -1), dd.reshape(len(dd), -1)
    x, y = [], []
    for row in e:
        x.append(np.dot(in_order_dirichlet(row[: len(ce)])[None], ce_flat))
        y.append(np.dot(in_order_dirichlet(row[len(ce) :])[None], dd_flat))
    return (
        np.concatenate(x).reshape(-1, *ce.shape[1:]),
        np.concatenate(y).reshape(-1, *dd.shape[1:]),
    )


def start_exponentials(ce, dd, seed, restarts):
    """`restarts` rows of starting-point exponentials, drawn at once."""
    return np.random.default_rng(seed).standard_exponential((restarts, len(ce) + len(dd)))


@functools.cache
def det_search_vertices(d, n_prep):
    """(ce, dd, pairs) built the way `classical_max_det` builds its own
    (checked below), with W read off the first four of `n_prep`
    preparations: a fifth only widens the encoder grid the climbs run over."""
    encoders = _lex_grid(d, n_prep)
    contrast = np.pad(DET_CONTRAST, ((0, 0), (0, n_prep - DET_CONTRAST.shape[1])))
    ce = contrast @ (encoders[:, :, None] == np.arange(d)).astype(float)
    dd = 1.0 - _lex_grid(2, 2 * d).reshape(-1, d, 2).astype(float)
    return ce, dd, _message_pairs(contrast, encoders, d)


def restart_count(count, d, n_prep=4):
    """`count` itself, or a count around the lockstep block size of the
    (d, n_prep) search, named "block-1", "block", "block+1" or "2block+7"."""
    if isinstance(count, int):
        return count
    block = _restart_block(*det_search_vertices(d, n_prep)[:2])
    return {"block-1": max(1, block - 1), "block": block, "block+1": block + 1,
            "2block+7": 2 * block + 7}[count]


# counts around the derived block size, tested after the fixed counts
BLOCK_SIZES = ("block-1", "block", "block+1")
# (d, restarts, seed): mixture_max.hex(), value, encode, decode of classical_max_det,
# as computed before the candidate matrices stopped going through matmul
PINNED_DET = {
    (2, 2000, 11): ("0x1.0000000000000p-58", 0.0, [0, 0, 0, 0], ["dd", "dd"]),
    (3, 500, 12): ("0x1.0000000000000p+0", 1.0, [0, 1, 0, 2], ["dd", "de", "ed"]),
    (2, 300, 0): ("0x1.6000000000000p-59", 0.0, [0, 0, 0, 0], ["dd", "dd"]),
    (2, 500, 5): ("0x1.4000000000000p-59", 0.0, [0, 0, 0, 0], ["dd", "dd"]),
    (4, 50, 5): ("0x1.0000000000000p+1", 2.0, [0, 1, 2, 3], ["dd", "ee", "de", "ed"]),
    (3, 130, 23): ("0x1.0000000000000p+0", 1.0, [0, 1, 0, 2], ["dd", "de", "ed"]),
    (2, 10000, 0): ("0x1.8000000000000p-58", 0.0, [0, 0, 0, 0], ["dd", "dd"]),
    (3, 10000, 0): ("0x1.0000000000000p+0", 1.0, [0, 1, 0, 2], ["dd", "de", "ed"]),
}


class TestStrategyTable:
    def test_always_e(self):
        table = strategy_table(ALWAYS_E, 4, 2)
        assert table.p_e.min() == 1.0
        assert table.p_d.max() == 0.0
        assert table.p_none.max() == 0.0

    def test_uniform_mixture(self):
        table = mixture_table(((0.5, ALWAYS_E), (0.5, ALWAYS_D)), 4, 2)
        np.testing.assert_allclose(table.p_e, 0.5)
        np.testing.assert_allclose(table.p_d, 0.5)

    def test_index_out_of_range(self):
        short = DeterministicStrategy(encode=(0, 0), decode=((1, 1),))
        with pytest.raises(IndexError):
            strategy_table(short, 4, 2)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            DeterministicStrategy(encode=(0, 2), decode=((1, 1), (0, 0)))
        with pytest.raises(ValueError):
            DeterministicStrategy(encode=(0,), decode=((1, 3),))

    def test_json_round_trip(self):
        s = DeterministicStrategy(encode=(0, 1, 1, 0), decode=((1, 0), (0, 1)))
        data = json.loads(json.dumps(s.to_json_dict()))
        assert data == {"encode": [0, 1, 1, 0], "decode": [["e", "d"], ["d", "e"]]}
        decode = tuple(tuple(int(out == "e") for out in row) for row in data["decode"])
        assert DeterministicStrategy(tuple(data["encode"]), decode) == s


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_deterministic(2, 3, 2)) == 128
        assert sum(1 for _ in enumerate_deterministic(2, 4, 2)) == 256
        assert strategy_count(2, 3, 2) == 128

    def test_unique(self):
        seen = set(enumerate_deterministic(2, 3, 2))
        assert len(seen) == 128

    def test_cap_refusal_is_immediate(self):
        def never(table):
            raise AssertionError("witness evaluated before the cap check")

        with pytest.raises(EnumerationCapExceeded, match=str(strategy_count(8, 3, 2))):
            classical_max_linear(never, 8, 3, 2)


class TestLinearBounds:
    def test_d2_dimension_witness_bound(self):
        value, strategy = classical_max_linear(dimension_witness, 2, 3, 2)
        assert value == 3.0
        assert dimension_witness(strategy_table(strategy, 3, 2)) == 3.0

    def test_d1_dimension_witness_bound(self):
        value, _ = classical_max_linear(dimension_witness, 1, 3, 2)
        assert value == 1.0

    def test_d3_saturates(self):
        value, _ = classical_max_linear(dimension_witness, 3, 3, 2)
        assert value == 5.0

    def test_monotone_in_dimension(self):
        values = [classical_max_linear(dimension_witness, d, 3, 2)[0] for d in (1, 2, 3, 4)]
        assert values == [1.0, 3.0, 5.0, 5.0]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_constant_zero_witness(self):
        value, _ = classical_max_linear(lambda t: 0.0, 2, 3, 2)
        assert value == 0.0

    def test_convexity(self):
        rng = np.random.default_rng(31)
        strategies = list(enumerate_deterministic(2, 3, 2))
        for _ in range(20):
            picks = rng.choice(len(strategies), size=4, replace=False)
            weights = rng.dirichlet(np.ones(4))
            components = [(weights[k], strategies[p]) for k, p in enumerate(picks)]
            mixed_value = dimension_witness(mixture_table(components, 3, 2))
            expected = sum(
                w * dimension_witness(strategy_table(s, 3, 2)) for w, s in components
            )
            assert mixed_value == pytest.approx(expected, abs=1e-12)


class TestLinearBoundOracle:
    def test_dimension_witness_coefficients_are_the_idw_matrix(self):
        c0, coef = _affine_coefficients(dimension_witness, 3, 2)
        assert c0 == -IDW_COEF.sum()
        np.testing.assert_array_equal(coef, 2 * IDW_COEF)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_dimension_witness_matches_enumeration(self, case):
        assert classical_max_linear(dimension_witness, *case) == brute_force_linear(
            dimension_witness, *case
        )

    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("seed", (1, 2))
    def test_random_witness_matches_enumeration(self, case, seed):
        witness = random_witness(seed, *case[1:])
        assert classical_max_linear(witness, *case) == brute_force_linear(witness, *case)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 3), witness=integer_witnesses(3, 2))
    def test_ties_go_to_first_strategy(self, d, witness):
        assert classical_max_linear(witness, d, 3, 2) == brute_force_linear(witness, d, 3, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 127), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_mixture_never_exceeds_bound(self, picks, data):
        strategies = list(enumerate_deterministic(2, 3, 2))
        weights = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=len(picks), max_size=len(picks))
        )
        total = sum(weights)
        mix = mixture_table([(w / total, strategies[p]) for w, p in zip(weights, picks)], 3, 2)
        bound, _ = classical_max_linear(dimension_witness, 2, 3, 2)
        assert dimension_witness(mix) <= bound + 1e-12

    @pytest.mark.parametrize("witness", (quadratic_witness, det_witness))
    def test_rejects_non_affine_witness(self, witness):
        with pytest.raises(ValueError, match="not affine"):
            classical_max_linear(witness, 2, 4, 2)


class TestSettingAwareOracle:
    # the oracle cases with at most 5e4 setting-aware strategies; the
    # others would take minutes to hours to enumerate
    CASES = tuple(
        c for c in ORACLE_CASES if c[0] ** (c[1] * c[2]) * 2 ** (c[0] * c[2]) <= 50_000
    )

    @pytest.mark.parametrize("case", CASES)
    def test_dimension_witness_matches_enumeration(self, case):
        assert setting_aware_max(dimension_witness, *case) == brute_force_setting_aware(
            dimension_witness, *case
        )

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("seed", (1, 2))
    def test_random_witness_matches_enumeration(self, case, seed):
        witness = random_witness(seed, *case[1:])
        assert setting_aware_max(witness, *case) == brute_force_setting_aware(witness, *case)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 2), witness=integer_witnesses(3, 2))
    def test_integer_witness_matches_enumeration(self, d, witness):
        assert setting_aware_max(witness, d, 3, 2) == brute_force_setting_aware(witness, d, 3, 2)

    @pytest.mark.parametrize("witness", (quadratic_witness, det_witness))
    def test_rejects_non_affine_witness(self, witness):
        with pytest.raises(ValueError, match="not affine"):
            setting_aware_max(witness, 2, 4, 2)


class TestDeterminantBound:
    def test_every_d2_deterministic_strategy_is_singular(self):
        dets = [
            det_witness(strategy_table(s, 4, 2))
            for s in enumerate_deterministic(2, 4, 2)
        ]
        assert len(dets) == 256
        assert max(dets) == 0.0

    def test_search_d2(self):
        result = classical_max_det(2, restarts=500, seed=5)
        assert result.deterministic_max == 0.0
        assert result.mixture_max <= 1e-9
        assert result.n_strategies == 256

    def test_d2_value_is_the_exact_vertex_maximum(self):
        # the climbs' rounding residue (1.7e-18 here) is not the bound
        result = classical_max_det(2, restarts=300, seed=0)
        assert result.mixture_max > 0.0
        assert result.value == result.deterministic_max == 0.0

    def test_search_d4_reaches_two(self):
        # injective encoding frees all eight table entries; the extremal
        # matrix [[1,-1],[1,1]] has |det| = 2
        result = classical_max_det(4, restarts=50, seed=5)
        assert result.deterministic_max == 2.0
        assert result.value == 2.0

    def test_d4_can_reproduce_ideal_witness(self):
        s = DeterministicStrategy(
            encode=(0, 1, 2, 3),
            decode=((1, 1), (1, 0), (0, 1), (1, 1)),
        )
        table = strategy_table(s, 4, 2)
        assert det_witness(table) == 1.0

    def test_correlated_mixture_breaks_the_null(self):
        """Shared randomness between encoder and decoder reaches |det| = 1/4,
        which is why the search runs over independent randomization only."""
        a = DeterministicStrategy(encode=(0, 1, 0, 0), decode=((0, 1), (1, 1)))
        b = DeterministicStrategy(encode=(0, 0, 0, 1), decode=((1, 1), (1, 0)))
        assert det_witness(strategy_table(a, 4, 2)) == 0.0
        assert det_witness(strategy_table(b, 4, 2)) == 0.0
        mix = mixture_table(((0.5, a), (0.5, b)), 4, 2)
        assert det_witness(mix) == pytest.approx(0.25, abs=1e-12)

    def test_seeded_search_is_deterministic(self):
        r1 = classical_max_det(2, restarts=100, seed=9)
        r2 = classical_max_det(2, restarts=100, seed=9)
        assert r1.mixture_max == r2.mixture_max

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            classical_max_det(1)

    def test_rejects_negative_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            classical_max_det(2, restarts=-3)

    @pytest.mark.parametrize("restarts", (0, 1, 64, 65, 130) + BLOCK_SIZES + ("2block+7",))
    def test_reproducible_across_block_sizes(self, restarts):
        restarts = restart_count(restarts, 2)
        first = classical_max_det(2, restarts=restarts, seed=17)
        assert classical_max_det(2, restarts=restarts, seed=17) == first
        assert first.restarts == restarts
        assert first.mixture_max <= 1e-9

    def test_lockstep_climb_matches_single_climbs(self):
        # contrast-derived vertices; at d = 4 some climbs stop at |det W| = 1,
        # short of the maximum 2
        for d, n_rows, n_ends in ((3, 40, 1), (4, 12, 2)):
            ce, dd, pairs = det_search_vertices(d, 4)
            e = start_exponentials(ce, dd, 4, n_rows)
            reached = _climb(ce, dd, pairs, e)
            expected = [reference_climb(ce, dd, row) for row in e]
            np.testing.assert_allclose(reached, expected, rtol=1e-12)
            assert len(set(np.round(reached, 9))) == n_ends

    def test_more_restarts_extend_the_same_climbs(self):
        # restart k starts from row k of the seeded stream whatever the total, so
        # the best value can only grow with the restart count
        counts = [restart_count(r, 2) for r in (0, 1, 64, 65, 130) + BLOCK_SIZES + ("2block+7",)]
        maxima = [classical_max_det(2, restarts=r, seed=17).mixture_max for r in counts]
        assert maxima[0] == 0.0
        assert maxima == sorted(maxima)

    @pytest.mark.parametrize("case", sorted(PINNED_DET))
    def test_results_are_pinned_bit_for_bit(self, case):
        mixture_hex, value, encode, decode = PINNED_DET[case]
        result = classical_max_det(*case)
        assert result.mixture_max.hex() == mixture_hex
        assert result.value == value
        assert result.strategy.to_json_dict() == {
            "encode": encode,
            "decode": [list(row) for row in decode],
        }

    @pytest.mark.parametrize("d", (2, 3, 4))
    @pytest.mark.parametrize("slice_pairs", (1, 7, 4096))
    def test_vertex_max_is_the_first_stacked_maximum(self, monkeypatch, d, slice_pairs):
        # the pass scores slices of _BLOCK_CANDIDATES // n_dec encoders
        monkeypatch.setattr(classical, "_BLOCK_CANDIDATES", slice_pairs)
        ce, dd, pairs = det_search_vertices(d, 4)
        dets = abs_det(_entries(ce[:, None] @ dd))
        a, b = np.unravel_index(np.argmax(dets), dets.shape)
        assert _vertex_max(dd, pairs) == (dets[a, b], a, b)

    @pytest.mark.parametrize(
        "row",
        ([1, 1, -1, -1], [1, 0, 0, 0], [2, -2, 0, 0], [0, 0, 0, 0], [1, -1, 1, -1]),
    )
    def test_contrast_rows_must_be_one_plus_one_minus(self, row):
        contrast = np.array([row, [0, 0, 1, -1]])
        with pytest.raises(ValueError, match="one \\+1 and one -1"):
            _message_pairs(contrast, _lex_grid(2, 4), 2)


def check_builders(monkeypatch, ce, dd, seen):
    """Make every candidate build of the climbs assert that it equals, bit
    for bit, the entries-first matmul it replaces; record the inputs in `seen`."""
    build_encoders, build_decoders = _encoder_candidates, _decoder_candidates

    def encoders(y, pairs):
        got = build_encoders(y, pairs)
        assert got.tobytes() == np.ascontiguousarray(_entries(ce @ y[:, None])).tobytes()
        seen.append(("y", y))
        return got

    def decoders(x, patterns):
        got = build_decoders(x, patterns)
        assert got.tobytes() == np.ascontiguousarray(_entries(x[:, None] @ dd)).tobytes()
        seen.append(("x", x))
        return got

    monkeypatch.setattr(classical, "_encoder_candidates", encoders)
    monkeypatch.setattr(classical, "_decoder_candidates", decoders)


class TestDetCandidates:
    @pytest.mark.parametrize("d, restarts", ((3, 120), (4, 40), (5, 9)))
    def test_builders_match_the_matmuls_along_the_climbs(self, monkeypatch, d, restarts):
        # at d = 2 no climb moves (|det W| is 0 on every line), so it builds from
        # start points only: see the next test
        seen = []
        ce, dd, pairs = det_search_vertices(d, 4)
        check_builders(monkeypatch, ce, dd, seen)
        _climb(ce, dd, pairs, start_exponentials(ce, dd, d, restarts))
        xs = [m for kind, m in seen if kind == "x"]
        assert len([kind for kind, _ in seen if kind == "y"]) == len(xs) >= 2
        # the second round builds from climbed states, whose encoder mixtures
        # have negative entries
        assert any((x < 0.0).any() for x in xs[1:])

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    def test_builders_match_the_matmuls_at_start_points(self, d):
        ce, dd, pairs = det_search_vertices(d, 4)
        x, y = _start_points(ce, dd, start_exponentials(ce, dd, 7 + d, 33))
        patterns = (dd.astype(np.intp) << np.arange(d)[:, None]).sum(axis=1)
        assert _encoder_candidates(y, pairs).tobytes() == np.ascontiguousarray(
            _entries(ce @ y[:, None])
        ).tobytes()
        assert _decoder_candidates(x, patterns).tobytes() == np.ascontiguousarray(
            _entries(x[:, None] @ dd)
        ).tobytes()


class TestDetStartPoints:
    @pytest.mark.parametrize("d", (2, 3))
    def test_vertices_are_the_searched_ones(self, monkeypatch, d):
        seen = []
        monkeypatch.setattr(classical, "_climb", lambda *args: seen.append(args) or np.zeros(1))
        classical_max_det(d, restarts=1)
        ce, dd, pairs, _ = seen[0]
        expected = det_search_vertices(d, 4)
        assert [m.tobytes() for m in (ce, dd, pairs)] == [m.tobytes() for m in expected]

    @pytest.mark.parametrize("n_rows", (1, 63, 64, 65) + BLOCK_SIZES)
    @pytest.mark.parametrize("d, n_prep", START_CASES)
    def test_climbs_reach_what_per_restart_starts_reach(self, monkeypatch, d, n_prep, n_rows):
        ce, dd, pairs = det_search_vertices(d, n_prep)
        e = start_exponentials(ce, dd, 10 * d + n_prep, restart_count(n_rows, d, n_prep))
        reached = _climb(ce, dd, pairs, e)
        monkeypatch.setattr(classical, "_start_points", per_restart_start_points)
        assert reached.tobytes() == _climb(ce, dd, pairs, e).tobytes()

    @pytest.mark.parametrize("d, n_prep", START_CASES)
    def test_block_projection_rounds_like_one_row_at_a_time(self, d, n_prep):
        # a plain 2-D matmul over the block rounds many of these rows differently
        ce, dd, _ = det_search_vertices(d, n_prep)
        e = start_exponentials(ce, dd, 5, max(64, restart_count("block+1", d, n_prep)))
        block = _start_points(ce, dd, e)
        rows = per_restart_start_points(ce, dd, e)
        assert [m.tobytes() for m in block] == [m.tobytes() for m in rows]

    @pytest.mark.parametrize("restarts", (1, 63, 64, 65, 130) + BLOCK_SIZES + ("2block+7",))
    def test_blocked_draws_are_one_draw(self, restarts):
        # how classical_max_det draws its lockstep blocks of restarts
        ce, dd, _ = det_search_vertices(3, 4)
        block = _restart_block(ce, dd)
        restarts = restart_count(restarts, 3)
        rng = np.random.default_rng(11)
        blocks = [
            rng.standard_exponential((min(block, restarts - start), len(ce) + len(dd)))
            for start in range(0, restarts, block)
        ]
        whole = start_exponentials(ce, dd, 11, restarts)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_rows_are_the_dirichlet_draws_of_one_generator(self):
        # restart k starts where the k-th pair of rng.dirichlet calls would
        ce, dd, _ = det_search_vertices(2, 4)
        e = start_exponentials(ce, dd, 3, 5)
        rng = np.random.default_rng(3)
        for row in e:
            for weights in (row[: len(ce)], row[len(ce) :]):
                expected = rng.dirichlet(np.ones(len(weights)))
                assert in_order_dirichlet(weights).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("restarts", (1, 63, 64, 65, 130) + BLOCK_SIZES + ("2block+7",))
    @pytest.mark.parametrize("d", (2, 3))
    def test_search_matches_climbing_every_start_at_once(self, d, restarts):
        ce, dd, pairs = det_search_vertices(d, 4)
        restarts = restart_count(restarts, d)
        expected = _climb(ce, dd, pairs, start_exponentials(ce, dd, 23, restarts)).max()
        assert classical_max_det(d, restarts=restarts, seed=23).mixture_max == expected

    def test_block_size_follows_the_candidate_count(self):
        assert [restart_count("block", d) for d in (2, 3, 4, 5)] == [256, 50, 16, 4]


class TestRetrocausal:
    def test_no_leak_equals_base(self):
        for d in (1, 2, 3):
            base, _ = classical_max_linear(dimension_witness, d, 3, 2)
            assert retrocausal_max(dimension_witness, d, 3, 2, leak=0.0) == base

    def test_full_leak_reaches_five(self):
        assert setting_aware_max(dimension_witness, 2, 3, 2) == 5.0
        assert retrocausal_max(dimension_witness, 2, 3, 2, leak=1.0) == 5.0

    def test_half_leak_interpolates(self):
        assert retrocausal_max(dimension_witness, 2, 3, 2, leak=0.5) == pytest.approx(
            4.0, abs=1e-12
        )

    @pytest.mark.parametrize("leak", (1.5, -0.5, math.nan))
    def test_leak_outside_unit_interval_refused(self, leak):
        with pytest.raises(ValueError, match=f"leak must be in \\[0, 1\\], got {leak}"):
            retrocausal_max(dimension_witness, 2, 3, 2, leak)

    @pytest.mark.parametrize("d", (5, 6, 7))
    def test_setting_aware_bound_has_no_strategy_cap(self, d):
        # a closed form: d**(n_prep*n_meas) * 2**(d*n_meas) strategies are never listed
        assert setting_aware_max(dimension_witness, d, 3, 2) == 5.0
        assert retrocausal_max(dimension_witness, d, 3, 2, 0.3) == 5.0

    def test_retrocausality_never_exceeds_leak(self):
        rng = np.random.default_rng(33)
        strategies = list(enumerate_deterministic(2, 3, 2))
        leaked = setting_aware_max(dimension_witness, 2, 3, 2)
        for leak in (0.0, 0.1, 0.25, 0.5, 0.8, 1.0):
            for _ in range(5):
                picks = rng.choice(len(strategies), size=3, replace=False)
                weights = rng.dirichlet(np.ones(3))
                components = [(weights[k], strategies[p]) for k, p in enumerate(picks)]
                base = dimension_witness(mixture_table(components, 3, 2))
                value = (1 - leak) * base + leak * leaked
                r = max((value - 3.0) / 4.0, 0.0)
                assert r <= leak + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(leak=st.floats(0.0, 1.0))
    def test_optimal_retrocausality_never_exceeds_leak(self, leak):
        value = retrocausal_max(dimension_witness, 2, 3, 2, leak)
        assert retrocausality(value) <= leak + 1e-12
