import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    canonical_rows,
    entries,
    enumerate_deterministic,
    independent_mixture_dets,
    message_pairs,
    mixture_table,
    vertex_max,
    vertex_max_det,
)

from pamsim import classical, cli
from pamsim.classical import (
    DeterministicStrategy,
    EnumerationCapExceeded,
    _affine_form,
    _contrast_preparations,
    _lex_grid,
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


def vertex_affine_witness(t):
    """I_DW plus p_e[0, 0] (1 - p_e[0, 0]): equal to it on every 0/1 table."""
    return dimension_witness(t) + float(t.p_e[0, 0] * (1.0 - t.p_e[0, 0]))


def loads_random_module(call):
    """Whether `call`, run in a fresh interpreter after `from pamsim import classical,
    witness`, leaves numpy.random in sys.modules (the last line it prints)."""
    code = f"import sys; from pamsim import classical, witness; {call}; " + (
        "print('numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(classical.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return out.splitlines()[-1] == "True"


@functools.cache
def det_vertices(d):
    """(ce, dd, pairs) of every d-message vertex pair on `DET_CONTRAST`: each encoder's
    contrast rows (n_enc, 2, d), each decoder's p_d rows (n_dec, d, 2), and the message
    pairs of the encoders (`message_pairs`)."""
    encoders = _lex_grid(d, DET_CONTRAST.shape[1])
    ce = DET_CONTRAST @ (encoders[:, :, None] == np.arange(d)).astype(float)
    dd = 1.0 - _lex_grid(2, 2 * d).reshape(-1, d, 2).astype(float)
    return ce, dd, message_pairs(DET_CONTRAST, encoders, d)


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
        c0, coef = _affine_form(dimension_witness, 3, 2)
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

    @pytest.mark.parametrize("bound", (classical_max_linear, setting_aware_max))
    def test_rejects_witness_affine_on_every_vertex_table_only(self, bound):
        # p(1 - p) is 0 on every 0/1 table, so only the interior check table sees it
        with pytest.raises(ValueError, match="not affine"):
            bound(vertex_affine_witness, 2, 3, 2)

    def test_fresh_linear_bound_loads_no_random_module(self):
        # the interior check table is fixed, so no generator is built
        call = "classical.classical_max_linear(witness.dimension_witness, 2, 3, 2)"
        assert not loads_random_module(call)


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

    def test_search_d4_reaches_two(self):
        # injective encoding frees all eight table entries; the extremal
        # matrix [[1,-1],[1,1]] has |det| = 2
        assert classical_max_det(4).value == 2.0

    def test_d4_can_reproduce_ideal_witness(self):
        s = DeterministicStrategy(
            encode=(0, 1, 2, 3),
            decode=((1, 1), (1, 0), (0, 1), (1, 1)),
        )
        table = strategy_table(s, 4, 2)
        assert det_witness(table) == 1.0

    def test_correlated_mixture_breaks_the_null(self):
        """Shared randomness between encoder and decoder reaches |det| = 1/4,
        which is why the bound is over independent randomization only."""
        a = DeterministicStrategy(encode=(0, 1, 0, 0), decode=((0, 1), (1, 1)))
        b = DeterministicStrategy(encode=(0, 0, 0, 1), decode=((1, 1), (1, 0)))
        assert det_witness(strategy_table(a, 4, 2)) == 0.0
        assert det_witness(strategy_table(b, 4, 2)) == 0.0
        mix = mixture_table(((0.5, a), (0.5, b)), 4, 2)
        assert det_witness(mix) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            classical_max_det(1)

    def test_d2_bound_is_the_rank_null(self):
        result = classical_max_det(2)
        assert result.value == 0.0
        assert det_witness(strategy_table(result.strategy, 4, 2)) == 0.0

    def test_bound_depends_on_the_dimension_only(self):
        # nothing is drawn: repeated calls give equal results, and the value never falls with d
        results = [classical_max_det(d) for d in (2, 3, 4, 5, 2, 3, 4, 5)]
        assert results[:4] == results[4:]
        assert [r.value for r in results[:4]] == [0.0, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize("d", (2, 3, 4, 5))
    @pytest.mark.parametrize("slice_pairs", (1, 7, 4096))
    def test_vertex_max_is_the_first_stacked_maximum(self, d, slice_pairs):
        # the first maximum over every encoder of the grid, found here in slices of
        # `slice_pairs` encoders; the pass itself scores only canonical ones
        ce, dd, pairs = det_vertices(d)
        best = (-1.0, 0, 0)
        for start in range(0, len(ce), slice_pairs):
            dets = abs_det(entries(ce[start : start + slice_pairs, None] @ dd))
            a, b = np.unravel_index(np.argmax(dets), dets.shape)
            if dets[a, b] > best[0]:
                best = (dets[a, b], start + a, b)
        assert vertex_max(dd, _lex_grid(d, 4), pairs) == best

    @pytest.mark.parametrize("d, n_prep", ((1, 3), (2, 4), (3, 4), (4, 4), (5, 4), (3, 5)))
    def test_canonical_rows_are_the_first_of_each_relabelling_class(self, d, n_prep):
        grid = _lex_grid(d, n_prep)
        first = {}
        for k, row in enumerate(grid.tolist()):
            # rows that relabel each other put equal values at the same positions
            first.setdefault(tuple(row.index(m) for m in row), k)
        rows = canonical_rows(grid)
        assert rows.tolist() == sorted(first.values())
        if n_prep == 4:
            assert len(rows) == (1, 8, 14, 15, 15)[d - 1]

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 6), data=st.data())
    def test_relabelling_messages_keeps_abs_det(self, d, data):
        encode = data.draw(st.lists(st.integers(0, d - 1), min_size=4, max_size=4))
        bits = st.tuples(st.integers(0, 1), st.integers(0, 1))
        decode = data.draw(st.lists(bits, min_size=d, max_size=d))
        perm = data.draw(st.permutations(range(d)))
        vertex = DeterministicStrategy(tuple(encode), tuple(decode))
        relabelled = DeterministicStrategy(
            tuple(perm[m] for m in encode), tuple(decode[perm.index(m)] for m in range(d))
        )
        expected = det_witness(strategy_table(vertex, 4, 2))
        assert det_witness(strategy_table(relabelled, 4, 2)) == expected

    def test_d6_certificate_is_pinned(self):
        # as computed before the pass scored only canonical encoders (1.3 s then)
        result = classical_max_det(6)
        assert result.value == 2.0
        assert result.strategy.to_json_dict() == {
            "encode": [0, 1, 2, 3],
            "decode": [list(row) for row in ("dd", "ee", "de", "ed", "dd", "dd")],
        }

    def test_det_bound_loads_no_random_module(self, tmp_path):
        # nothing is drawn, so numpy.random (about 10 ms to import) stays unloaded, and the
        # ignored --restarts and --seed change no output byte
        argv = ["bounds", "--witness", "det", "-d", "3"]
        searched, bare = tmp_path / "searched", tmp_path / "bare"
        calls = (
            [*argv, "--restarts", "500", "--seed", "7", "--out", str(searched)],
            [*argv, "--restarts", "0", "--out", str(bare)],
        )
        call = "from pamsim.cli import main; " + "; ".join(
            f"assert main({command!r}) == 0" for command in calls
        )
        assert not loads_random_module(f"classical.classical_max_det(6); {call}")
        assert (searched / "bounds.json").read_bytes() == (bare / "bounds.json").read_bytes()

    @pytest.mark.parametrize(
        "row",
        ([1, 1, -1, -1], [1, 0, 0, 0], [2, -2, 0, 0], [0, 0, 0, 0], [1, -1, 1, -1]),
    )
    def test_contrast_rows_must_be_one_plus_one_minus(self, row):
        contrast = np.array([row, [0, 0, 1, -1]])
        with pytest.raises(ValueError, match="one \\+1 and one -1"):
            _contrast_preparations(contrast)


class TestDetClosedForm:
    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7, 8))
    def test_matches_the_vertex_enumeration(self, d):
        result = classical_max_det(d)
        assert (result.value, result.strategy) == vertex_max_det(d)
        assert det_witness(strategy_table(result.strategy, 4, 2)) == result.value
        assert result.value == (0.0, 1.0, 2.0)[min(d, 4) - 2]

    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7, 8))
    def test_independent_mixtures_never_exceed_it(self, d):
        dets = independent_mixture_dets(d, 20_000, seed=d)
        assert dets.max() <= classical_max_det(d).value + 1e-12
        if d == 2:  # the rank argument: 0 up to rounding
            assert dets.max() <= 1e-12
        else:
            assert dets.max() > 0.1

    @pytest.mark.parametrize("d", range(2, 41))
    def test_holds_past_four_messages(self, d):
        # a vertex pair sends at most four messages, one per preparation, so relabelling
        # them to 0..3 keeps |det W|: past d = 4 the bound and its strategy are d = 4's,
        # the strategy's decode padded with "d" rows the encoder never sends
        result = classical_max_det(d)
        assert result.value == classical_max_det(min(d, 4)).value
        assert det_witness(strategy_table(result.strategy, 4, 2)) == result.value
        first = classical_max_det(min(d, 4)).strategy
        assert result.strategy.encode == first.encode
        assert result.strategy.decode == first.decode + ((0, 0),) * (d - len(first.decode))

    @pytest.mark.parametrize(
        "contrast",
        (
            [[0, 0, 1, -1], [1, -1, 0, 0]],
            [[-1, 1, 0, 0], [0, 0, -1, 1]],
            [[0, 1, 0, -1], [1, 0, -1, 0]],
            [[0, -1, 0, 1], [-1, 0, 1, 0]],
            [[1, 0, 0, -1], [0, -1, 1, 0]],
            [[1, 0, 0, -1, 0], [0, 0, 1, 0, -1]],
            [[0, 1, 0, 0, -1, 0], [0, 0, -1, 0, 0, 1]],
        ),
    )
    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6, 7, 8))
    def test_strategy_attains_it_on_any_accepted_contrast(self, monkeypatch, contrast, d):
        contrast = np.array(contrast)
        monkeypatch.setattr(classical, "DET_CONTRAST", contrast)
        result = classical_max_det(d)
        w = contrast @ strategy_table(result.strategy, *contrast.shape[::-1]).p_d
        assert abs(np.linalg.det(w)) == pytest.approx(result.value, abs=1e-12)

    @pytest.mark.parametrize(
        "contrast",
        (
            [[1, -1, 0, 0], [0, 1, -1, 0]],  # a preparation shared between the rows
            [[1, -1, 0, 0], [1, 0, 0, -1]],
            [[1, 1, -1, -1], [0, 0, 1, -1]],
            [[2, -2, 0, 0], [0, 0, 1, -1]],
            [[1, 0, 0, 0], [0, 0, 1, -1]],
            [[1, -1, 0, 0]],
            [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]],
        ),
    )
    @pytest.mark.parametrize("restarts", (0, 3))
    def test_refuses_any_other_contrast(self, monkeypatch, tmp_path, capsys, contrast, restarts):
        monkeypatch.setattr(classical, "DET_CONTRAST", np.array(contrast))
        with pytest.raises(ValueError, match="on disjoint preparations"):
            classical_max_det(3)
        # the ignored --restarts does not get the command past the refusal
        out = tmp_path / "out"
        argv = ["bounds", "--witness", "det", "-d", "3", "--restarts", str(restarts)]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert "on disjoint preparations" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("leak, calls", [(0.0, 10), (0.1, 11), (1.0, 11)])
    def test_reads_the_affine_form_once(self, leak, calls):
        # 1 all-"d" + 6 unit + 2 check tables, then one per maximiser computed
        seen = []

        def counted(t):
            seen.append(t)
            return dimension_witness(t)

        retrocausal_max(counted, 2, 3, 2, leak)
        assert len(seen) == calls

    @pytest.mark.parametrize("d", (1, 2, 3))
    @pytest.mark.parametrize("leak", (0.0, 0.1, 0.37, 1.0))
    @pytest.mark.parametrize("seed", (None, 1, 2))
    def test_equals_the_mix_of_the_public_bounds(self, d, leak, seed):
        witness = dimension_witness if seed is None else random_witness(seed, 3, 2)
        causal, _ = classical_max_linear(witness, d, 3, 2)
        expected = (1 - leak) * causal + leak * setting_aware_max(witness, d, 3, 2)
        assert retrocausal_max(witness, d, 3, 2, leak).hex() == expected.hex()

    @pytest.mark.parametrize("leak", (0.0, 0.5))
    @pytest.mark.parametrize(
        "witness, n_prep",
        [(quadratic_witness, 4), (det_witness, 4), (vertex_affine_witness, 3)],
        ids=["quadratic", "det", "vertex-affine"],
    )
    def test_refuses_what_the_linear_bound_refuses(self, witness, n_prep, leak):
        with pytest.raises(ValueError, match="not affine") as linear:
            classical_max_linear(witness, 2, n_prep, 2)
        with pytest.raises(ValueError, match="not affine") as retro:
            retrocausal_max(witness, 2, n_prep, 2, leak)
        assert str(retro.value) == str(linear.value)

    @pytest.mark.parametrize("maximiser", ("linear", "setting-aware"))
    def test_each_maximiser_table_is_checked(self, maximiser):
        # a witness off its affine form only at the table that one maximiser reaches
        if maximiser == "linear":
            target = strategy_table(classical_max_linear(dimension_witness, 2, 3, 2)[1], 3, 2).p_e
        else:
            target = (IDW_COEF > 0).astype(float)

        def witness(t):
            return dimension_witness(t) + float(np.array_equal(t.p_e, target))

        with pytest.raises(ValueError, match="not affine"):
            retrocausal_max(witness, 2, 3, 2, 0.5)
        if maximiser == "setting-aware":  # not reached without a leak
            assert retrocausal_max(witness, 2, 3, 2, 0.0) == 3.0

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
