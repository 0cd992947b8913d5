import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from bundled import DET, IDW, bundled_scenario

from pamsim.qubits import born, phase_ket
from pamsim.scenario import (
    ProbabilityTable,
    Scenario,
    heralded_table,
    probability_table,
    quantum_cell,
)
from pamsim.witness import det_witness

SQ2 = math.sqrt(2.0)
PHASES = st.floats(-10.0, 10.0)
# Far below 1e-300 a cell's detected probability underflows to 0 and
# postselection refuses it with ValueError rather than returning a table.
EFFICIENCIES = st.floats(1e-9, 1.0)


class TestQuantumCell:
    def test_aligned_phases(self):
        assert quantum_cell(0.0, 0.0, 1.0, 1.0) == (1.0, 0.0, 0.0)

    def test_quarter_turn_contrast(self):
        p_e, p_d, _ = quantum_cell(math.pi / 4, math.pi / 2, 1.0, 1.0)
        assert p_e - p_d == pytest.approx(SQ2 / 2, abs=1e-12)

    def test_anti_aligned(self):
        p_e, p_d, p_none = quantum_cell(-math.pi / 2, math.pi / 2, 1.0, 1.0)
        assert p_e == pytest.approx(0.0, abs=1e-15)
        assert p_d == pytest.approx(1.0, abs=1e-15)
        assert p_none == 0.0

    def test_matches_born_rule_on_grid(self):
        # independent path through the state-vector Born rule
        rng = np.random.default_rng(21)
        for alpha, beta in rng.uniform(-math.pi, math.pi, size=(100, 2)):
            p_e, p_d, _ = quantum_cell(alpha, beta, 1.0, 1.0)
            assert p_e == pytest.approx(born(phase_ket(alpha), phase_ket(beta)), abs=1e-12)
            assert p_d == pytest.approx(
                born(phase_ket(alpha), phase_ket(beta + math.pi)), abs=1e-12
            )

    def test_contrast_identity_with_noise(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            alpha, beta = rng.uniform(-math.pi, math.pi, size=2)
            v = rng.uniform(0.0, 1.0)
            eta = rng.uniform(0.05, 1.0)
            p_e, p_d, p_none = quantum_cell(alpha, beta, v, eta)
            assert p_e - p_d == pytest.approx(eta * v * math.cos(alpha - beta), abs=1e-12)
            assert p_e + p_d + p_none == pytest.approx(1.0, abs=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(ValueError):
            quantum_cell(0.0, 0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            quantum_cell(0.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            quantum_cell(0.0, 0.0, -0.1, 1.0)


class TestProbabilityTable:
    def test_ideal_det_settings_give_unit_witness(self):
        table = probability_table(bundled_scenario(DET))
        assert det_witness(table) == pytest.approx(1.0, abs=1e-12)

    def test_zero_visibility_is_flat(self):
        s = Scenario((0.0, 1.0), (0.5,), visibility=0.0, efficiency=0.7, fair_sampling=False)
        table = probability_table(s)
        np.testing.assert_allclose(table.p_e, 0.35, atol=1e-15)
        np.testing.assert_allclose(table.p_d, 0.35, atol=1e-15)

    def test_idw_settings_d_values(self):
        table = probability_table(bundled_scenario(IDW))
        d = table.d_values()
        expected = np.array([[SQ2 / 2, SQ2 / 2], [SQ2 / 2, -SQ2 / 2], [-1.0, 0.0]])
        np.testing.assert_allclose(d[:, :2], expected, atol=1e-12)
        idw = d[0, 0] + d[0, 1] + d[1, 0] - d[1, 1] - d[2, 0]
        assert idw == pytest.approx(1.0 + 2.0 * SQ2, abs=1e-12)

    def test_cells_sum_to_one(self):
        s = bundled_scenario(DET, visibility=0.7, efficiency=0.3, fair_sampling=False)
        table = probability_table(s)
        np.testing.assert_allclose(table.p_e + table.p_d + table.p_none, 1.0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alphas=st.lists(PHASES, min_size=1, max_size=5),
        betas=st.lists(PHASES, min_size=1, max_size=3),
        visibility=st.floats(0.0, 1.0),
        efficiency=EFFICIENCIES,
    )
    def test_postselected_cells_sum_to_one(self, alphas, betas, visibility, efficiency):
        table = probability_table(Scenario(tuple(alphas), tuple(betas), visibility, efficiency))
        np.testing.assert_allclose(table.p_e + table.p_d, 1.0, rtol=0, atol=1e-12)
        assert table.p_none.max() == 0.0

    def test_fair_sampling_removes_efficiency(self):
        full = probability_table(bundled_scenario(DET, visibility=0.8, efficiency=1.0))
        lossy = probability_table(bundled_scenario(DET, visibility=0.8, efficiency=0.3))
        np.testing.assert_allclose(full.p_e, lossy.p_e, atol=1e-12)
        np.testing.assert_allclose(full.p_d, lossy.p_d, atol=1e-12)
        assert lossy.p_none.max() == 0.0

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            ProbabilityTable(np.array([[0.9]]), np.array([[0.9]]), np.array([[0.0]]))
        with pytest.raises(ValueError):
            ProbabilityTable(np.array([[1.2]]), np.array([[-0.2]]), np.array([[0.0]]))

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_nan_entries_rejected(self, column):
        cells = [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]])]
        cells[column][0, 1] = math.nan
        name = ("p_e", "p_d", "p_none")[column]
        with pytest.raises(ValueError, match=rf"^{name} has entries outside \[0, 1\]$"):
            ProbabilityTable(*cells)

    @pytest.mark.parametrize("bad", [-0.25, 1.25])
    @pytest.mark.parametrize("column, name", [(0, "p_e"), (1, "p_d"), (2, "p_none")])
    def test_out_of_range_entry_names_its_array(self, column, name, bad):
        cells = [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]])]
        cells[column][0, 1] = bad
        with pytest.raises(ValueError, match=rf"^{name} has entries outside \[0, 1\]$"):
            ProbabilityTable(*cells)

    @pytest.mark.parametrize("columns", [(0, 1), (0, 2), (1, 2), (2, 1), (0, 1, 2)])
    def test_first_bad_array_is_named(self, columns):
        cells = [np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]])]
        for k, column in enumerate(columns):
            cells[column][0, k % 2] = (math.nan, 2.0, -1.0)[k]
        name = ("p_e", "p_d", "p_none")[min(columns)]
        with pytest.raises(ValueError, match=rf"^{name} has entries outside \[0, 1\]$"):
            ProbabilityTable(*cells)

    def test_postselection_names_the_undetected_cell(self):
        table = ProbabilityTable(
            np.array([[0.5], [0.0]]), np.array([[0.5], [0.0]]), np.array([[0.0], [1.0]])
        )
        with pytest.raises(ValueError, match=r"cell \(i=1, j=0\): its detection probability is 0"):
            table.postselected()

    @pytest.mark.parametrize("build", (probability_table, heralded_table))
    def test_underflowed_efficiency_names_the_cell(self, build):
        # at efficiency 5e-324 every detection probability rounds to 0
        s = bundled_scenario(DET, visibility=0.0, efficiency=5e-324, fair_sampling=True)
        with pytest.raises(ValueError, match=r"cell \(i=0, j=0\): its detection probability is 0"):
            build(s)


class TestHeraldedTable:
    @pytest.mark.parametrize(
        "config", (DET, IDW), ids=("det_witness_settings", "dimension_witness_settings")
    )
    def test_matches_direct_preparation(self, config):
        for fair in (True, False):
            s = bundled_scenario(config, visibility=0.9, efficiency=0.6, fair_sampling=fair)
            direct = probability_table(s)
            heralded = heralded_table(s)
            np.testing.assert_allclose(heralded.p_e, direct.p_e, atol=1e-12)
            np.testing.assert_allclose(heralded.p_d, direct.p_d, atol=1e-12)
            np.testing.assert_allclose(heralded.p_none, direct.p_none, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alphas=st.lists(PHASES, min_size=1, max_size=5),
        betas=st.lists(PHASES, min_size=1, max_size=3),
        visibility=st.floats(0.0, 1.0),
        efficiency=EFFICIENCIES,
        fair=st.booleans(),
    )
    def test_matches_direct_preparation_everywhere(
        self, alphas, betas, visibility, efficiency, fair
    ):
        s = Scenario(tuple(alphas), tuple(betas), visibility, efficiency, fair)
        direct, heralded = probability_table(s), heralded_table(s)
        for name in ("p_e", "p_d", "p_none"):
            np.testing.assert_allclose(
                getattr(heralded, name), getattr(direct, name), rtol=0, atol=1e-12
            )

    def test_efficiency_squares_in_witness(self):
        s = bundled_scenario(DET, efficiency=0.5, fair_sampling=False)
        table = heralded_table(s)
        assert det_witness(table) == pytest.approx(0.25, abs=1e-12)


class TestScenarioConfig:
    def test_json_round_trip(self):
        s = bundled_scenario(IDW, visibility=0.88, efficiency=0.2, fair_sampling=False)
        loaded = Scenario.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
        assert loaded == s

    def test_pi_units(self):
        s = Scenario.from_json_dict(
            {"alphas_pi": [0.25, 0.75, -0.5], "betas_pi": [0.5, 0.0]}
        )
        assert s.alphas == pytest.approx((math.pi / 4, 3 * math.pi / 4, -math.pi / 2))
        assert s.visibility == 1.0 and s.efficiency == 1.0 and s.fair_sampling

    def test_phases_canonicalized(self):
        s = Scenario((3 * math.pi,), (0.0,))
        assert s.alphas[0] == pytest.approx(math.pi, abs=1e-12)

    def test_missing_key(self):
        with pytest.raises(ValueError):
            Scenario.from_json_dict({"alphas_pi": [0.0]})

    def test_empty_settings_rejected(self):
        with pytest.raises(ValueError):
            Scenario((), (0.0,))
        with pytest.raises(ValueError):
            Scenario((0.0,), ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phases_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Scenario((0.0, bad), (0.0,))
        with pytest.raises(ValueError, match="finite"):
            Scenario((0.0,), (bad, 0.0))
        with pytest.raises(ValueError, match="finite"):
            Scenario.from_json_dict({"alphas_pi": [bad], "betas_pi": [0.0]})
