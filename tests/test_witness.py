import json
import math

import numpy as np
import pytest

from pamsim.scenario import (
    ProbabilityTable,
    Scenario,
    det_witness_settings,
    dimension_witness_settings,
    probability_table,
)
from pamsim.witness import (
    I_DW_QUANTUM,
    R_QUANTUM,
    WitnessReport,
    det_witness,
    dimension_witness,
    report_from_table,
    retrocausality,
    sigma_violation,
    witness_matrix,
)

SQ2 = math.sqrt(2.0)


def uniform_table(n_prep=4, n_meas=2):
    half = np.full((n_prep, n_meas), 0.5)
    return ProbabilityTable(half, half, np.zeros((n_prep, n_meas)))


class TestWitnessMatrix:
    def test_ideal_quantum_matrix(self):
        w = witness_matrix(probability_table(det_witness_settings()))
        np.testing.assert_allclose(w, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)
        assert det_witness(probability_table(det_witness_settings())) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_uniform_table_is_zero(self):
        np.testing.assert_array_equal(witness_matrix(uniform_table()), np.zeros((2, 2)))

    def test_shape_error(self):
        with pytest.raises(ValueError):
            witness_matrix(uniform_table(n_prep=3))

    def test_swapping_measurements_flips_det_sign(self):
        s = det_witness_settings(visibility=0.9)
        swapped = Scenario(
            s.alphas, (s.betas[1], s.betas[0]), s.visibility, s.efficiency, s.fair_sampling
        )
        w = witness_matrix(probability_table(s))
        w_swapped = witness_matrix(probability_table(swapped))
        np.testing.assert_allclose(w_swapped, w[:, ::-1], atol=1e-15)
        det = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
        det_swapped = w_swapped[0, 0] * w_swapped[1, 1] - w_swapped[0, 1] * w_swapped[1, 0]
        assert det_swapped == pytest.approx(-det, abs=1e-12)
        assert det_witness(probability_table(swapped)) == pytest.approx(
            det_witness(probability_table(s)), abs=1e-12
        )


class TestDimensionWitness:
    def test_ideal_value(self):
        idw = dimension_witness(probability_table(dimension_witness_settings()))
        assert idw == pytest.approx(I_DW_QUANTUM, abs=1e-12)

    def test_uniform_table(self):
        assert dimension_witness(uniform_table(n_prep=3)) == 0.0

    def test_shape_error(self):
        with pytest.raises(ValueError):
            dimension_witness(uniform_table(n_prep=2))


class TestScalingLaws:
    def test_efficiency_squares_without_postselection(self):
        ideal = det_witness(
            probability_table(det_witness_settings(efficiency=1.0, fair_sampling=False))
        )
        for eta in np.arange(0.1, 1.01, 0.1):
            s = det_witness_settings(efficiency=float(eta), fair_sampling=False)
            assert det_witness(probability_table(s)) == pytest.approx(
                eta**2 * ideal, abs=1e-12
            )

    def test_visibility_squares(self):
        for v in np.arange(0.0, 1.01, 0.1):
            s = det_witness_settings(visibility=float(v))
            assert det_witness(probability_table(s)) == pytest.approx(v**2, abs=1e-12)

    def test_idw_linear_in_visibility(self):
        for v in np.arange(0.0, 1.01, 0.1):
            s = dimension_witness_settings(visibility=float(v))
            assert dimension_witness(probability_table(s)) == pytest.approx(
                v * I_DW_QUANTUM, abs=1e-12
            )


class TestRetrocausality:
    def test_quantum_point(self):
        assert retrocausality(I_DW_QUANTUM) == pytest.approx(R_QUANTUM, abs=1e-12)

    def test_boundary(self):
        assert retrocausality(3.0) == 0.0
        assert retrocausality(2.0) == 0.0

    def test_reported_experimental_value(self):
        # Eq-faithful: (3.445 - 3) / 4
        assert retrocausality(3.445) == pytest.approx(0.11125, abs=1e-12)

    def test_vector_matches_scalar(self):
        grid = np.linspace(0.0, 5.0, 101)
        assert retrocausality(grid).tolist() == [retrocausality(float(x)) for x in grid]
        # a Python float keeps witness.csv's repr free of numpy's type name
        assert type(retrocausality(3.445)) is float

    def test_monotone_and_lipschitz(self):
        grid = np.linspace(0.0, 5.0, 101)
        values = [retrocausality(x) for x in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        for x, y in zip(grid, grid[2::3]):
            assert abs(retrocausality(x) - retrocausality(y)) <= abs(x - y) / 4 + 1e-15


class TestSigmaViolation:
    def test_det_violation_sigma(self):
        assert sigma_violation(0.0268, 0.0006, 0.0) == pytest.approx(44.7, abs=0.1)

    def test_idw_violation_sigma(self):
        assert sigma_violation(3.445, 0.043, 3.0) == pytest.approx(10.3, abs=0.1)

    def test_at_bound(self):
        assert sigma_violation(1.0, 0.5, 1.0) == 0.0

    def test_below_bound_clamps(self):
        assert sigma_violation(0.5, 0.5, 1.0) == 0.0

    def test_bad_std_err(self):
        with pytest.raises(ValueError):
            sigma_violation(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            sigma_violation(1.0, -0.1, 0.0)


class TestWitnessReport:
    def test_r_computed_from_own_idw(self):
        report = WitnessReport(i_dw=3.445)
        assert report.r == retrocausality(3.445)

    def test_inconsistent_r_rejected(self):
        # r is derived from i_dw, never given
        with pytest.raises(TypeError):
            WitnessReport(i_dw=3.445, r=0.2)

    def test_json_round_trip(self):
        report = WitnessReport(
            i_dw=3.8,
            det_abs=0.9,
            sigma_det=12.0,
            sigma_idw=4.0,
            uncertainties={"i_dw": 0.2, "det_abs": 0.075, "r": 0.05},
        )
        fields = json.loads(json.dumps(report.to_json_dict()))
        assert fields.pop("r") == report.r
        assert WitnessReport(**fields) == report

    def test_report_from_table_without_det(self):
        report = report_from_table(probability_table(dimension_witness_settings()))
        assert report.det_abs is None
        assert report.i_dw == pytest.approx(I_DW_QUANTUM, abs=1e-12)
