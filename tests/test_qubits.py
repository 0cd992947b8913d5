import cmath
import math

import numpy as np
import pytest

from pamsim.qubits import (
    PHI_PLUS,
    Ket2,
    Ket4,
    ZeroProbabilityBranch,
    born,
    canonical_phase,
    herald,
    phase_ket,
)

SQ2 = math.sqrt(2.0)


class TestPhaseKet:
    def test_zero_phase(self):
        k = phase_ket(0.0)
        assert k.a_h == pytest.approx(1 / SQ2, abs=1e-15)
        assert k.a_v == pytest.approx(1 / SQ2, abs=1e-15)

    def test_pi_phase(self):
        k = phase_ket(math.pi)
        assert k.a_v.real == pytest.approx(-1 / SQ2, abs=1e-15)

    def test_half_pi_phase(self):
        k = phase_ket(math.pi / 2)
        assert k.a_v == pytest.approx(1j / SQ2, abs=1e-15)

    def test_normalized(self):
        for phi in np.linspace(-7.0, 7.0, 29):
            k = phase_ket(phi)
            assert abs(abs(k.a_h) ** 2 + abs(k.a_v) ** 2 - 1.0) < 1e-12


class TestBorn:
    def test_identity(self):
        assert born(phase_ket(0.0), phase_ket(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert born(phase_ket(0.0), phase_ket(math.pi)) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_on_grid(self):
        # |<beta|alpha>|^2 must equal cos^2((alpha-beta)/2) everywhere.
        rng = np.random.default_rng(11)
        for alpha, beta in rng.uniform(-math.tau, math.tau, size=(100, 2)):
            expected = math.cos((alpha - beta) / 2.0) ** 2
            assert born(phase_ket(alpha), phase_ket(beta)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_completeness_over_orthonormal_basis(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = Ket2(*(amps / np.linalg.norm(amps)))
            beta = rng.uniform(-math.pi, math.pi)
            total = born(state, phase_ket(beta)) + born(state, phase_ket(beta + math.pi))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_phase_ket_periodicity(self):
        for alpha in (-2.3, 0.4, 1.9):
            for beta in (-1.1, 0.0, 2.8):
                assert born(phase_ket(alpha), phase_ket(beta)) == pytest.approx(
                    born(phase_ket(alpha + math.tau), phase_ket(beta)), abs=1e-12
                )


class TestHerald:
    def test_phi_plus_brute_force_contraction(self):
        """Check against an explicit 4-amplitude contraction with numpy."""
        rng = np.random.default_rng(13)
        pair_vec = np.array([PHI_PLUS.hh, PHI_PLUS.hv, PHI_PLUS.vh, PHI_PLUS.vv])
        for _ in range(20):
            phi = rng.uniform(-math.pi, math.pi)
            for s in (+1, -1):
                phased = pair_vec * np.array([1, 1, cmath.exp(1j * phi), cmath.exp(1j * phi)])
                # <H|, s<V| on the first qubit, divided by sqrt(2)
                bob = (phased[:2] + s * phased[2:]) / SQ2
                prob_expected = float(np.vdot(bob, bob).real)
                prob, state = herald(PHI_PLUS, phi, s)
                assert prob == pytest.approx(prob_expected, abs=1e-12)
                bob_norm = bob / np.linalg.norm(bob)
                for beta in rng.uniform(-math.pi, math.pi, size=5):
                    proj = phase_ket(beta)
                    expected = abs(np.conj(proj.a_h) * bob_norm[0] + np.conj(proj.a_v) * bob_norm[1]) ** 2
                    assert born(state, proj) == pytest.approx(expected, abs=1e-12)

    def test_phi_plus_outcome_probabilities(self):
        p_plus, _ = herald(PHI_PLUS, 0.3, +1)
        p_minus, _ = herald(PHI_PLUS, 0.3, -1)
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_phi_plus_prepares_phase_ket(self):
        prob, state = herald(PHI_PLUS, 0.0, +1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        for beta in np.linspace(-math.pi, math.pi, 17):
            assert born(state, phase_ket(beta)) == pytest.approx(
                born(phase_ket(0.0), phase_ket(beta)), abs=1e-12
            )

    def test_product_pair_cannot_steer(self):
        pair_hh = Ket4(1.0, 0.0, 0.0, 0.0)
        for s in (+1, -1):
            prob, state = herald(pair_hh, 1.2, s)
            assert prob == pytest.approx(0.5, abs=1e-12)
            # receiver state is |H> regardless of outcome
            assert born(state, Ket2(1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_branch(self):
        # sender qubit |+> makes the "-" port dark
        plus_h = Ket4(1.0 / SQ2, 0.0, 1.0 / SQ2, 0.0)
        with pytest.raises(ZeroProbabilityBranch):
            herald(plus_h, 0.0, -1)

    def test_bad_outcome_label(self):
        with pytest.raises(ValueError):
            herald(PHI_PLUS, 0.0, 0)


class TestRemotePreparation:
    """Heralding with the documented (phase, outcome) -> alpha relabeling
    is statistically identical to direct phase-ket preparation."""

    @pytest.mark.parametrize(
        "alpha", [0.0, math.pi, -math.pi / 2, math.pi / 2, math.pi / 4, 3 * math.pi / 4]
    )
    def test_relabeled_ensemble_matches_direct(self, alpha):
        routes = [herald(PHI_PLUS, alpha, +1), herald(PHI_PLUS, alpha - math.pi, -1)]
        total = sum(w for w, _ in routes)
        direct = phase_ket(alpha)
        for beta in np.linspace(-math.pi, math.pi, 25):
            proj = phase_ket(beta)
            mixed = sum(w * born(state, proj) for w, state in routes) / total
            assert mixed == pytest.approx(born(direct, proj), abs=1e-12)


class TestNormalization:
    def test_bell_states_normalized(self):
        assert PHI_PLUS.norm_error() < 1e-12


class TestCanonicalPhase:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (math.tau, 0.0),
            (-math.pi / 2, -math.pi / 2),
            (3 * math.pi / 2, -math.pi / 2),
        ],
    )
    def test_reduction(self, raw, expected):
        assert canonical_phase(raw) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for x in np.linspace(-30.0, 30.0, 401):
            r = canonical_phase(x)
            assert -math.pi < r <= math.pi
