"""Unit tests for truncated-Fock-space linear algebra."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite
from scipy.stats import poisson

from kerrcat.fock import (
    FockOperator,
    FockVector,
    TruncationError,
    apply_kicks,
    coherent_state,
    default_truncation,
    fidelity,
    force_kick,
    kerr_unitary,
    ladder_ops,
    mean_quadrature,
    prob_quadrature_positive,
    quadrature_distribution,
)
from kerrcat.protocol import cat_state


def unitarity_defect(op: FockOperator) -> float:
    """Largest entry of ``O^dag O - I``."""
    return float(np.max(np.abs((op.dagger @ op).entries - np.eye(op.dim))))


def random_normalized_state(rng: np.random.Generator, N: int) -> FockVector:
    amps = rng.normal(size=N) + 1j * rng.normal(size=N)
    return FockVector(amps / np.linalg.norm(amps))


class TestCoherentState:
    def test_vacuum_is_pure_ground_level(self):
        psi = coherent_state(0.0, 16)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.allclose(psi.amplitudes, expected)

    def test_mean_occupation_matches_amplitude_squared(self):
        psi = coherent_state(2.0, 48)
        _, _, n_op = ladder_ops(48)
        assert abs(n_op.expectation(psi).real - 4.0) < 1e-8

    def test_norm_deficit_equals_poisson_tail(self):
        # The discarded occupation tail is exactly the Poisson survival mass.
        psi = coherent_state(2.0, 48)
        deficit = 1.0 - psi.norm**2
        tail = poisson.sf(47, 4.0)
        assert deficit < 1e-12
        assert abs(deficit - tail) < 1e-14

    def test_annihilation_eigenrelation(self):
        N = default_truncation(1.5)
        a, _, _ = ladder_ops(N)
        psi = coherent_state(1.5, N)
        residual = (a @ psi).amplitudes - 1.5 * psi.amplitudes
        # The residual is a pure truncation artifact, confined to the top level.
        assert np.linalg.norm(residual[:-1]) < 1e-12

    def test_truncation_error_raised_when_space_too_small(self):
        with pytest.raises(TruncationError):
            coherent_state(3.0, 12)

    def test_default_truncation_rule(self):
        assert default_truncation(2.0) == math.ceil(4 + 20 + 20)
        assert default_truncation(0.0) == 20
        # The rule keeps the tail far below the default tolerance.
        psi = coherent_state(4.0, default_truncation(4.0))
        assert psi.tail_mass() < 1e-10


class TestLadderOps:
    def test_two_level_annihilation_matrix(self):
        a, _, _ = ladder_ops(2)
        assert np.allclose(a.entries, [[0, 1], [0, 0]])

    def test_creation_is_conjugate_transpose(self):
        a, a_dag, _ = ladder_ops(16)
        assert np.array_equal(a_dag.entries, a.entries.conj().T)

    def test_commutator_is_identity_below_truncation(self):
        a, a_dag, _ = ladder_ops(16)
        comm = a.entries @ a_dag.entries - a_dag.entries @ a.entries
        assert np.allclose(np.diag(comm)[:15], 1.0)

    def test_number_operator_is_diagonal_count(self):
        _, _, n_op = ladder_ops(8)
        assert np.allclose(n_op.entries, np.diag(np.arange(8.0)))

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValueError):
            ladder_ops(1)


class TestKerrUnitary:
    def test_zero_phase_is_identity(self):
        U = kerr_unitary(0.0, 12)
        assert np.allclose(U.entries, np.eye(12))

    def test_full_revolution_is_identity(self):
        U = kerr_unitary(2 * math.pi, 12)
        assert np.allclose(U.entries, np.eye(12))

    def test_quarter_period_builds_balanced_superposition(self):
        N = 48
        psi = kerr_unitary(math.pi / 2, N) @ coherent_state(2.0, N)
        assert fidelity(psi, cat_state(2.0, N)) > 1 - 1e-10

    def test_half_period_flips_coherent_amplitude(self):
        N = 40
        psi = kerr_unitary(math.pi, N) @ coherent_state(1.5, N)
        assert fidelity(psi, coherent_state(-1.5, N)) > 1 - 1e-8

    def test_unitarity(self):
        assert unitarity_defect(kerr_unitary(0.7, 32)) < 1e-9


class TestForceKick:
    def test_zero_kick_is_identity(self):
        V = force_kick(0.0, 24)
        assert np.allclose(V.entries, np.eye(24))

    def test_action_on_coherent_state(self):
        # exp(-i*delta*(a+a_dag)) |alpha> = exp(-i*delta*Re alpha) |alpha - i*delta>
        N = 48
        delta = 0.3
        moved = force_kick(delta, N) @ coherent_state(1.0 + 0j, N)
        expected = FockVector(np.exp(-1j * delta * 1.0) * coherent_state(1.0 - 0.3j, N).amplitudes)
        assert np.linalg.norm(moved.amplitudes - expected.amplitudes) < 1e-8

    def test_opposite_kicks_cancel(self):
        N = 32
        prod = force_kick(0.17, N) @ force_kick(-0.17, N)
        assert np.max(np.abs(prod.entries - np.eye(N))) < 1e-9

    def test_kick_composition(self):
        N = 32
        combined = force_kick(0.1, N) @ force_kick(0.25, N)
        direct = force_kick(0.35, N)
        assert np.max(np.abs(combined.entries - direct.entries)) < 1e-8

    def test_unitarity(self):
        assert unitarity_defect(force_kick(0.4, 40)) < 1e-9

    def test_batch_of_kicks_matches_dense_propagators(self):
        # Column j is after * force_kick(-q_j) @ before.
        N = 32
        rng = np.random.default_rng(3)
        before = rng.normal(size=N) + 1j * rng.normal(size=N)
        after = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=N))
        q = np.array([-0.3, 0.0, 0.05, 0.4])
        columns = apply_kicks(before, q, after)
        assert columns.shape == (N, q.size)
        for j, kick in enumerate(q):
            want = after * (force_kick(-kick, N).entries @ before)
            assert np.max(np.abs(columns[:, j] - want)) < 1e-13


class TestQuadratureDistribution:
    def test_vacuum_statistics(self):
        res = quadrature_distribution(coherent_state(0.0, 16))
        assert abs(res.mean_X) < 1e-9
        assert abs(res.prob_X_positive - 0.5) < 1e-9

    def test_coherent_mean_matches_amplitude(self):
        res = quadrature_distribution(coherent_state(2.0, 48))
        assert abs(res.mean_X - 2.0) < 1e-6

    def test_balanced_superposition_is_a_fair_coin(self):
        res = quadrature_distribution(cat_state(2.0, 48))
        assert abs(res.prob_X_positive - 0.5) < 1e-6

    def test_density_normalized_and_consistent_with_operator_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            psi = random_normalized_state(rng, 24)
            xs, px = quadrature_distribution(psi).density.T
            assert abs(np.trapezoid(px, xs) - 1.0) < 1e-12
            assert abs(np.trapezoid(xs * px, xs) - mean_quadrature(psi)) < 1e-12

    def test_density_peaks_follow_displacement(self):
        res = quadrature_distribution(coherent_state(1.5, 32))
        xs, px = res.density[:, 0], res.density[:, 1]
        assert abs(xs[np.argmax(px)] - 1.5) < 0.02


class TestProbQuadraturePositive:
    @pytest.mark.parametrize("N", [1, 2, 8, 24])
    def test_matches_adaptive_half_line_integral(self, N):
        # Independent reference: |psi(u)|^2 from scipy's Hermite polynomials,
        # integrated over u >= 0 (x > 0) by adaptive quadrature.
        rng = np.random.default_rng(N)
        scale = [np.pi**-0.25 / math.sqrt(2.0**n * math.factorial(n)) for n in range(N)]
        for _ in range(5):
            c = rng.normal(size=N) + 1j * rng.normal(size=N)

            def density(u):
                hermite = [s * eval_hermite(n, u) for n, s in enumerate(scale)]
                return abs(np.dot(c, hermite)) ** 2 * math.exp(-u * u)

            expected = quad(density, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            expected /= np.vdot(c, c).real
            assert abs(prob_quadrature_positive(FockVector(c)) - expected) < 1e-12

    def test_parity_and_displacement(self):
        assert prob_quadrature_positive(coherent_state(0.0, 16)) == 0.5
        assert abs(prob_quadrature_positive(cat_state(2.0, 48)) - 0.5) < 1e-14
        # |alpha> has a Gaussian X density of mean alpha and variance 1/4.
        expected = 0.5 * math.erfc(-2.0 * 0.7 / math.sqrt(2.0))
        assert abs(prob_quadrature_positive(coherent_state(0.7, 32)) - expected) < 1e-13


class TestOperatorContracts:
    def test_unitary_tag_verified_for_standard_propagators(self):
        for op in (kerr_unitary(0.3, 24), force_kick(0.2, 24)):
            assert unitarity_defect(op) < 1e-9

    def test_matmul_on_vectors_and_operators(self):
        N = 20
        U = kerr_unitary(0.5, N)
        psi = coherent_state(1.0, N)
        assert isinstance(U @ psi, FockVector)
        product = U @ U.dagger
        assert isinstance(product, FockOperator)
        assert np.max(np.abs(product.entries - np.eye(N))) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kerr_unitary(0.1, 8) @ coherent_state(0.5, 12)
        with pytest.raises(ValueError):
            kerr_unitary(0.1, 8) @ kerr_unitary(0.1, 12)

    def test_mismatched_states_rejected(self):
        small, large = coherent_state(0.5, 12), coherent_state(0.5, 16)
        with pytest.raises(ValueError):
            small.overlap(large)
        with pytest.raises(ValueError):
            fidelity(small, large)
        with pytest.raises(ValueError):
            kerr_unitary(0.1, 12).expectation(large)

    def test_dimension_is_read_from_the_array(self):
        assert coherent_state(0.5, 12).dim == 12
        assert force_kick(0.1, 9).dim == 9
        assert FockVector(np.ones(5)).normalized().dim == 5

    def test_amplitudes_are_read_only(self):
        psi = coherent_state(1.0, 20)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
