"""Tests for the ideal pipeline: closed forms against brute-force evolution."""

import math

import numpy as np
import pytest

from kerrcat.fock import default_truncation, fidelity, force_kick, kerr_unitary, mean_quadrature
from kerrcat.fock import coherent_state
from kerrcat.protocol import (
    PhysicalForce,
    ProtocolParams,
    SignalEstimate,
    branch_phase_shift,
    cat_state,
    force_to_delta,
    mean_X_ideal,
    mean_X_linearized,
    offset_delta,
    run_ideal,
    shot_errors,
)


class TestCatState:
    def test_normalized_for_all_amplitudes(self):
        # The 1/sqrt(2) prefactor is exact: the branch overlap is real, so
        # the cross terms cancel for every amplitude, small or large.
        for alpha0 in (0.3, 1.0, 2.0, 3.5, 1.2 + 0.7j, -2.0 + 0.1j):
            psi = cat_state(alpha0)
            assert abs(psi.norm - 1.0) < 1e-12, alpha0

    def test_matches_quarter_period_kerr_output(self):
        # A quarter-period Kerr map sends a coherent state to this
        # superposition up to a global phase, so the fidelity is 1.
        for alpha0 in (1.0, 2.0, 2.0 + 0.3j):
            N = default_truncation(alpha0)
            U = kerr_unitary(math.pi / 2.0, N)
            evolved = U @ coherent_state(alpha0, N)
            assert fidelity(evolved, cat_state(alpha0, N)) > 1.0 - 1e-12

    def test_orthogonal_branches_give_equal_weights(self):
        psi = cat_state(3.0)
        N = psi.dim
        w_plus = abs(coherent_state(3.0, N).overlap(psi)) ** 2
        w_minus = abs(coherent_state(-3.0, N).overlap(psi)) ** 2
        assert abs(w_plus - 0.5) < 1e-6
        assert abs(w_minus - 0.5) < 1e-6


class TestMeanXIdeal:
    def test_matches_brute_force_on_grid(self):
        # The closed form is exact, not perturbative: it tracks the full
        # Fock-space pipeline at every kick strength tested.
        for alpha in (1.0, 1.5, 2.0, 2.5):
            for delta in (-0.1, -0.03, 0.0, 0.03, 0.1):
                p = ProtocolParams(alpha0=alpha, delta=delta)
                got = mean_quadrature(run_ideal(p))
                want = mean_X_ideal(alpha, delta)
                assert abs(got - want) < 1e-9, (alpha, delta)

    def test_zero_kick_returns_amplitude(self):
        assert abs(mean_X_ideal(2.0, 0.0) - 2.0) < 1e-15

    def test_offset_point_slope_magnitude_near_linearized_value(self):
        # At the offset working point the exact response slope agrees with
        # the linearized magnitude 4*alpha^2 - 1 to within a few percent.
        h = 1e-6
        for alpha in (2.0, 3.0):
            d0 = offset_delta(alpha)
            slope = (mean_X_ideal(alpha, d0 + h) - mean_X_ideal(alpha, d0 - h)) / (2.0 * h)
            expected = 4.0 * alpha * alpha - 1.0
            assert abs(abs(slope) - expected) / expected < 0.05, alpha

    def test_pipeline_slope_matches_closed_form_slope(self):
        alpha, h = 2.0, 1e-4
        d0 = offset_delta(alpha)
        num = (
            mean_quadrature(run_ideal(ProtocolParams(alpha, d0 + h)))
            - mean_quadrature(run_ideal(ProtocolParams(alpha, d0 - h)))
        ) / (2.0 * h)
        ana = (mean_X_ideal(alpha, d0 + h) - mean_X_ideal(alpha, d0 - h)) / (2.0 * h)
        assert abs(num - ana) < 1e-4

    def test_small_imaginary_amplitude_perturbs_mean_weakly(self):
        # The closed form assumes a real amplitude; a percent-level imaginary
        # component moves the pipeline mean only at the same small scale.
        delta = 0.05
        base = mean_X_ideal(2.0, delta)
        got = mean_quadrature(run_ideal(ProtocolParams(2.0 + 0.01j, delta)))
        assert abs(got - base) < 2e-2


class TestMeanXLinearized:
    def test_value(self):
        assert abs(mean_X_linearized(2.0, 0.01) - (16.0 * 0.01 - 0.01)) < 1e-15

    def test_warns_outside_linear_regime(self):
        with pytest.warns(UserWarning, match="linearized"):
            mean_X_linearized(2.0, 0.1)

    def test_silent_inside_linear_regime(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean_X_linearized(2.0, 0.01)


class TestBranchPhaseShift:
    def test_linear_phase_law(self):
        # The kick imprints a relative phase of exactly 2*delta*alpha
        # between the two superposition branches.
        for alpha, delta in ((2.0, 0.05), (1.5, 0.2), (3.0, -0.1)):
            got = branch_phase_shift(alpha, delta)
            assert abs(got - 2.0 * delta * alpha) < 1e-9, (alpha, delta)

    def test_phase_wraps_to_principal_branch(self):
        got = branch_phase_shift(2.0, 1.0)
        want = math.remainder(4.0, 2.0 * math.pi)
        assert abs(got - want) < 1e-8

    def test_zero_kick_gives_zero_phase(self):
        assert abs(branch_phase_shift(2.0, 0.0)) < 1e-10

    def test_default_space_holds_a_large_kick(self):
        # The kicked branches sit near |0.5 - 3i>, far outside a space sized for |alpha0| alone.
        assert abs(branch_phase_shift(0.5, 3.0) - 3.0) < 1e-12


class TestOffsetAndParams:
    def test_offset_value(self):
        assert abs(offset_delta(2.0) - math.pi / 16.0) < 1e-15

    def test_offset_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            offset_delta(0.0)

    def test_effective_delta_adds_offset(self):
        p = ProtocolParams(alpha0=2.0, delta=0.01, apply_offset=True)
        assert abs(p.effective_delta - (0.01 + math.pi / 16.0)) < 1e-15

    def test_offset_requires_real_part(self):
        with pytest.raises(ValueError):
            ProtocolParams(alpha0=0.5j, apply_offset=True)

    def test_dim_defaults_to_truncation_rule(self):
        # The default space is sized for the kicked amplitude |alpha0| + |kick|.
        p = ProtocolParams(alpha0=2.0, delta=0.3, apply_offset=True)
        assert run_ideal(p).dim == default_truncation(2.0 + p.effective_delta)
        assert run_ideal(ProtocolParams(alpha0=2.0, truncation=64)).dim == 64

    def test_offset_moves_mean_to_interpeak_point(self):
        # With the offset applied and no force, the mean quadrature sits
        # near zero (between the two homodyne peaks), not at +alpha.
        p = ProtocolParams(alpha0=2.0, apply_offset=True)
        assert abs(mean_quadrature(run_ideal(p))) < 0.2


class TestForceConversion:
    def test_kick_formula(self):
        pf = PhysicalForce(F=1e-18, dt=1e-6, mass=1e-12, omega_m=2 * math.pi * 1e7)
        from scipy.constants import hbar

        want = 1e-18 * 1e-6 / math.sqrt(2.0 * 1e-12 * 2 * math.pi * 1e7 * hbar)
        assert abs(force_to_delta(pf) - want) < abs(want) * 1e-12

    def test_sign_follows_force(self):
        pf = PhysicalForce(F=-1e-18, dt=1e-6, mass=1e-12, omega_m=2 * math.pi * 1e7)
        assert force_to_delta(pf) < 0.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            PhysicalForce(F=1e-18, dt=0.0, mass=1e-12, omega_m=1e7)
        with pytest.raises(ValueError):
            PhysicalForce(F=1e-18, dt=1e-6, mass=-1e-12, omega_m=1e7)


class TestCoinSignal:
    def test_values(self):
        est = SignalEstimate(m_counts=5200, M=10_000)
        assert abs(est.S - 0.02) < 1e-15
        assert abs(est.sigma_S - 0.005) < 1e-15

    def test_balanced_counts_give_zero(self):
        assert SignalEstimate(m_counts=500, M=1000).S == 0.0

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            SignalEstimate(m_counts=-1, M=100)
        with pytest.raises(ValueError):
            SignalEstimate(m_counts=101, M=100)
        with pytest.raises(ValueError):
            SignalEstimate(m_counts=0, M=0)


class TestShotErrors:
    def test_superposition_gain_is_two_alpha(self):
        pf = PhysicalForce(F=2e-18, dt=1e-6, mass=1e-12, omega_m=2 * math.pi * 1e7)
        eps_c, eps_q = shot_errors(pf, alpha=2.0)
        assert abs(eps_c / eps_q - 4.0) < 1e-12

    def test_classical_error_formula(self):
        from scipy.constants import hbar

        pf = PhysicalForce(F=2e-18, dt=1e-6, mass=1e-12, omega_m=2 * math.pi * 1e7)
        eps_c, _ = shot_errors(pf, alpha=2.0)
        want = math.sqrt(hbar * 1e-12 * 2 * math.pi * 1e7 / 2.0) / (2e-18 * 1e-6)
        assert abs(eps_c - want) < want * 1e-12

    def test_zero_force_rejected(self):
        pf = PhysicalForce(F=0.0, dt=1e-6, mass=1e-12, omega_m=1e7)
        with pytest.raises(ValueError):
            shot_errors(pf, alpha=2.0)

    @pytest.mark.parametrize("alpha", [0.0, math.inf, math.nan])
    def test_alpha_without_a_finite_gain_rejected(self, alpha):
        pf = PhysicalForce(F=2e-18, dt=1e-6, mass=1e-12, omega_m=1e7)
        with pytest.raises(ValueError, match="alpha"):
            shot_errors(pf, alpha=alpha)

    def test_errors_are_magnitudes(self):
        pf = PhysicalForce(F=-2e-18, dt=1e-6, mass=1e-12, omega_m=1e7)
        eps_c, eps_q = shot_errors(pf, alpha=-2.0)
        assert (eps_c, eps_q) == shot_errors(pf, alpha=2.0)
        assert eps_q > 0.0


class TestRunIdeal:
    @pytest.mark.parametrize("alpha0", [0.8, 1.5 + 0.3j, 2.0])
    @pytest.mark.parametrize("delta", [-0.1, 0.0, 0.07])
    def test_matches_dense_operator_product(self, alpha0, delta):
        p = ProtocolParams(alpha0=alpha0, delta=delta)
        N = run_ideal(p).dim
        U = kerr_unitary(math.pi / 2.0, N)
        want = U.dagger @ (force_kick(delta, N) @ (U @ coherent_state(alpha0, N)))
        assert np.max(np.abs(run_ideal(p).amplitudes - want.amplitudes)) <= 1e-13

    def test_preserves_norm(self):
        psi = run_ideal(ProtocolParams(alpha0=2.0, delta=0.07))
        assert abs(psi.norm - 1.0) < 1e-9

    def test_zero_kick_returns_initial_coherent_state(self):
        p = ProtocolParams(alpha0=2.0, delta=0.0)
        psi = run_ideal(p)
        assert fidelity(psi, coherent_state(2.0, psi.dim)) > 1.0 - 1e-10

    @pytest.mark.parametrize("alpha0", [0.05, 0.1])
    def test_small_amplitude_offset_matches_closed_form(self, alpha0):
        # The offset pi/(8*alpha0) is a kick of 4-8, so the default space must be sized for it.
        p = ProtocolParams(alpha0=alpha0, apply_offset=True)
        assert abs(mean_quadrature(run_ideal(p)) - mean_X_ideal(alpha0, p.effective_delta)) < 1e-12

    def test_mean_is_even_in_amplitude_sign_at_zero_kick(self):
        a = mean_quadrature(run_ideal(ProtocolParams(alpha0=2.0)))
        b = mean_quadrature(run_ideal(ProtocolParams(alpha0=-2.0)))
        assert abs(a + b) < 1e-9
