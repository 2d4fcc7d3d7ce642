"""Tests for the lossy-transfer model against brute-force two-mode evolution."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_boltzmann
from scipy.integrate import quad

from _support import TWO_PI, no_loss_params, params_for, reference_params
from kerrcat.fock import (
    FockVector,
    coherent_state,
    fidelity,
    force_kick,
    kerr_unitary,
    ladder_ops,
    quadrature_distribution,
)
from kerrcat.loss import (
    KickStats,
    LossParams,
    OverdampedTransferError,
    emission_probability,
    full_signal,
    loss_channel,
    lossy_offset,
    mean_X_lossy,
    mean_X_lossy_linearized,
    momentum_kick_stats,
    no_emission_diagonal,
    run_lossy_trajectory,
    single_emission_state,
    swap_parameters,
    thermal_occupation,
    two_mode_conditional_mean,
)
from kerrcat.loss import _beam_splitter


def dense_loss_channel(lp: LossParams, delta_prime: float, N: int) -> np.ndarray:
    """Reference channel: dense kron generator, one N^2 x N^2 ``eigh``, dense kick."""
    a, _, _ = ladder_ops(N)
    eye = np.eye(N)
    big_a = np.kron(a.entries, eye)
    big_c = np.kron(eye, a.entries)
    generator = 1j * (big_a @ big_c.conj().T - big_a.conj().T @ big_c)
    theta_bs = math.acos(min(lp.xi, 1.0))
    evals, evecs = np.linalg.eigh(generator)
    splitter = (evecs * np.exp(-1j * theta_bs * evals)) @ evecs.conj().T
    return np.kron(force_kick(-delta_prime, N).entries, eye) @ splitter


def dense_trajectory(alpha0, delta_prime: float, lp: LossParams, t_emit, N: int) -> np.ndarray:
    """Reference trajectory: every stage as a dense N x N operator product."""
    half_turn = math.pi / 2.0

    def w(theta):
        return np.diag(no_emission_diagonal(theta, lp, N))

    psi = coherent_state(alpha0, N).amplitudes
    if t_emit is None:
        psi = w(half_turn) @ psi
    else:
        theta = lp.lambda_kerr * t_emit
        psi = w(half_turn - theta) @ (ladder_ops(N)[0].entries @ (w(theta) @ psi))
    transfer = force_kick(-delta_prime, N).entries @ np.diag(lp.xi ** np.arange(N))
    psi = w(half_turn) @ (transfer @ psi)
    return psi / np.linalg.norm(psi)


def peak_location(psi: FockVector, side: int) -> float:
    dist = quadrature_distribution(psi)
    x, p = dist.density[:, 0], dist.density[:, 1]
    mask = x > 0.2 if side > 0 else x < -0.2
    return float(x[mask][np.argmax(p[mask])])


class TestSwapParameters:
    def test_lossless_limit(self):
        nu, t_swap, big_gamma, xi = swap_parameters(0.0, 0.0, 2.0)
        assert nu == 2.0
        assert abs(t_swap - math.pi / 2.0) < 1e-15
        assert big_gamma == 0.0
        assert xi == 1.0

    def test_reference_rates(self):
        nu, t_swap, big_gamma, xi = swap_parameters(TWO_PI * 100e3, TWO_PI * 10.0, TWO_PI * 500e3)
        assert abs(nu - math.sqrt((TWO_PI * 500e3) ** 2 - (TWO_PI * 100010 / 4.0) ** 2)) < 1.0
        assert abs(big_gamma * t_swap - 0.15729) < 1e-4
        assert abs(xi - 0.85446) < 1e-4
        assert 0.1 < big_gamma * t_swap < 0.3

    def test_overdamped_boundary_raises(self):
        with pytest.raises(OverdampedTransferError):
            swap_parameters(4.0, 0.0, 1.0)
        with pytest.raises(OverdampedTransferError):
            swap_parameters(2.0, 2.0, 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            swap_parameters(-1.0, 0.0, 1.0)


class TestLossParams:
    def test_reference_derived_values(self):
        lp = reference_params()
        assert abs(lp.xi - 0.854456) < 1e-4
        assert abs(lp.eta - 0.988843) < 1e-5
        assert abs(lp.tau_kerr - 1.0 / 2.8e7) < 1e-15
        assert abs(lp.kappa * lp.tau_kerr - 0.022440) < 1e-5
        assert abs(lp.gamma * lp.T_swap - 6.291e-5) < 1e-7
        assert lp.n_bar == 0.0

    def test_invariant_ranges(self):
        for lp in (reference_params(), params_for(0.9, 0.05), no_loss_params()):
            assert 0.0 < lp.xi <= 1.0
            assert 0.0 < lp.eta <= 1.0
            assert lp.n_bar >= 0.0
            assert lp.nu > 0.0

    def test_overdamped_construction_raises(self):
        with pytest.raises(OverdampedTransferError):
            LossParams(kappa=8.0, gamma=0.0, g=1.0, omega_m=1e6, lambda_kerr=1.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            LossParams(kappa=-1.0, gamma=0.0, g=1.0, omega_m=1e6, lambda_kerr=1.0)
        with pytest.raises(ValueError):
            LossParams(kappa=0.0, gamma=0.0, g=1.0, omega_m=-1.0, lambda_kerr=1.0)
        with pytest.raises(ValueError):
            LossParams(kappa=0.0, gamma=0.0, g=1.0, omega_m=1e6, lambda_kerr=0.0)
        with pytest.raises(ValueError):
            LossParams(kappa=0.0, gamma=0.0, g=1.0, omega_m=1e6, lambda_kerr=1.0, temp=-1.0)

    def test_engineered_params_hit_targets(self):
        lp = params_for(0.9, 0.05, gamma_tau=1e-4)
        assert abs(lp.xi - 0.9) < 1e-12
        assert abs(lp.kappa * lp.tau_kerr - 0.05) < 1e-12
        assert abs(lp.gamma * lp.tau_kerr - 1e-4) < 1e-15


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(TWO_PI * 10e6, 0.0) == 0.0

    def test_high_temperature_limit(self):
        omega = TWO_PI * 10e6
        temp = 100.0 * hbar * omega / k_boltzmann
        n = thermal_occupation(omega, temp)
        classical = k_boltzmann * temp / (hbar * omega)
        assert abs(n - classical) / classical < 0.01

    def test_occupation_fifty_at_millikelvin(self):
        omega = TWO_PI * 10e6
        temp = hbar * omega / (k_boltzmann * math.log(51.0 / 50.0))
        assert 0.020 < temp < 0.030  # tens of millikelvin
        assert abs(thermal_occupation(omega, temp) - 50.0) < 1e-9

    def test_monotone_in_temperature(self):
        omega = TWO_PI * 10e6
        values = [thermal_occupation(omega, t) for t in (0.001, 0.01, 0.1, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("temp", [1e-7, 6e-7, 5e-324])
    def test_vanishing_occupation_below_the_float_range(self, temp):
        # exp(hbar*omega/(k*T)) overflows below ~6.8e-7 K at 10 MHz, and k*T underflows at 5e-324 K.
        assert thermal_occupation(TWO_PI * 10e6, temp) == 0.0

    def test_unchanged_just_inside_the_float_range(self):
        omega, temp = TWO_PI * 10e6, 7e-7
        assert thermal_occupation(omega, temp) == 1.0 / math.expm1(hbar * omega / (k_boltzmann * temp)) > 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(1e6, -0.1)


class TestMomentumKickStats:
    def test_zero_force_zero_temp_matches_closed_form(self):
        lp = reference_params()
        stats = momentum_kick_stats(lambda s: 0.0, lp)
        assert stats.mean == 0.0
        omega, nu, t = lp.omega_m, lp.nu, lp.T_swap
        closed = (
            t / 4.0
            + math.sin(2.0 * omega * t) / (8.0 * omega)
            - (
                math.sin(2.0 * (omega + nu) * t) / (2.0 * (omega + nu))
                + math.sin(2.0 * (omega - nu) * t) / (2.0 * (omega - nu))
            )
            / 8.0
        )
        assert abs(stats.variance - closed) / closed < 1e-8
        assert abs(stats.variance - t / 4.0) / (t / 4.0) < 0.03

    def test_resonant_force_accumulates(self):
        lp = reference_params()
        f0 = 2.0
        stats = momentum_kick_stats(lambda s: f0 * math.cos(lp.omega_m * s), lp)
        assert abs(stats.mean - f0 / lp.nu) / (f0 / lp.nu) < 0.02

    def test_constant_force_over_integer_periods_cancels(self):
        # Swap duration arranged to be exactly ten mechanical periods.
        omega = TWO_PI * 10e6
        lp = LossParams(kappa=0.0, gamma=0.0, g=omega / 20.0, omega_m=omega, lambda_kerr=TWO_PI * 7e6)
        assert abs(lp.T_swap - 10.0 * TWO_PI / omega) < 1e-18
        f0 = 3.0
        stats = momentum_kick_stats(lambda s: f0, lp)
        assert abs(stats.mean) < 0.01 * f0 * lp.T_swap

    def test_variance_linear_in_noise_strength(self):
        omega = TWO_PI * 10e6
        t1 = hbar * omega / (k_boltzmann * math.log(51.0 / 50.0))
        cold = momentum_kick_stats(lambda s: 0.0, reference_params())
        hot = momentum_kick_stats(lambda s: 0.0, reference_params(temp=t1))
        ratio = hot.variance / cold.variance
        assert abs(ratio - 101.0) < 1e-9

    def test_thermal_kick_scale_at_occupation_fifty(self):
        omega = TWO_PI * 10e6
        t1 = hbar * omega / (k_boltzmann * math.log(51.0 / 50.0))
        stats = momentum_kick_stats(lambda s: 0.0, reference_params(temp=t1))
        assert 4e-3 < stats.std < 6e-3

    def test_invalid_stats_rejected(self):
        with pytest.raises(ValueError):
            KickStats(mean=0.0, variance=-1e-12)
        with pytest.raises(ValueError):
            KickStats(mean=float("nan"), variance=1.0)

    @pytest.mark.parametrize(
        "g, omega_m",
        [(500e3, 10e6), (27e3, 10e6), (60e3, 0.2e6), (3e6, 1e6), (3e6, 30e6)],
    )
    def test_variance_filter_matches_quadrature(self, g, omega_m):
        # Measured: within 4.4e-15 relative of the adaptive quadrature wherever it converges.
        lp = dataclasses.replace(reference_params(temp=0.05), g=TWO_PI * g, omega_m=TWO_PI * omega_m)

        def integrand(s: float) -> float:
            return (math.sin(lp.nu * s) * math.cos(lp.omega_m * s)) ** 2

        filtered, *_ = quad(integrand, 0.0, lp.T_swap, limit=800, epsabs=1e-14, epsrel=1e-11)
        variance = momentum_kick_stats(lambda s: 0.0, lp).variance
        assert abs(variance - (2.0 * lp.n_bar + 1.0) * filtered) <= 1e-14 * variance

    def test_variance_filter_at_equal_swap_and_mechanical_frequencies(self):
        lp = LossParams(kappa=0.0, gamma=0.0, g=1e6, omega_m=1e6, lambda_kerr=1.0)
        assert lp.nu == lp.omega_m
        # sin^2(w s) cos^2(w s) = (1 - cos 4 w s) / 8 integrates to T/8 over T = pi/w.
        variance = momentum_kick_stats(lambda s: 0.0, lp).variance
        assert abs(variance - lp.T_swap / 8.0) <= 1e-15 * variance

    @pytest.mark.parametrize("g", [26e3, 25.5e3])
    def test_many_period_swap_converges(self, g):
        # Near the overdamped edge the swap lasts ~700+ mechanical periods; the
        # mean integral needs more than 800 subdivisions there.
        lp = dataclasses.replace(reference_params(), g=TWO_PI * g)
        f0 = 2.0
        stats = momentum_kick_stats(lambda s: f0 * math.cos(lp.omega_m * s), lp)
        assert abs(stats.mean - f0 / lp.nu) / (f0 / lp.nu) < 0.02

    def test_non_converging_integral_raises(self):
        # A force ~ 1/s^2 makes the mean integrand ~ nu/s near s = 0, whose
        # integral diverges: quadrature must fail loudly, not return a number.
        with pytest.raises(RuntimeError, match="did not converge"):
            momentum_kick_stats(lambda s: 1.0 / s**2, reference_params())


class TestLossChannel:
    def test_lossless_no_kick_is_identity(self):
        lp = no_loss_params()
        channel = loss_channel(lp, 0.0, 8)
        assert np.max(np.abs(channel.entries - np.eye(64))) < 1e-12

    def test_amplitude_damping_on_coherent_input(self):
        lp = params_for(0.9, 0.02)
        N = 24
        channel = loss_channel(lp, 0.0, N)
        vac = np.zeros(N)
        vac[0] = 1.0
        out = channel.entries @ np.kron(coherent_state(1.5, N).amplitudes, vac)
        psi2 = out.reshape(N, N)
        rho_sys = psi2 @ psi2.conj().T
        target = coherent_state(1.35, N).amplitudes
        assert abs(np.real(target.conj() @ rho_sys @ target)) > 1.0 - 1e-8

    def test_kick_displaces_by_plus_i_delta(self):
        lp = no_loss_params()
        N = 24
        channel = loss_channel(lp, 0.2, N)
        vac = np.zeros(N)
        vac[0] = 1.0
        out = channel.entries @ np.kron(coherent_state(1.0, N).amplitudes, vac)
        psi2 = out.reshape(N, N)
        rho_sys = psi2 @ psi2.conj().T
        target = coherent_state(1.0 + 0.2j, N).amplitudes
        assert abs(np.real(target.conj() @ rho_sys @ target)) > 1.0 - 1e-8

    def test_energy_transmissivity_is_xi_squared(self):
        lp = params_for(0.9, 0.02)
        N = 24
        channel = loss_channel(lp, 0.0, N)
        vac = np.zeros(N)
        vac[0] = 1.0
        out = channel.entries @ np.kron(coherent_state(1.5, N).amplitudes, vac)
        probs_sys = np.sum(np.abs(out.reshape(N, N)) ** 2, axis=1)
        n_mean = float(np.arange(N) @ probs_sys)
        assert abs(n_mean - lp.xi**2 * 2.25) < 1e-9

    def test_unitary_on_two_mode_space(self):
        lp = params_for(0.9, 0.02)
        channel = loss_channel(lp, 0.1, 10)
        product = channel.dagger @ channel
        assert np.max(np.abs(product.entries - np.eye(100))) < 1e-9

    def test_dimension_bound_enforced(self):
        with pytest.raises(ValueError):
            loss_channel(no_loss_params(), 0.0, 33)

    @pytest.mark.parametrize("N", [2, 8, 24])
    @pytest.mark.parametrize("xi_target", [1.0, 0.9, 0.6])
    @pytest.mark.parametrize("delta_prime", [0.0, 0.2])
    def test_matches_dense_construction(self, N, xi_target, delta_prime):
        lp = params_for(xi_target, 0.05) if xi_target < 1.0 else no_loss_params()
        channel = loss_channel(lp, delta_prime, N)
        assert np.max(np.abs((channel.dagger @ channel).entries - np.eye(N * N))) < 1e-12
        reference = dense_loss_channel(lp, delta_prime, N)
        assert np.max(np.abs(channel.entries - reference)) < 1e-12

    @pytest.mark.parametrize("N", [2, 8, 24])
    def test_splitter_conserves_total_photon_number(self, N):
        splitter = _beam_splitter(math.acos(0.6), N)
        levels = np.arange(N * N)
        total = levels // N + levels % N
        off_block = total[:, np.newaxis] != total[np.newaxis, :]
        assert np.all(splitter[off_block] == 0.0)
        assert np.any(splitter[~off_block] != 0.0)


class TestLossyKerrPropagator:
    def test_lossless_limit_equals_kerr_unitary(self):
        lp = no_loss_params()
        w = no_emission_diagonal(math.pi / 2.0, lp, 16)
        u = kerr_unitary(math.pi / 2.0, 16)
        assert np.max(np.abs(np.diag(w) - u.entries)) < 1e-12
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-15

    def test_contraction_on_random_states(self):
        lp = params_for(0.9, 0.05)
        w = no_emission_diagonal(math.pi / 2.0, lp, 20)
        assert np.all(np.abs(w) <= 1.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            raw = rng.normal(size=20) + 1j * rng.normal(size=20)
            psi = FockVector(raw / np.linalg.norm(raw))
            assert FockVector(w * psi.amplitudes).norm <= 1.0 + 1e-12

    def test_no_emission_probability_closed_form(self):
        lp = params_for(0.95, 0.01)
        alpha = 1.5
        w = no_emission_diagonal(math.pi / 2.0, lp, 38)
        p0 = FockVector(w * coherent_state(alpha, 38).amplitudes).norm ** 2
        kt = lp.kappa * lp.tau_kerr
        exact = math.exp(-alpha * alpha * (1.0 - math.exp(-kt)))
        assert abs(p0 - exact) < 1e-10
        # Small-loss budget: one stage stays within a few percent of 1 - P,
        # where P covers both stages.
        small_loss = 1.0 - 2.0 * kt * alpha * alpha
        assert abs(p0 - small_loss) / small_loss < 0.05


class TestSingleEmissionState:
    def test_lossless_emission_at_start_is_kerr_evolution(self):
        lp = no_loss_params()
        alpha0 = 1.5
        state, weight = single_emission_state(0.0, math.pi / 2.0, alpha0, lp, 38)
        N = state.dim
        target = kerr_unitary(math.pi / 2.0, N) @ coherent_state(alpha0, N)
        assert fidelity(state, target) > 1.0 - 1e-12
        assert abs(weight - alpha0**2) < 1e-9

    def test_rejects_bad_times_and_vacuum(self):
        lp = reference_params()
        with pytest.raises(ValueError):
            single_emission_state(-1e-9, math.pi / 2.0, 1.5, lp, 24)
        with pytest.raises(ValueError):
            single_emission_state(lp.tau_kerr * 1.01, math.pi / 2.0, 1.5, lp, 24)
        with pytest.raises(ValueError):
            single_emission_state(0.0, math.pi / 2.0, 0.0, lp, 24)

    def test_trajectory_completeness(self):
        # No-emission probability plus the integrated single-emission weight
        # accounts for all but the second-order emissions (< 1%) at
        # kappa*tau*alpha^2 = 0.1.
        alpha = 1.5
        lp = params_for(0.9, 0.1 / alpha**2)
        N = 38
        w = no_emission_diagonal(math.pi / 2.0, lp, N)
        p0 = FockVector(w * coherent_state(alpha, N).amplitudes).norm ** 2
        times = np.linspace(0.0, lp.tau_kerr, 81)
        weights = [single_emission_state(t, math.pi / 2.0, alpha, lp, N)[1] for t in times]
        p1 = lp.kappa * float(np.trapezoid(weights, times))
        total = p0 + p1
        assert total < 1.0 + 1e-12
        assert abs(total - 1.0) < 0.01


class TestTrajectoryMatchesDense:
    @pytest.mark.parametrize("alpha0, N", [(0.8, 16), (1.5 + 0.3j, 24), (2.0, 38)])
    @pytest.mark.parametrize("emit_frac", [None, 0.0, 0.35, 1.0])
    def test_amplitudes(self, alpha0, N, emit_frac):
        for lp in (no_loss_params(), params_for(0.9, 0.05), params_for(0.6, 0.05)):
            t_emit = None if emit_frac is None else emit_frac * lp.tau_kerr
            for delta_prime in (0.0, 0.2, -0.3):
                got = run_lossy_trajectory(alpha0, delta_prime, lp, t_emit=t_emit, N=N).amplitudes
                want = dense_trajectory(alpha0, delta_prime, lp, t_emit, N)
                assert np.max(np.abs(got - want)) < 1e-12


class TestTrajectoryPeaks:
    def test_no_emission_single_peak_at_contracted_amplitude(self):
        # Two forward quarter-period stages compose to an amplitude flip, so
        # the zero-kick no-emission trajectory ends in a single coherent peak
        # at minus the contracted amplitude.
        for lp, alpha in ((reference_params(), 1.5), (params_for(0.9, 0.05), 1.0)):
            target = lp.xi * lp.eta**2 * alpha
            psi = run_lossy_trajectory(alpha, 0.0, lp)
            dist = quadrature_distribution(psi)
            peak = peak_location(psi, -1)
            assert abs(abs(peak) - target) / target < 0.02, lp.xi
            assert abs(dist.mean_X + target) < 1e-9
            assert dist.prob_X_positive < 0.05

    def test_emission_time_rotates_the_peak(self):
        # A single emission at time t' inside the first Kerr stage rotates
        # the surviving amplitude: the conditional mean lands exactly at
        # -xi*eta^2*alpha*cos(2*lambda*t'), sweeping from one peak to the
        # other as t' crosses the stage.
        for lp, alpha in ((reference_params(), 1.5), (params_for(0.9, 0.05), 1.0)):
            target = lp.xi * lp.eta**2 * alpha
            for frac in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
                psi = run_lossy_trajectory(alpha, 0.0, lp, t_emit=frac * lp.tau_kerr)
                dist = quadrature_distribution(psi)
                expect = -target * math.cos(math.pi * frac)
                assert abs(dist.mean_X - expect) < 1e-12, (lp.xi, frac)
                if frac != 0.5:
                    x, p = dist.density[:, 0], dist.density[:, 1]
                    assert abs(float(x[np.argmax(p)]) - expect) < 0.01, (lp.xi, frac)

    def test_boundary_emission_keeps_peak_near_contracted_amplitude(self):
        lp = reference_params()
        alpha = 1.5
        target = lp.xi * lp.eta**2 * alpha
        for t_frac in (0.0, 0.1):
            psi = run_lossy_trajectory(alpha, 0.0, lp, t_emit=t_frac * lp.tau_kerr)
            mean = quadrature_distribution(psi).mean_X
            assert abs(abs(mean) - target) / target < 0.10, t_frac

    def test_emission_time_average_dephases_the_signal(self):
        # Averaged over the (nearly uniform) emission time, the rotated
        # single-emission states smear into a broad plateau: no sharp peak
        # survives and the mixture mean collapses toward zero. This is the
        # dephasing mechanism that turns emission shots into fair coins.
        lp = reference_params()
        alpha = 1.5
        target = lp.xi * lp.eta**2 * alpha
        times = np.linspace(0.0, lp.tau_kerr, 41)
        total = None
        grid = None
        mean_acc = 0.0
        weight_acc = 0.0
        for t in times:
            _, weight = single_emission_state(float(t), math.pi / 2.0, alpha, lp)
            psi = run_lossy_trajectory(alpha, 0.0, lp, t_emit=float(t))
            dist = quadrature_distribution(psi)
            if total is None:
                grid = dist.density[:, 0]
                total = weight * dist.density[:, 1]
            else:
                total += weight * dist.density[:, 1]
            mean_acc += weight * dist.mean_X
            weight_acc += weight
        total /= weight_acc
        no_emission_height = quadrature_distribution(
            run_lossy_trajectory(alpha, 0.0, lp)
        ).density[:, 1].max()
        assert total.max() < 0.7 * no_emission_height
        assert abs(mean_acc / weight_acc) < 0.05 * target

    def test_mid_stage_emission_moves_peak_inward(self):
        lp = reference_params()
        psi = run_lossy_trajectory(1.5, 0.0, lp, t_emit=0.25 * lp.tau_kerr)
        dist = quadrature_distribution(psi)
        x, p = dist.density[:, 0], dist.density[:, 1]
        peak = abs(float(x[np.argmax(p)]))
        assert peak < 0.9 * lp.xi * lp.eta**2 * 1.5


class TestMeanXLossy:
    def test_zero_kick_value_is_contracted_amplitude(self):
        for lp in (reference_params(), params_for(0.9, 0.05)):
            for alpha in (1.0, 1.5):
                want = -lp.xi * lp.eta**2 * alpha
                assert abs(mean_X_lossy(alpha, 0.0, lp) - want) < 1e-14

    def test_matches_two_mode_pipeline(self):
        # The closed form is the exact conditional mean: it agrees with the
        # brute-force two-mode model to 1.6e-15 (measured), far below the 2e-2
        # modeling tolerance of acceptance criterion 07.
        alpha = 1.5
        for xi_target in (1.0, 0.95, 0.9):
            lp = params_for(xi_target, 0.05, gamma_tau=1e-4) if xi_target < 1.0 else no_loss_params()
            for delta_prime in (0.0, 0.02, 0.05):
                analytic = mean_X_lossy(alpha, delta_prime, lp)
                brute = two_mode_conditional_mean(alpha, delta_prime, lp)
                assert abs(analytic - brute) < 1e-13, (xi_target, delta_prime)

    def test_lossless_limit_mirrors_ideal_magnitude(self):
        lp = no_loss_params()
        assert abs(abs(mean_X_lossy(2.0, 0.0, lp)) - 2.0) < 1e-14

    def test_warns_on_large_stage_loss(self):
        lp = params_for(0.9, 0.4)
        with pytest.warns(UserWarning, match="weak-loss"):
            mean_X_lossy(1.0, 0.0, lp)

    def test_linearized_value_and_no_loss_slope(self):
        lp = reference_params()
        eta, xi = lp.eta, lp.xi
        want = -xi * eta**2 * 1.5 * (4.0 * eta**2 * 1.5 * 0.01) - eta * 0.01
        assert abs(mean_X_lossy_linearized(1.5, 0.01, lp) - want) < 1e-15
        # Structural check at vanishing loss: the linearized slope magnitude
        # 4*alpha^2 + 1 tracks the exact slope at the offset within 10%.
        lp0 = no_loss_params()
        alpha = 3.0
        off = lossy_offset(alpha, lp0)
        h = 1e-5
        exact = (mean_X_lossy(alpha, off + h, lp0) - mean_X_lossy(alpha, off - h, lp0)) / (2.0 * h)
        lin = (mean_X_lossy_linearized(alpha, h, lp0) - mean_X_lossy_linearized(alpha, -h, lp0)) / (2.0 * h)
        assert abs(lin / exact - 1.0) < 0.10
        assert exact < 0.0 and lin < 0.0


class TestLossyOffset:
    def test_lossless_value(self):
        assert abs(lossy_offset(2.0, no_loss_params()) + math.pi / 16.0) < 1e-15

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            lossy_offset(0.0, reference_params())

    def test_rejects_vanished_kerr_stage_survival(self):
        # At lambda/2pi = 50 Hz and the reference kappa, eta = exp(-kappa*tau/2) underflows to 0.
        lp = dataclasses.replace(reference_params(), lambda_kerr=TWO_PI * 50.0)
        assert lp.eta == 0.0
        with pytest.raises(ValueError, match="offset is undefined"):
            lossy_offset(1.5, lp)

    @pytest.mark.parametrize("alpha", [0.1, 0.2])
    def test_small_amplitude_trajectory_matches_closed_form(self, alpha):
        # The offset is a kick of ~2-5 here, so the default space must be sized for it.
        lp = reference_params()
        off = lossy_offset(alpha, lp)
        got = quadrature_distribution(run_lossy_trajectory(alpha, off, lp)).mean_X
        assert abs(got - mean_X_lossy(alpha, off, lp)) < 1e-12

    def test_offset_makes_zero_force_coin_fair(self):
        lp = reference_params()
        alpha = 1.5
        psi = run_lossy_trajectory(alpha, lossy_offset(alpha, lp), lp)
        p = quadrature_distribution(psi).prob_X_positive
        assert abs(p - 0.5) < 0.005

    def test_small_loss_continuous_with_lossless_value(self):
        lp = params_for(1.0 - 1e-6, 1e-6)
        assert abs(lossy_offset(2.0, lp) + math.pi / 16.0) < 1e-4


class TestEmissionProbability:
    def test_reference_rates_give_ten_percent(self):
        assert abs(emission_probability(1.5, reference_params()) - 0.101) < 1e-3

    def test_zero_loss_gives_zero(self):
        assert emission_probability(1.5, no_loss_params()) == 0.0

    def test_equals_two_stage_small_loss_form(self):
        lp = reference_params()
        p = emission_probability(1.5, lp)
        assert abs(p - 2.0 * lp.kappa * lp.tau_kerr * 2.25) < 1e-12

    def test_warns_above_half(self):
        with pytest.warns(UserWarning, match="emission probability"):
            emission_probability(4.0, reference_params())


class TestFullSignal:
    def test_lossless_limit(self):
        lp = no_loss_params()
        want = 2.0 * 2.0 * (1.0 + 1.0 / 16.0) * 0.01
        assert abs(full_signal(2.0, 0.01, lp) - want) < 1e-15

    def test_reference_rates_near_three_percent(self):
        s = full_signal(1.5, 0.01, reference_params())
        assert abs(s - 0.03) < 2e-3

    def test_loss_reduces_the_signal(self):
        ideal = full_signal(1.5, 0.01, no_loss_params())
        lossy = full_signal(1.5, 0.01, reference_params())
        assert 0.0 < lossy < ideal

    def test_linear_in_kick(self):
        lp = reference_params()
        assert abs(full_signal(1.5, 0.02, lp) - 2.0 * full_signal(1.5, 0.01, lp)) < 1e-15
