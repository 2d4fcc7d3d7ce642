"""Acceptance gate: every capability criterion, one test each, pinned tolerances.

Each test states its claim, its tolerance, and its budget in one place so a
``pytest -v`` run of this module reads as a pass/fail checklist for the
package. Statistical criteria use pinned seeds (the shot engine is
deterministic by construction), with margins sized so a pass is typical
physics, not a lucky draw.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from _support import TWO_PI, no_loss_params, params_for, reference_params
from kerrcat.cli import main as cli_main
from kerrcat.fock import (
    coherent_state,
    default_truncation,
    fidelity,
    kerr_unitary,
    mean_quadrature,
    quadrature_distribution,
)
from kerrcat.loss import (
    ForceSpec,
    LossParams,
    emission_probability,
    mean_X_lossy,
    momentum_kick_stats,
    run_lossy_trajectory,
    two_mode_conditional_mean,
)
from kerrcat.montecarlo import ExperimentConfig, sweep
from kerrcat.protocol import (
    ProtocolParams,
    branch_phase_shift,
    cat_state,
    mean_X_ideal,
    run_ideal,
)


def _linear_fit(x, y):
    """Least-squares slope and its centered design norm sqrt(sum (x-xbar)^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    slope = float(dx @ (y - y.mean()) / (dx @ dx))
    return slope, math.sqrt(float(dx @ dx))


def test_criterion_01_ideal_mean_matches_brute_force():
    # Closed-form mean of X after the full ideal pipeline vs the truncated
    # number-basis simulation: |diff| < 1e-6 over a 4x4 grid, under 10 s.
    start = time.monotonic()
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for delta in (0.0, 0.01, 0.05, 0.1):
            brute = mean_quadrature(run_ideal(ProtocolParams(alpha0=alpha, delta=delta)))
            assert abs(mean_X_ideal(alpha, delta) - brute) < 1e-6, (alpha, delta)
    assert time.monotonic() - start < 10.0


def test_criterion_02_quarter_period_builds_the_superposition():
    # The quarter-period nonlinear stage turns |alpha> into the balanced
    # two-component superposition with fidelity above 1 - 1e-8.
    for alpha in (1.0, 2.0, 3.0):
        N = default_truncation(alpha)
        evolved = kerr_unitary(math.pi / 2.0, N) @ coherent_state(alpha, N)
        assert fidelity(evolved, cat_state(alpha, N)) > 1.0 - 1e-8, alpha


def test_criterion_03_branch_phase_law():
    # The kick imprints a relative phase 2*delta*alpha between the two
    # branches, exact within 1e-6 across the working range.
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for delta in (0.01, 0.05, 0.1):
            assert abs(branch_phase_shift(alpha, delta) - 2.0 * delta * alpha) < 1e-6


def test_criterion_04_signal_slope_at_the_working_point():
    # Monte Carlo regression of S on delta at alpha=2 (offset applied,
    # M=1e5 per cell) reproduces the linearized slope magnitude
    # 2*alpha*(1 - 1/(4*alpha^2)) = 3.75 within 3 combined sigma, under 60 s.
    start = time.monotonic()
    base = ExperimentConfig(
        protocol=ProtocolParams(alpha0=2.0, delta=0.0, apply_offset=True),
        shots=100_000,
        seed=0,
    )
    deltas = [-0.02, -0.01, 0.0, 0.01, 0.02]
    rows = sweep("delta", deltas, base)
    slope, design_norm = _linear_fit(deltas, [row.estimate.S for row in rows])
    sigma_slope = rows[0].estimate.sigma_S / design_norm
    assert abs(abs(slope) - 3.75) < 3.0 * sigma_slope, (slope, sigma_slope)
    assert time.monotonic() - start < 60.0


def test_criterion_05_signal_grows_linearly_with_alpha():
    # Sweeping alpha in {1..3} at fixed delta = 0.05, the per-unit-kick
    # signal magnitude |S|/delta is linear in alpha with slope 2.0 +/- 0.2.
    delta = 0.05
    base = ExperimentConfig(
        protocol=ProtocolParams(alpha0=1.0, delta=delta, apply_offset=True),
        shots=100_000,
        seed=0,
    )
    alphas = [1.0, 1.5, 2.0, 2.5, 3.0]
    rows = sweep("alpha", alphas, base)
    ratios = [abs(row.estimate.S) / delta for row in rows]
    slope, _ = _linear_fit(alphas, ratios)
    assert 1.8 <= slope <= 2.2, slope


def test_criterion_06_emission_probability_at_rate_ratio_70():
    # At alpha=1.5 with the nonlinear rate 70x the electrical loss rate the
    # emission probability is 0.101 +/- 0.001.
    lp = reference_params()
    assert lp.lambda_kerr / lp.kappa == pytest.approx(70.0, rel=1e-12)
    assert abs(emission_probability(1.5, lp) - 0.101) < 0.001


def test_criterion_07_lossy_mean_matches_two_mode_brute_force():
    # Closed-form lossy mean vs the full two-mode (system x auxiliary)
    # simulation: |diff| < 2e-2 for xi >= 0.9, alpha <= 1.5, kick <= 0.05,
    # at 24 levels per mode, under 120 s.
    start = time.monotonic()
    for xi_target in (0.9, 0.95, 1.0):
        lp = params_for(xi_target, 0.05, gamma_tau=1e-4) if xi_target < 1.0 else no_loss_params()
        for alpha in (1.0, 1.5):
            for delta_prime in (0.0, 0.02, 0.05):
                analytic = mean_X_lossy(alpha, delta_prime, lp)
                brute = two_mode_conditional_mean(alpha, delta_prime, lp)
                assert abs(analytic - brute) < 2e-2, (xi_target, alpha, delta_prime)
    assert time.monotonic() - start < 120.0


def test_criterion_08_uniform_emission_time_dephases_the_signal():
    # A single emission at uniformly distributed time rotates the surviving
    # amplitude through a full half-turn, so emission shots average to a
    # fair coin: over 1e4 sampled trajectories |mean signal| < 3 sigma.
    lp = reference_params()
    alpha = 1.5
    shots = 10_000
    grid = np.linspace(0.0, lp.tau_kerr, 201)
    p_grid = np.array(
        [
            quadrature_distribution(
                run_lossy_trajectory(alpha, 0.0, lp, t_emit=float(t))
            ).prob_X_positive
            for t in grid
        ]
    )
    rng = np.random.Generator(np.random.Philox(key=[2024, 8]))
    t_samples = rng.random(shots) * lp.tau_kerr
    p_samples = np.interp(t_samples, grid, p_grid)
    heads = rng.random(shots) < p_samples
    signal = np.count_nonzero(heads) / shots - 0.5
    sigma = 1.0 / math.sqrt(4.0 * shots)
    assert abs(signal) < 3.0 * sigma, signal
    # the underlying bias itself is a small fraction of sigma
    assert abs(float(p_samples.mean()) - 0.5) < 0.01


def test_criterion_09_shot_noise_matches_the_binomial_formula():
    # The empirical spread of S over 200 replicates at M = 1e4 matches the
    # fair-coin shot-noise formula 1/sqrt(4M) within 10%.
    base = ExperimentConfig(
        protocol=ProtocolParams(alpha0=2.0, delta=0.01, apply_offset=True),
        shots=10_000,
        seed=0,
    )
    from kerrcat.montecarlo import run_experiment

    values = [
        run_experiment(dataclasses.replace(base, seed=1000 + i)).S for i in range(200)
    ]
    expected = 1.0 / math.sqrt(4.0 * base.shots)
    spread = float(np.std(values))
    assert abs(spread - expected) / expected < 0.10, spread


def test_criterion_10_parameter_table_reproduces_loss_budget():
    # The params command derives a mechanical decoherence budget of order
    # 1e-4 and a transfer loss exponent in [0.1, 0.3] from the reference
    # hardware rates.
    result = CliRunner().invoke(cli_main, ["params"])
    assert result.exit_code == 0, result.output
    rows = {}
    for line in result.output.strip().splitlines():
        parts = line.split()
        if len(parts) >= 2:
            rows[parts[0]] = float(parts[1])
    gamma_t = rows["gamma*T_swap"]
    assert 10.0**-4.5 < gamma_t < 10.0**-3.5, gamma_t
    assert 0.1 <= rows["Gamma*T_swap"] <= 0.3


def test_criterion_11_swap_filter_rejects_constant_force():
    # Over an exactly integer number of mechanical periods the transfer
    # stage filters a constant force to below 1% of the response to a
    # resonant force of equal amplitude.
    g = TWO_PI * 500e3
    lp = LossParams(
        kappa=0.0, gamma=0.0, g=g, omega_m=20.0 * g, lambda_kerr=TWO_PI * 7e6, temp=0.0
    )
    # T_swap = pi/nu = pi/g and the mechanical period is 2*pi/(20 g):
    # exactly 10 periods fit in the transfer window.
    assert lp.omega_m * lp.T_swap / (2.0 * math.pi) == pytest.approx(10.0, rel=1e-12)
    f0 = 1000.0
    mean_const = momentum_kick_stats(ForceSpec(shape="constant", amplitude=f0), lp).mean
    mean_resonant = momentum_kick_stats(ForceSpec(shape="resonant-cosine", amplitude=f0), lp).mean
    assert abs(mean_const) < 0.01 * abs(mean_resonant), (mean_const, mean_resonant)
