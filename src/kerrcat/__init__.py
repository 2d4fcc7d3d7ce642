"""Desk-scale simulator for cat-state force measurement with Kerr nonlinearities.

The package is organized in six layers:

- :mod:`kerrcat.fock` — truncated-Fock-space linear algebra: states, ladder
  operators, Kerr and displacement propagators, quadrature statistics.
- :mod:`kerrcat.protocol` — the ideal (lossless) measurement pipeline and its
  closed-form expectations, offset linearization, and coin-estimation signal.
- :mod:`kerrcat.loss` — the lossy/thermal model: swap-transfer parameters,
  momentum-kick statistics, two-mode loss channel, non-unitary propagators,
  emission trajectories, and closed-form lossy signals.
- :mod:`kerrcat.montecarlo` — shot-level simulation: thermal kick sampling,
  outcome probabilities (analytic or brute-force engines), experiments,
  and parameter sweeps.
- :mod:`kerrcat.validation` — the analytic-vs-numeric check suite: each
  closed form against the number-basis brute force, with its tolerance.
- :mod:`kerrcat.cli` — the ``kerrcat`` command, I/O only: scenario files,
  command-line overrides, exit codes, and table output.
"""

from kerrcat.fock import (
    FockOperator,
    FockVector,
    QuadratureResult,
    TruncationError,
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
from kerrcat.protocol import (
    PhysicalForce,
    ProtocolParams,
    SignalEstimate,
    branch_phase_shift,
    cat_state,
    force_to_delta,
    mean_X_ideal,
    mean_X_linearized,
    run_ideal,
    shot_errors,
)
from kerrcat.loss import (
    KickStats,
    LossParams,
    OverdampedTransferError,
    emission_probability,
    full_signal,
    loss_channel,
    lossy_kerr_propagator,
    lossy_offset,
    mean_X_lossy,
    mean_X_lossy_linearized,
    momentum_kick_stats,
    reference_loss_params,
    run_lossy_trajectory,
    single_emission_state,
    swap_parameters,
    thermal_occupation,
    two_mode_conditional_mean,
)
from kerrcat.montecarlo import (
    ExperimentConfig,
    ForceSpec,
    coin_bias_from_signal,
    outcome_probability,
    predicted_signal,
    run_experiment,
    sample_kick,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "FockOperator",
    "FockVector",
    "QuadratureResult",
    "TruncationError",
    "coherent_state",
    "default_truncation",
    "fidelity",
    "force_kick",
    "kerr_unitary",
    "ladder_ops",
    "mean_quadrature",
    "prob_quadrature_positive",
    "quadrature_distribution",
    "PhysicalForce",
    "ProtocolParams",
    "SignalEstimate",
    "branch_phase_shift",
    "cat_state",
    "force_to_delta",
    "mean_X_ideal",
    "mean_X_linearized",
    "run_ideal",
    "shot_errors",
    "KickStats",
    "LossParams",
    "OverdampedTransferError",
    "emission_probability",
    "full_signal",
    "loss_channel",
    "lossy_kerr_propagator",
    "lossy_offset",
    "mean_X_lossy",
    "mean_X_lossy_linearized",
    "momentum_kick_stats",
    "reference_loss_params",
    "run_lossy_trajectory",
    "single_emission_state",
    "swap_parameters",
    "thermal_occupation",
    "two_mode_conditional_mean",
    "ExperimentConfig",
    "ForceSpec",
    "coin_bias_from_signal",
    "outcome_probability",
    "predicted_signal",
    "run_experiment",
    "sample_kick",
    "sweep",
    "__version__",
]
