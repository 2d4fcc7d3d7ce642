"""The analytic-vs-numeric check suite behind ``kerrcat validate``.

Each row pairs a closed form from :mod:`kerrcat.protocol` or
:mod:`kerrcat.loss` with the same quantity computed by the number-basis
(Fock) brute force, together with the tolerance the pair is expected to meet.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from kerrcat.fock import (
    FockVector,
    coherent_state,
    default_truncation,
    fidelity,
    force_kick,
    kerr_unitary,
    mean_quadrature,
    quadrature_distribution,
)
from kerrcat.loss import (
    LossParams,
    emission_probability,
    mean_X_lossy,
    momentum_kick_stats,
    no_emission_diagonal,
    run_lossy_trajectory,
    two_mode_conditional_mean,
)
from kerrcat.montecarlo import ExperimentConfig
from kerrcat.protocol import ProtocolParams, branch_phase_shift, cat_state, mean_X_ideal, run_ideal

__all__ = ["CheckRow", "validation_rows"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    analytic: float
    numeric: float
    tolerance: float

    @property
    def diff(self) -> float:
        return abs(self.analytic - self.numeric)

    @property
    def passed(self) -> bool:
        return self.diff <= self.tolerance


def _ideal_rows(config: ExperimentConfig) -> list[CheckRow]:
    rows = []
    alphas = [1.0, 1.5, 2.0, 2.5]
    cfg_alpha = config.protocol.alpha
    if 0.5 <= cfg_alpha <= 3.0 and cfg_alpha not in alphas:
        alphas.append(cfg_alpha)
    for alpha in alphas:
        for delta in (-0.1, -0.03, 0.0, 0.03, 0.1):
            numeric = mean_quadrature(run_ideal(ProtocolParams(alpha0=alpha, delta=delta)))
            rows.append(
                CheckRow(
                    name=f"mean_X alpha={alpha:g} delta={delta:g}",
                    analytic=mean_X_ideal(alpha, delta),
                    numeric=numeric,
                    tolerance=1e-12,
                )
            )
    N = default_truncation(2.0)
    evolved = kerr_unitary(math.pi / 2.0, N) @ coherent_state(2.0, N)
    rows.append(
        CheckRow(
            name="cat_fidelity alpha=2",
            analytic=1.0,
            numeric=fidelity(evolved, cat_state(2.0, N)),
            tolerance=1e-12,
        )
    )
    rows.append(
        CheckRow(
            name="branch_phase alpha=2 delta=0.05",
            analytic=0.2,
            numeric=branch_phase_shift(2.0, 0.05),
            tolerance=1e-12,
        )
    )
    N1 = default_truncation(1.0)
    kicked = force_kick(0.3, N1) @ coherent_state(1.0, N1)
    closed = FockVector(coherent_state(1.0 - 0.3j, N1).amplitudes * complex(math.cos(0.3), -math.sin(0.3)))
    rows.append(
        CheckRow(
            name="kick_action alpha=1 delta=0.3",
            analytic=0.0,
            numeric=float(np.max(np.abs(kicked.amplitudes - closed.amplitudes))),
            tolerance=1e-12,
        )
    )
    psi = run_ideal(ProtocolParams(alpha0=2.0, delta=0.05))
    x, density = quadrature_distribution(psi).density.T
    rows.append(
        CheckRow(
            name="quadrature_consistency alpha=2 delta=0.05",
            analytic=mean_quadrature(psi),
            numeric=float(np.trapezoid(x * density, x)),
            tolerance=1e-12,
        )
    )
    return rows


def _kick_variance_by_quadrature(lp: LossParams) -> float:
    """``(2*n_bar + 1) * INT_0^{T_swap} sin^2(nu*s) * cos^2(omega*s) ds`` by quadrature.

    With ``cos^2(omega*s) = (1 + cos(2*omega*s))/2`` the filter is ``h(s)``
    plus ``h(s)*cos(2*omega*s)``, ``h(s) = sin^2(nu*s)/2``; the second term
    goes to QUADPACK's oscillatory-weight rule (QAWO). A quadrature that
    reports non-convergence gives NaN, so the row fails.
    """
    from scipy.integrate import quad

    def h(s: float) -> float:
        return 0.5 * math.sin(lp.nu * s) ** 2

    total = 0.0
    for weight in ({}, {"weight": "cos", "wvar": 2.0 * lp.omega_m}):
        value, _, _, *message = quad(h, 0.0, lp.T_swap, full_output=1, epsabs=1e-14, epsrel=1e-11, **weight)
        if message:
            return math.nan
        total += value
    return (2.0 * lp.n_bar + 1.0) * total


def _lossy_rows(config: ExperimentConfig) -> list[CheckRow]:
    lp = config.loss
    rows = []
    alpha = min(max(config.protocol.alpha, 0.5), 1.5)
    for delta_prime in (0.0, 0.02):
        rows.append(
            CheckRow(
                name=f"lossy_mean alpha={alpha:g} delta'={delta_prime:g}",
                analytic=mean_X_lossy(alpha, delta_prime, lp),
                numeric=two_mode_conditional_mean(alpha, delta_prime, lp),
                tolerance=1e-12,
            )
        )
    target = lp.xi * lp.eta**2 * alpha
    # The zero-kick no-emission trajectory is the coherent state |-xi*eta^2*alpha>,
    # whose density peaks at its mean.
    rows.append(
        CheckRow(
            name=f"peak_contraction alpha={alpha:g}",
            analytic=target,
            numeric=-mean_quadrature(run_lossy_trajectory(alpha, 0.0, lp)),
            tolerance=1e-12 * target,
        )
    )
    rows.append(
        CheckRow(
            name=f"emission_consistency alpha={alpha:g}",
            analytic=emission_probability(alpha, lp),
            numeric=2.0 * lp.kappa * lp.tau_kerr * alpha * alpha,
            tolerance=1e-12,
        )
    )
    variance = momentum_kick_stats(None, lp).variance
    rows.append(
        CheckRow(
            name="kick_variance zero_force",
            analytic=variance,
            numeric=_kick_variance_by_quadrature(lp),
            tolerance=1e-12 * variance,
        )
    )
    N = default_truncation(alpha)
    w = no_emission_diagonal(math.pi / 2.0, lp, N)
    p0 = float(np.linalg.norm(w * coherent_state(alpha, N).amplitudes)) ** 2
    kt = lp.kappa * lp.tau_kerr
    rows.append(
        CheckRow(
            name=f"no_emission_prob alpha={alpha:g}",
            analytic=math.exp(-alpha * alpha * (1.0 - math.exp(-kt))),
            numeric=p0,
            tolerance=1e-12,
        )
    )
    return rows


def validation_rows(config: ExperimentConfig, tolerance: float | None = None) -> list[CheckRow]:
    """The analytic-vs-numeric check suite for a scenario.

    The ideal rows always run; a scenario with a loss model adds the lossy
    rows. ``tolerance`` replaces every row's own tolerance; it must be finite
    and non-negative.
    """
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance!r}")
    rows = _ideal_rows(config)
    if config.loss is not None:
        rows.extend(_lossy_rows(config))
    if tolerance is not None:
        rows = [dataclasses.replace(row, tolerance=tolerance) for row in rows]
    return rows
