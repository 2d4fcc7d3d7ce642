"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import math

from kerrcat.loss import LossParams, reference_loss_params

TWO_PI = 2.0 * math.pi


def reference_params(temp: float = 0.0) -> LossParams:
    """Loss parameters at the demonstrated hardware rates."""
    return dataclasses.replace(reference_loss_params(), temp=temp)


def no_loss_params() -> LossParams:
    """Loss parameters with no loss at all (``xi = eta = 1``)."""
    return LossParams(kappa=0.0, gamma=0.0, g=1.0, omega_m=1e6, lambda_kerr=1.0)


def params_for(
    xi_target: float,
    kappa_tau: float,
    gamma_tau: float = 0.0,
    g: float = TWO_PI * 500e3,
    temp: float = 0.0,
) -> LossParams:
    """Loss parameters hitting exact targets for xi, kappa*tau, gamma*tau.

    Solves Gamma = c*g/sqrt(pi^2 + c^2) with c = -ln(xi_target), which makes
    Gamma*T_swap = c exactly, then splits kappa + gamma = 4*Gamma in the
    requested ratio and picks the Kerr rate so kappa*tau_kerr matches.
    """
    c = -math.log(xi_target)
    big_gamma = c * g / math.sqrt(math.pi**2 + c**2)
    kappa = 4.0 * big_gamma / (1.0 + gamma_tau / kappa_tau)
    gamma = 4.0 * big_gamma - kappa
    tau = kappa_tau / kappa
    lam = math.pi / (2.0 * tau)
    return LossParams(
        kappa=kappa, gamma=gamma, g=g, omega_m=TWO_PI * 10e6, lambda_kerr=lam, temp=temp
    )
