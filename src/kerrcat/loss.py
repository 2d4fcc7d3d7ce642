"""Loss and thermal-noise models for the transfer-based protocol variant.

In this variant the oscillator state is swapped through a lossy electrical
circuit, kicked by the force, and swapped back. The model has three layers:

* **Transfer parameters** — the swap frequency ``nu = sqrt(g^2 - (kappa+gamma)^2/16)``,
  the swap duration ``T_swap = pi/nu``, the amplitude decay ``xi = exp(-Gamma*T_swap)``
  with ``Gamma = (kappa+gamma)/4``, and the per-Kerr-stage amplitude survival
  ``eta = exp(-kappa*tau_kerr/2)`` with ``tau_kerr = pi/(2*lambda_kerr)``.
* **Momentum-kick statistics** — the force and the thermal bath enter as a
  Gaussian kick ``delta_prime`` whose mean is a filtered integral of the force
  over one swap and whose variance is proportional to ``2*n_bar + 1``.
* **Quantum trajectories** — no-emission evolution uses the contraction
  ``W(theta) = kerr_unitary(theta) * exp(-kappa*t*n/2)``; detecting no photon
  in the transfer line is the single-mode contraction ``xi^n`` followed by the
  displacement ``+i*delta_prime``; a single emission inserts the lowering
  operator at the emission time.

Conventions fixed here and relied on everywhere else:

* The full no-emission pipeline is ``W(pi/2)``, then conditional transfer,
  then a second *forward* ``W(pi/2)`` stage. At zero kick the output mean
  quadrature is exactly ``-xi*eta^2*alpha``.
* All closed forms (``mean_X_lossy``) describe the state *conditioned on
  detecting no emitted photon*; unconditional (traced) evolution suppresses
  the interference much more strongly and is not what these formulas model.
* The transfer displacement is ``+i*delta_prime`` (it adds ``+i*delta_prime``
  to a coherent amplitude), opposite in sense to the ideal pipeline's kick.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from kerrcat._coherent import kicked_mean_x, lossy_pipeline
from kerrcat.constants import hbar, k_boltzmann
from kerrcat.fock import (
    FockOperator,
    FockVector,
    apply_kicks,
    coherent_state,
    default_truncation,
    force_kick,
    kicked_truncation,
    mean_quadrature,
    require_finite,
)

__all__ = [
    "LossParams",
    "KickStats",
    "OverdampedTransferError",
    "reference_loss_params",
    "swap_parameters",
    "thermal_occupation",
    "momentum_kick_stats",
    "loss_channel",
    "two_mode_conditional_mean",
    "no_emission_diagonal",
    "single_emission_state",
    "lossy_stages",
    "run_lossy_trajectory",
    "mean_X_lossy",
    "mean_X_lossy_linearized",
    "emission_probability",
    "full_signal",
    "lossy_offset",
]

#: Largest per-mode dimension for which two-mode (N^2 x N^2) operators are
#: considered desk-scale.
MAX_TWO_MODE_DIM = 32


class OverdampedTransferError(ValueError):
    """The transfer is overdamped: ``g <= (kappa+gamma)/4`` gives no swap."""


def swap_parameters(kappa: float, gamma: float, g: float) -> tuple[float, float, float, float]:
    """Derived transfer quantities ``(nu, T_swap, Gamma, xi)``.

    ``nu = sqrt(g^2 - (kappa+gamma)^2/16)`` is the swap frequency,
    ``T_swap = pi/nu`` the duration of one full swap, ``Gamma = (kappa+gamma)/4``
    the amplitude decay rate during the swap, and ``xi = exp(-Gamma*T_swap)``
    the amplitude surviving one swap.

    Raises
    ------
    OverdampedTransferError
        If ``g <= (kappa+gamma)/4`` (no oscillatory swap exists).
    """
    if kappa < 0.0 or gamma < 0.0 or g <= 0.0:
        raise ValueError("kappa and gamma must be non-negative and g positive")
    big_gamma = (kappa + gamma) / 4.0
    if g <= big_gamma:
        raise OverdampedTransferError(
            f"overdamped transfer: g = {g:g} rad/s does not exceed (kappa+gamma)/4 = {big_gamma:g} rad/s"
        )
    nu = math.sqrt(g * g - big_gamma * big_gamma)
    t_swap = math.pi / nu
    xi = math.exp(-big_gamma * t_swap)
    return nu, t_swap, big_gamma, xi


def thermal_occupation(omega_m: float, temp: float) -> float:
    """Bose-Einstein occupation ``1/(exp(hbar*omega/(k*T)) - 1)``.

    ``temp = 0`` returns exactly 0, and so does a temperature so low that
    ``k*T`` underflows or ``exp(hbar*omega/(k*T))`` exceeds the float range
    (there the occupation is below the smallest normal float). Monotone
    increasing in ``temp``.
    """
    if omega_m <= 0.0:
        raise ValueError("omega_m must be strictly positive")
    if temp < 0.0:
        raise ValueError("temperature must be non-negative")
    thermal_energy = k_boltzmann * temp
    if thermal_energy == 0.0:
        return 0.0
    try:
        return 1.0 / math.expm1(hbar * omega_m / thermal_energy)
    except OverflowError:
        return 0.0


@dataclass(frozen=True)
class LossParams:
    """Rates of the lossy transfer model, with derived quantities.

    Attributes
    ----------
    kappa : float
        Combined electrical loss rate (rad/s).
    gamma : float
        Mechanical damping rate (rad/s).
    g : float
        Transfer (swap) coupling rate (rad/s).
    omega_m : float
        Mechanical angular frequency (rad/s).
    lambda_kerr : float
        Kerr rate (rad/s); one Kerr stage lasts ``tau_kerr = pi/(2*lambda_kerr)``.
    temp : float
        Ambient temperature (kelvin).

    Derived (computed once at construction)
    ---------------------------------------
    nu, T_swap, Gamma, xi : swap quantities, see ``swap_parameters``.
    tau_kerr : duration of one Kerr stage (s).
    eta : amplitude surviving one Kerr stage, ``exp(-kappa*tau_kerr/2)``.
    n_bar : thermal occupation at ``(omega_m, temp)``.
    """

    kappa: float
    gamma: float
    g: float
    omega_m: float
    lambda_kerr: float
    temp: float = 0.0
    nu: float = field(init=False)
    T_swap: float = field(init=False)
    Gamma: float = field(init=False)
    xi: float = field(init=False)
    tau_kerr: float = field(init=False)
    eta: float = field(init=False)
    n_bar: float = field(init=False)

    def __post_init__(self) -> None:
        require_finite(
            "LossParams",
            kappa=self.kappa,
            gamma=self.gamma,
            g=self.g,
            omega_m=self.omega_m,
            lambda_kerr=self.lambda_kerr,
            temp=self.temp,
        )
        if self.omega_m <= 0.0:
            raise ValueError("omega_m must be strictly positive")
        if self.lambda_kerr <= 0.0:
            raise ValueError("lambda_kerr must be strictly positive")
        nu, t_swap, big_gamma, xi = swap_parameters(self.kappa, self.gamma, self.g)
        tau = math.pi / (2.0 * self.lambda_kerr)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "T_swap", t_swap)
        object.__setattr__(self, "Gamma", big_gamma)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "tau_kerr", tau)
        object.__setattr__(self, "eta", math.exp(-self.kappa * tau / 2.0))
        object.__setattr__(self, "n_bar", thermal_occupation(self.omega_m, self.temp))


def reference_loss_params() -> LossParams:
    """The demonstrated hardware rates, at zero temperature.

    ``kappa/2pi = 100 kHz``, ``gamma/2pi = 10 Hz``, ``g/2pi = 500 kHz``,
    ``omega_m/2pi = 10 MHz`` and ``lambda_kerr/2pi = 7 MHz``.
    """
    two_pi = 2.0 * math.pi
    return LossParams(
        kappa=two_pi * 100e3,
        gamma=two_pi * 10.0,
        g=two_pi * 500e3,
        omega_m=two_pi * 10e6,
        lambda_kerr=two_pi * 7e6,
    )


@dataclass(frozen=True)
class KickStats:
    """Gaussian model of the momentum kick accumulated during one swap.

    ``mean`` is the deterministic part contributed by the force; ``variance``
    is the thermal-plus-vacuum part, proportional to ``2*n_bar + 1``.
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or not math.isfinite(self.variance):
            raise ValueError("kick statistics must be finite")
        if self.variance < 0.0:
            raise ValueError("variance must be non-negative")

    @property
    def std(self) -> float:
        """Standard deviation of the kick."""
        return math.sqrt(self.variance)


def _quad_strict(integrand: Callable[[float], float], a: float, b: float, limit: int) -> float:
    """Adaptive quadrature, with at most ``limit`` subintervals, that raises instead of silently degrading.

    With ``full_output`` ``quad`` returns its failure message instead of
    warning it. Turning the warning into an error would need a
    ``catch_warnings`` block, and leaving one resets the warning registry, so
    every warning already shown once would be shown again. ``quad`` is
    imported here, so ``import kerrcat`` does not load ``scipy.integrate``.
    """
    from scipy.integrate import quad

    value, _, _, *message = quad(integrand, a, b, full_output=1, limit=limit, epsabs=1e-14, epsrel=1e-11)
    if message:
        raise RuntimeError(f"kick quadrature did not converge: {message[0]}")
    return value


def momentum_kick_stats(force_fn: Callable[[float], float], lp: LossParams) -> KickStats:
    """Mean and variance of the dimensionless kick gathered during one swap.

    The force enters through the swap filter:
    ``mean = Re INT_0^{T_swap} sin(nu*s) * exp(i*omega*s) * f(s) ds``,
    where ``f`` is the scaled force ``sqrt(2)*F(t)/sqrt(hbar*omega*m)``.
    The bath enters as white noise with correlation strength ``2*n_bar + 1``
    (the ``+1`` is the vacuum port, present even at zero temperature):
    ``variance = (2*n_bar + 1) * INT_0^{T_swap} sin^2(nu*s) * cos^2(omega*s) ds``.

    The variance filter is a sum of cosines, integrated in closed form. The
    mean integral is evaluated by adaptive quadrature, with a subdivision
    limit that grows with the mechanical half-periods in the swap; a
    convergence failure raises ``RuntimeError``.
    """
    nu, omega, t_swap = lp.nu, lp.omega_m, lp.T_swap

    def mean_integrand(s: float) -> float:
        return (math.sin(nu * s) * complex(force_fn(s)) * complex(math.cos(omega * s), math.sin(omega * s))).real

    def cosine_integral(k: float) -> float:
        # INT_0^{T_swap} cos(2 k s) ds
        return t_swap if k == 0.0 else math.sin(2.0 * k * t_swap) / (2.0 * k)

    # sin^2(nu s) cos^2(omega s) = (1 + cos 2 omega s - cos 2 nu s - cos 2 nu s cos 2 omega s) / 4
    var_filter = 0.25 * (
        t_swap
        + cosine_integral(omega)
        - cosine_integral(nu)
        - 0.5 * cosine_integral(omega + nu)
        - 0.5 * cosine_integral(omega - nu)
    )
    limit = max(800, math.ceil(4.0 * omega * t_swap / math.pi))
    mean = _quad_strict(mean_integrand, 0.0, t_swap, limit)
    variance = (2.0 * lp.n_bar + 1.0) * var_filter
    return KickStats(mean=mean, variance=variance)


def _beam_splitter(theta: float, N: int) -> np.ndarray:
    """Two-mode beam splitter ``exp(-i*theta*G)``, ``G = i(a c_dag - a_dag c)``.

    ``G`` conserves the total photon number ``n = i + j`` (also on the
    truncated space), so the splitter is block diagonal with ``2N - 1``
    blocks of size ``<= N``. Block ``n`` is tridiagonal in the system level
    ``i`` with ``G[i, i+1] = i*sqrt(i+1)*sqrt(n-i)``; each block is
    diagonalized on its own, and every entry coupling different ``n`` is
    exactly zero. Basis ordering as in ``loss_channel``.
    """
    splitter = np.zeros((N * N, N * N), dtype=complex)
    for n in range(2 * N - 1):
        levels = np.arange(max(0, n - N + 1), min(n, N - 1) + 1)
        lower = levels[:-1]
        block = np.diag(1j * np.sqrt((lower + 1.0) * (n - lower)), 1)
        block = block + block.conj().T
        evals, evecs = np.linalg.eigh(block)
        index = levels * N + (n - levels)
        splitter[np.ix_(index, index)] = (evecs * np.exp(-1j * theta * evals)) @ evecs.conj().T
    return splitter


def loss_channel(lp: LossParams, delta_prime: float, N: int) -> FockOperator:
    """Unitary transfer channel on system (x) auxiliary, both of dimension ``N``.

    The channel is a beam splitter with mixing angle ``arccos(xi)`` between
    the system and an auxiliary mode (which starts in vacuum and collects the
    emitted field), followed by the displacement ``+i*delta_prime`` on the
    system. With the auxiliary in vacuum the induced map on the system
    amplitude is ``a -> xi*a + i*delta_prime``, and second moments match a
    beam splitter of transmissivity ``xi^2``.

    Basis ordering: index ``i*N + j`` is system level ``i``, auxiliary level
    ``j`` (``numpy.kron`` convention with the system factor first).

    The beam splitter conserves the total photon number ``i + j``, so it is
    built block by block (``2N - 1`` tridiagonal blocks of size ``<= N``)
    instead of diagonalizing a dense ``N^2 x N^2`` generator, and the system
    displacement ``D (x) I`` is applied as one ``N x N^3`` product.
    """
    if N > MAX_TWO_MODE_DIM:
        raise ValueError(
            f"two-mode operator of per-mode dimension {N} exceeds the desk-scale bound {MAX_TWO_MODE_DIM}"
        )
    if N < 2:
        raise ValueError("N must be at least 2")
    splitter = _beam_splitter(math.acos(min(lp.xi, 1.0)), N)
    displaced = force_kick(-delta_prime, N).entries @ splitter.reshape(N, N**3)
    return FockOperator(displaced.reshape(N * N, N * N))


def two_mode_conditional_mean(alpha: float, delta_prime: float, lp: LossParams) -> float:
    """Brute-force conditional mean quadrature of the lossy pipeline.

    Runs ``W(pi/2)``, ``loss_channel`` and ``W(pi/2)`` on system (x)
    auxiliary (24 levels each, auxiliary starting in vacuum), projects the
    auxiliary onto vacuum (no emission detected) and returns ``<X>`` of the
    normalized system state. This is the independent number-basis reference
    for ``mean_X_lossy``.
    """
    N = 24
    w = no_emission_diagonal(math.pi / 2.0, lp, N)
    start = np.kron(w * coherent_state(alpha, N).amplitudes, np.eye(N)[0])
    psi = loss_channel(lp, delta_prime, N).entries @ start
    # Auxiliary level 0 is column 0 of the (system, auxiliary) grid; W (x) I scales its system levels.
    cond = w * psi.reshape(N, N)[:, 0]
    return mean_quadrature(FockVector(cond / np.linalg.norm(cond)))


def no_emission_diagonal(theta: float, lp: LossParams, N: int) -> np.ndarray:
    """Diagonal of the no-emission Kerr propagator ``W(theta) = U(theta) * exp(-kappa*t*n/2)``.

    ``theta`` is the accumulated Kerr angle ``lambda_kerr * t``; the decay
    factor uses the corresponding duration ``t = theta/lambda_kerr``. The
    squared norm of ``W|psi>`` is the probability that no photon was emitted
    during the stage.
    """
    t = theta / lp.lambda_kerr
    levels = np.arange(N)
    return np.exp(-1j * theta * levels.astype(float) ** 2) * np.exp(-lp.kappa * t * levels / 2.0)


def single_emission_state(
    t_emit: float,
    theta_total: float,
    alpha0: complex,
    lp: LossParams,
    N: int | None = None,
) -> tuple[FockVector, float]:
    """State after one photon emission at ``t_emit`` during a Kerr stage.

    Evolves ``|alpha0>`` with the no-emission propagator up to ``t_emit``,
    applies the lowering operator (the emission), then continues the
    no-emission evolution until the stage (total angle ``theta_total``,
    duration ``theta_total/lambda_kerr``) is complete. Returns the normalized
    state and its squared pre-normalization norm, which is the trajectory
    weight density in ``t_emit`` (up to the constant emission-rate factor
    ``kappa``).
    """
    if N is None:
        N = default_truncation(alpha0)
    t_total = theta_total / lp.lambda_kerr
    if not 0.0 <= t_emit <= t_total:
        raise ValueError("t_emit must lie within the stage duration")
    theta = lp.lambda_kerr * t_emit
    psi = no_emission_diagonal(theta, lp, N) * coherent_state(alpha0, N).amplitudes
    psi = np.append(np.sqrt(np.arange(1.0, N)) * psi[1:], 0.0)
    psi = FockVector(no_emission_diagonal(theta_total - theta, lp, N) * psi)
    weight = psi.norm**2
    if weight <= 0.0:
        raise ValueError("emission from this state has zero probability (vacuum input)")
    return psi.normalized(), weight


def lossy_stages(
    alpha0: complex, lp: LossParams, N: int, t_emit: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The lossy pipeline's stages around the transfer displacement ``q = +delta'`` of ``apply_kicks``.

    Returns ``xi^n W(pi/2)|alpha0>`` (with ``t_emit``, ``xi^n`` times the
    normalized ``single_emission_state``) and the diagonal of the second
    ``W(pi/2)``, both of length ``N``.
    """
    w = no_emission_diagonal(math.pi / 2.0, lp, N)
    if t_emit is None:
        psi = w * coherent_state(alpha0, N).amplitudes
    else:
        psi = single_emission_state(t_emit, math.pi / 2.0, alpha0, lp, N)[0].amplitudes
    return lp.xi ** np.arange(N) * psi, w


def run_lossy_trajectory(
    alpha0: complex,
    delta_prime: float,
    lp: LossParams,
    t_emit: float | None = None,
    N: int | None = None,
) -> FockVector:
    """Final normalized state of one trajectory of the full lossy pipeline.

    The pipeline is: first Kerr stage ``W(pi/2)`` (optionally interrupted by
    a single photon emission at ``t_emit`` within ``[0, tau_kerr]``), the
    no-emission transfer (``xi^n`` then displacement ``+i*delta_prime``),
    and a second forward Kerr stage ``W(pi/2)``. ``t_emit=None`` selects the
    emission-free trajectory. Normalization implements conditioning on the
    recorded emission pattern. The stages are :func:`lossy_stages`, joined
    by :func:`kerrcat.fock.apply_kicks`; no operator matrix is built. The
    default ``N`` is sized for the kicked amplitude.
    """
    before, after = lossy_stages(alpha0, lp, kicked_truncation(alpha0, delta_prime, N), t_emit)
    return FockVector(apply_kicks(before, delta_prime, after)[:, 0]).normalized()


def mean_X_lossy(alpha: float, delta_prime: float, lp: LossParams) -> float:
    """Mean quadrature of the lossy pipeline, conditioned on no emission.

    Evaluated exactly from the coherent-branch algebra of the pipeline (the
    final Kerr map folded into one interference term between the two
    components entering it), so it tracks the brute-force two-mode
    model to numerical precision. At ``delta_prime = 0`` it equals
    ``-xi*eta^2*alpha`` exactly. Warns when ``kappa*tau_kerr > 0.3``, where
    the weak-loss reading of the model is no longer meaningful.
    """
    if lp.kappa * lp.tau_kerr > 0.3:
        warnings.warn(
            "loss per Kerr stage is large (kappa*tau_kerr > 0.3); the weak-loss model is unreliable",
            stacklevel=2,
        )
    return kicked_mean_x(lossy_pipeline(alpha, delta_prime, lp.eta, lp.xi))


def mean_X_lossy_linearized(alpha: float, delta_prime: float, lp: LossParams) -> float:
    """Small-kick linearization of the lossy mean at the offset working point.

    Returns ``-xi*eta^2*alpha*(4*eta^2*alpha*delta_prime) - eta*delta_prime``.
    This traditional approximate form drops the transfer factor ``xi`` from
    the interference phase, so its slope can overestimate the exact one by
    tens of percent at strong transfer loss; it is exact as loss vanishes.
    """
    eta, xi = lp.eta, lp.xi
    return -xi * eta**2 * alpha * (4.0 * eta**2 * alpha * delta_prime) - eta * delta_prime


def emission_probability(alpha: float, lp: LossParams) -> float:
    """Probability ``P = pi*kappa*alpha^2/lambda_kerr`` of an emission.

    Identical to ``2*kappa*tau_kerr*alpha^2`` (two Kerr stages of duration
    ``tau_kerr = pi/(2*lambda_kerr)`` each). Valid as a probability only while
    small; a warning is emitted above 0.5.
    """
    p = math.pi * lp.kappa * alpha * alpha / lp.lambda_kerr
    if p > 0.5:
        warnings.warn(
            "emission probability exceeds 0.5; the single-emission model is unreliable",
            stacklevel=2,
        )
    return p


def full_signal(alpha: float, delta_prime: float, lp: LossParams) -> float:
    """Closed-form end-to-end signal estimate ``S`` for a kick ``delta_prime``.

    ``S = 2*alpha_eff*[1 + eta/(xi*(2*alpha_eff)^2)]*(1 - P)*delta_prime``
    with ``alpha_eff = eta^2*alpha`` and ``P`` the emission probability.
    This is the traditional linearized budget: amplitude contraction,
    interference-phase gain, and emission dephasing. Like
    ``mean_X_lossy_linearized`` it omits ``xi`` from the phase gain, so it is
    optimistic at strong transfer loss; Monte Carlo prediction columns use
    the exact engine instead. Sign conventions follow the historical form;
    measured slopes share the magnitude.
    """
    alpha_eff = lp.eta**2 * alpha
    p = emission_probability(alpha, lp)
    gain = 1.0 + lp.eta / (lp.xi * (2.0 * alpha_eff) ** 2)
    return 2.0 * alpha_eff * gain * (1.0 - p) * delta_prime


def lossy_offset(alpha: float, lp: LossParams) -> float:
    """Kick offset that makes the zero-force coin fair in the lossy pipeline.

    The conditional pipeline's interference phase is
    ``2*xi*eta*alpha*(1 + eta^2)*delta_prime``; the offset
    ``-pi/(4*xi*eta*alpha*(1 + eta^2))`` sets it to ``-pi/2``, placing the
    working point on the steepest slope. As loss vanishes this tends to
    ``-pi/(8*alpha)``; the sign is opposite to the ideal pipeline's offset
    because the transfer displaces by ``+i*delta_prime`` while the ideal kick
    displaces by ``-i*delta``. With these choices the measured signal slope
    has the same sign in both modes. Raises ``ValueError`` where the phase
    gain is zero: at ``alpha = 0``, or where ``xi`` or ``eta`` underflows to 0.
    """
    gain = lp.xi * lp.eta * alpha * (1.0 + lp.eta**2)
    if gain == 0.0:
        raise ValueError(f"the offset is undefined at alpha = {alpha:g}, xi = {lp.xi:g}, eta = {lp.eta:g}")
    return -math.pi / (4.0 * gain)
