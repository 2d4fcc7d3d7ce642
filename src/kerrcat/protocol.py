"""The ideal (lossless) measurement pipeline and its closed-form expectations.

The protocol turns a force impulse into a coin bias:

1. a quarter-period Kerr evolution splits a coherent state ``|alpha0>`` into
   a balanced superposition of ``|alpha0>`` and ``i|-alpha0>``;
2. an impulsive kick ``exp(-i*delta*(a+a_dag))`` imprints a relative phase
   ``2*delta*alpha`` between the two branches;
3. the inverse Kerr evolution maps that phase back into a quadrature
   displacement read out by homodyne detection.

A deliberate offset kick of ``pi/(8*alpha)`` moves the working point to the
steepest slope, where the sign of each shot behaves like a biased coin whose
imbalance is linear in the force.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from kerrcat.constants import hbar
from kerrcat.fock import (
    FockVector,
    apply_kicks,
    coherent_state,
    default_truncation,
    force_kick,
    kerr_unitary,
    kicked_truncation,
    require_finite,
)

__all__ = [
    "ProtocolParams",
    "PhysicalForce",
    "SignalEstimate",
    "offset_delta",
    "force_to_delta",
    "cat_state",
    "ideal_stages",
    "run_ideal",
    "mean_X_ideal",
    "mean_X_linearized",
    "shot_errors",
    "branch_phase_shift",
]


@dataclass(frozen=True)
class ProtocolParams:
    """Inputs of the ideal pipeline.

    Attributes
    ----------
    alpha0 : complex
        Initial coherent amplitude. The protocol reads out the real part.
    delta : float
        Dimensionless momentum kick imprinted by the force.
    apply_offset : bool
        If true, adds the working-point offset ``pi/(8*alpha)`` to ``delta``
        before the kick (single combined kick; kicks compose additively up to
        a global phase).
    truncation : int or None
        Fock-space dimension of at least 2; ``None`` sizes the space for the
        kicked amplitude (:func:`kerrcat.fock.kicked_truncation`).
    """

    alpha0: complex
    delta: float = 0.0
    apply_offset: bool = False
    truncation: int | None = None

    def __post_init__(self) -> None:
        require_finite("ProtocolParams", alpha0=complex(self.alpha0), delta=self.delta)
        n = self.truncation
        if n is not None and (isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2):
            raise ValueError(f"ProtocolParams.truncation must be an integer of at least 2, got {n!r}")
        if self.apply_offset and self.alpha == 0.0:
            raise ValueError("the offset working point requires Re(alpha0) != 0")

    @property
    def alpha(self) -> float:
        """Real part of the initial amplitude (the read-out quadrature)."""
        return complex(self.alpha0).real

    @property
    def effective_delta(self) -> float:
        """The kick actually applied: ``delta`` plus the optional offset."""
        if self.apply_offset:
            return self.delta + offset_delta(self.alpha)
        return self.delta


@dataclass(frozen=True)
class PhysicalForce:
    """A classical force impulse on the mechanical oscillator.

    Attributes
    ----------
    F : float
        Force in newtons (any sign).
    dt : float
        Duration in seconds.
    mass : float
        Effective oscillator mass in kilograms.
    omega_m : float
        Mechanical angular frequency in rad/s.
    """

    F: float
    dt: float
    mass: float
    omega_m: float

    def __post_init__(self) -> None:
        require_finite("PhysicalForce", F=self.F, dt=self.dt, mass=self.mass, omega_m=self.omega_m)
        for name in ("dt", "mass", "omega_m"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class SignalEstimate:
    """Coin-estimation result from ``M`` homodyne-sign shots.

    ``S`` and ``sigma_S`` are derived on construction:
    ``S = m_counts/M - 1/2`` and ``sigma_S = 1/sqrt(4M)`` (the binomial
    standard error of a near-fair coin).
    """

    m_counts: int
    M: int
    S: float = field(init=False)
    sigma_S: float = field(init=False)
    seed: int | None = None
    params_digest: str | None = None

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("M must be at least 1")
        if not 0 <= self.m_counts <= self.M:
            raise ValueError("m_counts must lie in [0, M]")
        object.__setattr__(self, "S", self.m_counts / self.M - 0.5)
        object.__setattr__(self, "sigma_S", 1.0 / math.sqrt(4.0 * self.M))


def offset_delta(alpha: float) -> float:
    """Working-point offset ``pi/(8*alpha)`` that linearizes the signal."""
    if alpha == 0.0:
        raise ValueError("the offset is undefined at alpha = 0")
    return math.pi / (8.0 * alpha)


def force_to_delta(pf: PhysicalForce) -> float:
    """Dimensionless kick ``delta = F*dt / sqrt(2*m*omega*hbar)``."""
    return pf.F * pf.dt / math.sqrt(2.0 * pf.mass * pf.omega_m * hbar)


def cat_state(alpha0: complex, N: int | None = None) -> FockVector:
    """Balanced superposition ``(|alpha0> + i|-alpha0>)/sqrt(2)``.

    The ``1/sqrt(2)`` normalization is exact for every amplitude: the cross
    term ``<alpha0|-alpha0> = exp(-2|alpha0|^2)`` is real, so its two
    conjugate contributions cancel against the factor ``i``.
    """
    if N is None:
        N = default_truncation(alpha0)
    plus = coherent_state(alpha0, N)
    minus = coherent_state(-alpha0, N)
    return FockVector((plus.amplitudes + 1j * minus.amplitudes) / math.sqrt(2.0))


def ideal_stages(alpha0: complex, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The lossless pipeline's stages around the kick ``q = -delta`` of ``apply_kicks``.

    Returns the cat ``Kerr(pi/2)|alpha0>`` and the diagonal of the inverse
    map ``Kerr(pi/2)^dag``, both of length ``N``.
    """
    kerr = np.exp(-1j * (math.pi / 2.0) * np.arange(N, dtype=float) ** 2)
    return kerr * coherent_state(alpha0, N).amplitudes, kerr.conj()


def run_ideal(p: ProtocolParams) -> FockVector:
    """Run the lossless pipeline and return the pre-measurement state.

    Applies the quarter-period Kerr map, the combined kick
    (``p.effective_delta``), and the inverse Kerr map to ``|alpha0>``, in a
    space sized for the kicked amplitude.
    """
    before, after = ideal_stages(p.alpha0, kicked_truncation(p.alpha0, p.effective_delta, p.truncation))
    return FockVector(apply_kicks(before, -p.effective_delta, after)[:, 0])


def mean_X_ideal(alpha: float, delta: float) -> float:
    """Closed-form quadrature mean of the ideal pipeline.

    ``<X> = e^{-2 delta^2} { alpha*cos(4*alpha*delta)
    - delta*[sin(4*alpha*delta) - e^{-2 alpha^2}] }``
    for a real initial amplitude ``alpha``. Exact for all ``alpha, delta``
    (it reproduces the brute-force pipeline to machine precision).
    """
    phase = 4.0 * alpha * delta
    return math.exp(-2.0 * delta * delta) * (
        alpha * math.cos(phase) - delta * (math.sin(phase) - math.exp(-2.0 * alpha * alpha))
    )


def mean_X_linearized(alpha: float, delta: float) -> float:
    """Small-kick linearization of the quadrature mean at the offset point.

    Returns ``4*alpha^2*delta - delta``, valid for ``|4*alpha*delta| << 1``
    (a warning is emitted above 0.3). The overall sign follows the
    historical convention for this expression; measured slopes share its
    magnitude but not necessarily its sign.
    """
    if abs(4.0 * alpha * delta) > 0.3:
        warnings.warn(
            "linearized mean is unreliable: |4*alpha*delta| > 0.3",
            stacklevel=2,
        )
    return 4.0 * alpha * alpha * delta - delta


def shot_errors(pf: PhysicalForce, alpha: float) -> tuple[float, float]:
    """Single-shot fractional errors ``(eps_classical, eps_quantum)``.

    ``eps_classical = sqrt(hbar*m*omega/2)/(F*dt)`` compares the vacuum
    quadrature width to the classical displacement; the superposition
    protocol improves it to ``eps_quantum = eps_classical/(2*alpha)``.
    """
    if pf.F == 0.0:
        raise ValueError("shot errors are undefined for zero force")
    eps_c = math.sqrt(hbar * pf.mass * pf.omega_m / 2.0) / abs(pf.F * pf.dt)
    return eps_c, eps_c / (2.0 * alpha)


def branch_phase_shift(alpha0: complex, delta: float) -> float:
    """Relative phase imprinted between the superposition branches by a kick.

    Builds the kicked superposition (quarter-period Kerr then kick), expands
    it on the two displaced coherent branches ``|alpha0 - i*delta>`` and
    ``|-alpha0 - i*delta>`` by solving the 2x2 Gram system, and returns the
    argument of the branch-coefficient ratio relative to the unkicked
    superposition (which carries ``i`` on the reflected branch). For a real
    amplitude the result is ``2*delta*alpha`` exactly. The space is sized
    for the kicked amplitude.
    """
    N = kicked_truncation(alpha0, delta, None)
    U = kerr_unitary(math.pi / 2.0, N)
    psi = force_kick(delta, N) @ (U @ coherent_state(alpha0, N))
    b_plus = coherent_state(complex(alpha0) - 1j * delta, N)
    b_minus = coherent_state(-complex(alpha0) - 1j * delta, N)
    g11 = b_plus.overlap(b_plus)
    g12 = b_plus.overlap(b_minus)
    g22 = b_minus.overlap(b_minus)
    r1 = b_plus.overlap(psi)
    r2 = b_minus.overlap(psi)
    # Gram matrix is [[g11, g12], [conj(g12), g22]]; solve for coefficients.
    det = g11 * g22 - g12 * g12.conjugate()
    c_plus = (g22 * r1 - g12 * r2) / det
    c_minus = (g11 * r2 - g12.conjugate() * r1) / det
    ratio = c_minus / (1j * c_plus)
    return math.atan2(ratio.imag, ratio.real)
