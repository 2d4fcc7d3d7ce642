"""Truncated-Fock-space linear algebra.

States are complex amplitude vectors over number states ``|0..N-1>``;
operators are dense complex matrices on the same truncated space. The
module provides coherent states, ladder operators, Kerr and displacement
propagators, and homodyne (quadrature) measurement statistics.

Conventions
-----------
- Annihilation operator: ``a|n> = sqrt(n)|n-1>``.
- Kerr propagator: ``kerr_unitary(theta)`` is diagonal with entries
  ``exp(-i*theta*n**2)``.
- Kick propagator: ``force_kick(delta) = exp(-i*delta*(a + a_dag))``, which
  maps a coherent state ``|alpha>`` to ``exp(-i*delta*Re(alpha)) |alpha - i*delta>``.
- Reported quadrature is ``X = (a + a_dag)/2``, so a coherent state has
  ``<X> = Re(alpha)``. The position-wavefunction variable ``u`` used
  internally satisfies ``<u> = sqrt(2)*Re(alpha)``; densities are reported
  against ``x = u/sqrt(2)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "TruncationError",
    "FockVector",
    "FockOperator",
    "QuadratureResult",
    "default_truncation",
    "coherent_state",
    "ladder_ops",
    "kerr_unitary",
    "force_kick",
    "apply_kicks",
    "quadrature_distribution",
    "mean_quadrature",
    "prob_quadrature_positive",
    "prob_positive_columns",
    "fidelity",
]

#: Default bound on the population allowed in the top five Fock levels.
DEFAULT_TAIL_TOL = 1e-8


class TruncationError(ValueError):
    """The truncated space is too small to hold the requested state."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FockVector:
    """A quantum state as complex amplitudes over number states.

    Attributes
    ----------
    amplitudes : complex ndarray of shape (dim,)
        Probability amplitudes ``c_n``; read-only.
    dim : int
        Truncation dimension ``N``.
    """

    amplitudes: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional array")
        if self.dim != amps.shape[0]:
            raise ValueError("dim must equal len(amplitudes)")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self.amplitudes))

    def tail_mass(self, levels: int = 5) -> float:
        """Population in the top ``levels`` Fock levels (truncation health)."""
        return float(np.sum(np.abs(self.amplitudes[-levels:]) ** 2))

    def normalized(self) -> "FockVector":
        """Return the unit-norm version of this state."""
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.amplitudes / n, self.dim)

    def overlap(self, other: "FockVector") -> complex:
        """Inner product ``<self|other>``."""
        _check_same_dim(self.dim, other.dim)
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class FockOperator:
    """A dense operator on the truncated Fock space.

    Attributes
    ----------
    entries : complex ndarray of shape (dim, dim)
        Matrix entries; read-only.
    dim : int
        Truncation dimension ``N``.
    """

    entries: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("entries must be a square matrix")
        if self.dim != mat.shape[0]:
            raise ValueError("dim must match the matrix size")
        object.__setattr__(self, "entries", _readonly(mat))

    @property
    def dagger(self) -> "FockOperator":
        """Conjugate transpose."""
        return FockOperator(self.entries.conj().T, self.dim)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            _check_same_dim(self.dim, other.dim)
            return FockOperator(self.entries @ other.entries, self.dim)
        if isinstance(other, FockVector):
            _check_same_dim(self.dim, other.dim)
            return FockVector(self.entries @ other.amplitudes, self.dim)
        return NotImplemented

    def expectation(self, psi: FockVector) -> complex:
        """``<psi|O|psi>`` (the state need not be normalized)."""
        _check_same_dim(self.dim, psi.dim)
        return complex(np.vdot(psi.amplitudes, self.entries @ psi.amplitudes))


@dataclass(frozen=True)
class QuadratureResult:
    """Homodyne statistics of a state.

    Attributes
    ----------
    mean_X : float
        Mean of ``X = (a + a_dag)/2``.
    prob_X_positive : float
        Probability of a strictly positive quadrature outcome.
    density : ndarray of shape (grid, 2)
        Rows ``(x, p(x))`` sampling the quadrature probability density.
    """

    mean_X: float
    prob_X_positive: float
    density: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "density", _readonly(np.asarray(self.density, dtype=float)))


def _check_same_dim(d1: int, d2: int) -> None:
    if d1 != d2:
        raise ValueError(f"dimension mismatch: {d1} != {d2}")


def require_finite(owner: str, **values) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite value; an ``int`` of any size is finite."""
    for name, value in values.items():
        if not isinstance(value, int) and not cmath.isfinite(value):
            raise ValueError(f"{owner}.{name} must be finite, got {value!r}")


def default_truncation(alpha: complex) -> int:
    """Default truncation dimension for states built around amplitude ``alpha``.

    ``N = ceil(|alpha|**2 + 10*|alpha| + 20)`` keeps the occupation tail
    negligible for ``|alpha| <= 4`` with room for moderate displacements.
    The rule is a guideline: constructors accept any ``N`` and raise
    :class:`TruncationError` only when the actual tail mass is too large.
    """
    mag = abs(alpha)
    return math.ceil(mag * mag + 10.0 * mag + 20.0)


def coherent_state(alpha: complex, N: int, tail_tol: float = DEFAULT_TAIL_TOL) -> FockVector:
    """Coherent state ``|alpha>`` with amplitudes ``e^{-|alpha|^2/2} alpha^n / sqrt(n!)``.

    Amplitudes are generated by the stable recurrence
    ``c_k = c_{k-1} * alpha / sqrt(k)`` and are *not* renormalized: the norm
    deficit equals the discarded occupation tail, so truncation problems stay
    visible instead of being silently absorbed.

    Raises
    ------
    TruncationError
        If the top five levels hold at least ``tail_tol`` probability.
    """
    if N < 1:
        raise ValueError("N must be positive")
    amps = np.zeros(N, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, N):
        amps[k] = amps[k - 1] * alpha / math.sqrt(k)
    state = FockVector(amps, N)
    tail = state.tail_mass()
    if tail >= tail_tol:
        raise TruncationError(
            f"coherent amplitude {alpha} needs a larger space than N={N}: "
            f"top-level population {tail:.3e} >= {tail_tol:.3e}"
        )
    return state


def ladder_ops(N: int) -> tuple[FockOperator, FockOperator, FockOperator]:
    """Annihilation, creation, and number operators ``(a, a_dag, n_op)``."""
    if N < 2:
        raise ValueError("N must be at least 2")
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1).astype(complex)
    a_dag = a.conj().T
    n_op = a_dag @ a
    return FockOperator(a, N), FockOperator(a_dag, N), FockOperator(n_op, N)


def kerr_unitary(theta: float, N: int) -> FockOperator:
    """Diagonal Kerr propagator with entries ``exp(-i*theta*n**2)``.

    At ``theta = pi/2`` it maps a coherent state to the balanced
    superposition of ``|alpha>`` and ``i|-alpha>`` (up to a global phase);
    at ``theta = pi`` it flips the sign of a coherent amplitude.
    """
    n = np.arange(N)
    return FockOperator(np.diag(np.exp(-1j * theta * n.astype(float) ** 2)), N)


@lru_cache(maxsize=32)
def _quadrature_eigensystem(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of ``a + a_dag`` (cached per dimension)."""
    a, a_dag, _ = ladder_ops(N)
    evals, evecs = np.linalg.eigh(a.entries + a_dag.entries)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def force_kick(delta: float, N: int) -> FockOperator:
    """Impulsive kick propagator ``exp(-i*delta*(a + a_dag))``.

    Built by diagonalizing the Hermitian quadrature ``a + a_dag`` and
    exponentiating its eigenvalues, so the matrix is unitary on the
    truncated space up to floating error. Acting on a coherent state it
    yields ``exp(-i*delta*Re(alpha)) |alpha - i*delta>`` (up to truncation).
    """
    evals, evecs = _quadrature_eigensystem(N)
    phases = np.exp(-1j * delta * evals)
    return FockOperator((evecs * phases) @ evecs.conj().T, N)


def apply_kicks(before: np.ndarray, q, after: np.ndarray) -> np.ndarray:
    """Amplitudes ``after * exp(i*q*(a + a_dag)) before``, one column per kick in ``q``.

    ``before`` (the state entering the kick) and ``after`` (the diagonal of
    the stage that follows it) have length ``N``. The kick is ``V e^{i q lam} V^dag``
    in the cached eigenbasis of ``a + a_dag``, so no ``N x N`` propagator is
    built; ``q = -delta`` is ``force_kick(delta)``.
    """
    evals, evecs = _quadrature_eigensystem(before.shape[0])
    phases = np.exp(1j * np.multiply.outer(evals, np.ravel(q)))
    return after[:, None] * (evecs @ (phases * (evecs.conj().T @ before)[:, None]))


@lru_cache(maxsize=8)
def _hermite_grid(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric position grid ``u`` and Hermite-function table ``phi``.

    ``phi[n]`` samples the n-th oscillator eigenfunction on 4001 nodes
    spanning ``|u| <= sqrt(2N) + 8``. The stable three-term recurrence
    avoids factorial overflow.
    """
    u_max = math.sqrt(2.0 * N) + 8.0
    u = np.linspace(-u_max, u_max, 4001)
    phi = np.zeros((N, u.size))
    phi[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if N > 1:
        phi[1] = math.sqrt(2.0) * u * phi[0]
    for k in range(2, N):
        phi[k] = math.sqrt(2.0 / k) * u * phi[k - 1] - math.sqrt((k - 1) / k) * phi[k - 2]
    u.setflags(write=False)
    phi.setflags(write=False)
    return u, phi


@lru_cache(maxsize=32)
def _half_line_overlaps(N: int) -> np.ndarray:
    """Half-line overlaps ``I[m, n] = INT_0^inf psi_m psi_n du`` (cached per dimension).

    ``I[n, n] = 1/2`` and ``I[m, n] = 0`` for other even ``m + n``. For odd
    ``m + n`` the Hermite equation ``psi_n'' = (u^2 - 2n - 1) psi_n`` gives
    ``I[m, n] = (psi_n(0) psi_m'(0) - psi_m(0) psi_n'(0)) / (2(m - n))``, with
    ``psi_k(0) = -sqrt((k-1)/k) psi_{k-2}(0)`` and
    ``psi_n'(0) = sqrt(n/2) psi_{n-1}(0) - sqrt((n+1)/2) psi_{n+1}(0)``.
    """
    at_zero = np.zeros(N + 1)
    at_zero[0] = np.pi**-0.25
    for k in range(2, N + 1, 2):
        at_zero[k] = -math.sqrt((k - 1) / k) * at_zero[k - 2]
    n = np.arange(N)
    # At n = 0 the index n - 1 wraps to at_zero[N], whose weight sqrt(0/2) is zero.
    slope = np.sqrt(n / 2.0) * at_zero[n - 1] - np.sqrt((n + 1) / 2.0) * at_zero[n + 1]
    value = at_zero[:N]
    gap = n[:, None] - n[None, :]
    np.fill_diagonal(gap, 1)
    overlaps = (value[None, :] * slope[:, None] - value[:, None] * slope[None, :]) / (2.0 * gap)
    np.fill_diagonal(overlaps, 0.5)
    overlaps.setflags(write=False)
    return overlaps


def quadrature_distribution(psi: FockVector) -> QuadratureResult:
    """Homodyne statistics of ``psi`` for the quadrature ``X = (a+a_dag)/2``.

    ``mean_X`` and ``prob_X_positive`` are exact (:func:`mean_quadrature`,
    :func:`prob_quadrature_positive`). The density is the position-space
    wavefunction sampled on a fixed symmetric grid through a real Hermite
    table: the real and imaginary parts of the wavefunction are read out by
    one real product and the density is their sum of squares.
    """
    u, phi = _hermite_grid(psi.dim)
    re, im = np.stack((psi.amplitudes.real, psi.amplitudes.imag)) @ phi
    density = math.sqrt(2.0) * (re * re + im * im) / psi.norm**2
    return QuadratureResult(
        mean_X=mean_quadrature(psi),
        prob_X_positive=prob_quadrature_positive(psi),
        density=np.column_stack((u / math.sqrt(2.0), density)),
    )


def mean_quadrature(psi: FockVector) -> float:
    """``<X> = Re <a>`` computed directly from the amplitudes."""
    c = psi.amplitudes
    n = np.arange(1, psi.dim)
    mean_a = np.sum(np.conj(c[:-1]) * np.sqrt(n) * c[1:])
    norm2 = psi.norm**2
    return float(mean_a.real / norm2)


def prob_quadrature_positive(psi: FockVector) -> float:
    """``Prob(X > 0)`` of a state; see :func:`prob_positive_columns`."""
    return float(prob_positive_columns(psi.amplitudes))


def prob_positive_columns(amplitudes: np.ndarray) -> np.ndarray:
    """``Prob(X > 0) = c^dag I c / |c|^2`` of each column ``c`` of ``amplitudes``.

    ``I`` holds the exact half-line Hermite overlaps. A one-dimensional
    array is one state and gives a scalar.
    """
    overlaps = _half_line_overlaps(amplitudes.shape[0])
    re, im = amplitudes.real, amplitudes.imag
    return np.sum(re * (overlaps @ re) + im * (overlaps @ im), axis=0) / np.sum(re * re + im * im, axis=0)


def fidelity(psi: FockVector, phi: FockVector) -> float:
    """Global-phase-insensitive overlap ``|<psi|phi>|**2``."""
    return abs(psi.overlap(phi)) ** 2
