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
    "GridTooCoarseError",
    "FockVector",
    "FockOperator",
    "QuadratureResult",
    "default_truncation",
    "coherent_state",
    "ladder_ops",
    "kerr_unitary",
    "force_kick",
    "quadrature_distribution",
    "mean_quadrature",
    "fidelity",
]

#: Default bound on the population allowed in the top five Fock levels.
DEFAULT_TAIL_TOL = 1e-8


class TruncationError(ValueError):
    """The truncated space is too small to hold the requested state."""


class GridTooCoarseError(ValueError):
    """The quadrature grid failed the density normalization check."""


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
    kind : str
        Structural contract the operator is built to satisfy:
        ``"unitary"`` (O^dag O = I), ``"contraction"`` (singular values
        <= 1), ``"hermitian"`` (O = O^dag), or ``"general"`` (no contract;
        e.g. bare ladder operators, which satisfy none of the above).
    """

    entries: np.ndarray
    dim: int
    kind: str = "unitary"

    _KINDS = ("unitary", "contraction", "hermitian", "general")

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("entries must be a square matrix")
        if self.dim != mat.shape[0]:
            raise ValueError("dim must match the matrix size")
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        object.__setattr__(self, "entries", _readonly(mat))

    @property
    def dagger(self) -> "FockOperator":
        """Conjugate transpose, preserving the kind tag."""
        return FockOperator(self.entries.conj().T, self.dim, self.kind)

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            _check_same_dim(self.dim, other.dim)
            kind = _compose_kinds(self.kind, other.kind)
            return FockOperator(self.entries @ other.entries, self.dim, kind)
        if isinstance(other, FockVector):
            _check_same_dim(self.dim, other.dim)
            return FockVector(self.entries @ other.amplitudes, self.dim)
        return NotImplemented

    def expectation(self, psi: FockVector) -> complex:
        """``<psi|O|psi>`` (the state need not be normalized)."""
        _check_same_dim(self.dim, psi.dim)
        return complex(np.vdot(psi.amplitudes, self.entries @ psi.amplitudes))

    def kind_defect(self) -> float:
        """How far the matrix is from honoring its kind tag.

        Returns the max-entry norm of ``O^dag O - I`` for unitaries, the
        excess of the largest singular value over 1 for contractions, and
        the max-entry norm of ``O - O^dag`` for hermitian operators.
        """
        if self.kind == "unitary":
            gram = self.entries.conj().T @ self.entries
            return float(np.max(np.abs(gram - np.eye(self.dim))))
        if self.kind == "contraction":
            top = float(np.linalg.norm(self.entries, ord=2))
            return max(0.0, top - 1.0)
        if self.kind == "hermitian":
            return float(np.max(np.abs(self.entries - self.entries.conj().T)))
        return 0.0


@dataclass(frozen=True)
class QuadratureResult:
    """Homodyne statistics of a state.

    Attributes
    ----------
    mean_X : float
        Mean of ``X = (a + a_dag)/2`` computed from the density.
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
    """Raise ``ValueError`` naming the first NaN or infinite value."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{owner}.{name} must be finite, got {value!r}")


def _compose_kinds(k1: str, k2: str) -> str:
    if k1 == k2 == "unitary":
        return "unitary"
    if k1 in ("unitary", "contraction") and k2 in ("unitary", "contraction"):
        return "contraction"
    return "general"


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
    a = np.zeros((N, N), dtype=complex)
    idx = np.arange(1, N)
    a[idx - 1, idx] = np.sqrt(idx)
    a_dag = a.conj().T
    n_op = a_dag @ a
    return (
        FockOperator(a, N, "general"),
        FockOperator(a_dag, N, "general"),
        FockOperator(n_op, N, "hermitian"),
    )


def kerr_unitary(theta: float, N: int) -> FockOperator:
    """Diagonal Kerr propagator with entries ``exp(-i*theta*n**2)``.

    At ``theta = pi/2`` it maps a coherent state to the balanced
    superposition of ``|alpha>`` and ``i|-alpha>`` (up to a global phase);
    at ``theta = pi`` it flips the sign of a coherent amplitude.
    """
    n = np.arange(N)
    return FockOperator(np.diag(np.exp(-1j * theta * n.astype(float) ** 2)), N, "unitary")


@lru_cache(maxsize=32)
def _quadrature_eigensystem(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of ``a + a_dag`` (cached per dimension)."""
    a = np.zeros((N, N), dtype=complex)
    idx = np.arange(1, N)
    a[idx - 1, idx] = np.sqrt(idx)
    evals, evecs = np.linalg.eigh(a + a.conj().T)
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
    return FockOperator((evecs * phases) @ evecs.conj().T, N, "unitary")


def _simpson_weights(size: int, step: float) -> np.ndarray:
    """Composite Simpson weights for ``size`` (odd) equally spaced nodes."""
    w = np.ones(size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


@lru_cache(maxsize=8)
def _hermite_grid(N: int, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric position grid, Hermite-function table, and Simpson weights.

    Returns ``(u, phi, w, w_half)`` where ``phi[n]`` samples the n-th
    oscillator eigenfunction on ``u``, ``w`` are Simpson weights over the
    whole grid and ``w_half`` over the half-axis ``u >= 0``. The stable
    three-term recurrence avoids factorial overflow.
    """
    u_max = math.sqrt(2.0 * N) + 8.0
    u = np.linspace(-u_max, u_max, grid)
    phi = np.zeros((N, grid))
    phi[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if N > 1:
        phi[1] = math.sqrt(2.0) * u * phi[0]
    for k in range(2, N):
        phi[k] = math.sqrt(2.0 / k) * u * phi[k - 1] - math.sqrt((k - 1) / k) * phi[k - 2]
    h = u[1] - u[0]
    w = _simpson_weights(grid, h)
    w_half = _simpson_weights(grid - grid // 2, h)
    for arr in (u, phi, w, w_half):
        arr.setflags(write=False)
    return u, phi, w, w_half


def _round_up_grid(grid_size: int) -> int:
    """Smallest 4k+1 grid size >= grid_size (Simpson-compatible halves)."""
    grid = max(int(grid_size), 5)
    rem = (grid - 1) % 4
    if rem:
        grid += 4 - rem
    return grid


def quadrature_distribution(psi: FockVector, grid_size: int = 4001) -> QuadratureResult:
    """Homodyne statistics of ``psi`` for the quadrature ``X = (a+a_dag)/2``.

    The density is built from the position-representation wavefunction via a
    stable Hermite-function recurrence on a symmetric grid, integrated with
    Simpson's rule. ``grid_size`` is rounded up to the next ``4k+1`` so that
    ``x = 0`` is a grid node and each half-axis has an even panel count.
    The Hermite table is real, so the real and imaginary parts of the
    wavefunction are read out by one real product and the density is their
    sum of squares; the table is never promoted to complex.

    Raises
    ------
    GridTooCoarseError
        If the integrated density misses unit normalization by more than
        1e-6 relative to the state's own norm.
    """
    grid = _round_up_grid(int(grid_size))
    u, phi, w, w_half = _hermite_grid(psi.dim, grid)
    re, im = np.stack((psi.amplitudes.real, psi.amplitudes.imag)) @ phi
    dens_u = re * re + im * im

    total = float(np.dot(w, dens_u))
    expected = psi.norm**2
    if abs(total - expected) > 1e-6 * max(expected, 1.0):
        raise GridTooCoarseError(
            f"density integrates to {total:.9f}, expected {expected:.9f}; "
            f"increase grid_size (got {grid})"
        )

    half = grid // 2  # index of the u = 0 node
    prob_pos = float(np.dot(w_half, dens_u[half:])) / total
    mean_u = float(np.dot(w, u * dens_u)) / total

    x = u / math.sqrt(2.0)
    density = np.column_stack((x, math.sqrt(2.0) * dens_u / total))
    return QuadratureResult(
        mean_X=mean_u / math.sqrt(2.0),
        prob_X_positive=prob_pos,
        density=density,
    )


def mean_quadrature(psi: FockVector) -> float:
    """``<X> = Re <a>`` computed directly from the amplitudes."""
    c = psi.amplitudes
    n = np.arange(1, psi.dim)
    mean_a = np.sum(np.conj(c[:-1]) * np.sqrt(n) * c[1:])
    norm2 = psi.norm**2
    return float(mean_a.real / norm2)


def fidelity(psi: FockVector, phi: FockVector) -> float:
    """Global-phase-insensitive overlap ``|<psi|phi>|**2``."""
    return abs(psi.overlap(phi)) ** 2
