"""Exact algebra on superpositions of coherent states.

Every stage of the measurement pipeline (Kerr quarter periods, impulsive
kicks, beam-splitter attenuation, no-emission amplitude decay) maps a
superposition of coherent states to another such superposition with a
closed-form rule for the coefficients and amplitudes. Tracking the
(coefficient, amplitude) pairs therefore evaluates the pipeline exactly — no
truncated-space numerics — and Gaussian-overlap integrals give means and sign
probabilities in closed form.

The relevant identities, with ``|g>`` a coherent state:

- quarter-period Kerr: ``|g> -> e^{-i pi/4}(|g> + i|-g>)/sqrt(2)``
- inverse quarter-period Kerr: ``|g> -> e^{+i pi/4}(|g> - i|-g>)/sqrt(2)``
- kick ``exp(-i d (a+a_dag))``: ``|g> -> e^{-i d Re g} |g - i d>``
- displacement ``exp(+i d (a+a_dag))``: ``|g> -> e^{+i d Re g} |g + i d>``
- amplitude decay to fraction ``mu`` (no-emission branch of a loss channel):
  ``|g> -> e^{|g|^2 (mu^2 - 1)/2} |mu g>`` (trace-decreasing)
- overlap: ``<g1|g2> = exp(-|g1|^2/2 - |g2|^2/2 + conj(g1) g2)``

**The final map is folded into the read-out.** Both pipelines end in a
quarter-period map, which up to a global phase is
``|g> -> (|g> + s|-g>)/sqrt(2)`` with ``s = -i`` (ideal pipeline, inverse
map) or ``s = +i`` (lossy pipeline, forward map). Its output components come
in ``±g`` pairs, and parity maps the projector onto ``X > 0`` to the one onto
``X < 0``. So for the two components ``(c_i, g_i)`` entering the map, the
block-diagonal pair terms sum to the norm ``D = sum_ij conj(c_i) c_j <g_i|g_j>``
and the cross terms collapse into one interference sum:

- ``Prob(X > 0) = 1/2 + Re[s sum_ij conj(c_i) c_j <g_i|-g_j> erf((conj(g_i) - g_j)/sqrt(2))] / (2D)``
- ``<X> = Re[s sum_ij conj(c_i) c_j <g_i|-g_j> (conj(g_i) - g_j)] / (2D)``

The ``(1, 0)`` term is minus the conjugate of the ``(0, 1)`` term, and the
diagonal arguments are purely imaginary, so a sign probability costs one
complex ``erf`` and two real Dawson functions (the overflow-free form of
``exp(-y^2) erfi(y)``). The pipelines therefore stop before their last map
and return the two components entering it with the map's ``s``.

All functions broadcast: ``coeffs``/``amps`` may carry a trailing batch axis
(shape ``(2,)`` or ``(2, M)``). The Monte Carlo feeds shots through it in
fixed-size chunks, so a run's working memory does not grow with its shot
count.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import dawsn, erf

_HALF_KERR_PHASE = np.exp(-1j * math.pi / 4) / math.sqrt(2.0)

#: ``s`` of the inverse quarter-period map, the last stage of the ideal pipeline.
IDEAL_FINAL_SIGN = -1j
#: ``s`` of the forward quarter-period map, the last stage of the lossy pipeline.
LOSSY_FINAL_SIGN = 1j

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)


def initial(alpha0: complex) -> tuple[np.ndarray, np.ndarray]:
    """A single coherent component of unit weight."""
    return np.asarray([1.0 + 0j]), np.asarray([complex(alpha0)])


def apply_half_kerr(coeffs: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quarter-period Kerr map; doubles the component count."""
    c = coeffs * _HALF_KERR_PHASE
    return np.concatenate([c, 1j * c]), np.concatenate([amps, -amps])


def apply_kick(coeffs: np.ndarray, amps: np.ndarray, delta) -> tuple[np.ndarray, np.ndarray]:
    """Impulsive kick ``exp(-i*delta*(a+a_dag))``."""
    return coeffs * np.exp(-1j * delta * amps.real), amps - 1j * delta


def apply_plus_displacement(coeffs: np.ndarray, amps: np.ndarray, delta) -> tuple[np.ndarray, np.ndarray]:
    """Displacement ``exp(+i*delta*(a+a_dag))`` (amplitude shift ``+i*delta``)."""
    return coeffs * np.exp(1j * delta * amps.real), amps + 1j * delta


def apply_decay(coeffs: np.ndarray, amps: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """No-emission amplitude decay ``|g| -> mu|g|`` with its weight factor."""
    weight = np.exp(0.5 * (mu * mu - 1.0) * (amps.real**2 + amps.imag**2))
    return coeffs * weight, mu * amps


def _odd_moment(coeffs, amps, sign, kernel, self_kernel) -> np.ndarray:
    """``Re[s sum_ij conj(c_i) c_j <g_i|-g_j> kernel(conj(g_i) - g_j)] / (2D)``.

    ``coeffs``/``amps`` hold the two components entering the final map and
    ``sign`` is its ``s``. ``self_kernel(x, y)`` is the diagonal term
    ``Im[exp(-2|g|^2) kernel(-2iy)]`` for ``g = x + iy``, written so that it
    cannot overflow.
    """
    c0, c1 = coeffs[0], coeffs[1]
    g0, g1 = amps[0], amps[1]
    w0 = c0.real**2 + c0.imag**2
    w1 = c1.real**2 + c1.imag**2
    cross = np.conj(c0) * c1
    log_half = -0.5 * (g0.real**2 + g0.imag**2 + g1.real**2 + g1.imag**2)
    product = np.conj(g0) * g1
    norm = w0 + w1 + 2.0 * (cross * np.exp(log_half + product)).real
    t01 = cross * np.exp(log_half - product) * kernel(np.conj(g0) - g1)
    # The sum is i*odd: the diagonal terms are imaginary, and t10 = -conj(t01).
    odd = w0 * self_kernel(g0.real, g0.imag) + w1 * self_kernel(g1.real, g1.imag) + 2.0 * t01.imag
    return (1j * sign).real * odd / (2.0 * norm)


def _erf_kernel(w):
    return erf(w / _SQRT2)


def _erf_self_kernel(x, y):
    # exp(-2|g|^2) erf(-i sqrt(2) y) = -i exp(-2x^2) (2/sqrt(pi)) dawsn(sqrt(2) y)
    return -_TWO_OVER_SQRT_PI * np.exp(-2.0 * x * x) * dawsn(_SQRT2 * y)


def _identity_kernel(w):
    return w


def _identity_self_kernel(x, y):
    return -2.0 * y * np.exp(-2.0 * (x * x + y * y))


def mean_x(coeffs: np.ndarray, amps: np.ndarray, sign: complex) -> np.ndarray:
    """Normalized mean of ``X = (a + a_dag)/2`` after the final map ``s = sign``."""
    return _odd_moment(coeffs, amps, sign, _identity_kernel, _identity_self_kernel)


def prob_x_positive(coeffs: np.ndarray, amps: np.ndarray, sign: complex) -> np.ndarray:
    """Normalized probability of a positive quadrature after the final map.

    ``coeffs``/``amps`` are the two components entering the last
    quarter-period map and ``sign`` its ``s`` (see the module docstring):
    ``1/2 + Re[s sum_ij conj(c_i) c_j <g_i|-g_j> erf((conj(g_i) - g_j)/sqrt(2))] / (2D)``.
    """
    return 0.5 + _odd_moment(coeffs, amps, sign, _erf_kernel, _erf_self_kernel)


def _batched_initial(alpha0: complex, kick: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The initial component, shaped to broadcast against a batch of kicks."""
    coeffs, amps = initial(alpha0)
    shape = (1,) * (1 + kick.ndim)
    return coeffs.reshape(shape), amps.reshape(shape)


def ideal_pipeline(alpha0: complex, delta) -> tuple[np.ndarray, np.ndarray, complex]:
    """The lossless pipeline up to its final map: Kerr, then kick.

    Returns the two components entering the inverse quarter-period map and
    that map's ``s``. ``delta`` may be a scalar or a batch array of effective
    kicks; the returned arrays then carry a matching trailing batch axis.
    """
    delta = np.asarray(delta, dtype=float)
    coeffs, amps = _batched_initial(alpha0, delta)
    coeffs, amps = apply_half_kerr(coeffs, amps)
    coeffs, amps = apply_kick(coeffs, amps, delta)
    return coeffs, amps, IDEAL_FINAL_SIGN


def lossy_pipeline(
    alpha0: complex, delta_prime, eta: float, xi: float
) -> tuple[np.ndarray, np.ndarray, complex]:
    """The no-emission lossy pipeline up to its final map.

    Stages: amplitude decay ``eta`` under the first Kerr half-period, the
    quarter-period Kerr map, beam-splitter attenuation ``xi`` from the
    round-trip transfer, displacement ``+i*delta_prime``, and amplitude decay
    ``eta`` under the second Kerr half-period. Returns the two components
    entering the final (forward) quarter-period map and that map's ``s``.
    ``delta_prime`` may be batched like :func:`ideal_pipeline`.

    The component weights are trace-decreasing; normalization happens inside
    the moment functions, which conditions the statistics on no emission.
    """
    delta_prime = np.asarray(delta_prime, dtype=float)
    coeffs, amps = _batched_initial(alpha0, delta_prime)
    coeffs, amps = apply_decay(coeffs, amps, eta)
    coeffs, amps = apply_half_kerr(coeffs, amps)
    coeffs, amps = apply_decay(coeffs, amps, xi)
    coeffs, amps = apply_plus_displacement(coeffs, amps, delta_prime)
    coeffs, amps = apply_decay(coeffs, amps, eta)
    return coeffs, amps, LOSSY_FINAL_SIGN
