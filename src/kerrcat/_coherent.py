"""Exact algebra on superpositions of coherent states, and the kicked-cat read-out.

Every stage of the measurement pipeline maps a superposition of coherent
states to another one, with a closed-form rule for the coefficients and
amplitudes, so the pipeline is evaluated exactly, with no truncated space:

- quarter-period Kerr: ``|g> -> e^{-i pi/4}(|g> + i|-g>)/sqrt(2)``
- kick ``exp(-i d (a+a_dag))`` (``q = -d``) or displacement
  ``exp(+i d (a+a_dag))`` (``q = +d``): ``|g> -> e^{i q Re g} |g + i q>``
- no-emission amplitude decay to ``mu``: ``|g> -> e^{|g|^2 (mu^2 - 1)/2} |mu g>``
- overlap: ``<g1|g2> = exp(-|g1|^2/2 - |g2|^2/2 + conj(g1) g2)``

**The ±h structure.** Both pipelines reach the kick through kick-independent
stages that leave two components ``(C0, h)`` and ``(C1, -h)``, computed once
as scalars. The kick shifts both amplitudes by ``i q`` (ideal ``q = -delta``,
lossy ``q = +delta'``), a decay ``mu`` follows (ideal 1, lossy ``eta``), and a
last quarter-period map ``|g> -> (|g> + s|-g>)/sqrt(2)`` ends the pipeline,
``s = -i`` (ideal, inverse map) or ``s = +i`` (lossy, forward map).

**The closed form.** That map's output comes in ``±g`` pairs, and parity swaps
``X > 0`` with ``X < 0``. So for the components ``(c_j, g_j)`` entering it,
``Prob(X > 0) = 1/2 + Re[s sum_ij conj(c_i) c_j <g_i|-g_j> erf((conj(g_i) - g_j)/sqrt(2))] / (2D)``
with norm ``D = sum_ij conj(c_i) c_j <g_i|g_j>``; ``<X>`` has ``conj(g_i) - g_j``
in place of the ``erf``. With ``g_{0,1} = mu(±h + iq)`` each factor is a real
Gaussian in ``q`` times a phase. Write ``X = Re h``, ``Y = Im h``, ``m = mu^2``,
``P = conj(C0) C1``, ``a = 2(m-1)Yq``, and divide every weight by the decay
factor both components share, ``e^{(m-1)(|h|^2 + q^2)}``:

- weights ``w0 = |C0|^2 e^{a}``, ``w1 = |C1|^2 e^{-a}``
- norm ``D = w0 + w1 + 2 e^{-2m|h|^2} Re(P e^{i thn})``, ``thn = 2(m-1)Xq``
- cross term ``t = P e^{-2mq^2} e^{i tht} erf(u)``, ``tht = -2(1+m)Xq``,
  ``u = sqrt(2) mu (X - iq)``
- diagonal ``-(2/sqrt(pi)) e^{-2mX^2} [w0 dawsn(sqrt(2) mu (Y+q)) + w1 dawsn(sqrt(2) mu (q-Y))]``
- ``Prob(X > 0) = 1/2 + Re(i s) (diagonal + 2 Im t) / (2D)``

**Why every factor is bounded.** Off the real axis ``erf(u)`` grows like
``e^{2mq^2}`` while its prefactor falls like ``e^{-2mq^2}``; evaluated apart,
one overflows as the other underflows and their product is NaN from
|kick| ~ 18 on. With ``sigma = sgn X`` and the Faddeeva function ``w``,
``erf(u) = sigma (1 - e^{-u^2} w(i sigma u))``, and ``e^{-u^2}`` joins the
prefactor before anything is exponentiated:
``t = sigma P [e^{-2mq^2} e^{i tht} - e^{-2mX^2} e^{i thn} w(i sigma u)]``.
``Im(i sigma u) = sqrt(2) mu |X| >= 0``, so ``|w| <= 1``; Dawson's function is
bounded; and the larger of ``e^{±a}`` (complex ``alpha0`` under loss) is
divided out of numerator and norm. A shot costs one ``wofz``, two ``dawsn``
(one when ``Y = 0``) and real exponentials and phases, and stays finite at
any kick.

``q`` may be a scalar or a batch array; results take its shape. The Monte
Carlo feeds shots in fixed-size chunks, so memory does not grow with shots.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import dawsn, wofz

_HALF_KERR_PHASE = np.exp(-1j * math.pi / 4) / math.sqrt(2.0)

#: ``s`` of the inverse quarter-period map, the last stage of the ideal pipeline.
IDEAL_FINAL_SIGN = -1j
#: ``s`` of the forward quarter-period map, the last stage of the lossy pipeline.
LOSSY_FINAL_SIGN = 1j

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)


class KickedPair(NamedTuple):
    """Components ``(C0, h)``, ``(C1, -h)``, then kick ``i*q``, decay ``mu`` and final map ``sign``."""

    coeffs: np.ndarray
    h: complex
    q: np.ndarray
    mu: float
    sign: complex


def initial(alpha0: complex) -> tuple[np.ndarray, np.ndarray]:
    """A single coherent component of unit weight."""
    return np.asarray([1.0 + 0j]), np.asarray([complex(alpha0)])


def apply_half_kerr(coeffs: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quarter-period Kerr map; doubles the component count."""
    c = coeffs * _HALF_KERR_PHASE
    return np.concatenate([c, 1j * c]), np.concatenate([amps, -amps])


def apply_decay(coeffs: np.ndarray, amps: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """No-emission amplitude decay ``|g| -> mu|g|`` with its weight factor."""
    weight = np.exp(0.5 * (mu * mu - 1.0) * (amps.real**2 + amps.imag**2))
    return coeffs * weight, mu * amps


def _rotate(s, theta):
    """``s e^{i theta}`` as a pair of real arrays (real and imaginary part)."""
    cos, sin = np.cos(theta), np.sin(theta)
    return s.real * cos - s.imag * sin, s.real * sin + s.imag * cos


def _terms(pair: KickedPair):
    """``w0``, ``w1``, ``D``, ``P e^{i thn}`` and ``P e^{i tht}``, over the larger of ``e^{±a}``."""
    c0, c1 = pair.coeffs
    x, y, q = pair.h.real, pair.h.imag, pair.q
    m = pair.mu * pair.mu
    slope = 2.0 * (m - 1.0) * y
    a = slope * q if slope else 0.0
    big = np.abs(a)
    w0 = abs(c0) ** 2 * np.exp(a - big)
    w1 = abs(c1) ** 2 * np.exp(-a - big)
    cross = np.exp(-big) * (np.conj(c0) * c1)
    along_n = _rotate(cross, 2.0 * (m - 1.0) * x * q)
    along_t = _rotate(cross, -2.0 * (1.0 + m) * x * q)
    norm = w0 + w1 + 2.0 * math.exp(-2.0 * m * abs(pair.h) ** 2) * along_n[0]
    return w0, w1, norm, along_n, along_t


def _read_out(pair: KickedPair, odd, norm):
    return (1j * pair.sign).real * odd / (2.0 * norm)


def kicked_prob_x_positive(pair: KickedPair) -> np.ndarray:
    """Normalized ``Prob(X > 0)`` after the final map (the closed form above)."""
    x, y, q = pair.h.real, pair.h.imag, pair.q
    m = pair.mu * pair.mu
    w0, w1, norm, (re_n, im_n), (_, im_t) = _terms(pair)
    sigma = 1.0 if x >= 0.0 else -1.0
    root = _SQRT2 * pair.mu
    faddeeva = wofz(root * (sigma * q + 1j * abs(x)))
    gauss_x = math.exp(-2.0 * m * x * x)
    cross = np.exp(-2.0 * m * q * q) * im_t - gauss_x * (re_n * faddeeva.imag + im_n * faddeeva.real)
    dawson0 = dawsn(root * (y + q))
    dawson1 = dawson0 if y == 0.0 else dawsn(root * (q - y))
    diagonal = -_TWO_OVER_SQRT_PI * gauss_x * (w0 * dawson0 + w1 * dawson1)
    return 0.5 + _read_out(pair, diagonal + 2.0 * sigma * cross, norm)


def kicked_mean_x(pair: KickedPair) -> np.ndarray:
    """Normalized mean of ``X = (a + a_dag)/2`` after the final map."""
    x, y, q = pair.h.real, pair.h.imag, pair.q
    m = pair.mu * pair.mu
    w0, w1, norm, _, (re_t, im_t) = _terms(pair)
    cross = 2.0 * pair.mu * np.exp(-2.0 * m * q * q) * (x * im_t - q * re_t)
    gauss0 = np.exp(-2.0 * m * (x * x + (y + q) ** 2))
    gauss1 = np.exp(-2.0 * m * (x * x + (q - y) ** 2))
    diagonal = -2.0 * pair.mu * (w0 * (y + q) * gauss0 + w1 * (q - y) * gauss1)
    return _read_out(pair, diagonal + 2.0 * cross, norm)


def ideal_pipeline(alpha0: complex, delta) -> KickedPair:
    """The lossless pipeline up to its final map: Kerr, then kick ``exp(-i delta (a+a_dag))``.

    ``delta`` may be a scalar or a batch array of effective kicks.
    """
    coeffs, amps = apply_half_kerr(*initial(alpha0))
    return KickedPair(coeffs, complex(amps[0]), -np.asarray(delta, dtype=float), 1.0, IDEAL_FINAL_SIGN)


def lossy_pipeline(alpha0: complex, delta_prime, eta: float, xi: float) -> KickedPair:
    """The no-emission lossy pipeline up to its final map.

    Stages: amplitude decay ``eta`` under the first Kerr half-period, the
    quarter-period Kerr map, beam-splitter attenuation ``xi`` from the
    round-trip transfer, displacement ``+i*delta_prime``, and amplitude decay
    ``eta`` under the second Kerr half-period; the final (forward)
    quarter-period map is folded into the read-out. ``delta_prime`` may be
    batched like :func:`ideal_pipeline`.

    The component weights are trace-decreasing; the read-out normalizes, which
    conditions the statistics on no emission.
    """
    coeffs, amps = apply_decay(*initial(alpha0), eta)
    coeffs, amps = apply_decay(*apply_half_kerr(coeffs, amps), xi)
    q = np.asarray(delta_prime, dtype=float)
    return KickedPair(coeffs, complex(amps[0]), q, float(eta), LOSSY_FINAL_SIGN)
