"""The kicked-cat read-out in closed form: four numbers per pipeline.

Every stage of the measurement pipeline maps a superposition of coherent
states to another one, with a closed-form rule for the coefficients and
amplitudes, so the pipeline is evaluated exactly, with no truncated space:

- quarter-period Kerr: ``|g> -> e^{-i pi/4}(|g> + i|-g>)/sqrt(2)``
- kick ``exp(-i d (a+a_dag))`` (``q = -d``) or displacement
  ``exp(+i d (a+a_dag))`` (``q = +d``): ``|g> -> e^{i q Re g} |g + i q>``
- no-emission amplitude decay to ``mu``: ``|g> -> e^{|g|^2 (mu^2 - 1)/2} |mu g>``
- overlap: ``<g1|g2> = exp(-|g1|^2/2 - |g2|^2/2 + conj(g1) g2)``

**Four numbers.** Both pipelines reach the kick through one quarter-period
Kerr map, which leaves components ``(C0, h)`` and ``(C1, -h)`` with ``C1 = i C0``;
a decay weights ``±h`` alike, so that holds at the kick, with ``h = alpha0``
(ideal) or ``h = xi eta alpha0`` (lossy). ``|C0|^2`` is a common factor of the
read-out's numerator and norm and cancels, and ``P = conj(C0) C1 = i |C0|^2``
becomes ``i``. What is left is ``(h, q, mu, s)``: the kick shifts both
amplitudes by ``i q`` (ideal ``q = -delta``, lossy ``q = +delta'``), a decay
``mu`` follows (ideal 1, lossy ``eta``), and a last quarter-period map
``|g> -> (|g> + s|-g>)/sqrt(2)`` ends the pipeline, ``s = -i`` (ideal, inverse
map) or ``s = +i`` (lossy, forward map).

**The closed form.** That map's output comes in ``±g`` pairs, and parity swaps
``X > 0`` with ``X < 0``. So for the components ``(c_j, g_j)`` entering it,
``Prob(X > 0) = 1/2 + Re[s sum_ij conj(c_i) c_j <g_i|-g_j> erf((conj(g_i) - g_j)/sqrt(2))] / (2D)``
with norm ``D = sum_ij conj(c_i) c_j <g_i|g_j>``; ``<X>`` has ``conj(g_i) - g_j``
in place of the ``erf``. With ``g_{0,1} = mu(±h + iq)`` each factor is a real
Gaussian in ``q`` times a phase. Write ``X = Re h``, ``Y = Im h``, ``m = mu^2``,
``a = 2(m-1)Yq``, and divide every weight by ``|C0|^2`` and by the decay
factor both components share, ``e^{(m-1)(|h|^2 + q^2)}``:

- weights ``w0 = e^{a}``, ``w1 = e^{-a}``
- norm ``D = w0 + w1 - 2 e^{-2m|h|^2} sin(thn)``, ``thn = 2(m-1)Xq``
- cross term ``t = i e^{-2mq^2} e^{i tht} erf(u)``, ``tht = -2(1+m)Xq``,
  ``u = sqrt(2) mu (X - iq)``
- diagonal ``-(2/sqrt(pi)) e^{-2mX^2} [w0 dawsn(sqrt(2) mu (Y+q)) + w1 dawsn(sqrt(2) mu (q-Y))]``
- ``Prob(X > 0) = 1/2 + Re(i s) (diagonal + 2 Im t) / (2D)``

**Why every factor is bounded.** Off the real axis ``erf(u)`` grows like
``e^{2mq^2}`` while its prefactor falls like ``e^{-2mq^2}``; evaluated apart,
one overflows as the other underflows and their product is NaN from
|kick| ~ 18 on. With ``sigma = sgn X`` and the Faddeeva function ``w``,
``erf(u) = sigma (1 - e^{-u^2} w(i sigma u))``, and ``e^{-u^2}`` joins the
prefactor before anything is exponentiated:
``t = i sigma [e^{-2mq^2} e^{i tht} - e^{-2mX^2} e^{i thn} w(i sigma u)]``.
``Im(i sigma u) = sqrt(2) mu |X| >= 0``, so ``|w| <= 1``; Dawson's function is
bounded; and the larger of ``e^{±a}`` (complex ``alpha0`` under loss) is
divided out of numerator and norm. A shot costs one ``wofz``, two ``dawsn``
(one when ``Y = 0``) and real exponentials and phases, and stays finite at any
kick; with ``|C0|^2`` never formed, also at any amplitude.

``q`` may be a scalar or a batch array; results take its shape. The Monte
Carlo feeds shots in fixed-size chunks, so memory does not grow with shots.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import dawsn, wofz

#: ``s`` of the inverse quarter-period map, the last stage of the ideal pipeline.
IDEAL_FINAL_SIGN = -1j
#: ``s`` of the forward quarter-period map, the last stage of the lossy pipeline.
LOSSY_FINAL_SIGN = 1j

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)


class KickedPair(NamedTuple):
    """Components ``(C0, h)``, ``(i C0, -h)``, then kick ``i*q``, decay ``mu`` and final map ``sign``."""

    h: complex
    q: np.ndarray
    mu: float
    sign: complex


def _terms(pair: KickedPair):
    """``w0``, ``w1``, ``D`` and ``i e^{i theta}`` at ``thn`` and ``tht``, over the larger of ``e^{±a}``."""
    x, y, q = pair.h.real, pair.h.imag, pair.q
    m = pair.mu * pair.mu
    slope = 2.0 * (m - 1.0) * y
    a = slope * q if slope else 0.0
    big = np.abs(a)
    scale = np.exp(-big)
    theta_n, theta_t = 2.0 * (m - 1.0) * x * q, -2.0 * (1.0 + m) * x * q
    along_n = -scale * np.sin(theta_n), scale * np.cos(theta_n)
    along_t = -scale * np.sin(theta_t), scale * np.cos(theta_t)
    w0, w1 = np.exp(a - big), np.exp(-a - big)
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
    return KickedPair(complex(alpha0), -np.asarray(delta, dtype=float), 1.0, IDEAL_FINAL_SIGN)


def lossy_pipeline(alpha0: complex, delta_prime, eta: float, xi: float) -> KickedPair:
    """The no-emission lossy pipeline up to its final map.

    Stages: amplitude decay ``eta`` under the first Kerr half-period, the
    quarter-period Kerr map, beam-splitter attenuation ``xi`` from the
    round-trip transfer, displacement ``+i*delta_prime``, and amplitude decay
    ``eta`` under the second Kerr half-period; the final (forward)
    quarter-period map is folded into the read-out. ``delta_prime`` may be
    batched like :func:`ideal_pipeline`.

    The decays are trace-decreasing; the read-out normalizes, which conditions
    the statistics on no emission.
    """
    # eta before xi, the order of the stages; the pinned goldens round h this way.
    h = xi * (eta * complex(alpha0))
    return KickedPair(h, np.asarray(delta_prime, dtype=float), float(eta), LOSSY_FINAL_SIGN)
