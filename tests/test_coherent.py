"""Tests for the closed-form read-out of the kicked cat (``kerrcat._coherent``)."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import dawsn, erf

import kerrcat
from _support import params_for, reference_params
from kerrcat._coherent import (
    ideal_pipeline,
    kicked_mean_x,
    kicked_prob_x_positive,
    lossy_pipeline,
)

ALPHA0S = (0.5, 1.5, 2.5, 4.0, -2.0, 1.0 + 1.0j)


def _pipelines(alpha0, q):
    """The ideal and the lossy pipeline at the reference rates, for the same amplitude shift ``q``."""
    lp = reference_params()
    return ideal_pipeline(alpha0, -q), lossy_pipeline(alpha0, q, lp.eta, lp.xi)


def _interference_sum(alpha0, q, lp=None):
    """``(Prob(X > 0), <X>)`` from the unsimplified sum over components built from ``alpha0``.

    Ideal (``lp`` None): Kerr split, kick ``q = -delta``, inverse final map
    ``s = -i``. Lossy: decay ``eta``, Kerr split, decay ``xi``, displacement
    ``q = +delta'``, decay ``eta``, forward final map ``s = +i``. Evaluates
    ``Re[s sum_ij conj(c_i) c_j <g_i|-g_j> kernel(conj(g_i) - g_j)] / (2D)`` with
    complex ``erf``; finite only for moderate kicks and amplitudes.
    """

    def decay(c, g, mu):
        return c * np.exp(0.5 * (mu * mu - 1.0) * abs(g) ** 2), mu * g

    c, g = 1.0 + 0j, complex(alpha0)
    if lp is not None:
        c, g = decay(c, g, lp.eta)
    coeffs = c * np.exp(-1j * math.pi / 4) / math.sqrt(2.0) * np.array([[1.0], [1j]])
    amps = np.array([[g], [-g]])
    if lp is not None:
        coeffs, amps = decay(coeffs, amps, lp.xi)
    coeffs, amps = coeffs * np.exp(1j * q * amps.real), amps + 1j * q
    sign = -1j
    if lp is not None:
        coeffs, amps = decay(coeffs, amps, lp.eta)
        sign = 1j

    def overlap(gi, gj):
        return np.exp(-0.5 * abs(gi) ** 2 - 0.5 * abs(gj) ** 2 + np.conj(gi) * gj)

    norm = sum(np.conj(coeffs[i]) * coeffs[j] * overlap(amps[i], amps[j]) for i in range(2) for j in range(2))
    terms = [
        (np.conj(coeffs[i]) * coeffs[j] * overlap(amps[i], -amps[j]), np.conj(amps[i]) - amps[j])
        for i in range(2)
        for j in range(2)
    ]
    prob = 0.5 + (sign * sum(t * erf(w / math.sqrt(2.0)) for t, w in terms)).real / (2.0 * norm.real)
    mean = (sign * sum(t * w for t, w in terms)).real / (2.0 * norm.real)
    return prob, mean


class TestClosedForm:
    def test_matches_interference_sum(self):
        # Measured max gap: 8.9e-16 for p1, 7.5e-15 for <X> (|<X>| up to ~4).
        rng = np.random.default_rng(4)
        q = rng.normal(0.0, 1.0, 200)
        lp = reference_params()
        for alpha0 in ALPHA0S + (0.3 - 2.0j, -1.2 + 0.7j):
            for pair, loss in zip(_pipelines(alpha0, q), (None, lp)):
                prob, mean = _interference_sum(alpha0, q, loss)
                assert np.max(np.abs(kicked_prob_x_positive(pair) - prob)) < 1e-14
                assert np.max(np.abs(kicked_mean_x(pair) - mean)) < 1e-13

    def test_shapes_follow_the_kick(self):
        for pair in _pipelines(1.5, np.float64(0.1)):
            assert np.shape(kicked_prob_x_positive(pair)) == ()
        for pair in _pipelines(1.5, np.zeros((3, 4))):
            assert kicked_prob_x_positive(pair).shape == (3, 4)
            assert kicked_mean_x(pair).shape == (3, 4)

    def test_dawson_diagonal_alone_for_imaginary_alpha0(self):
        # With Re h = 0 the cross term is real, and at |h| = 6 the norm's
        # interference term is e^{-72}, so p1 is the Dawson diagonal alone.
        pair = ideal_pipeline(6.0j, 0.4)
        y, q = 6.0, -0.4
        dawson = dawsn(math.sqrt(2.0) * (y + q)) + dawsn(math.sqrt(2.0) * (q - y))
        want = 0.5 - dawson / (2.0 * math.sqrt(math.pi))
        assert kicked_prob_x_positive(pair) == pytest.approx(want, abs=1e-15)


class TestLargeKicks:
    """``p1`` and ``<X>`` stay finite at any kick, and the coin is fair far out."""

    @pytest.mark.parametrize("alpha0", ALPHA0S)
    def test_finite_and_fair(self, alpha0):
        kicks = np.linspace(-1e3, 1e3, 4001)
        far = np.abs(kicks) >= 20.0
        for pair in _pipelines(alpha0, kicks):
            p1 = kicked_prob_x_positive(pair)
            assert np.all(np.isfinite(p1)) and np.all(np.isfinite(kicked_mean_x(pair)))
            assert np.all((p1 >= 0.0) & (p1 <= 1.0))
            # Measured max 0.17 (lossy, alpha0 = 0.5).
            assert np.max(np.abs(p1[far] - 0.5) * np.abs(kicks[far])) <= 1.0


    def test_finite_for_complex_alpha0_under_heavy_loss(self):
        # e^{±2(m-1) Im(h) q} reaches e^{±3e4} here; without dividing out
        # the larger one, the norm and the numerator overflow to inf/inf.
        lp = params_for(0.6, 0.1)
        kicks = np.concatenate([-np.geomspace(1e5, 1e3, 200), np.geomspace(1e3, 1e5, 200)])
        for alpha0 in (1.0 + 3.0j, -0.5 - 2.0j):
            pair = lossy_pipeline(alpha0, kicks, lp.eta, lp.xi)
            p1 = kicked_prob_x_positive(pair)
            assert np.all(np.isfinite(kicked_mean_x(pair)))
            assert np.all(np.abs(p1 - 0.5) * np.abs(kicks) <= 1.0)

    @pytest.mark.parametrize(("alpha0", "eta", "xi"), [(30.0, 0.5, 0.5), (40.0, 0.6, 0.9)])
    def test_finite_at_large_amplitude_under_heavy_loss(self, alpha0, eta, xi):
        # The common weight |C0|^2 = e^{(eta^2-1)|alpha0|^2/2 + (xi^2-1)|eta alpha0|^2/2}
        # underflows to 0 here; formed and divided out, it made p1 and <X> 0/0.
        kicks = np.linspace(-3.0, 3.0, 601)
        pair = lossy_pipeline(alpha0, kicks, eta, xi)
        p1 = kicked_prob_x_positive(pair)
        assert np.all((p1 >= 0.0) & (p1 <= 1.0))
        assert np.all(np.isfinite(kicked_mean_x(pair)))
        # At q = 0 the kicked cat reads out the lossy peak position exactly.
        mean = kicked_mean_x(lossy_pipeline(alpha0, 0.0, eta, xi))
        assert mean == pytest.approx(-xi * eta**2 * alpha0, rel=1e-15)


class TestColdImport:
    def test_import_loads_neither_scipy_constants_nor_integrate(self):
        code = (
            "import sys, kerrcat, kerrcat.cli; "
            "print(sorted(m for m in ('scipy.constants', 'scipy.integrate') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kerrcat.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

    def test_constants_equal_scipy_exactly(self):
        import scipy.constants

        from kerrcat.constants import hbar, k_boltzmann

        assert hbar == scipy.constants.hbar
        assert k_boltzmann == scipy.constants.k
