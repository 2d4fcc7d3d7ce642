"""NaN, infinite and non-integral inputs are rejected when a parameter object is built."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kerrcat.loss import ForceSpec, LossParams
from kerrcat.montecarlo import ExperimentConfig
from kerrcat.protocol import PhysicalForce, ProtocolParams, run_ideal

NAN = math.nan
INF = math.inf

_RATES = {
    "kappa": 2e5,
    "gamma": 60.0,
    "g": 3e6,
    "omega_m": 6e7,
    "lambda_kerr": 4e7,
    "temp": 0.0,
}


def _loss(**override):
    return lambda: LossParams(**{**_RATES, **override})


def _force(**override):
    values = {"F": 1e-18, "dt": 1e-6, "mass": 1e-15, "omega_m": 6e7}
    return lambda: PhysicalForce(**{**values, **override})


CASES = {
    "loss-kappa-nan": _loss(kappa=NAN),
    "loss-gamma-inf": _loss(gamma=INF),
    "loss-g-inf": _loss(g=INF),
    "loss-omega_m-nan": _loss(omega_m=NAN),
    "loss-lambda_kerr-inf": _loss(lambda_kerr=INF),
    "loss-temp-nan": _loss(temp=NAN),
    "protocol-alpha0-nan": lambda: ProtocolParams(alpha0=NAN),
    "protocol-alpha0-imag-inf": lambda: ProtocolParams(alpha0=complex(1.0, INF)),
    "protocol-delta-inf": lambda: ProtocolParams(alpha0=2.0, delta=INF),
    "protocol-delta-minus-inf": lambda: ProtocolParams(alpha0=2.0, delta=-INF),
    "force-amplitude-nan": lambda: ForceSpec(shape="constant", amplitude=NAN),
    "force-phase-inf": lambda: ForceSpec(shape="resonant-cosine", amplitude=1.0, phase=INF),
    "force-sample-value-nan": lambda: ForceSpec(
        shape="custom-samples", amplitude=1.0, samples=((0.0, 1.0), (1e-6, NAN))
    ),
    "force-sample-time-inf": lambda: ForceSpec(
        shape="custom-samples", amplitude=1.0, samples=((0.0, 1.0), (INF, 0.0))
    ),
    "config-shots-inf": lambda: ExperimentConfig(protocol=ProtocolParams(alpha0=2.0), shots=INF),
    "config-shots-nan": lambda: ExperimentConfig(protocol=ProtocolParams(alpha0=2.0), shots=NAN),
    "config-seed-nan": lambda: ExperimentConfig(protocol=ProtocolParams(alpha0=2.0), seed=NAN),
    "physical-force-F-nan": _force(F=NAN),
    "physical-force-F-minus-inf": _force(F=-INF),
    "physical-force-dt-inf": _force(dt=INF),
    "physical-force-mass-inf": _force(mass=INF),
    "physical-force-omega_m-nan": _force(omega_m=NAN),
    "physical-force-omega_m-inf": _force(omega_m=INF),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_non_finite_input_is_rejected(name):
    with pytest.raises(ValueError, match="must be finite"):
        CASES[name]()


def _config(**override):
    return lambda: ExperimentConfig(protocol=ProtocolParams(alpha0=2.0), **override)


NON_INTEGRAL = {
    "config-shots-fraction": _config(shots=2.5),
    "config-shots-float": _config(shots=1000.0),
    "config-shots-bool": _config(shots=True),
    "config-seed-fraction": _config(seed=1.5),
    "config-seed-float": _config(seed=3.0),
    "config-seed-bool": _config(seed=True),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL))
def test_non_integral_count_is_rejected(name):
    with pytest.raises(ValueError, match="must be an integer"):
        NON_INTEGRAL[name]()


def test_numpy_integers_are_accepted():
    config = ExperimentConfig(protocol=ProtocolParams(alpha0=2.0), shots=np.int64(10), seed=np.uint64(7))
    assert (config.shots, config.seed) == (10, 7)


TRUNCATIONS = {
    "zero": 0,
    "negative": -5,
    "one": 1,
    "fraction": 30.5,
    "whole-float": 30.0,
    "bool": True,
}


@pytest.mark.parametrize("name", sorted(TRUNCATIONS))
def test_invalid_truncation_is_rejected(name):
    with pytest.raises(ValueError, match="truncation must be an integer of at least 2"):
        ProtocolParams(alpha0=2.0, truncation=TRUNCATIONS[name])


def test_numpy_integer_truncation_is_accepted():
    assert run_ideal(ProtocolParams(alpha0=2.0, truncation=np.int64(40))).dim == 40
