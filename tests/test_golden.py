"""Pinned outputs of the shot engine and the exact-engine prediction.

``golden/shot_engine.json`` holds, per scenario, the ``m_counts`` and
``params_digest`` of ``run_experiment`` and the ``S_analytic`` and
``P_emission`` of ``predicted_signal``. Counts and digests must match bit
for bit; ``S_analytic`` within 1e-12. A change that moves a pinned value has
to justify it. ``python tests/test_golden.py`` (run with ``src`` and ``tests``
importable) pins the scenarios that have no entry yet and leaves every
existing entry as it is; to re-pin a scenario, delete its entry first.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from _support import reference_params
from kerrcat.montecarlo import ExperimentConfig, ForceSpec, predicted_signal, run_experiment
from kerrcat.protocol import ProtocolParams

GOLDEN = Path(__file__).parent / "golden" / "shot_engine.json"

S_ANALYTIC_TOL = 1e-12


def _lossy(alpha0=1.5, delta=0.0, temp=0.0, shots=20_000, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        protocol=ProtocolParams(alpha0=alpha0, delta=delta, apply_offset=True),
        loss=reference_params(temp=temp),
        shots=shots,
        **kwargs,
    )


SCENARIOS = {
    "ideal": lambda: ExperimentConfig(
        protocol=ProtocolParams(alpha0=2.0, delta=0.01, apply_offset=True), shots=10_000, seed=0
    ),
    "ideal-complex-alpha0": lambda: ExperimentConfig(
        protocol=ProtocolParams(alpha0=0.5 + 1.5j, delta=0.02, apply_offset=True), shots=10_000, seed=5
    ),
    "lossy-zero-temperature": lambda: _lossy(delta=0.004, seed=1),
    "lossy-thermal": lambda: _lossy(temp=0.05, seed=2),
    "force-resonant-cosine": lambda: _lossy(
        temp=0.02, seed=3, force_spec=ForceSpec(shape="resonant-cosine", amplitude=1.5e5, phase=0.3)
    ),
    "force-constant": lambda: _lossy(seed=4, force_spec=ForceSpec(shape="constant", amplitude=8e4)),
    "force-custom-samples": lambda: _lossy(
        temp=0.01,
        seed=6,
        force_spec=ForceSpec(
            shape="custom-samples",
            amplitude=1.0e5,
            samples=((0.0, 0.0), (2e-7, 1.0), (6e-7, -0.5), (1e-6, 0.25)),
        ),
    ),
    "brute-force-lossy-thermal": lambda: _lossy(
        alpha0=1.0, temp=0.05, shots=300, seed=7, engine="brute-force"
    ),
    # Crosses several 2**16-shot chunk boundaries and ends on a ragged chunk.
    "lossy-thermal-150001": lambda: _lossy(temp=0.1, shots=150_001, seed=8),
    # Two full 2**16-shot chunks of distinct thermal kicks and a 7-shot tail.
    "lossy-thermal-two-chunks-and-tail": lambda: _lossy(temp=0.05, shots=2 * 2**16 + 7, seed=11),
    # At 300 K a chunk's kicks span too wide a range to fit p1 over it.
    "lossy-300K-alpha0-2.5": lambda: _lossy(alpha0=2.5, temp=300.0, shots=2**16 + 3, seed=12),
    # Constant-kick runs: every shot shares one kick and nothing is emitted.
    "ideal-150001": lambda: ExperimentConfig(
        protocol=ProtocolParams(alpha0=2.0, delta=0.005, apply_offset=True), shots=150_001, seed=9
    ),
    "brute-force-ideal": lambda: ExperimentConfig(
        protocol=ProtocolParams(alpha0=1.5, delta=0.01, apply_offset=True),
        shots=5_000,
        seed=10,
        engine="brute-force",
    ),
}


def _record(config: ExperimentConfig) -> dict:
    estimate = run_experiment(config)
    s_analytic, p_emission = predicted_signal(config)
    return {
        "m_counts": estimate.m_counts,
        "params_digest": estimate.params_digest,
        "S_analytic": s_analytic,
        "P_emission": p_emission,
    }


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_scenario_is_pinned():
    assert sorted(_pinned()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    want = _pinned()[name]
    got = _record(SCENARIOS[name]())
    assert got["m_counts"] == want["m_counts"]
    assert got["params_digest"] == want["params_digest"]
    assert got["P_emission"] == want["P_emission"]
    assert math.isclose(got["S_analytic"], want["S_analytic"], rel_tol=0.0, abs_tol=S_ANALYTIC_TOL)


if __name__ == "__main__":
    # Pin only the scenarios not pinned yet; an existing entry is never rewritten.
    table = _pinned() if GOLDEN.exists() else {}
    missing = sorted(set(SCENARIOS) - set(table))
    table.update((name, _record(SCENARIOS[name]())) for name in missing)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(dict(sorted(table.items())), indent=2) + "\n")
    print(f"pinned {len(missing)} new scenario(s): {', '.join(missing) or 'none'}")
