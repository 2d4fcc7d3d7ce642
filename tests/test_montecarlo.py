"""Tests for the shot-level Monte Carlo engine and parameter sweeps."""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy.special import roots_hermite

import kerrcat
from _support import params_for, reference_params
from kerrcat import montecarlo
from kerrcat._coherent import kicked_prob_x_positive
from kerrcat.fock import prob_quadrature_positive
from kerrcat.loss import ForceSpec, KickStats, lossy_offset, momentum_kick_stats, run_lossy_trajectory
from kerrcat.montecarlo import (
    SWEEP_AXES,
    ExperimentConfig,
    outcome_probability,
    predicted_signal,
    run_experiment,
    sweep,
)
from kerrcat.protocol import ProtocolParams, run_ideal


def _stream(seed: int) -> np.random.Generator:
    return montecarlo._stream(seed, montecarlo._KICK_STREAM)


def _draw(rng: np.random.Generator, stats: KickStats, size: int) -> np.ndarray:
    """``size`` kicks on the next ``size`` uniforms of ``rng``, through the map runs use."""
    return montecarlo._kicks_from(rng.random(size), stats)


def ideal_config(**overrides) -> ExperimentConfig:
    kwargs = {
        "protocol": ProtocolParams(alpha0=2.0, delta=0.01, apply_offset=True),
        "shots": 10_000,
        "seed": 0,
    }
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def lossy_config(**overrides) -> ExperimentConfig:
    kwargs = {
        "protocol": ProtocolParams(alpha0=1.5, delta=0.0, apply_offset=True),
        "loss": reference_params(),
        "shots": 10_000,
        "seed": 0,
    }
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def spy_read_out(monkeypatch) -> defaultdict[int, list[tuple[int, int]]]:
    """Record the ``(N, kicks)`` shape of every batched brute-force read-out, per thread."""
    shapes = defaultdict(list)
    read_out = montecarlo.prob_positive_columns

    def spy(amplitudes):
        shapes[threading.get_ident()].append(amplitudes.shape)
        return read_out(amplitudes)

    monkeypatch.setattr(montecarlo, "prob_positive_columns", spy)
    return shapes


class TestSampleKick:
    def test_zero_variance_returns_mean_exactly(self):
        stats = KickStats(mean=0.0123, variance=0.0)
        rng = _stream(7)
        draws = _draw(rng, stats, size=100)
        assert draws.shape == (100,)
        assert np.all(draws == 0.0123)
        # The draws consumed their uniforms, as draws of a non-zero variance do.
        assert rng.random() == _stream(7).random(101)[100]

    def test_moments_match_request(self):
        stats = KickStats(mean=0.3, variance=0.04)
        draws = _draw(_stream(11), stats, size=1_000_000)
        n = draws.size
        assert abs(draws.mean() - 0.3) < 4.0 * 0.2 / math.sqrt(n)
        assert abs(draws.var() / 0.04 - 1.0) < 0.01

    def test_same_seed_same_draws(self):
        stats = KickStats(mean=0.0, variance=1.0)
        a = _draw(_stream(3), stats, size=50)
        b = _draw(_stream(3), stats, size=50)
        assert np.array_equal(a, b)

    def test_one_uniform_per_draw(self):
        stats = KickStats(mean=0.0, variance=1.0)
        rng = _stream(5)
        first = _draw(rng, stats, size=5)
        second = _draw(rng, stats, size=5)
        joined = _draw(_stream(5), stats, size=10)
        assert np.array_equal(np.concatenate([first, second]), joined)


class TestOutcomeProbability:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("delta", [0.0, 0.02, 0.05])
    @pytest.mark.parametrize("apply_offset", [False, True])
    def test_ideal_engines_agree(self, alpha, delta, apply_offset):
        protocol = ProtocolParams(alpha0=alpha, delta=0.0, apply_offset=apply_offset)
        cfg_a = ExperimentConfig(protocol=protocol, engine="analytic")
        cfg_b = ExperimentConfig(protocol=protocol, engine="brute-force")
        p_a = outcome_probability(delta, cfg_a)
        p_b = outcome_probability(delta, cfg_b)
        assert abs(p_a - p_b) < 1e-6

    @pytest.mark.parametrize("lp", [reference_params(), params_for(0.9, 0.1)])
    @pytest.mark.parametrize("delta", [0.0, 0.02, 0.05])
    def test_lossy_engines_agree(self, lp, delta):
        protocol = ProtocolParams(alpha0=1.0, delta=0.0, apply_offset=True)
        cfg_a = ExperimentConfig(protocol=protocol, loss=lp, engine="analytic")
        cfg_b = ExperimentConfig(protocol=protocol, loss=lp, engine="brute-force")
        p_a = outcome_probability(delta, cfg_a)
        p_b = outcome_probability(delta, cfg_b)
        assert abs(p_a - p_b) < 1e-6

    def test_scalar_and_array_dispatch_agree(self):
        cfg = ideal_config()
        scalar = outcome_probability(0.02, cfg)
        array = outcome_probability(np.array([0.02, 0.02]), cfg)
        assert isinstance(scalar, float)
        assert array.shape == (2,)
        assert array[0] == array[1]
        assert abs(scalar - array[0]) < 1e-15

    def test_brute_force_array_uses_cache_consistently(self):
        protocol = ProtocolParams(alpha0=1.0, delta=0.0, apply_offset=False)
        cfg = ExperimentConfig(protocol=protocol, engine="brute-force")
        values = np.array([0.01, 0.03, 0.01, 0.03])
        out = outcome_probability(values, cfg)
        assert out[0] == out[2]
        assert out[1] == out[3]
        assert abs(out[0] - outcome_probability(0.01, cfg)) < 1e-15

    def test_kick_moves_probability_downward(self):
        # Near the working point the slope of the mean is negative, so a
        # positive kick lowers the heads probability.
        cfg = ideal_config()
        p0 = outcome_probability(0.0, cfg)
        p_plus = outcome_probability(0.01, cfg)
        assert p_plus < p0
        assert 0.0 < p_plus < 1.0


class TestConfigValidation:
    def test_invalid_shots_seed_engine(self):
        protocol = ProtocolParams(alpha0=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(protocol=protocol, shots=0)
        with pytest.raises(ValueError):
            ExperimentConfig(protocol=protocol, seed=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(protocol=protocol, engine="exact")

    def test_force_requires_loss(self):
        spec = ForceSpec(shape="constant", amplitude=1.0)
        with pytest.raises(ValueError, match="loss"):
            ExperimentConfig(protocol=ProtocolParams(alpha0=1.0), force_spec=spec)

    def test_brute_force_dimension_cap(self):
        with pytest.raises(ValueError, match="truncation"):
            ExperimentConfig(protocol=ProtocolParams(alpha0=12.0), engine="brute-force")

    @pytest.mark.parametrize(
        "protocol",
        [
            ProtocolParams(alpha0=2.0, delta=100.0, apply_offset=False),
            # The offset pi/(8 Re alpha0) is huge for a nearly imaginary alpha0.
            ProtocolParams(alpha0=1e-4 + 1.0j, delta=0.0, apply_offset=True),
        ],
    )
    def test_brute_force_cap_covers_the_kick(self, protocol):
        # The default truncation is sized for |alpha0| + |total kick|; the cap
        # rejects it before any state is built.
        config = ExperimentConfig(protocol=protocol, shots=10, engine="brute-force")
        with pytest.raises(ValueError, match="truncation <= 160"):
            run_experiment(config)
        with pytest.raises(ValueError, match="truncation <= 160"):
            outcome_probability(protocol.delta, config)

    def test_brute_force_thermal_batch_shares_one_dimension(self, monkeypatch):
        # Every batch of a chunk (its fit's nodes and near-ties, or all the kicks
        # of the 50-shot tail) is sized for the chunk's largest total kick,
        # never kick by kick. Chunks run concurrently, so a batch's read-outs are
        # those of its own thread.
        shots = montecarlo._CHUNK_SHOTS + 50
        shapes = spy_read_out(monkeypatch)
        dims = []
        batch = montecarlo._p1_brute_force

        def spy(delta_prime, model):
            mine = shapes[threading.get_ident()]
            first = len(mine)
            result = batch(delta_prime, model)
            dims.append({dim for dim, _ in mine[first:]})
            return result

        monkeypatch.setattr(montecarlo, "_p1_brute_force", spy)
        # At alpha0 = 0.5 the fit of a 30 K chunk doubles its degree once.
        protocol = ProtocolParams(alpha0=0.5, apply_offset=True)
        config = lossy_config(protocol=protocol, loss=reference_params(temp=30.0), shots=shots, engine="brute-force")
        run_experiment(config)
        kick_rng = _stream(config.seed)
        stats = montecarlo._model(config).stats
        wanted = []
        for start in range(0, shots, montecarlo._CHUNK_SHOTS):
            kicks = _draw(kick_rng, stats, size=min(montecarlo._CHUNK_SHOTS, shots - start))
            total = kicks + lossy_offset(config.protocol.alpha, config.loss)
            wanted.append(montecarlo._brute_force_dim(config, float(np.max(np.abs(total)))))
        assert all(len(batch_dims) == 1 for batch_dims in dims)
        assert {dim for batch_dims in dims for dim in batch_dims} == set(wanted)
        assert len(dims) >= len(wanted)

    def test_force_spec_validation(self):
        with pytest.raises(ValueError):
            ForceSpec(shape="triangle", amplitude=1.0)
        with pytest.raises(ValueError):
            ForceSpec(shape="custom-samples", amplitude=1.0)
        with pytest.raises(ValueError):
            ForceSpec(shape="constant", amplitude=1.0, samples=((0.0, 1.0),))
        with pytest.raises(ValueError, match="phase"):
            ForceSpec(shape="constant", amplitude=1.0, phase=0.3)
        with pytest.raises(ValueError, match="phase"):
            ForceSpec(shape="custom-samples", amplitude=1.0, phase=-0.3, samples=((0.0, 1.0),))
        with pytest.raises(ValueError, match="increasing"):
            ForceSpec(
                shape="custom-samples",
                amplitude=1.0,
                samples=((0.0, 1.0), (0.0, 2.0)),
            )

    @pytest.mark.parametrize("time", [0.0, -1.0, 3e-7, 1.0])
    def test_force_spec_waveforms(self, time):
        lp = reference_params()
        t_swap, amplitude = lp.T_swap, 2.5
        # A one-sample table is the constant held everywhere; a sample inside the
        # swap splits it in two segments, which moves the rounding only.
        table = ForceSpec(shape="custom-samples", amplitude=amplitude, samples=((time, 1.0),))
        constant = momentum_kick_stats(ForceSpec(shape="constant", amplitude=amplitude), lp).mean
        if 0.0 < time < t_swap:
            assert abs(momentum_kick_stats(table, lp).mean - constant) <= 1e-16 * amplitude * t_swap
        else:
            assert momentum_kick_stats(table, lp).mean == constant
        # The ramp f(s) = A s / T over [0, T]: INT s sin(k s) ds = [sin(k s)/k^2 - s cos(k s)/k] from 0 to T.
        ramp = ForceSpec(shape="custom-samples", amplitude=amplitude, samples=((0.0, 0.0), (t_swap, 1.0)))
        exact = sum(
            0.5 * (math.sin(k * t_swap) / k**2 - t_swap * math.cos(k * t_swap) / k)
            for k in (lp.nu + lp.omega_m, lp.nu - lp.omega_m)
        )
        assert abs(momentum_kick_stats(ramp, lp).mean - amplitude * exact / t_swap) <= 1e-15 * amplitude * t_swap


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 1])
    def test_seeds_below_2_63_keep_their_streams(self, seed):
        for purpose in (montecarlo._KICK_STREAM, montecarlo._OUTCOME_STREAM):
            listed = np.random.Generator(np.random.Philox(key=[seed, purpose])).random(8)
            np.testing.assert_array_equal(montecarlo._stream(seed, purpose).random(8), listed)

    def test_seeds_from_2_63_get_streams_of_their_own(self):
        # A key list of Python ints reached Philox through float64: these four
        # seeds fell on two keys, the top two on seed 0's, with a RuntimeWarning.
        seeds = [0, 2**63, 2**63 + 5, 2**64 - 2, 2**64 - 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            firsts = [montecarlo._stream(seed, montecarlo._KICK_STREAM).random(4).tobytes() for seed in seeds]
        assert len(set(firsts)) == len(seeds)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("first", [0, 4, 2**16, 3 * 2**16])
    def test_stream_opened_at_a_uniform_continues_the_whole_stream(self, seed, first):
        for purpose in (montecarlo._KICK_STREAM, montecarlo._OUTCOME_STREAM):
            whole = montecarlo._stream(seed, purpose).random(first + 1000)
            np.testing.assert_array_equal(montecarlo._stream(seed, purpose, first).random(1000), whole[first:])

    def test_chunks_start_on_a_counter_step(self):
        # A stream opens at a counter step of four uniforms, so every chunk must start on one.
        assert montecarlo._CHUNK_SHOTS % 4 == 0

    @pytest.mark.parametrize(
        "config, purposes",
        [
            (lossy_config(loss=reference_params(temp=0.05)), [montecarlo._KICK_STREAM, montecarlo._OUTCOME_STREAM]),
            (ideal_config(), [montecarlo._OUTCOME_STREAM]),
        ],
        ids=["lossy", "ideal"],
    )
    def test_each_chunk_opens_only_the_streams_its_shots_draw(self, monkeypatch, config, purposes):
        # A shot draws its kick (if the kick varies) and its outcome uniform, nothing else.
        opened = []
        stream = montecarlo._stream

        def spy(seed, purpose, first=0):
            opened.append((seed, purpose, first))
            return stream(seed, purpose, first)

        monkeypatch.setattr(montecarlo, "_stream", spy)
        config = dataclasses.replace(config, shots=2 * montecarlo._CHUNK_SHOTS + 5, seed=3)
        run_experiment(config)
        starts = range(0, config.shots, montecarlo._CHUNK_SHOTS)
        assert sorted(opened) == sorted((config.seed, purpose, first) for purpose in purposes for first in starts)


class TestRunExperiment:
    def test_deterministic_for_identical_config(self):
        cfg = ideal_config()
        est1 = run_experiment(cfg)
        est2 = run_experiment(cfg)
        assert est1 == est2

    def test_seed_changes_outcomes(self):
        est0 = run_experiment(ideal_config(seed=0))
        est1 = run_experiment(ideal_config(seed=1))
        assert est0.m_counts != est1.m_counts
        assert est0.params_digest == est1.params_digest

    def test_digest_tracks_parameters(self):
        est_a = run_experiment(ideal_config())
        est_b = run_experiment(
            ideal_config(protocol=ProtocolParams(alpha0=2.0, delta=0.02, apply_offset=True))
        )
        assert est_a.params_digest != est_b.params_digest

    def test_signal_matches_exact_probability(self):
        cfg = ideal_config(shots=100_000)
        est = run_experiment(cfg)
        expected = outcome_probability(cfg.protocol.delta, cfg) - 0.5
        sigma = 1.0 / math.sqrt(4.0 * cfg.shots)
        assert abs(est.S - expected) < 4.0 * sigma

    def test_lossy_signal_matches_prediction_off_the_working_point(self):
        # Offset off, p1 is far from 1/2 (S = -0.444, P = 0.10), so the emission's fair
        # coin moves S by ~0.05: ~30 sigma at this shot count. The prediction's mixing
        # is checked against a kick average of the engine's p1, mixed independently.
        config = lossy_config(
            protocol=ProtocolParams(alpha0=1.5, apply_offset=False), loss=reference_params(temp=0.05), shots=100_000
        )
        estimate = run_experiment(config)
        s_analytic, P = predicted_signal(config)
        stats = montecarlo._model(config).stats
        nodes, weights = roots_hermite(201)
        p_mean = weights @ outcome_probability(stats.mean + math.sqrt(2.0 * stats.variance) * nodes, config)
        assert s_analytic == pytest.approx(_coin(p_mean / math.sqrt(math.pi), P) - 0.5, abs=1e-12)
        assert s_analytic == pytest.approx(-0.444, abs=1e-3)
        assert abs(estimate.S - s_analytic) < 5.0 * estimate.sigma_S

    def test_lossy_zero_force_signal_matches_prediction(self):
        base = lossy_config(shots=20_000)
        row = sweep("delta", [0.0], base)[0]
        assert abs(row.estimate.S - row.S_analytic) < 4.0 * row.estimate.sigma_S

    def test_force_shifts_signal(self):
        lp = reference_params()
        base = lossy_config(protocol=ProtocolParams(alpha0=1.0, apply_offset=True), shots=100_000)
        spec = ForceSpec(shape="resonant-cosine", amplitude=0.05 * lp.nu)
        forced = dataclasses.replace(base, force_spec=spec)
        kick_mean = momentum_kick_stats(spec, lp).mean
        assert kick_mean == pytest.approx(0.05, rel=0.05)
        s_plain = run_experiment(base).S
        s_forced = run_experiment(forced).S
        assert abs(s_forced - s_plain) > 0.02

    def test_engines_agree_shot_for_shot(self):
        protocol = ProtocolParams(alpha0=1.5, delta=0.01, apply_offset=True)
        cfg_a = ExperimentConfig(protocol=protocol, shots=500, seed=42, engine="analytic")
        cfg_b = ExperimentConfig(protocol=protocol, shots=500, seed=42, engine="brute-force")
        assert run_experiment(cfg_a).m_counts == run_experiment(cfg_b).m_counts

    def test_estimate_bookkeeping(self):
        cfg = ideal_config(shots=400, seed=17)
        est = run_experiment(cfg)
        assert est.M == 400
        assert est.seed == 17
        assert 0 <= est.m_counts <= 400
        assert est.sigma_S == pytest.approx(1.0 / math.sqrt(1600.0), abs=1e-15)
        assert est.S == pytest.approx(est.m_counts / 400.0 - 0.5, abs=1e-15)


class TestEngineCalls:
    """``run_experiment`` evaluates ``p1`` only as often as the kicks differ."""

    @staticmethod
    def _spy(monkeypatch) -> list[int]:
        sizes: list[int] = []
        p1 = montecarlo._Model.p1

        def spy(model, kicks):
            sizes.append(np.size(kicks))
            return p1(model, kicks)

        monkeypatch.setattr(montecarlo._Model, "p1", spy)
        return sizes

    def test_constant_kick_evaluates_p1_once(self, monkeypatch):
        sizes = self._spy(monkeypatch)
        run_experiment(ideal_config(shots=200_000, seed=3))
        assert sizes == [1]

    def test_constant_kick_brute_force_evaluates_p1_once(self, monkeypatch):
        sizes = self._spy(monkeypatch)
        run_experiment(ideal_config(shots=2_000, engine="brute-force"))
        assert sizes == [1]

    def test_thermal_kicks_evaluate_every_chunk(self, monkeypatch):
        # Every chunk, the 5-shot tail too, evaluates its fit's nodes, each batch
        # with the chunk's two extreme kicks.
        sizes = self._spy(monkeypatch)
        chunk = montecarlo._CHUNK_SHOTS
        run_experiment(lossy_config(loss=reference_params(temp=0.05), shots=2 * chunk + 5, seed=3))
        nodes = 2 * montecarlo._MIN_FIT_DEGREE + 1
        assert sizes == [nodes + 2, nodes + 2, nodes + 2]

    def test_short_brute_force_run_evaluates_only_the_fit_nodes(self, monkeypatch):
        sizes = self._spy(monkeypatch)
        run_experiment(lossy_config(loss=reference_params(temp=0.05), shots=1000, seed=3, engine="brute-force"))
        assert sizes == [2 * montecarlo._MIN_FIT_DEGREE + 1 + 2]


def _coin(p1, P: float):
    """Heads probability of a shot: a fair coin with the emission probability ``P``, else ``p1``."""
    return 0.5 * P + (1.0 - P) * p1


def _engine_coin(kicks: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Heads probability of each kick, from the prediction's ``P`` and the engine's ``p1`` at every kick."""
    return _coin(outcome_probability(kicks, config), predicted_signal(config)[1])


def _engine_counts(config: ExperimentConfig) -> int:
    """``m_counts`` on the streams of ``run_experiment``, with the engine evaluated at every kick."""
    stats, (_, P) = montecarlo._model(config).stats, predicted_signal(config)
    purposes = (montecarlo._KICK_STREAM, montecarlo._OUTCOME_STREAM)
    kick_rng, out_rng = (montecarlo._stream(config.seed, purpose) for purpose in purposes)
    heads = 0
    for start in range(0, config.shots, montecarlo._CHUNK_SHOTS):
        size = min(montecarlo._CHUNK_SHOTS, config.shots - start)
        p1 = outcome_probability(_draw(kick_rng, stats, size=size), config)
        heads += int(np.count_nonzero(out_rng.random(size) < _coin(p1, P)))
    return heads


def _chunk_kicks(u_kick: np.ndarray, config: ExperimentConfig) -> tuple[np.ndarray, float, float]:
    """The kicks of a chunk's uniforms, and the fit range: the kicks of its extreme uniforms."""
    stats = montecarlo._model(config).stats
    lo, hi = montecarlo._kicks_from(np.array([u_kick.min(), u_kick.max()]), stats)
    return montecarlo._kicks_from(u_kick, stats), lo, hi


def _fitted(kicks: np.ndarray, lo: float, hi: float, config: ExperimentConfig) -> np.ndarray:
    """The chunk fit's heads probability ``q`` at each kick."""
    coeffs = montecarlo._chunk_fit(lo, hi, montecarlo._model(config))
    assert coeffs is not None
    return chebval(np.clip((2.0 * kicks - (lo + hi)) / (hi - lo), -1.0, 1.0), coeffs)


def _spy_kick_map(monkeypatch) -> list[np.ndarray]:
    """Record the uniforms of every call of the uniform-to-kick map."""
    seen = []
    kicks_from = montecarlo._kicks_from

    def spy(u, stats):
        seen.append(np.array(u))
        return kicks_from(u, stats)

    monkeypatch.setattr(montecarlo, "_kicks_from", spy)
    return seen


class TestChunkFit:
    """A chunk of distinct kicks decides its shots from a Chebyshev fit of its heads probability ``q``."""

    @pytest.mark.filterwarnings("ignore:emission probability exceeds")
    @pytest.mark.parametrize("apply_offset", [True, False])
    @pytest.mark.parametrize("temp", [0.0, 0.05, 1.0, 30.0, 300.0])
    @pytest.mark.parametrize("alpha0", [0.5, 1.5, 2.5, 4.0, 1.0 + 1.0j])
    def test_counts_equal_the_engine_at_every_kick(self, monkeypatch, alpha0, temp, apply_offset):
        # Three chunks and a 7-shot tail, each fitted (or, when hot, direct).
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 2**13)
        for seed in (1, 2):
            config = lossy_config(
                protocol=ProtocolParams(alpha0=alpha0, apply_offset=apply_offset),
                loss=reference_params(temp=temp),
                shots=3 * 2**13 + 7,
                seed=seed,
            )
            assert run_experiment(config).m_counts == _engine_counts(config)

    @pytest.mark.parametrize("apply_offset", [True, False])
    @pytest.mark.parametrize("temp", [0.05, 30.0])
    @pytest.mark.parametrize("alpha0", [0.5, 1.0 + 1.0j])
    def test_brute_force_counts_equal_the_engine_at_every_kick(self, monkeypatch, alpha0, temp, apply_offset):
        monkeypatch.setattr(montecarlo, "_CHUNK_SHOTS", 2**13)
        config = lossy_config(
            protocol=ProtocolParams(alpha0=alpha0, apply_offset=apply_offset),
            loss=reference_params(temp=temp),
            shots=2 * 2**13 + 7,
            seed=3,
            engine="brute-force",
        )
        assert run_experiment(config).m_counts == _engine_counts(config)

    @pytest.mark.parametrize("engine", ["analytic", "brute-force"])
    @pytest.mark.parametrize("temp", [0.05, 30.0])
    @pytest.mark.parametrize("shots", [2, 5, 1000, 4127])
    @pytest.mark.parametrize("alpha0", [1.5, 1.0 + 1.0j])
    def test_short_run_counts_equal_the_engine_at_every_kick(self, alpha0, shots, temp, engine):
        for seed in (1, 2):
            config = lossy_config(
                protocol=ProtocolParams(alpha0=alpha0, apply_offset=True),
                loss=reference_params(temp=temp),
                shots=shots,
                seed=seed,
                engine=engine,
            )
            assert run_experiment(config).m_counts == _engine_counts(config)

    @pytest.mark.parametrize("temp", [0.05, 300.0])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_series_passes_through_its_values(self, n, temp):
        # p1 over 8 kick stds; measured at most 5.0e-16.
        config = lossy_config(loss=reference_params(temp=temp))
        nodes = montecarlo._lobatto(n)
        values = outcome_probability(4.0 * montecarlo._model(config).stats.std * nodes, config)
        coeffs = montecarlo._chebyshev_coefficients(values)
        assert np.max(np.abs(chebval(nodes, coeffs) - values)) <= 1e-15

    @pytest.mark.filterwarnings("ignore:emission probability exceeds")
    @pytest.mark.parametrize("temp", [0.05, 0.1, 1.0, 30.0, 100.0])
    @pytest.mark.parametrize("alpha0", [0.5, 1.5, 4.0, 0.3 + 2.0j])
    def test_fit_meets_the_engine_at_every_kick(self, alpha0, temp):
        # Checked at points it was not fitted on, the fit also holds between them
        # (measured: at most 7.0e-15 on this grid, both offsets, two seeds).
        config = lossy_config(protocol=ProtocolParams(alpha0=alpha0, apply_offset=True), loss=reference_params(temp=temp))
        kicks, lo, hi = _chunk_kicks(_stream(1).random(montecarlo._CHUNK_SHOTS), config)
        fitted = _fitted(kicks, lo, hi, config)
        assert np.max(np.abs(fitted - _engine_coin(kicks, config))) <= montecarlo._FIT_TOL

    def test_near_ties_are_decided_by_the_engine(self, monkeypatch):
        config = lossy_config(loss=reference_params(temp=0.05))
        u_kick = _stream(4).random(montecarlo._CHUNK_SHOTS)
        kicks, lo, hi = _chunk_kicks(u_kick, config)
        fitted = _fitted(kicks, lo, hi, config)
        band = montecarlo._TIE_BAND
        u_out = np.random.default_rng(0).random(kicks.size)
        u_out[[3, 500, 60_000]] = fitted[[3, 500, 60_000]]
        u_out[7] = fitted[7] + 0.9 * band
        u_out[9] = fitted[9] - 1.1 * band
        ties = np.flatnonzero(np.abs(u_out - fitted) <= band)
        assert list(ties) == [3, 7, 500, 60_000]
        calls = []
        p1 = montecarlo._Model.p1

        def spy(model, kicks):
            result = p1(model, kicks)
            calls.append((np.array(kicks), result))
            return result

        monkeypatch.setattr(montecarlo._Model, "p1", spy)
        heads = montecarlo._chunk_heads(u_kick, u_out, montecarlo._model(config))
        deltas, values = calls[-1]
        np.testing.assert_array_equal(deltas, np.concatenate(([lo, hi], kicks[ties])))
        np.testing.assert_array_equal(heads[ties], u_out[ties] < _coin(values[2:], predicted_signal(config)[1]))
        rest = np.setdiff1d(np.arange(kicks.size), ties)
        np.testing.assert_array_equal(heads[rest], u_out[rest] < fitted[rest])

    def test_cold_chunk_maps_only_the_kicks_its_coins_need(self, monkeypatch):
        # alpha0 = 1.5 at 0.05 K: about 13% of the outcome uniforms fall within
        # the series' bound of its constant term, and only their kicks are mapped.
        config = lossy_config(loss=reference_params(temp=0.05))
        model, size = montecarlo._model(config), 2**16
        u_kick, u_out = _stream(6).random(size), np.random.default_rng(6).random(size)
        _, lo, hi = _chunk_kicks(u_kick, config)
        coeffs = montecarlo._chunk_fit(lo, hi, model)
        reach = np.sum(np.abs(coeffs[1:])) + montecarlo._TIE_BAND
        mapped = _spy_kick_map(monkeypatch)
        heads = montecarlo._chunk_heads(u_kick, u_out, model)
        assert len(mapped) == 2
        np.testing.assert_array_equal(mapped[0], [u_kick.min(), u_kick.max()])
        np.testing.assert_array_equal(mapped[1], u_kick[np.abs(u_out - coeffs[0]) <= reach])
        assert mapped[1].size <= 0.2 * size
        q = _engine_coin(_draw(_stream(6), model.stats, size), config)
        np.testing.assert_array_equal(heads, u_out < q)

    @pytest.mark.filterwarnings("ignore:emission probability exceeds")
    def test_hot_chunk_maps_every_kick(self, monkeypatch):
        # At 300 K the range of an alpha0 = 4 chunk asks for more than the node cap.
        config = lossy_config(protocol=ProtocolParams(alpha0=4.0, apply_offset=True), loss=reference_params(temp=300.0))
        model, size = montecarlo._model(config), 2**16
        u_kick, u_out = _stream(8).random(size), np.random.default_rng(8).random(size)
        mapped = _spy_kick_map(monkeypatch)
        heads = montecarlo._chunk_heads(u_kick, u_out, model)
        assert [m.size for m in mapped] == [2, size]
        q = _engine_coin(_draw(_stream(8), model.stats, size), config)
        np.testing.assert_array_equal(heads, u_out < q)

    @pytest.mark.filterwarnings("ignore:emission probability exceeds")
    @pytest.mark.parametrize("centre", [math.exp(-2.0), 1.0 - math.exp(-2.0)])
    @pytest.mark.parametrize("alpha0", [1.5, 4.0])
    def test_chunks_straddling_a_non_monotone_ndtri_meet_the_engine(self, alpha0, centre):
        # Near e^-2 and 1 - e^-2, ndtri is not monotone to the ulp, so the kicks
        # of the extreme uniforms need not be the extreme kicks. Chunks of 3 and
        # 5 consecutive doubles there, and one spread over (centre, 1), each get
        # uniforms half a tie band either side of every engine q.
        config = lossy_config(protocol=ProtocolParams(alpha0=alpha0, apply_offset=True), loss=reference_params(temp=0.05))
        model, (_, P) = montecarlo._model(config), predicted_signal(config)
        doubles = centre + np.spacing(centre) * np.arange(-160, 161)
        chunks = [doubles[start : start + width] for width in (3, 5) for start in range(doubles.size - width)]
        chunks.append(np.concatenate((doubles, np.random.default_rng(3).uniform(centre, 1.0, 2000))))
        outside = 0
        for u_kick in chunks:
            kicks, lo, hi = _chunk_kicks(np.repeat(u_kick, 2), config)
            outside += bool(np.any((kicks < lo) | (kicks > hi)))
            q = _coin(outcome_probability(kicks, config), P)
            u_out = q + np.tile([0.5, -0.5], u_kick.size) * montecarlo._TIE_BAND
            heads = montecarlo._chunk_heads(np.repeat(u_kick, 2), u_out, model)
            np.testing.assert_array_equal(heads, u_out < q)
        assert outside > 0

    @pytest.mark.filterwarnings("ignore:emission probability exceeds")
    def test_hot_chunks_fall_back_within_the_node_cap(self, monkeypatch):
        sizes = TestEngineCalls._spy(monkeypatch)
        chunk = montecarlo._CHUNK_SHOTS
        protocol = ProtocolParams(alpha0=4.0, apply_offset=True)
        config = lossy_config(protocol=protocol, loss=reference_params(temp=300.0), shots=chunk)
        run_experiment(config)
        assert sizes == [chunk]  # the bandwidth already asks for more than the cap
        # Told the bandwidth is 1, the fit doubles to the cap, then gives up.
        monkeypatch.setattr(montecarlo, "_p1_bandwidth", lambda config: 1.0)
        sizes.clear()
        run_experiment(config)
        assert len(sizes) > 1 and sizes[-1] == chunk
        # Each node batch carries the chunk's two extreme kicks.
        assert sum(size - 2 for size in sizes[:-1]) <= 2 * montecarlo._MAX_FIT_DEGREE + 1


def _in_a_child(config: ExperimentConfig, queue) -> None:
    queue.put(run_experiment(config).m_counts)


class TestConcurrentChunks:
    """The chunks of a run run on a pool of threads, and no count depends on it."""

    SHOTS = 2 * 2**16 + 5

    @pytest.mark.filterwarnings("ignore:emission probability exceeds")
    @pytest.mark.parametrize(
        "alpha0, temp, engine",
        [(1.5, 0.05, "analytic"), (4.0, 300.0, "analytic"), (0.5, 30.0, "brute-force")],
        ids=["cold", "hot-fall-back", "brute-force"],
    )
    def test_counts_do_not_depend_on_the_worker_count(self, monkeypatch, alpha0, temp, engine):
        config = lossy_config(
            protocol=ProtocolParams(alpha0=alpha0, apply_offset=True),
            loss=reference_params(temp=temp),
            shots=self.SHOTS,
            seed=3,
            engine=engine,
        )
        threads = []
        chunk_count = montecarlo._chunk_count

        def spy(*args):
            threads.append(threading.current_thread().name)
            return chunk_count(*args)

        monkeypatch.setattr(montecarlo, "_chunk_count", spy)
        counts = []
        interval = sys.getswitchinterval()
        # Threads switch far more often than by default, so chunks interleave at many points.
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                with ThreadPoolExecutor(workers, thread_name_prefix=f"test-{workers}") as pool:
                    monkeypatch.setattr(montecarlo, "_pool", pool)
                    counts.append(run_experiment(config).m_counts)
        finally:
            sys.setswitchinterval(interval)
        assert counts == [_engine_counts(config)] * 3
        assert [name.split("_")[0] for name in threads] == ["test-1"] * 3 + ["test-2"] * 3 + ["test-3"] * 3

    @pytest.mark.parametrize("cores, workers", [(1, 1), (2, 2), (16, montecarlo._MAX_CHUNKS_IN_FLIGHT)])
    def test_chunks_in_flight_are_capped_on_any_host(self, monkeypatch, cores, workers):
        # Each chunk in flight holds its own working set, so a many-core host must not raise a run's memory.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        assert montecarlo._workers() == workers

    def test_a_failing_chunk_raises_to_the_caller(self, monkeypatch):
        config = lossy_config(loss=reference_params(temp=0.05), shots=self.SHOTS, seed=3)
        calls = itertools.count(1)
        failure = RuntimeError("third chunk fails")
        chunk_heads = montecarlo._chunk_heads

        def spy(*args):
            if next(calls) == 3:
                raise failure
            return chunk_heads(*args)

        monkeypatch.setattr(montecarlo, "_chunk_heads", spy)
        with pytest.raises(RuntimeError) as raised:
            run_experiment(config)
        assert raised.value is failure
        assert run_experiment(config).m_counts == _engine_counts(config)

    # Forking a process that runs threads is the hazard under test; Python 3.12+ warns of it.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_runs_a_multi_chunk_run(self):
        # A child inherits the parent's pool but not its threads; the child must not hand it work.
        config = lossy_config(loss=reference_params(temp=0.05), shots=self.SHOTS, seed=3)
        m_counts = run_experiment(config).m_counts
        assert montecarlo._pool is not None
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_in_a_child, args=(config, queue))
        child.start()
        try:
            assert queue.get(timeout=60) == m_counts
            child.join(timeout=60)
            assert child.exitcode == 0
        finally:
            child.kill()
            child.join()

    def test_only_a_multi_chunk_run_starts_threads(self):
        # The first run of more than one chunk starts the pool's threads, one per chunk in flight.
        code = (
            "import dataclasses, threading, kerrcat; "
            "counts = [threading.active_count()]; "
            "lp = dataclasses.replace(kerrcat.reference_loss_params(), temp=0.05); "
            "config = kerrcat.ExperimentConfig(kerrcat.ProtocolParams(alpha0=1.5), lp, shots=2**16); "
            "kerrcat.run_experiment(config); counts.append(threading.active_count()); "
            "kerrcat.run_experiment(dataclasses.replace(config, shots=2**17)); "
            "counts.append(threading.active_count() - kerrcat.montecarlo._workers()); "
            "print(counts)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(kerrcat.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.split() == ["[1,", "1,", "1]"]


class TestPrediction:
    """``predicted_signal`` averages ``p1`` over the kick noise to convergence at any temperature."""

    @staticmethod
    def _config(alpha0, temp, **overrides):
        protocol = ProtocolParams(alpha0=alpha0, delta=0.0, apply_offset=True)
        return lossy_config(protocol=protocol, loss=reference_params(temp=temp), **overrides)

    @pytest.mark.parametrize("temp", [0.0, 0.01, 1.0, 100.0, 300.0, 1000.0, 3000.0])
    def test_matches_a_4001_node_reference(self, temp):
        nodes, weights = roots_hermite(4001)
        for alpha0 in (0.5, 1.5, 2.5, 4.0):
            config = self._config(alpha0, temp)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # P > 0.5 at alpha0 = 4
                s_analytic, p_emit = predicted_signal(config)
            model = montecarlo._model(config)
            stats = model.stats
            p1 = montecarlo._p1_analytic(stats.mean + math.sqrt(2.0 * stats.variance) * nodes, model)
            reference = (1.0 - p_emit) * (float(weights @ p1) / math.sqrt(math.pi) - 0.5)
            # Measured max gap 7.0e-13 (300 K, alpha0 = 0.5).
            assert abs(s_analytic - reference) < 1e-10, alpha0

    def test_keeps_21_nodes_where_they_converge(self):
        nodes, weights = np.polynomial.hermite.hermgauss(21)
        config = self._config(1.5, 0.05)
        model = montecarlo._model(config)
        stats = model.stats
        p1 = montecarlo._p1_analytic(stats.mean + math.sqrt(2.0 * stats.variance) * nodes, model)
        s_analytic, p_emit = predicted_signal(config)
        assert s_analytic == pytest.approx((1.0 - p_emit) * (float(weights @ p1) / math.sqrt(math.pi) - 0.5), abs=1e-15)

    @pytest.mark.parametrize("temp", [300.0, 1000.0])
    def test_run_matches_prediction_when_hot(self, temp):
        estimate = run_experiment(self._config(2.5, temp, shots=1_000_000, seed=11))
        s_analytic, _ = predicted_signal(self._config(2.5, temp))
        assert abs(estimate.S - s_analytic) < 5.0 * estimate.sigma_S

    @pytest.mark.parametrize("phase", [0.3, 1.2, math.pi / 2, 2.5])
    def test_emission_probability_uses_the_modulus_of_alpha0(self, phase):
        # Photons leak at kappa*|alpha0|^2, so P does not depend on arg alpha0.
        protocol = ProtocolParams(alpha0=1.5 * cmath.exp(1j * phase), apply_offset=False)
        _, p_emit = predicted_signal(lossy_config(protocol=protocol))
        _, p_real = predicted_signal(lossy_config(protocol=ProtocolParams(alpha0=1.5)))
        assert p_emit == pytest.approx(p_real, rel=1e-14)

    def test_warns_when_the_average_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MAX_HERMITE_NODES", 64)
        with pytest.warns(UserWarning, match="did not converge"):
            predicted_signal(self._config(2.5, 3000.0))

    @pytest.mark.parametrize(
        "run", [predicted_signal, lambda config: sweep("temp", [3000.0], config)], ids=["predicted_signal", "sweep"]
    )
    def test_non_convergence_warning_names_the_caller(self, monkeypatch, run):
        monkeypatch.setattr(montecarlo, "_MAX_HERMITE_NODES", 64)
        with pytest.warns(UserWarning, match="did not converge") as record:
            run(self._config(2.5, 3000.0, shots=100))
        assert [w.filename for w in record if "did not converge" in str(w.message)] == [__file__]


class TestModel:
    """A config resolves into one model; ``P`` is evaluated where a run or a prediction needs it, first."""

    def test_outcome_probability_does_not_evaluate_P(self):
        # alpha0 = 4 at the reference rates puts P above 0.5, which warns wherever P is evaluated.
        config = lossy_config(protocol=ProtocolParams(alpha0=4.0, apply_offset=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 0.0 < outcome_probability(0.0, config) < 1.0
        with pytest.warns(UserWarning, match="emission probability exceeds 0.5"):
            predicted_signal(config)

    @pytest.mark.parametrize(
        "run",
        [run_experiment, predicted_signal, lambda config: sweep("delta", [0.0], config)],
        ids=["run_experiment", "predicted_signal", "sweep"],
    )
    def test_P_warns_before_an_undefined_offset_raises(self, run):
        # lambda_kerr = 50 Hz at kappa = 100 kHz makes eta underflow to 0, so the offset is undefined.
        loss = dataclasses.replace(reference_params(), lambda_kerr=2.0 * math.pi * 50.0)
        with pytest.warns(UserWarning, match="emission probability exceeds 0.5"):
            with pytest.raises(ValueError, match="offset is undefined"):
                run(lossy_config(loss=loss, shots=100))


class TestBruteForceBatch:
    """The brute-force engine applies and reads out a batch of kicks at once."""

    @pytest.mark.parametrize("loss", [None, reference_params(), params_for(0.6, 0.05)])
    def test_batch_matches_one_state_per_kick(self, loss):
        protocol = ProtocolParams(alpha0=1.5, delta=0.0, apply_offset=True, truncation=48)
        config = ExperimentConfig(protocol=protocol, loss=loss, engine="brute-force")
        kicks = np.linspace(-0.05, 0.05, 21)
        batch = outcome_probability(kicks, config)
        for kick, value in zip(kicks, batch):
            if loss is None:
                psi = run_ideal(dataclasses.replace(protocol, delta=float(kick)))
            else:
                total = float(kick) + lossy_offset(protocol.alpha, loss)
                psi = run_lossy_trajectory(protocol.alpha0, total, loss, N=48)
            assert abs(value - prob_quadrature_positive(psi)) <= 1e-15, kick

    def test_large_batch_is_read_out_in_bounded_slices(self, monkeypatch):
        shapes = spy_read_out(monkeypatch)[threading.get_ident()]
        protocol = ProtocolParams(alpha0=2.0, apply_offset=True, truncation=160)
        config = ExperimentConfig(protocol=protocol, engine="brute-force")
        p1 = outcome_probability(np.linspace(-0.1, 0.1, 1000), config)
        assert p1.shape == (1000,)
        assert len(shapes) > 1
        assert all(dim == 160 and dim * kicks <= montecarlo._CHUNK_SHOTS for dim, kicks in shapes)
        assert sum(kicks for _, kicks in shapes) == 1000


class TestBoundedMemory:
    def test_million_shot_run_stays_under_64_mb(self):
        # Shots run in fixed-size chunks, so the peak does not grow with M.
        self._assert_under_64_mb(lossy_config(loss=reference_params(temp=0.05), shots=1_000_000, seed=9))

    @pytest.mark.filterwarnings("ignore:emission probability exceeds")
    def test_hot_million_shot_run_stays_under_64_mb(self):
        # At 300 K the chunks evaluate the engine at every kick.
        protocol = ProtocolParams(alpha0=4.0, delta=0.0, apply_offset=True)
        self._assert_under_64_mb(
            lossy_config(protocol=protocol, loss=reference_params(temp=300.0), shots=1_000_000, seed=9)
        )

    @staticmethod
    def _assert_under_64_mb(cfg: ExperimentConfig) -> None:
        tracemalloc.start()
        try:
            estimate = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert estimate.M == 1_000_000
        assert peak < 64e6


class TestEnsembleStatistics:
    def test_two_sigma_coverage(self):
        # Across 200 independent seeds, the 2-sigma interval around the
        # exact signal should cover the estimate 91-99% of the time.
        cfg = ideal_config()
        expected = outcome_probability(cfg.protocol.delta, cfg) - 0.5
        sigma = 1.0 / math.sqrt(4.0 * cfg.shots)
        hits = 0
        for seed in range(200):
            est = run_experiment(dataclasses.replace(cfg, seed=seed))
            hits += abs(est.S - expected) <= 2.0 * sigma
        assert 182 <= hits <= 198

    def test_signal_noise_floor(self):
        # The shot-noise floor of S at M = 1e4 is 1/sqrt(4M) = 0.005,
        # independent of the underlying bias.
        cfg = ideal_config()
        values = [run_experiment(dataclasses.replace(cfg, seed=s)).S for s in range(400)]
        spread = float(np.std(values))
        assert abs(spread - 0.005) < 0.1 * 0.005

    def test_full_dephasing_kills_signal(self):
        lp = params_for(0.9, 0.5)
        protocol = ProtocolParams(alpha0=1.0, delta=0.01, apply_offset=True)
        with pytest.warns(UserWarning, match="emission probability"):
            rows = sweep("delta", [0.01], ExperimentConfig(protocol=protocol, loss=lp))
        row = rows[0]
        assert row.P_emission == pytest.approx(1.0, abs=1e-12)
        assert row.S_analytic == pytest.approx(0.0, abs=1e-15)
        assert abs(row.estimate.S) < 3.0 * row.estimate.sigma_S


class TestSweep:
    def test_row_structure_and_seeds(self):
        base = ideal_config(seed=5)
        rows = sweep("delta", [-0.02, 0.0, 0.02], base)
        assert [row.value for row in rows] == [-0.02, 0.0, 0.02]
        for index, row in enumerate(rows):
            assert row.axis == "delta"
            assert row.estimate.seed == 5 + index
            assert row.P_emission == 0.0
            assert row.estimate.M == base.shots

    def test_seed_past_the_range_fails_before_the_first_cell(self, monkeypatch):
        cells = []
        monkeypatch.setattr(montecarlo, "_simulate", lambda *args: cells.append(args))
        with pytest.raises(ValueError, match=str(2**64)):
            sweep("delta", [0.0, 0.01], ideal_config(seed=2**64 - 1))
        assert cells == []

    def test_cells_track_prediction(self):
        rows = sweep("delta", [-0.02, 0.0, 0.02], ideal_config())
        for row in rows:
            assert abs(row.estimate.S - row.S_analytic) <= 4.0 * row.estimate.sigma_S

    def test_alpha_sweep_shows_enhancement(self):
        base = ideal_config(protocol=ProtocolParams(alpha0=1.0, delta=0.01, apply_offset=True))
        rows = sweep("alpha", [1.0, 1.5, 2.0], base)
        magnitudes = [abs(row.S_analytic) for row in rows]
        assert magnitudes[0] < magnitudes[1] < magnitudes[2]

    def test_alpha_axis_keeps_the_imaginary_part(self):
        protocol = ProtocolParams(alpha0=1.5 + 0.3j, delta=0.01, apply_offset=True)
        base = ideal_config(protocol=protocol, shots=100)
        cell = dataclasses.replace(base, protocol=dataclasses.replace(base.protocol, alpha0=2.0 + 0.3j))
        assert sweep("alpha", [2.0], base)[0].estimate == run_experiment(cell)

    def test_kappa_sweep_increases_emission(self):
        lp = reference_params()
        base = lossy_config(shots=100)
        values = [0.5 * lp.kappa, lp.kappa, 2.0 * lp.kappa]
        rows = sweep("kappa", values, base)
        assert rows[0].P_emission < rows[1].P_emission < rows[2].P_emission

    def test_shots_axis_changes_m(self):
        # A whole float, as the CLI parses it, is a count.
        rows = sweep("shots", [100, 250.0], ideal_config())
        assert rows[0].estimate.M == 100
        assert rows[1].estimate.M == 250

    @pytest.mark.parametrize("value", [1000.7, 50.2, math.nan, math.inf])
    def test_shots_axis_rejects_non_integral_values(self, value):
        # Truncating would run int(value) shots but report value as the cell.
        with pytest.raises(ValueError, match="shots must be a whole number"):
            sweep("shots", [value], ideal_config())

    def test_deterministic(self):
        base = ideal_config()
        assert sweep("delta", [0.0, 0.01], base) == sweep("delta", [0.0, 0.01], base)

    @pytest.mark.parametrize(
        "axis, values, base",
        [
            ("delta", [-0.02, 0.0, 0.02], ideal_config()),
            ("temp", [0.0, 0.05, 300.0], lossy_config(shots=2_000)),
            ("delta", [0.0, 0.01], ideal_config(engine="brute-force", shots=500)),
        ],
    )
    def test_rows_equal_per_cell_run_and_prediction(self, axis, values, base):
        for index, (row, value) in enumerate(zip(sweep(axis, values, base), values)):
            cell = dataclasses.replace(montecarlo._apply_axis(base, axis, value), seed=base.seed + index)
            s_analytic, p_emit = predicted_signal(cell)
            assert row.estimate == run_experiment(cell)
            assert row.P_emission == p_emit
            assert abs(row.S_analytic - s_analytic) <= 1e-15

    def test_ideal_cell_evaluates_the_kernel_once(self, monkeypatch):
        calls = []

        def spy(pair):
            calls.append(np.size(pair.q))
            return kicked_prob_x_positive(pair)

        monkeypatch.setattr(montecarlo, "kicked_prob_x_positive", spy)
        sweep("delta", [-0.02, 0.0, 0.02], ideal_config())
        assert calls == [1, 1, 1]

    def test_lossy_cell_runs_the_kick_quadrature_once(self, monkeypatch):
        calls = []

        def spy(force, lp):
            calls.append(lp.temp)
            return momentum_kick_stats(force, lp)

        monkeypatch.setattr(montecarlo, "momentum_kick_stats", spy)
        sweep("temp", [0.0, 0.05], lossy_config(shots=100))
        assert calls == [0.0, 0.05]

    def test_loss_axis_requires_loss_model(self):
        with pytest.raises(ValueError, match="loss"):
            sweep("kappa", [1.0], ideal_config())

    def test_invalid_axis_and_empty_values(self):
        with pytest.raises(ValueError, match="axis"):
            sweep("detuning", [1.0], ideal_config())
        with pytest.raises(ValueError, match="value"):
            sweep("delta", [], ideal_config())

    def test_axis_list_is_complete(self):
        assert SWEEP_AXES == (
            "alpha",
            "delta",
            "kappa",
            "gamma",
            "temp",
            "shots",
            "lambda_kerr",
            "g",
        )
