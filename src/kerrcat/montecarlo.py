"""Shot-level simulation of the force measurement as a biased-coin experiment.

Each shot samples a momentum kick (deterministic force part plus Gaussian
thermal/vacuum noise), decides whether a photon emission scrambled the shot
(in which case the outcome is a fair coin), and otherwise flips a coin with
the no-emission probability ``p1 = Prob(X > 0)``. Counts aggregate into a
``SignalEstimate`` with ``S = m/M - 1/2`` and ``sigma_S = 1/sqrt(4M)``.

Randomness is counter-based and order-independent: three independent
Philox streams keyed ``(seed, purpose)`` drive kicks, emission decisions,
and outcome coins, one uniform per shot per stream; a stream whose decision
cannot vary (a zero-variance kick, a zero emission probability) is not
drawn. Identical ``(config, seed)`` reproduce results bit-exactly
regardless of scheduling.

Two outcome engines are provided. The ``analytic`` engine evaluates
``p1`` exactly from the coherent-branch algebra (closed-form Gaussian
half-line integrals), vectorized over kicks. The ``brute-force`` engine
rebuilds the final states of a batch of kicks in the truncated number basis,
applying the kicks in the eigenbasis of ``a + a_dag``, and reads
``Prob(X > 0)`` off their amplitudes through the exact half-line Hermite
overlaps; it is the independent validation path.

A shot needs ``p1`` only to compare it with its outcome uniform. So a chunk
of distinct thermal kicks evaluates the engine at a few Chebyshev points of
the chunk's kick range, decides its shots from the fitted series, and hands
back to the engine only the shots whose uniform lies within ``_TIE_BAND`` of
the fit (see :func:`run_experiment`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.special import ndtri, roots_hermite

from kerrcat._coherent import ideal_pipeline, kicked_prob_x_positive, lossy_pipeline
from kerrcat.fock import apply_kicks, kicked_truncation, prob_positive_columns, require_finite
from kerrcat.loss import (
    KickStats,
    LossParams,
    emission_probability,
    lossy_offset,
    lossy_stages,
    momentum_kick_stats,
)
from kerrcat.protocol import ProtocolParams, SignalEstimate, ideal_stages, offset_delta

__all__ = [
    "ForceSpec",
    "ExperimentConfig",
    "SweepRow",
    "sample_kick",
    "outcome_probability",
    "predicted_signal",
    "run_experiment",
    "sweep",
]

SWEEP_AXES = ("alpha", "delta", "kappa", "gamma", "temp", "shots", "lambda_kerr", "g")

_KICK_STREAM = 1
_EMISSION_STREAM = 2
_OUTCOME_STREAM = 3

#: Shots evaluated per batch by ``run_experiment``.
_CHUNK_SHOTS = 2**16

#: Fewest Gauss-Hermite nodes of the kick average.
_MIN_HERMITE_NODES = 21
#: Most Gauss-Hermite nodes of the kick average before it is reported as not converged.
_MAX_HERMITE_NODES = 2**16
#: Two successive rules of the kick average that agree this closely have converged.
_HERMITE_TOL = 1e-12

#: Lowest and highest degree of the Chebyshev fit of a chunk's ``p1``; past the
#: highest, evaluating the series costs about as much as the engine on every shot.
_MIN_FIT_DEGREE = 8
_MAX_FIT_DEGREE = 64
#: A fit evaluates the engine at no more than ``2 * _MAX_FIT_DEGREE + 1`` points,
#: a 32nd of this many shots; smaller chunks run the engine on every shot.
_MIN_FIT_SHOTS = 32 * (2 * _MAX_FIT_DEGREE + 1)
#: A fit is accepted when it meets the engine this closely where it was not fitted.
_FIT_TOL = 1e-14
#: Shots whose outcome uniform lies this close to the fitted ``p1`` are decided by the engine.
_TIE_BAND = 1e-12

#: Largest single-mode dimension the brute-force engine accepts.
MAX_BRUTE_FORCE_DIM = 160

_FORCE_SHAPES = ("resonant-cosine", "constant", "custom-samples")


@dataclass(frozen=True)
class ForceSpec:
    """Parametric force waveform driving the momentum kick.

    Shapes: ``resonant-cosine`` is ``amplitude*cos(omega_m*t + phase)``;
    ``constant`` is ``amplitude``; ``custom-samples`` linearly interpolates
    the given ``(time, value)`` pairs scaled by ``amplitude``. Amplitudes are
    in the scaled-force convention (``sqrt(2)*F/sqrt(hbar*omega*m)``, units
    of 1/s) that the kick integral expects.
    """

    shape: str
    amplitude: float
    phase: float = 0.0
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        require_finite("ForceSpec", amplitude=self.amplitude, phase=self.phase)
        if self.shape not in _FORCE_SHAPES:
            raise ValueError(f"unknown force shape {self.shape!r}; expected one of {_FORCE_SHAPES}")
        if self.shape == "custom-samples":
            if not self.samples:
                raise ValueError("custom-samples force requires a non-empty samples table")
            table = tuple((float(t), float(f)) for t, f in self.samples)
            for t, f in table:
                require_finite("ForceSpec.samples", time=t, value=f)
            times = [t for t, _ in table]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("sample times must be strictly increasing")
            object.__setattr__(self, "samples", table)
        elif self.samples is not None:
            raise ValueError(f"samples are only meaningful for custom-samples, not {self.shape!r}")

    def as_function(self, omega_m: float):
        """Scaled-force waveform ``f(t)`` for a given mechanical frequency."""
        if self.shape == "resonant-cosine":
            return lambda t: self.amplitude * math.cos(omega_m * t + self.phase)
        if self.shape == "constant":
            return lambda t: self.amplitude
        times = np.array([t for t, _ in self.samples])
        values = np.array([f for _, f in self.samples])
        return lambda t: self.amplitude * float(np.interp(t, times, values))


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulated experiment.

    ``loss=None`` selects the ideal pipeline (no transfer, no thermal noise);
    otherwise the lossy pipeline with emission dephasing runs. ``force_spec``
    adds a deterministic force contribution to the kick mean and requires the
    loss model (the kick filter is defined by the swap stage).
    """

    protocol: ProtocolParams
    loss: LossParams | None = None
    force_spec: ForceSpec | None = None
    shots: int = 10_000
    seed: int = 0
    engine: str = "analytic"

    def __post_init__(self) -> None:
        require_finite("ExperimentConfig", shots=self.shots, seed=self.seed)
        for name in ("shots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"ExperimentConfig.{name} must be an integer, got {value!r}")
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.shots >= 2**63:
            raise ValueError("shots must be below 2**63")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.engine not in ("analytic", "brute-force"):
            raise ValueError(f"unknown engine {self.engine!r}; expected 'analytic' or 'brute-force'")
        if self.force_spec is not None and self.loss is None:
            raise ValueError("a force waveform requires the loss model")
        if self.engine == "brute-force":
            _brute_force_dim(self)


@dataclass(frozen=True)
class SweepRow:
    """One cell of a parameter sweep."""

    axis: str
    value: float
    estimate: SignalEstimate
    S_analytic: float
    P_emission: float


def _stream(seed: int, purpose: int) -> np.random.Generator:
    """Counter-based RNG stream keyed by (master seed, purpose tag)."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(purpose)]))


def sample_kick(rng_stream: np.random.Generator, stats: KickStats, size: int | None = None):
    """Gaussian kick draw(s) with the given mean and variance.

    Consumes exactly one uniform per draw and maps it through the inverse
    normal CDF, so draw sequences are reproducible and order-independent.
    Zero variance returns the mean exactly.
    """
    u = rng_stream.random() if size is None else rng_stream.random(size)
    if stats.variance == 0.0:
        return stats.mean if size is None else np.full(size, stats.mean)
    u = np.maximum(u, np.finfo(float).tiny)
    draws = stats.mean + stats.std * ndtri(u)
    return float(draws) if size is None else draws


def _total_kick(delta_prime, config: ExperimentConfig):
    """Physical kick plus the working-point offset selected by the config."""
    p = config.protocol
    if not p.apply_offset:
        return delta_prime
    if config.loss is None:
        return delta_prime + offset_delta(p.alpha)
    return delta_prime + lossy_offset(p.alpha, config.loss)


def _p1_analytic(delta_prime, config: ExperimentConfig):
    """Exact no-emission outcome probability from the coherent-branch algebra."""
    total = np.asarray(_total_kick(np.asarray(delta_prime, dtype=float), config))
    if config.loss is None:
        pair = ideal_pipeline(config.protocol.alpha0, total)
    else:
        lp = config.loss
        pair = lossy_pipeline(complex(config.protocol.alpha0), total, lp.eta, lp.xi)
    return np.clip(kicked_prob_x_positive(pair), 0.0, 1.0)


def _p1_bandwidth(config: ExperimentConfig) -> float:
    """Angular frequency, per unit kick, up to which ``p1`` varies: ``4|Re alpha0| + 18``.

    ``p1`` oscillates in the kick at the fringe frequency
    ``2(1 + eta^2) Re h <= 4|Re alpha0|``, and its Gaussian factors add a
    bandwidth of about 18.
    """
    return 4.0 * abs(complex(config.protocol.alpha0).real) + 18.0


def _kick_average(stats: KickStats, config: ExperimentConfig) -> float:
    """``E[p1]`` over the Gaussian kick, by Gauss-Hermite rules of doubling size.

    The first rule has ``(std * bandwidth / 2)^2`` nodes (see
    :func:`_p1_bandwidth`), at least ``_MIN_HERMITE_NODES`` (measured: this
    count is within a factor 2 of the fewest nodes that reach 1e-13, for
    |alpha0| <= 6 and kick std <= 2.5). Returns the first rule that agrees
    with the next, twice as large, to ``_HERMITE_TOL``. Warns if no rule up to
    ``_MAX_HERMITE_NODES`` nodes converges, and returns the largest one.
    """

    def average(n: int) -> float:
        nodes, weights = roots_hermite(n)
        deltas = stats.mean + math.sqrt(2.0 * stats.variance) * nodes
        return float(weights @ _p1_analytic(deltas, config)) / math.sqrt(math.pi)

    spread = stats.std * _p1_bandwidth(config)
    n = min(max(_MIN_HERMITE_NODES, math.ceil((spread / 2.0) ** 2)), _MAX_HERMITE_NODES)
    estimate = average(n)
    while 2 * n <= _MAX_HERMITE_NODES:
        n *= 2
        finer = average(n)
        if abs(finer - estimate) <= _HERMITE_TOL:
            return estimate
        estimate = finer
    warnings.warn(
        f"kick average of p1 did not converge with {n} Gauss-Hermite nodes (kick std {stats.std:.3g})",
        stacklevel=4,
    )
    return estimate


def _brute_force_dim(config: ExperimentConfig, kick_bound: float = 0.0) -> int:
    """Number-basis dimension of brute-force states whose total kicks are at most ``kick_bound``.

    The size follows :func:`kerrcat.fock.kicked_truncation`. Raises
    ``ValueError`` above ``MAX_BRUTE_FORCE_DIM``.
    """
    p = config.protocol
    N = kicked_truncation(p.alpha0, kick_bound, p.truncation)
    if N > MAX_BRUTE_FORCE_DIM:
        raise ValueError(
            f"brute-force engine needs truncation <= {MAX_BRUTE_FORCE_DIM}, got {N} "
            f"(|alpha0| + largest total kick = {abs(complex(p.alpha0)) + kick_bound:.4g})"
        )
    return N


def _p1_brute_force(delta_prime: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Outcome probabilities from the truncated number-basis pipeline.

    A batch shares one dimension ``N``, sized for its largest total kick, and
    one pair of pipeline stages. Its kicks run in slices of ``_CHUNK_SHOTS // N``,
    so each ``(N, kicks)`` array holds at most ``_CHUNK_SHOTS`` entries.
    """
    p = config.protocol
    total = np.asarray(_total_kick(delta_prime, config))
    N = _brute_force_dim(config, float(np.max(np.abs(total), initial=0.0)))
    if config.loss is None:
        (before, after), q = ideal_stages(p.alpha0, N), -total.ravel()
    else:
        (before, after), q = lossy_stages(p.alpha0, config.loss, N), total.ravel()
    step = _CHUNK_SHOTS // N
    p1 = np.empty(q.size)
    for start in range(0, q.size, step):
        p1[start : start + step] = prob_positive_columns(apply_kicks(before, q[start : start + step], after))
    return np.clip(p1.reshape(total.shape), 0.0, 1.0)


def outcome_probability(delta_prime, config: ExperimentConfig):
    """Probability ``p1 = Prob(X > 0)`` of a heads outcome for a given kick.

    ``delta_prime`` is the physical kick (force plus noise); the config's
    working-point offset is added internally. The value is conditioned on no
    photon emission — the shot engine mixes in the fair-coin emission branch
    separately. Scalar input returns a float; array input returns an array
    (vectorized over kicks in both engines).
    """
    arr = np.asarray(delta_prime, dtype=float)
    engine = _p1_analytic if config.engine == "analytic" else _p1_brute_force
    result = engine(arr, config)
    return float(result) if arr.ndim == 0 else result


def _lobatto(n: int) -> np.ndarray:
    """The ``n + 1`` Chebyshev-Lobatto points ``cos(pi j / n)``, from 1 down to -1."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev series of degree ``n`` through ``values`` at ``_lobatto(n)`` (a DCT-I).

    ``jk`` is reduced mod ``2n`` before the cosine, so no argument exceeds ``2 pi``.
    """
    n = values.size - 1
    k = np.arange(n + 1)
    ends = np.ones(n + 1)
    ends[[0, -1]] = 0.5
    cosines = np.cos(np.pi * (np.outer(k, k) % (2 * n)) / n)
    return ends * (cosines @ (ends * values)) * (2.0 / n)


def _chebyshev_fit(p1_at, degree: int) -> np.ndarray | None:
    """Chebyshev series of ``p1_at`` on [-1, 1] that meets it to ``_FIT_TOL``, or ``None``.

    Degree ``d`` is fitted through ``_lobatto(d)`` and checked at the ``d``
    points between them, where it was not fitted: together they are
    ``_lobatto(2 d)``. A failed check doubles ``d``, and the check points join
    the fit's, so ``p1_at`` sees each point once. Returns ``None`` once ``d``
    would pass ``_MAX_FIT_DEGREE``, after at most ``2 * _MAX_FIT_DEGREE + 1`` points.
    """
    nodes = _lobatto(2 * degree)
    values = p1_at(nodes)
    while True:
        coeffs = _chebyshev_coefficients(values[::2])
        if np.max(np.abs(chebval(nodes[1::2], coeffs) - values[1::2])) <= _FIT_TOL:
            return coeffs
        degree *= 2
        if degree > _MAX_FIT_DEGREE:
            return None
        nodes = _lobatto(2 * degree)
        finer = np.empty(nodes.size)
        finer[::2] = values
        finer[1::2] = p1_at(nodes[1::2])
        values = finer


def _chunk_p1(kicks: np.ndarray, u_out: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """``p1`` of each kick of a chunk, from the engine wherever ``u_out < p1`` could depend on it.

    The fit and its fall-backs are described in :func:`run_experiment`.
    """
    lo, hi = float(np.min(kicks)), float(np.max(kicks))
    # Over a half-width (hi - lo)/2, a band limit B takes a degree of about B (hi - lo)/2.
    degree = _MIN_FIT_DEGREE
    while degree < (hi - lo) * _p1_bandwidth(config) / 2.0:
        degree *= 2
    if kicks.size < _MIN_FIT_SHOTS or not hi > lo or degree > _MAX_FIT_DEGREE:
        return outcome_probability(kicks, config)

    def p1_at(deltas):
        # The extreme kicks ride along, so the brute-force engine sizes N as for the whole chunk.
        return outcome_probability(np.concatenate(([lo, hi], deltas)), config)[2:]

    def p1_at_unit(t):
        return p1_at(0.5 * (lo * (1.0 - t) + hi * (1.0 + t)))

    coeffs = _chebyshev_fit(p1_at_unit, degree)
    if coeffs is None:
        return outcome_probability(kicks, config)
    p1 = chebval((2.0 * kicks - (lo + hi)) / (hi - lo), coeffs)
    near = np.flatnonzero(np.abs(u_out - p1) <= _TIE_BAND)
    if near.size:
        p1[near] = p1_at(kicks[near])
    return p1


def _kick_stats(config: ExperimentConfig) -> KickStats:
    """Per-shot kick distribution implied by the config."""
    p = config.protocol
    if config.loss is None:
        return KickStats(mean=p.delta, variance=0.0)
    lp = config.loss
    if config.force_spec is not None:
        force_fn = config.force_spec.as_function(lp.omega_m)
    else:
        def force_fn(t: float) -> float:
            return 0.0
    filtered = momentum_kick_stats(force_fn, lp)
    return KickStats(mean=p.delta + filtered.mean, variance=filtered.variance)


def _emission_prob(config: ExperimentConfig) -> float:
    if config.loss is None:
        return 0.0
    # Photons leak at kappa*<n> = kappa*|alpha0|^2.
    return float(np.clip(emission_probability(abs(complex(config.protocol.alpha0)), config.loss), 0.0, 1.0))


def _cell_inputs(config: ExperimentConfig) -> tuple[KickStats, float, float | None]:
    """What a run and its prediction share: kick statistics, ``P``, and ``p1`` of a constant kick.

    ``p1`` is ``None`` with kick noise; for a constant kick it is a
    one-element batch through the config's engine.
    """
    stats = _kick_stats(config)
    p1 = outcome_probability(np.array([stats.mean]), config)[0] if stats.variance == 0.0 else None
    return stats, _emission_prob(config), p1


def _digest(config: ExperimentConfig) -> str:
    blob = f"{config.protocol!r}|{config.loss!r}|{config.force_spec!r}|{config.shots}|{config.engine}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_experiment(config: ExperimentConfig) -> SignalEstimate:
    """Simulate ``config.shots`` shots and aggregate them into an estimate.

    Per shot: draw the kick, decide emission (probability ``P``), and flip
    heads with probability 1/2 (emission scrambles the phase) or with the
    no-emission ``p1(kick)``. All three decisions come from independent
    counter-based streams derived from ``config.seed``, so results are
    bit-exact for identical inputs.

    Shots run in chunks of ``_CHUNK_SHOTS``, so memory stays bounded at any
    shot count. A Philox stream yields the same uniforms whether drawn at
    once or in chunks, so chunking moves no uniform.

    A chunk of distinct kicks of at least ``_MIN_FIT_SHOTS`` shots does not
    evaluate the engine per shot. It fits a Chebyshev series to ``p1`` over
    the chunk's kick range, starting at the degree that the range times
    :func:`_p1_bandwidth` asks for, through at most
    ``2 * _MAX_FIT_DEGREE + 1`` engine values, and accepts it only where it
    meets the engine to ``_FIT_TOL = 1e-14`` at points it was not fitted on
    (:func:`_chebyshev_fit`). That agreement is checked at those points
    only; between them it rests on ``p1`` being analytic in the kick. Every
    shot whose uniform lies within ``_TIE_BAND = 1e-12`` of the fitted
    ``p1`` is decided by the engine itself, and every other shot lies 100
    check tolerances away from its fitted ``p1``, so it gets the outcome
    ``u < p1`` of the engine. A chunk that no fit meets, and a shorter
    chunk, evaluate the engine at every kick. The engine's own value for
    one kick can differ by up to one ulp with the length of the batch it is
    evaluated in; outside the band that cannot move an outcome either.

    Each shot draws and evaluates only what its outcome depends on. With a
    zero-variance kick (the ideal model) every shot shares one kick, so
    ``p1`` is evaluated once, as a one-element batch, and no kick uniforms
    are drawn. With ``P = 0`` no emission uniforms are drawn, since
    ``u < 0`` never holds for a uniform in [0, 1). Each stream has its own
    key, so skipping one moves none of the others.
    """
    return _simulate(config, *_cell_inputs(config))


def _simulate(config: ExperimentConfig, stats: KickStats, p_emit: float, p1) -> SignalEstimate:
    """The shot loop of :func:`run_experiment`, on the inputs of :func:`_cell_inputs`."""
    m_total = config.shots
    kick_rng = _stream(config.seed, _KICK_STREAM)
    emit_rng = _stream(config.seed, _EMISSION_STREAM)
    out_rng = _stream(config.seed, _OUTCOME_STREAM)
    constant_kick = stats.variance == 0.0
    m_counts = 0
    for start in range(0, m_total, _CHUNK_SHOTS):
        size = min(_CHUNK_SHOTS, m_total - start)
        u_out = out_rng.random(size)
        if not constant_kick:
            p1 = _chunk_p1(sample_kick(kick_rng, stats, size=size), u_out, config)
        if p_emit == 0.0:
            heads = u_out < p1
        else:
            heads = np.where(emit_rng.random(size) < p_emit, u_out < 0.5, u_out < p1)
        m_counts += int(np.count_nonzero(heads))
    return SignalEstimate(
        m_counts=m_counts,
        M=m_total,
        seed=config.seed,
        params_digest=_digest(config),
    )


def predicted_signal(config: ExperimentConfig) -> tuple[float, float]:
    """Exact-engine prediction ``(S, P_emission)`` for a config.

    Averages ``p1`` over the thermal kick distribution (Gauss-Hermite, with
    as many nodes as the kick noise needs; see :func:`_kick_average`) and
    applies the emission mixing: ``S = (1 - P) * (E[p1] - 1/2)``.
    """
    return _predict(config, _kick_stats(config), _emission_prob(config))


def _predict(config: ExperimentConfig, stats: KickStats, p_emit: float, p1=None) -> tuple[float, float]:
    """:func:`predicted_signal` on shared inputs; reuses a constant-kick ``p1`` of the analytic engine."""
    if stats.variance > 0.0:
        p_mean = _kick_average(stats, config)
    elif p1 is not None and config.engine == "analytic":
        p_mean = float(p1)
    else:
        p_mean = float(_p1_analytic(np.float64(stats.mean), config))
    return (1.0 - p_emit) * (p_mean - 0.5), p_emit


def _apply_axis(base: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "alpha":
        # The axis sets Re alpha0; Im alpha0 stays that of the base scenario.
        alpha0 = complex(float(value), complex(base.protocol.alpha0).imag)
        protocol = dataclasses.replace(base.protocol, alpha0=alpha0)
        return dataclasses.replace(base, protocol=protocol)
    if axis == "delta":
        protocol = dataclasses.replace(base.protocol, delta=float(value))
        return dataclasses.replace(base, protocol=protocol)
    if axis == "shots":
        if not float(value).is_integer():
            raise ValueError(f"shots must be a whole number, got {value!r}")
        return dataclasses.replace(base, shots=int(value))
    if base.loss is None:
        raise ValueError(f"axis {axis!r} requires the loss model")
    loss = dataclasses.replace(base.loss, **{axis: float(value)})
    return dataclasses.replace(base, loss=loss)


def sweep(axis: str, values, base: ExperimentConfig) -> list[SweepRow]:
    """Run one experiment per value of the swept parameter.

    Cell ``i`` runs with seed ``base.seed + i`` (documented, deterministic).
    Each row carries the measured estimate, the exact-engine prediction
    ``S_analytic``, and the emission probability for that cell. The run and
    the prediction of a cell share one evaluation of the kick statistics, the
    emission probability and, for a constant kick, ``p1``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for index, value in enumerate(values):
        cell = _apply_axis(base, axis, value)
        cell = dataclasses.replace(cell, seed=base.seed + index)
        inputs = _cell_inputs(cell)
        estimate = _simulate(cell, *inputs)
        s_analytic, p_emit = _predict(cell, *inputs)
        rows.append(
            SweepRow(
                axis=axis,
                value=float(value),
                estimate=estimate,
                S_analytic=s_analytic,
                P_emission=p_emit,
            )
        )
    return rows
