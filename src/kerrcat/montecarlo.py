"""Shot-level simulation of the force measurement as a biased-coin experiment.

Each shot samples a momentum kick (deterministic force part plus Gaussian
thermal/vacuum noise, from :func:`kerrcat.loss.momentum_kick_stats`) and
flips one coin, heads with probability ``q = P/2 + (1 - P) * p1``: a photon
emission (probability ``P``) makes it a fair coin, and otherwise heads has
the no-emission probability ``p1 = Prob(X > 0)``. Counts aggregate into a
``SignalEstimate`` with ``S = m/M - 1/2`` and ``sigma_S = 1/sqrt(4M)``.

Randomness is counter-based and order-independent: two independent Philox
streams keyed ``(seed, purpose)`` drive kicks and outcome coins, one uniform
per shot per stream; a zero-variance kick draws no kick stream. Shots run in
chunks, and each chunk opens its streams at its own counter, so the chunks
of a run are drawn and decided concurrently, up to two at once. Identical
``(config, seed)`` reproduce results bit-exactly regardless of scheduling
and of the number of cores.

Two outcome engines are provided. The ``analytic`` engine evaluates
``p1`` exactly from the coherent-branch algebra (closed-form Gaussian
half-line integrals), vectorized over kicks. The ``brute-force`` engine
rebuilds the final states of a batch of kicks in the truncated number basis,
applying the kicks in the eigenbasis of ``a + a_dag``, and reads
``Prob(X > 0)`` off their amplitudes through the exact half-line Hermite
overlaps; it is the independent validation path. Both read a config resolved
once into a model (:func:`_model`, the only branch between the ideal and the
lossy pipeline), which a sweep cell's run and prediction share.

A shot needs ``q`` only to compare it with its outcome uniform. So a chunk
of distinct thermal kicks evaluates the engine at a few Chebyshev points of
the chunk's kick range, decides its shots from the fitted series, and hands
back to the engine only the shots whose uniform lies within ``_TIE_BAND`` of
the fit. Where the series' bound allows it, a shot is decided from its
outcome uniform alone, and its kick is never computed (see
:func:`run_experiment`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import numbers
import os
import threading
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.special import ndtri, roots_hermite

from kerrcat._coherent import KickedPair, ideal_pipeline, kicked_prob_x_positive, lossy_pipeline
from kerrcat.fock import apply_kicks, kicked_truncation, prob_positive_columns, require_finite
from kerrcat.loss import (
    ForceSpec,
    KickStats,
    LossParams,
    emission_probability,
    lossy_offset,
    lossy_stages,
    momentum_kick_stats,
)
from kerrcat.protocol import ProtocolParams, SignalEstimate, ideal_stages, offset_delta

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "outcome_probability",
    "predicted_signal",
    "run_experiment",
    "sweep",
]

SWEEP_AXES = ("alpha", "delta", "kappa", "gamma", "temp", "shots", "lambda_kerr", "g")

_KICK_STREAM = 1
_OUTCOME_STREAM = 3

#: Shots evaluated per batch by ``run_experiment``.
_CHUNK_SHOTS = 2**16
#: Most chunks of a run in flight at once. Each holds its own working set
#: (~8 MB at 300 K with alpha0 = 4), so this caps a run's memory on any host;
#: two chunks at once were measured at ~1.3x the speed of one, more were not.
_MAX_CHUNKS_IN_FLIGHT = 2

#: Fewest Gauss-Hermite nodes of the kick average.
_MIN_HERMITE_NODES = 21
#: Most Gauss-Hermite nodes of the kick average before it is reported as not converged.
_MAX_HERMITE_NODES = 2**16
#: Two successive rules of the kick average that agree this closely have converged.
_HERMITE_TOL = 1e-12

#: Lowest and highest degree of the Chebyshev fit of a chunk's ``q``; past the
#: highest, evaluating the series costs about as much as the engine on every shot.
_MIN_FIT_DEGREE = 8
_MAX_FIT_DEGREE = 64
#: A fit is accepted when it meets the engine this closely where it was not fitted.
_FIT_TOL = 1e-14
#: Shots whose outcome uniform lies this close to the fitted ``q`` are decided by the engine.
_TIE_BAND = 1e-12

#: Largest single-mode dimension the brute-force engine accepts.
MAX_BRUTE_FORCE_DIM = 160


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulated experiment.

    ``loss=None`` selects the ideal pipeline (no transfer, no thermal noise);
    otherwise the lossy pipeline with emission dephasing runs. ``force_spec``
    (a :class:`kerrcat.loss.ForceSpec`) adds a deterministic force
    contribution to the kick mean and requires the loss model (the kick
    filter is defined by the swap stage).
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


def _stream(seed: int, purpose: int, first: int = 0) -> np.random.Generator:
    """Counter-based RNG stream keyed by (master seed, purpose tag), from its uniform number ``first`` on.

    ``first`` is a multiple of 4: each Philox counter step yields four 64-bit
    words, and a uniform double takes one word.
    """
    # A list of Python ints would reach Philox through float64, which merges seeds of 2**63 and above.
    key = np.array([seed, purpose], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=first // 4))


def _kicks_from(u: np.ndarray, stats: KickStats) -> np.ndarray:
    """The kicks of uniforms ``u``: the inverse normal CDF, with ``u = 0`` clamped to the smallest double."""
    return stats.mean + stats.std * ndtri(np.maximum(u, np.finfo(float).tiny))


@dataclass(frozen=True)
class _Model:
    """A config resolved, by :func:`_model`, into what the shot engine reads.

    ``stages(N)`` builds the number-basis stages around the kick ``stage_sign * total``.
    ``P`` is evaluated on first read, which every run path makes before it reads the offset.
    """

    config: ExperimentConfig
    stats: KickStats
    pipeline: Callable[[np.ndarray], KickedPair]
    stages: Callable[[int], tuple[np.ndarray, np.ndarray]]
    stage_sign: float
    emission: Callable[[], float]
    offset: Callable[[], float]

    @functools.cached_property
    def P(self) -> float:
        """The emission probability, clipped to [0, 1] by min/max: ``np.clip`` costs ~4 us per sweep cell."""
        return min(max(self.emission(), 0.0), 1.0)

    @functools.cached_property
    def constant_p1(self) -> float | None:
        """``p1`` of a constant kick, a one-element batch through the config's engine; ``None`` with kick noise."""
        return self.p1(np.array([self.stats.mean]))[0] if self.stats.variance == 0.0 else None

    def total(self, kicks: np.ndarray) -> np.ndarray:
        """Physical kicks plus the working-point offset, if the config applies one."""
        return kicks + self.offset() if self.config.protocol.apply_offset else kicks

    def p1(self, kicks: np.ndarray) -> np.ndarray:
        """``p1`` of a batch of physical kicks, from the config's engine."""
        return (_p1_analytic if self.config.engine == "analytic" else _p1_brute_force)(kicks, self)

    def q(self, p1):
        """Heads probability of a shot whose no-emission outcome is heads with ``p1``: an emission is a fair coin."""
        return 0.5 * self.P + (1.0 - self.P) * p1


def _model(config: ExperimentConfig) -> _Model:
    """The ideal or the lossy model of a config: the shot engine's one branch on ``config.loss``."""
    p, lp = config.protocol, config.loss
    if config.loss is None:
        return _Model(
            config, KickStats(mean=p.delta, variance=0.0), functools.partial(ideal_pipeline, p.alpha0),
            stages=functools.partial(ideal_stages, p.alpha0), stage_sign=-1.0,
            emission=lambda: 0.0, offset=functools.partial(offset_delta, p.alpha),
        )
    filtered = momentum_kick_stats(config.force_spec, lp)
    return _Model(
        config, KickStats(mean=p.delta + filtered.mean, variance=filtered.variance),
        functools.partial(lossy_pipeline, complex(p.alpha0), eta=lp.eta, xi=lp.xi),
        stages=functools.partial(lossy_stages, p.alpha0, lp), stage_sign=1.0,
        # Photons leak at kappa*<n> = kappa*|alpha0|^2.
        emission=functools.partial(emission_probability, abs(complex(p.alpha0)), lp),
        offset=functools.partial(lossy_offset, p.alpha, lp),
    )


def _p1_analytic(delta_prime, model: _Model):
    """Exact no-emission outcome probability from the coherent-branch algebra."""
    pair = model.pipeline(model.total(np.asarray(delta_prime, dtype=float)))
    return np.clip(kicked_prob_x_positive(pair), 0.0, 1.0)


def _p1_bandwidth(config: ExperimentConfig) -> float:
    """Angular frequency, per unit kick, up to which ``p1`` varies: ``4|Re alpha0| + 18``.

    ``p1`` oscillates in the kick at the fringe frequency
    ``2(1 + eta^2) Re h <= 4|Re alpha0|``, and its Gaussian factors add a
    bandwidth of about 18.
    """
    return 4.0 * abs(complex(config.protocol.alpha0).real) + 18.0


def _kick_average(model: _Model) -> float:
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
        deltas = model.stats.mean + math.sqrt(2.0 * model.stats.variance) * nodes
        return float(weights @ _p1_analytic(deltas, model)) / math.sqrt(math.pi)

    spread = model.stats.std * _p1_bandwidth(model.config)
    n = min(max(_MIN_HERMITE_NODES, math.ceil((spread / 2.0) ** 2)), _MAX_HERMITE_NODES)
    estimate = average(n)
    while 2 * n <= _MAX_HERMITE_NODES:
        n *= 2
        finer = average(n)
        if abs(finer - estimate) <= _HERMITE_TOL:
            return estimate
        estimate = finer
    warnings.warn(
        f"kick average of p1 did not converge with {n} Gauss-Hermite nodes (kick std {model.stats.std:.3g})",
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


def _p1_brute_force(delta_prime: np.ndarray, model: _Model) -> np.ndarray:
    """Outcome probabilities from the truncated number-basis pipeline.

    A batch shares one dimension ``N``, sized for its largest total kick, and
    one pair of pipeline stages. Its kicks run in slices of ``_CHUNK_SHOTS // N``,
    so each ``(N, kicks)`` array holds at most ``_CHUNK_SHOTS`` entries.
    """
    total = np.asarray(model.total(delta_prime))
    N = _brute_force_dim(model.config, float(np.max(np.abs(total), initial=0.0)))
    (before, after), q = model.stages(N), model.stage_sign * total.ravel()
    step = _CHUNK_SHOTS // N
    p1 = np.empty(q.size)
    for start in range(0, q.size, step):
        p1[start : start + step] = prob_positive_columns(apply_kicks(before, q[start : start + step], after))
    return np.clip(p1.reshape(total.shape), 0.0, 1.0)


def outcome_probability(delta_prime, config: ExperimentConfig):
    """Probability ``p1 = Prob(X > 0)`` of a heads outcome for a given kick.

    ``delta_prime`` is the physical kick (force plus noise); the config's
    working-point offset is added internally. The value is conditioned on no
    photon emission; a shot's coin ``q`` mixes in the fair-coin emission
    branch (:meth:`_Model.q`). Scalar input returns a float; array input
    returns an array (vectorized over kicks in both engines).
    """
    arr = np.asarray(delta_prime, dtype=float)
    result = _model(config).p1(arr)
    return float(result) if arr.ndim == 0 else result


def _lobatto(n: int) -> np.ndarray:
    """The ``n + 1`` Chebyshev-Lobatto points ``cos(pi j / n)``, from 1 down to -1."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev series of degree ``n`` through ``values`` at ``_lobatto(n)``.

    This is a DCT-I, taken as the real FFT of the values' even extension.
    """
    n = values.size - 1
    coeffs = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / n
    coeffs[[0, -1]] /= 2.0
    return coeffs


def _chebyshev_fit(q_at, degree: int) -> np.ndarray | None:
    """Chebyshev series of ``q_at`` on [-1, 1] that meets it to ``_FIT_TOL``, or ``None``.

    Degree ``d`` is fitted through ``_lobatto(d)`` and checked at the ``d``
    points between them, where it was not fitted: together they are
    ``_lobatto(2 d)``. A failed check doubles ``d``, and the check points join
    the fit's, so ``q_at`` sees each point once. Returns ``None`` once ``d``
    would pass ``_MAX_FIT_DEGREE``, after at most ``2 * _MAX_FIT_DEGREE + 1`` points.
    """
    nodes = _lobatto(2 * degree)
    values = q_at(nodes)
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
        finer[1::2] = q_at(nodes[1::2])
        values = finer


def _chunk_engine(deltas: np.ndarray, lo: float, hi: float, model: _Model) -> np.ndarray:
    """``q`` of ``deltas`` from the engine, in a batch sized as for a chunk with kicks in ``[lo, hi]``."""
    # The extreme kicks ride along, so the brute-force engine sizes N as for the whole chunk.
    return model.q(model.p1(np.concatenate(([lo, hi], deltas)))[2:])


def _chunk_fit(lo: float, hi: float, model: _Model) -> np.ndarray | None:
    """Chebyshev series of ``q`` over the kicks ``[lo, hi]`` mapped onto [-1, 1], or ``None``.

    ``None`` sends the chunk to the engine at every kick; see :func:`run_experiment`.
    """
    # Over a half-width (hi - lo)/2, a band limit B takes a degree of about B (hi - lo)/2.
    degree = _MIN_FIT_DEGREE
    while degree < (hi - lo) * _p1_bandwidth(model.config) / 2.0:
        degree *= 2
    if not hi > lo or degree > _MAX_FIT_DEGREE:
        return None
    return _chebyshev_fit(lambda t: _chunk_engine(0.5 * (lo * (1.0 - t) + hi * (1.0 + t)), lo, hi, model), degree)


def _chunk_heads(u_kick: np.ndarray, u_out: np.ndarray, model: _Model) -> np.ndarray:
    """Heads of each shot of a chunk of distinct kicks, mapping a kick uniform only where the outcome needs it.

    ``u_kick`` and ``u_out`` are the chunk's kick and outcome uniforms. The
    fit, the bound and the fall-backs are described in :func:`run_experiment`.
    """
    lo, hi = _kicks_from(np.array([u_kick.min(), u_kick.max()]), model.stats)
    coeffs = _chunk_fit(lo, hi, model)
    if coeffs is None:
        return u_out < model.q(model.p1(_kicks_from(u_kick, model.stats)))
    # On [-1, 1] the series lies within sum_{k>=1} |c_k| of c0. A uniform farther than that plus the
    # tie band from c0 lies more than the band from its shot's fitted q, on the same side as c0.
    c0, reach = coeffs[0], np.sum(np.abs(coeffs[1:])) + _TIE_BAND
    heads = u_out < c0
    open_shots = np.flatnonzero((u_out >= c0 - reach) & (u_out <= c0 + reach))
    # ndtri is not monotone to the ulp (near u = e^-2 and 1 - e^-2), so a kick can lie an ulp
    # outside [lo, hi]. Its t is clipped to [-1, 1], where the bound holds, which moves its fitted
    # q by the slope times an ulp. Unclipped, in a chunk only a few ulps wide such a kick can land
    # at |t| = 3, where the series' rounding noise grows past the tie band.
    kicks = _kicks_from(u_kick[open_shots], model.stats)
    u = u_out[open_shots]
    q = chebval(np.clip((2.0 * kicks - (lo + hi)) / (hi - lo), -1.0, 1.0), coeffs)
    near = np.flatnonzero(np.abs(u - q) <= _TIE_BAND)
    if near.size:
        q[near] = _chunk_engine(kicks[near], lo, hi, model)
    heads[open_shots] = u < q
    return heads


def _digest(config: ExperimentConfig) -> str:
    blob = f"{config.protocol!r}|{config.loss!r}|{config.force_spec!r}|{config.shots}|{config.engine}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_experiment(config: ExperimentConfig) -> SignalEstimate:
    """Simulate ``config.shots`` shots and aggregate them into an estimate.

    Per shot: draw the kick, and flip heads with probability ``q(kick)``
    (:meth:`_Model.q`), which mixes the fair coin of an emission into the
    no-emission ``p1(kick)``. Both come from independent counter-based
    streams derived from ``config.seed``, so results are bit-exact for
    identical inputs.

    Shots run in chunks of ``_CHUNK_SHOTS``. Each chunk opens its two
    streams at the counter of its first shot, so it draws the same uniforms
    as a run drawn in one piece, and no chunk waits for another. The chunks
    of a run of more than one chunk run on a pool of threads, made by the
    first such run, one per core this process may use but at most
    ``_MAX_CHUNKS_IN_FLIGHT``, and ``m_counts`` sums their heads; a
    one-chunk run stays on the calling thread. Memory grows with the chunks
    in flight, not with the shot count, so it stays bounded on any host.
    The counts do not depend on the number of cores or on the order in
    which chunks finish.

    A chunk of distinct kicks, whatever its length, does not evaluate the
    engine per shot. It fits a Chebyshev series to ``q`` over the chunk's
    kick range, starting at the degree that the range times
    :func:`_p1_bandwidth` asks for, through at most
    ``2 * _MAX_FIT_DEGREE + 1`` engine values, and accepts it only where it
    meets the engine to ``_FIT_TOL = 1e-14`` at points it was not fitted on
    (:func:`_chebyshev_fit`). That agreement is checked at those points
    only; between them it rests on ``q`` being analytic in the kick. Every
    shot whose uniform lies within ``_TIE_BAND = 1e-12`` of the fitted
    ``q`` is decided by the engine itself, and every other shot lies 100
    check tolerances away from its fitted ``q``, so it gets the outcome
    ``u < q`` of the engine. A chunk with a single distinct kick, one
    whose range asks for a degree above ``_MAX_FIT_DEGREE``, and one that
    no fit meets evaluate the engine at every kick. The engine's own value
    for one kick can differ by up to one ulp with the length of the batch
    it is evaluated in; outside the band that cannot move an outcome either.

    Most shots of a fitted chunk are decided from their outcome uniform
    alone. The chunk's kick range is the kicks of its smallest and largest
    kick uniform, and on it the series lies within ``R = sum_{k>=1} |c_k|``
    of its constant term ``c0``. A shot whose uniform lies farther than
    ``R + _TIE_BAND`` from ``c0`` lies more than the band from its fitted
    ``q`` too, so its outcome is known without its kick. Only the other
    shots map their kick uniform through ``ndtri`` and evaluate the series
    and the tie check (at 0.02-0.1 K with alpha0 = 1.5, about 11% of them).

    Each shot draws and evaluates only what its outcome depends on. With a
    zero-variance kick (the ideal model) every shot shares one kick, so
    ``p1`` is evaluated once, as a one-element batch, and no kick uniforms
    are drawn; each stream has its own key, so skipping it moves no
    outcome. With ``P = 0``, ``q`` is ``p1`` bit for bit.
    """
    return _simulate(_model(config))


def _simulate(model: _Model) -> SignalEstimate:
    """The shot loop of :func:`run_experiment`, on a model."""
    # Read on the calling thread, so no chunk evaluates them, and P before the offset that p1 reads.
    _, p1 = model.P, model.constant_p1
    starts = range(0, model.config.shots, _CHUNK_SHOTS)
    count = functools.partial(_chunk_count, model, None if p1 is None else model.q(p1))
    m_counts = count(0) if len(starts) == 1 else sum(_chunk_pool().map(count, starts))
    return SignalEstimate(
        m_counts=m_counts,
        M=model.config.shots,
        seed=model.config.seed,
        params_digest=_digest(model.config),
    )


def _chunk_count(model: _Model, q, start: int) -> int:
    """Heads among shots ``start`` to ``start + _CHUNK_SHOTS``, from streams opened at ``start``; ``q`` of a constant kick."""
    seed, size = model.config.seed, min(_CHUNK_SHOTS, model.config.shots - start)
    u_out = _stream(seed, _OUTCOME_STREAM, start).random(size)
    if model.stats.variance > 0.0:
        heads = _chunk_heads(_stream(seed, _KICK_STREAM, start).random(size), u_out, model)
    else:
        heads = u_out < q
    return int(np.count_nonzero(heads))


def _workers() -> int:
    """Threads that run the chunks of a multi-chunk run: one per core this process may use, at most ``_MAX_CHUNKS_IN_FLIGHT``."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, _MAX_CHUNKS_IN_FLIGHT)


# The pool outlives a run: opening one per run measured no gain over running
# the chunks one after another, and a higher peak RSS.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _chunk_pool() -> ThreadPoolExecutor:
    """The threads that run the chunks of a run; made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_workers(), thread_name_prefix="kerrcat-chunk")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the pool but not its threads: work handed to it would wait forever.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def predicted_signal(config: ExperimentConfig) -> tuple[float, float]:
    """Exact-engine prediction ``(S, P_emission)`` for a config.

    Averages ``p1`` over the thermal kick distribution (Gauss-Hermite, with
    as many nodes as the kick noise needs; see :func:`_kick_average`) and
    mixes in emission as a run does: ``S = q(E[p1]) - 1/2`` (:meth:`_Model.q`).
    """
    return _predict(_model(config))


def _predict(model: _Model) -> tuple[float, float]:
    """:func:`predicted_signal` of a model; with the analytic engine, a constant kick's ``p1`` is the run's."""
    stats, p_emit = model.stats, model.P
    if stats.variance > 0.0:
        p_mean = _kick_average(model)
    elif model.config.engine == "analytic":
        p_mean = float(model.constant_p1)
    else:
        p_mean = float(_p1_analytic(np.float64(stats.mean), model))
    return model.q(p_mean) - 0.5, p_emit


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

    Cell ``i`` runs with seed ``base.seed + i`` (documented, deterministic);
    if the last cell's seed would pass ``2**64 - 1``, no cell runs.
    Each row carries the measured estimate, the exact-engine prediction
    ``S_analytic``, and the emission probability for that cell. The run and
    the prediction of a cell share one model, which evaluates the kick
    statistics, ``P`` and, for a constant kick, ``p1`` once.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    last_seed = base.seed + len(values) - 1
    if last_seed >= 2**64:
        raise ValueError(f"the last sweep cell's seed {last_seed} is not a 64-bit unsigned integer")
    rows = []
    for index, value in enumerate(values):
        model = _model(dataclasses.replace(_apply_axis(base, axis, value), seed=base.seed + index))
        estimate = _simulate(model)
        s_analytic, p_emit = _predict(model)
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
