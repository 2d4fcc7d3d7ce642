"""Span recorder for the traced benchmark run.

Each traced function of the kerrcat package is replaced by a wrapper that
records one span per call: its wall time and the part of that time covered by
the spans it caused (its children). A layer's self time is its span time minus
its children's. Spans nest by call, through a stack kept in the recorder.

Wrappers are installed by rebinding every attribute of every loaded kerrcat
module that refers to the original function object, so a call reaches the
wrapper whichever module it is made from (``kerrcat.montecarlo.prob_x_positive``,
``kerrcat.cli.loss_channel``, the package namespace, ...). Untraced runs never
create a recorder, so they run the program unchanged.

Some wrappers also count work at the boundary (shots, cells, failed checks).
Counting runs outside the span and is booked to no layer, so self times stay
clean; its cost is part of the tracing overhead the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _count_pairs(counts, args, kwargs, result) -> None:
    # prob_x_positive(coeffs, amps): coeffs has shape (k,) or (k, M).
    coeffs = np.asarray(args[0] if args else kwargs["coeffs"])
    k = coeffs.shape[0]
    shots = coeffs.size // k
    counts["coherent.prob_x_positive.shots"] += shots
    # _pair_sums builds complex128 (k, k, M) arrays: 16 bytes per pair term.
    counts["coherent.pair_bytes"] += 16 * k * k * shots


def _count_kicks(position: int, name: str):
    def count(counts, args, kwargs, result) -> None:
        kicks = np.asarray(args[position] if len(args) > position else kwargs[name], dtype=float)
        counts["coherent.kicks"] += kicks.size
        counts["coherent.distinct_kicks"] += np.unique(kicks).size
    return count


def _count_outcome_shots(counts, args, kwargs, result) -> None:
    counts["montecarlo.outcome_probability.shots"] += np.size(args[0] if args else kwargs["delta_prime"])


def _count_cells(counts, args, kwargs, result) -> None:
    counts["montecarlo.sweep.cells"] += len(result)


def _count_failed_checks(counts, args, kwargs, result) -> None:
    counts["cli.checks_failed"] += sum(1 for row in result if not row.passed)


#: (module, function, span name, counter) for every traced function. A function
#: the program does not define is skipped; a span none of whose functions
#: exist is listed in ``Recorder.missing``. The prediction is looked up under
#: its private and its public name.
TARGETS = (
    ("kerrcat._coherent", "prob_x_positive", "coherent.prob_x_positive", _count_pairs),
    ("kerrcat._coherent", "ideal_pipeline", "coherent.pipeline", _count_kicks(1, "delta")),
    ("kerrcat._coherent", "lossy_pipeline", "coherent.pipeline", _count_kicks(1, "delta_prime")),
    ("kerrcat.montecarlo", "run_experiment", "montecarlo.run_experiment", None),
    ("kerrcat.montecarlo", "sample_kick", "montecarlo.sample_kick", None),
    ("kerrcat.montecarlo", "outcome_probability", "montecarlo.outcome_probability", _count_outcome_shots),
    ("kerrcat.montecarlo", "predicted_signal", "montecarlo.predicted_signal", None),
    ("kerrcat.montecarlo", "_predicted_signal", "montecarlo.predicted_signal", None),
    ("kerrcat.montecarlo", "sweep", "montecarlo.sweep", _count_cells),
    ("kerrcat.loss", "momentum_kick_stats", "loss.momentum_kick_stats", None),
    ("kerrcat.loss", "loss_channel", "loss.loss_channel", None),
    ("kerrcat.loss", "run_lossy_trajectory", "loss.run_lossy_trajectory", None),
    ("kerrcat.loss", "lossy_kerr_propagator", "loss.lossy_kerr_propagator", None),
    ("kerrcat.fock", "quadrature_distribution", "fock.quadrature_distribution", None),
    ("kerrcat.fock", "force_kick", "fock.force_kick", None),
    ("kerrcat.fock", "coherent_state", "fock.coherent_state", None),
    ("kerrcat.protocol", "run_ideal", "protocol.run_ideal", None),
    ("kerrcat.cli", "validation_rows", "cli.validation_rows", _count_failed_checks),
)


#: Every counter the wrappers above can increment.
COUNTERS = (
    "coherent.prob_x_positive.shots",
    "coherent.pair_bytes",
    "coherent.kicks",
    "coherent.distinct_kicks",
    "montecarlo.outcome_probability.shots",
    "montecarlo.sweep.cells",
    "cli.checks_failed",
)


class Recorder:
    """Per-name span totals, child time, call counts and work counters."""

    def __init__(self) -> None:
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.paused = False
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        self.total[name] += elapsed
        self.child[name] += self._stack.pop()
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += elapsed

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                start = time.perf_counter()
                count(self.counts, args, kwargs, result)
                elapsed = time.perf_counter() - start
                if self._stack:
                    # Book counting as child time of the caller, not its self time.
                    self._stack[-1] += elapsed
            return result
        wrapper.span_name = name
        return wrapper

    def install(self) -> None:
        """Rebind every reference to each traced function to its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "kerrcat" or n.startswith("kerrcat.")]
        wrapped = set()
        for module_name, attr, name, count in TARGETS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None or hasattr(original, "span_name"):
                continue  # not defined, or an alias of a function wrapped already
            wrapped.add(name)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        self.missing = sorted({target[2] for target in TARGETS} - wrapped)

    def uninstall(self) -> None:
        """Restore every rebound attribute."""
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]
