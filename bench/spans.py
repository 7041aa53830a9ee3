"""Spans recorded from outside the program, around calls into qracsim modules.

The tracer never edits qracsim: for the length of a traced pass it replaces
public names in module namespaces (the names other modules look up at call
time) with wrappers that record a span, then puts the originals back.
Private helpers are never wrapped.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# (module whose namespace is patched, public name looked up there, span name).
# The span name starts with the module that defines the function, so the same
# function reached through two namespaces lands in one per-module account.
WRAPPED = (
    ("photonics", "simulate_trial", "photonics.simulate_trial"),
    ("photonics", "z_click_distribution", "photonics.z_click_distribution"),
    ("photonics", "x_click_distribution", "photonics.x_click_distribution"),
    ("qrac", "encoding_table", "qrac.encoding_table"),
    ("qrac", "average_success_probability", "qrac.average_success_probability"),
    ("qrac", "max_success_probability", "qrac.max_success_probability"),
    ("qrac", "advantage", "qrac.advantage"),
    ("qrac", "reduce_pair", "qrac.reduce_pair"),
    ("qrac", "pvm_pair_compatible", "qrac.pvm_pair_compatible"),
    ("qrac", "allocation_figure", "qrac.allocation_figure"),
    ("qrac", "empirical_advantage", "qrac.empirical_advantage"),
    ("qrac", "measurement_pair_from_mub", "qrac.measurement_pair_from_mub"),
    ("qrac", "hermitian_eig", "linalg.hermitian_eig"),
    ("qrac", "operator_norm", "linalg.operator_norm"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("mub", "pauli_mub_pair", "mub.pauli_mub_pair"),
    ("mub", "product_mub_pair", "mub.product_mub_pair"),
    ("mub", "fourier_mub_pair", "mub.fourier_mub_pair"),
    ("prbs", "prbs_generate", "prbs.prbs_generate"),
    ("prbs", "prbs_align", "prbs.prbs_align"),
    ("cli", "main", "cli.main"),
    ("cli", "simulate_trial", "photonics.simulate_trial"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "config_to_mapping", "config.config_to_mapping"),
    ("cli", "encoding_table", "qrac.encoding_table"),
    ("cli", "measurement_pair_from_mub", "qrac.measurement_pair_from_mub"),
    ("cli", "pauli_mub_pair", "mub.pauli_mub_pair"),
    ("cli", "product_mub_pair", "mub.product_mub_pair"),
    ("cli", "empirical_advantage", "qrac.empirical_advantage"),
    ("cli", "allocation_figure", "qrac.allocation_figure"),
)


def _count_trial(counts, args, trial):
    tallies = [*trial.z_tallies.values(), *(trial.x_tallies or {}).values()]
    counts["photonics.rounds"] += trial.rounds
    counts["photonics.conclusive"] += sum(t.conclusive for t in tallies)
    counts["photonics.no_click_z"] += trial.no_click_probability_z
    counts["photonics.trials"] += 1


def _count_align(counts, args, offset):
    observed = np.asarray(args[0])
    counts["prbs.bits"] += observed.size
    counts["prbs.valid_bits"] += int(np.count_nonzero(observed >= 0))


# Counts recorded at the same boundaries as the spans, by span name.
COUNTERS = {
    "photonics.simulate_trial": _count_trial,
    "prbs.prbs_align": _count_align,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """In-memory span and count recorder; a disabled tracer records no spans."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Record spans on every WRAPPED name while the block runs."""
        originals = []
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(f"qracsim.{module_name}")
            originals.append((module, attr, getattr(module, attr), span_name))
        try:
            for module, attr, original, span_name in originals:
                setattr(module, attr, self._wrap(span_name, original))
            self.enabled = True
            yield
        finally:
            self.enabled = False
            for module, attr, original, _ in originals:
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


@dataclass
class SpanTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def summarize(spans: list[Span]):
    """Per-name totals and per-module self time.

    A span's self time is its duration minus the durations of its direct
    children, so self times add up to the time the root spans cover.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    by_name: dict[str, SpanTotals] = defaultdict(SpanTotals)
    module_self: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        own = duration - child_time[index]
        totals = by_name[span.name]
        totals.calls += 1
        totals.total += duration
        totals.self_time += own
        module_self[span.name.split(".", 1)[0]] += own
    return by_name, module_self
