"""Spans around the calls into the program's public functions.

The program is not changed: :meth:`Tracer.patched` swaps a wrapper into
the module namespace that the caller looks names up in (``harness`` for
the Monte Carlo path, ``cli`` for the analyst's path) and restores the
original on exit. A span is (name, start, end, parent index); spans are
kept in memory and written once by :meth:`Tracer.write`. A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

from funnelbias import asymmetry, cli, harness


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count=None):
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(label):
                    result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        targets = [
            (harness, "replicate_rng", "sampler.replicate_rng", None),
            (harness, "generate_meta_analysis", _generate_name, _count_studies),
            (harness, "compute_usable", _compute_usable_name, _count_usable),
            (harness, "egger_test", "asymmetry.egger", None),
            (harness, "macaskill_test", "asymmetry.macaskill", None),
            (harness, "begg_test", "asymmetry.begg", None),
            (harness, "trim_fill_test", "asymmetry.trimfill", None),
            (asymmetry, "trim_fill_iterate", None, _count_passes),
            (cli, "read_dataset_csv", "model.read_dataset_csv", None),
            (cli, "validate_dataset", "model.validate_dataset", None),
            (cli, "measure_studies", _measure_studies_name, None),
            (cli, "funnel_points", "asymmetry.funnel_points", None),
        ]
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def self_times(self, name: str) -> list[float]:
        """Duration minus the child spans' durations, for each span named ``name``."""
        child_time: dict[int, float] = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        return [
            self.ends[i] - self.starts[i] - child_time[i]
            for i, n in enumerate(self.names)
            if n == name
        ]

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start and end in s, parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        with path.open("w") as fh:
            for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")


def _generate_name(condition, rng):
    return f"sampler.generate.{condition.bias.mechanism.value}"


def _count_studies(counts, dataset, condition, rng):
    counts["sampler.datasets"] += 1
    counts["sampler.studies"] += dataset.k


def _compute_usable_name(dataset, measure, policy=None):
    return f"measures.compute_usable.{measure.value}"


def _measure_studies_name(dataset, measure, policy=None):
    return f"measures.measure_studies.{measure.value}"


def _count_usable(counts, result, dataset, measure, policy=None):
    counts[f"measures.measured.{measure.value}"] += dataset.k
    counts[f"measures.usable.{measure.value}"] += len(result[0])


def _count_passes(counts, state, *args, **kwargs):
    counts["asymmetry.trimfill_calls"] += 1
    counts["asymmetry.trimfill_passes"] += state.iterations
    counts["asymmetry.trimfill_unconverged"] += not state.converged
