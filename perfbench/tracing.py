"""Spans and counters for the traced run.

The traced run calls ``ruleforge.cli.run`` in-process with the public
library functions wrapped where each module imports them, so every call
into a layer becomes a span. Spans stay in memory and are written out when
the run ends. No file of the program changes: the wrappers are installed on
module attributes for the duration of the replay and removed after it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# Spans whose first call's arguments are kept, for the measurements the traced
# run makes after its replays: fit's peak memory and distance_work.
CAPTURE = frozenset({"bayes.fit", "clustering.distance"})


@dataclass
class Span:
    name: str
    op: int  # index of the CLI command this span belongs to
    parent: int | None  # index of the enclosing span
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans, additive counters and max-gauges."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.count_ops: dict[str, set[int]] = {}  # the commands each counter was bumped in
        self.gauges: dict[str, float] = {}
        self.captured: dict[str, tuple] = {}  # first call's arguments, for spans in CAPTURE
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, value: int, op: int | None = None) -> None:
        self.counts[name] += value
        self.count_ops.setdefault(name, set()).add(self.op if op is None else op)

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = max(value, self.gauges.get(name, value))

    def wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in CAPTURE:
                self.captured.setdefault(name, (args, kwargs))
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: commands it occurs in, calls, total and self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        ops: dict[str, set[int]] = {}
        for index, span in enumerate(self.spans):
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - child[index]
            ops.setdefault(span.name, set()).add(span.op)
        for name, row in out.items():
            row["commands"] = len(ops[name])
        return out

    def children_of(self, name: str) -> list[Span]:
        """Spans whose direct parent is named name."""
        return [
            span
            for span in self.spans
            if span.parent is not None and self.spans[span.parent].name == name
        ]

    def to_json(self) -> list:
        return [[s.name, s.op, s.parent, s.start, s.end] for s in self.spans]


def _parse(tracer: Tracer, result) -> None:
    rules, errors = result
    tracer.count("parser.rules", len(rules))
    tracer.count("parser.rejected", len(errors))


def _vocab(tracer: Tracer, vocab) -> None:
    tracer.gauge("encoding.attributes", len(vocab.attributes))
    tracer.gauge("encoding.width", vocab.one_hot_width())


def _model(tracer: Tracer, model) -> None:
    tracer.gauge("bayes.pair_cells", sum(t.size for t in model.counts.pair_counts.values()))


def _to_json(tracer: Tracer, text: str) -> None:
    tracer.gauge("bayes.model_bytes", len(text.encode("utf-8")))


def _graph(tracer: Tracer, graph) -> None:
    tracer.count("abduction.combinations", graph.total_combinations())


def _enumerate(tracer: Tracer, result) -> None:
    tracer.count("abduction.rules_emitted", len(result))
    tracer.count("abduction.truncated", int(result.truncated))


# (module, attribute path, span name, observer). Each public name is wrapped
# where the calling module looks it up, so nested calls become child spans.
PATCHES = (
    ("ruleforge.cli", "parse_ruleset", "parser.parse", _parse),
    ("ruleforge.cli", "build_vocabulary", "encoding.vocab", _vocab),
    ("ruleforge.evaluation", "build_vocabulary", "encoding.vocab", _vocab),
    ("ruleforge.cli", "encode_corpus", "encoding.encode", None),
    ("ruleforge.evaluation", "encode_rule", "encoding.encode", None),
    ("ruleforge.cli", "fit", "bayes.fit", _model),
    ("ruleforge.evaluation", "fit", "bayes.fit", _model),
    ("ruleforge.bayes", "SmoothedModel.to_json", "bayes.to_json", _to_json),
    ("ruleforge.bayes", "SmoothedModel.load", "bayes.load", _model),
    ("ruleforge.cli", "predict_distribution", "bayes.predict", None),
    ("ruleforge.abduction", "predict_distribution", "bayes.predict", None),
    ("ruleforge.evaluation", "predict_distribution", "bayes.predict", None),
    ("ruleforge.cli", "abduce_antecedents", "abduction.abduce", None),
    ("ruleforge.cli", "build_candidate_graph", "abduction.abduce", _graph),
    ("ruleforge.cli", "enumerate_rules", "abduction.enumerate", _enumerate),
    ("ruleforge.cli", "materialize_snort_rules", "abduction.materialize", None),
    ("ruleforge.cli", "build_distance_matrix", "clustering.distance", None),
    ("ruleforge.evaluation", "build_distance_matrix", "clustering.distance", None),
    ("ruleforge.cli", "agglomerate", "clustering.agglomerate", None),
    ("ruleforge.evaluation", "agglomerate", "clustering.agglomerate", None),
    ("ruleforge.cli", "loco_evaluate", "evaluation.loco", None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the PATCHES wrappers; restore the original attributes on exit."""
    saved = []
    try:
        for module_name, path, span_name, observe in PATCHES:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(span_name, original.__func__, observe))
            else:
                wrapped = tracer.wrap(span_name, original, observe)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def distance_work(rules) -> dict[str, int]:
    """Operation counts of build_distance_matrix, computed from its input.

    lookups_unequal: shared-key value lookups between two rules whose values
    differ, each a call to the edit-distance cache. value_pairs_distinct:
    distinct unordered unequal value pairs over all keys, the edit distances
    actually computed; divided by lookups_unequal it is the ceiling on any
    cache's win. lev_cells: sum of len(x) * len(y) over those distinct pairs.
    """
    by_key: dict[str, Counter[str]] = {}
    for rule in rules:
        for key, value in rule.attribute_values().items():
            by_key.setdefault(key, Counter())[value] += 1
    lookups = 0
    pairs = 0
    cells = 0
    keys_of_value: dict[str, set[str]] = {}
    for key, counts in by_key.items():
        carriers = sum(counts.values())
        lookups += carriers * (carriers - 1) // 2 - sum(c * (c - 1) // 2 for c in counts.values())
        lengths = [len(value) for value in counts]
        pairs += len(lengths) * (len(lengths) - 1) // 2
        cells += (sum(lengths) ** 2 - sum(n * n for n in lengths)) // 2
        for value in counts:
            keys_of_value.setdefault(value, set()).add(key)
    # A pair of values that two keys share is computed once: remove the repeats.
    shared = sorted(value for value, keys in keys_of_value.items() if len(keys) > 1)
    for i, x in enumerate(shared):
        for y in shared[i + 1 :]:
            repeats = len(keys_of_value[x] & keys_of_value[y]) - 1
            if repeats > 0:
                pairs -= repeats
                cells -= repeats * len(x) * len(y)
    return {
        "clustering.lookups_unequal": lookups,
        "clustering.value_pairs_distinct": pairs,
        "clustering.lev_cells": cells,
    }
