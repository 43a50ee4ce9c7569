"""Abduce antecedent values from a seed rule and enumerate new rules.

For each attribute of a seed rule, the attribute is hidden and the model
predicts it from all the others; candidate values that survive the selection
strategy (and are not the seed's own value) become alternatives for that
attribute. The cross product of per-attribute alternatives, minus the seed's
own combination, is depth-first enumerated and materialized as syntactically
valid snort rules.

A candidate value of UNK means "drop the attribute": the materialized rule
omits it. Attributes the seed does not carry receive no candidates unless
allow_insertion is set, so generation is replacement-only by default.

threshold_sweep counts, for a grid of thresholds, how many rules the seed
would yield, from one set of posteriors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Sequence

from ._numpy import np

from .bayes import (
    PosteriorDistribution,
    SmoothedModel,
    predict_above_threshold,
    predict_distribution,
    predict_topk,
)
from .encoding import UNK, AttributeVocabulary, encode_rule
from .errors import RuleforgeError
from .parser import HEADER_FIELDS, ParsedRule, serialize_rule

DEFAULT_LIMIT = 10_000
DEFAULT_SID_BASE = 250_001
STRATEGY_CHOICES = ("threshold", "topk", "mle")


class CombinationOverflow(RuleforgeError):
    """Strict enumeration found more combinations than the limit allows."""


@dataclass(frozen=True)
class Strategy:
    """Candidate selection strategy: topk(k) or threshold(t); mle() is topk(1)."""

    kind: str
    k: int = 0
    t: float = 0.0

    @classmethod
    def mle(cls) -> "Strategy":
        """predict_mle as a selection: the most likely value, which top-1 selects."""
        return cls.topk(1)

    @classmethod
    def topk(cls, k: int) -> "Strategy":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return cls(kind="topk", k=k)

    @classmethod
    def threshold(cls, t: float) -> "Strategy":
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {t}")
        return cls(kind="threshold", t=t)

    def select(self, distribution: PosteriorDistribution) -> list[str]:
        if self.kind == "topk":
            return predict_topk(distribution, self.k)
        if self.kind == "threshold":
            return predict_above_threshold(distribution, self.t)
        raise ValueError(f"unknown strategy kind {self.kind!r}")


@dataclass
class SeedObservation:
    """A seed rule, the vocabulary it is encoded under (the model's), and its code row."""

    rule: ParsedRule
    vocab: AttributeVocabulary
    encoded: np.ndarray

    @classmethod
    def from_rule(cls, rule: ParsedRule, vocab: AttributeVocabulary) -> "SeedObservation":
        return cls(rule, vocab, encode_rule(rule, vocab))

    @property
    def seed_sid(self) -> int:
        """The seed rule's sid, or 0 when it has none."""
        return self.rule.sid if self.rule.sid is not None else 0

    def value_of(self, attribute: str) -> str:
        return self.vocab.value_at(attribute, self.encoded[self.vocab.column(attribute)])


@dataclass
class CandidateGraph:
    """Per-attribute value layers; the seed's value leads each layer, and none repeats a value.

    The layers are in the vocabulary's attribute order, the order enumeration follows.
    """

    layers: dict[str, tuple[str, ...]]

    def total_combinations(self) -> int:
        return math.prod(len(layer) for layer in self.layers.values())


@dataclass
class GeneratedRule:
    """One synthesized rule plus where it came from.

    changes maps every graph attribute to kept/replaced/dropped/inserted.
    """

    rule: ParsedRule
    seed_sid: int
    changes: dict[str, str]


@dataclass
class EnumerationResult(Sequence):
    """Sequence of GeneratedRule with a truncation marker."""

    rules: list[GeneratedRule] = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.rules)

    def __getitem__(self, index):
        return self.rules[index]

    def __iter__(self) -> Iterator[GeneratedRule]:
        return iter(self.rules)


@dataclass
class ThresholdSweepResult:
    """Generated-rule counts over an ascending threshold grid."""

    points: tuple[tuple[float, int], ...]

    def to_csv(self) -> str:
        """CSV with header threshold,generated_rules; no field ever needs quoting."""
        rows = [f"{threshold!r},{count}\n" for threshold, count in self.points]
        return "".join(["threshold,generated_rules\n", *rows])


def abduce_antecedents(
    model: SmoothedModel,
    seed: SeedObservation,
    strategy: Strategy,
    *,
    allow_insertion: bool = False,
) -> dict[str, list[str]]:
    """Candidate values per attribute, most probable first.

    The strategy filters the full posterior; the seed's own value is then
    removed, so a returned list holds genuine alternatives only. Attributes
    absent from the seed (UNK) yield no candidates unless allow_insertion.
    """
    posteriors = seed_posteriors(model, seed, allow_insertion=allow_insertion)
    return select_candidates(seed, strategy, posteriors)


def seed_posteriors(
    model: SmoothedModel,
    seed: SeedObservation,
    *,
    targets: Sequence[str] | None = None,
    allow_insertion: bool = False,
) -> dict[str, PosteriorDistribution]:
    """Posterior of each attribute abduction may change, predicted from all the others.

    Those are the targets (by default every vocabulary attribute) the seed
    carries, or every target with allow_insertion.
    """
    return {
        attr: predict_distribution(model, seed.encoded, attr)
        for attr in (seed.vocab.attributes if targets is None else targets)
        if allow_insertion or seed.value_of(attr) != UNK
    }


def select_candidates(
    seed: SeedObservation,
    strategy: Strategy,
    posteriors: Mapping[str, PosteriorDistribution],
) -> dict[str, list[str]]:
    """abduce_antecedents' candidates from seed_posteriors' distributions.

    An attribute without a posterior gets no candidates.
    """
    candidates: dict[str, list[str]] = {}
    for attr in seed.vocab.attributes:
        seed_value = seed.value_of(attr)
        selected = strategy.select(posteriors[attr]) if attr in posteriors else []
        candidates[attr] = [value for value in selected if value != seed_value]
    return candidates


def build_candidate_graph(
    seed: SeedObservation, candidates: Mapping[str, Sequence[str]]
) -> CandidateGraph:
    """Arrange candidates into ordered layers, seed value first, without repeats.

    UNK is dropped from header-attribute layers: a header position cannot be
    omitted from a rule, so that candidate is unrealizable.
    """
    layers: dict[str, tuple[str, ...]] = {}
    for attr in seed.vocab.attributes:
        kept = (v for v in candidates.get(attr, ()) if v != UNK or attr not in HEADER_FIELDS)
        layers[attr] = tuple(dict.fromkeys([seed.value_of(attr), *kept]))
    return CandidateGraph(layers)


def threshold_sweep(
    model: SmoothedModel,
    seed: SeedObservation,
    thresholds: Sequence[float],
    *,
    limit: int = DEFAULT_LIMIT,
    allow_insertion: bool = False,
) -> ThresholdSweepResult:
    """Generated-rule count at each threshold; thresholds must ascend.

    A count is enumerate_rules' length, min(combinations - 1, limit): each
    graph layer leads with the seed's value and holds no repeats.
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    if list(thresholds) != sorted(thresholds):
        raise ValueError("thresholds must be sorted ascending")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    posteriors = seed_posteriors(model, seed, allow_insertion=allow_insertion)
    points: list[tuple[float, int]] = []
    for threshold in thresholds:
        candidates = select_candidates(seed, Strategy.threshold(threshold), posteriors)
        graph = build_candidate_graph(seed, candidates)
        points.append((float(threshold), min(graph.total_combinations() - 1, limit)))
    return ThresholdSweepResult(points=tuple(points))


def _apply_combination(
    seed_rule: ParsedRule, assignment: Mapping[str, str], seed_values: Mapping[str, str]
) -> tuple[ParsedRule, dict[str, str]]:
    """Build the rule for one combination and record per-attribute changes.

    seed_values holds the attributes the seed carries; changes follows assignment's order.
    """
    changes: dict[str, str] = {}
    values: dict[str, str | None] = {}
    for attr, value in assignment.items():
        if value == seed_values.get(attr, UNK):
            changes[attr] = "kept"
        elif attr not in seed_values:
            changes[attr], values[attr] = "inserted", value
        elif value == UNK:
            changes[attr], values[attr] = "dropped", None
        else:
            changes[attr], values[attr] = "replaced", value
    return seed_rule.with_attribute_values(values), changes


def enumerate_rules(
    graph: CandidateGraph,
    seed: SeedObservation,
    limit: int = DEFAULT_LIMIT,
    *,
    strict: bool = False,
) -> EnumerationResult:
    """Depth-first enumeration of all combinations except the seed's own.

    Deterministic: layer order within each attribute and the attribute order
    itself fix the output sequence. Truncates at limit (truncated flag set);
    in strict mode a would-be truncation raises CombinationOverflow instead.
    A rule's changes list the seed's attributes in attribute_values() order
    (the header's, then its options'), then the other attributes sorted.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    total = graph.total_combinations() - 1
    if strict and total > limit:
        raise CombinationOverflow(f"{total} combinations exceed the limit of {limit}")
    layers = graph.layers
    seed_values = {attr: layers[attr][0] for attr in seed.rule.attribute_values() if attr in layers}
    order = [*seed_values, *sorted(layers.keys() - seed_values)]
    positions = [(attr, list(layers).index(attr)) for attr in order]
    seed_rule = replace(seed.rule, sid=None, rev=None, msg=None, references=())
    # the seed's combination is the product's first: each layer leads with its value
    combos = itertools.product(*layers.values())
    rules = []
    for combo in itertools.islice(combos, 1, limit + 1):
        assignment = {attr: combo[i] for attr, i in positions}
        rule, changes = _apply_combination(seed_rule, assignment, seed_values)
        rules.append(GeneratedRule(rule=rule, seed_sid=seed.seed_sid, changes=changes))
    return EnumerationResult(rules, truncated=total > limit)


def materialize_snort_rules(
    generated: Sequence[GeneratedRule],
    category: str,
    sid_base: int = DEFAULT_SID_BASE,
) -> str:
    """Serialize the batch to rules-file text with fresh identity metadata.

    Each rule gets msg "<CATEGORY> Generated rule alert from ID-<sid>",
    rev 1, and a sequential sid starting at sid_base. The generated rules
    themselves are left unchanged. A category holding '"' or a line break
    would not re-parse, and raises ValueError.
    """
    if sid_base < DEFAULT_SID_BASE:
        raise ValueError(f"sid_base {sid_base} is below the floor {DEFAULT_SID_BASE}")
    if {'"', "\n", "\r"} & set(category):
        raise ValueError(f"category must not hold '\"' or a line break, got {category!r}")
    return "".join(
        serialize_rule(
            replace(gen.rule, sid=sid, rev=1, msg=f"{category} Generated rule alert from ID-{sid}")
        )
        + "\n"
        for sid, gen in enumerate(generated, start=sid_base)
    )
