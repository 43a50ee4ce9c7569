"""Fixed-width categorical encoding of parsed rules.

Every rule is represented over the same closed set of attributes: the five
synthetic header attributes plus every option key observed in the corpus
(minus exclusions). Attributes a rule does not carry take the reserved UNK
value, so encoding is total and every record has one value per attribute.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import RuleforgeError
from .parser import IDENTITY_KEYS, ParsedRule

UNK = "UNK"

# Synthetic attribute added by attach_cluster_feature.
CLUSTER_ATTRIBUTE = "cluster_id"

VOCABULARY_FORMAT = "ruleforge-vocabulary"
VOCABULARY_VERSION = 1


class EmptyCorpus(RuleforgeError):
    """Vocabulary construction was given no rules."""


class UnknownAttribute(RuleforgeError):
    """An attribute name is not part of the vocabulary."""


class MissingAssignment(RuleforgeError):
    """A rule has no cluster label and strict mode is on."""


@dataclass(frozen=True)
class ExclusionList:
    """Attribute keys to keep out of the vocabulary.

    drop_constant additionally removes attributes that appear in every rule
    of the corpus with a single distinct value (they carry no signal).
    """

    excluded_keys: frozenset[str] = frozenset(IDENTITY_KEYS)
    drop_constant: bool = True


@dataclass
class AttributeVocabulary:
    """Closed world of attributes and their values.

    Attributes are sorted lexicographically. Each value tuple holds UNK
    exactly once, at index 0, followed by the observed values sorted
    lexicographically.
    """

    attributes: tuple[str, ...]
    values: dict[str, tuple[str, ...]]
    _index: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {
            attr: {value: i for i, value in enumerate(vals)}
            for attr, vals in self.values.items()
        }

    def size(self, attribute: str) -> int:
        return len(self._values_for(attribute))

    def index_of(self, attribute: str, value: str | None) -> int:
        """Index of value for attribute; unseen values map to UNK (index 0)."""
        table = self._index.get(attribute)
        if table is None:
            raise UnknownAttribute(f"attribute {attribute!r} not in vocabulary")
        if value is None:
            return 0
        return table.get(value, 0)

    def value_at(self, attribute: str, index: int) -> str:
        return self._values_for(attribute)[index]

    def _values_for(self, attribute: str) -> tuple[str, ...]:
        try:
            return self.values[attribute]
        except KeyError:
            raise UnknownAttribute(f"attribute {attribute!r} not in vocabulary") from None

    def one_hot_width(self) -> int:
        return sum(len(self.values[a]) for a in self.attributes)

    def offsets(self) -> dict[str, int]:
        """Start column of each attribute's block in the one-hot layout."""
        offsets: dict[str, int] = {}
        position = 0
        for attr in self.attributes:
            offsets[attr] = position
            position += len(self.values[attr])
        return offsets

    def to_json(self) -> str:
        payload = {
            "format": VOCABULARY_FORMAT,
            "version": VOCABULARY_VERSION,
            "attributes": {a: list(self.values[a]) for a in self.attributes},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AttributeVocabulary":
        payload = json.loads(text)
        if payload.get("format") != VOCABULARY_FORMAT:
            raise RuleforgeError("not a vocabulary file")
        attrs = payload["attributes"]
        return cls(
            attributes=tuple(sorted(attrs)),
            values={a: tuple(vals) for a, vals in attrs.items()},
        )

    def sha256(self) -> str:
        canonical = json.dumps(
            {a: list(self.values[a]) for a in self.attributes},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class EncodedRule:
    """One rule as value indices over a vocabulary."""

    rule_id: int
    values: dict[str, int]

    def one_hot(self, vocab: AttributeVocabulary) -> np.ndarray:
        """Expanded binary vector; exactly one 1 per attribute block."""
        vector = np.zeros(vocab.one_hot_width(), dtype=np.int8)
        for attr, offset in vocab.offsets().items():
            vector[offset + self.values[attr]] = 1
        return vector


def build_vocabulary(
    rules: Sequence[ParsedRule], exclude: ExclusionList | None = None
) -> AttributeVocabulary:
    """Learn the attribute/value vocabulary from a corpus of parsed rules."""
    if not rules:
        raise EmptyCorpus("cannot build a vocabulary from zero rules")
    if exclude is None:
        exclude = ExclusionList()
    observed: dict[str, set[str]] = {}
    presence: Counter[str] = Counter()
    for rule in rules:
        for attr, value in rule.attribute_values().items():
            if attr in exclude.excluded_keys:
                continue
            observed.setdefault(attr, set()).add(value)
            presence[attr] += 1
    names: list[str] = []
    for attr in sorted(observed):
        constant = presence[attr] == len(rules) and len(observed[attr]) == 1
        if exclude.drop_constant and constant:
            continue
        names.append(attr)
    values = {
        attr: (UNK,) + tuple(sorted(v for v in observed[attr] if v != UNK))
        for attr in names
    }
    return AttributeVocabulary(attributes=tuple(names), values=values)


def encode_rule(
    rule: ParsedRule, vocab: AttributeVocabulary, rule_id: int = 0
) -> EncodedRule:
    """Encode one rule. Total: absent attributes and unseen values become UNK."""
    present = rule.attribute_values()
    return EncodedRule(
        rule_id=rule_id,
        values={attr: vocab.index_of(attr, present.get(attr)) for attr in vocab.attributes},
    )


def code_matrix(records: Sequence[EncodedRule], vocab: AttributeVocabulary) -> np.ndarray:
    """(n x A) int64 value codes, columns in vocab.attributes order.

    The one place per-rule dicts become arrays: fit counts its columns and
    the posterior kernel scores its rows. A missing attribute reads UNK (0).
    """
    attrs = vocab.attributes
    unk = [0] * len(attrs)
    flat = itertools.chain.from_iterable(map(r.values.get, attrs, unk) for r in records)
    codes = np.fromiter(flat, dtype=np.int64, count=len(records) * len(attrs))
    return codes.reshape(len(records), len(attrs))


def encode_corpus(
    rules: Sequence[ParsedRule],
    vocab: AttributeVocabulary,
    rule_ids: Iterable[int] | None = None,
) -> list[EncodedRule]:
    """Encode a corpus; rule_ids default to the positional index."""
    ids = list(rule_ids) if rule_ids is not None else list(range(len(rules)))
    return [encode_rule(rule, vocab, rule_id=i) for rule, i in zip(rules, ids)]


def attach_cluster_feature(
    encoded: Sequence[EncodedRule],
    assignment,
    vocab: AttributeVocabulary,
    *,
    strict: bool = False,
    augmented_vocab: AttributeVocabulary | None = None,
) -> tuple[AttributeVocabulary, list[EncodedRule]]:
    """Add the synthetic cluster_id attribute to vocabulary and records.

    ``assignment`` is a ClusterAssignment or a plain mapping rule_id -> label.
    Rules outside the assignment encode as UNK unless strict, in which case
    MissingAssignment is raised. Pass ``augmented_vocab`` to reuse a
    vocabulary already extended with cluster labels (e.g. for test rules).
    """
    labels: Mapping[int, int] = getattr(assignment, "labels", assignment)
    if augmented_vocab is None:
        seen = sorted({str(labels[e.rule_id]) for e in encoded if e.rule_id in labels})
        values = dict(vocab.values)
        values[CLUSTER_ATTRIBUTE] = (UNK, *seen)
        augmented_vocab = AttributeVocabulary(
            attributes=tuple(sorted(vocab.attributes + (CLUSTER_ATTRIBUTE,))),
            values=values,
        )
    out: list[EncodedRule] = []
    for record in encoded:
        if record.rule_id in labels:
            index = augmented_vocab.index_of(CLUSTER_ATTRIBUTE, str(labels[record.rule_id]))
        elif strict:
            raise MissingAssignment(f"rule_id {record.rule_id} has no cluster label")
        else:
            index = 0
        values = dict(record.values)
        values[CLUSTER_ATTRIBUTE] = index
        out.append(EncodedRule(rule_id=record.rule_id, values=values))
    return augmented_vocab, out
