"""Fixed-width categorical encoding of parsed rules.

Every rule is represented over the same closed set of attributes: the five
synthetic header attributes plus every option key observed in the corpus
(minus exclusions). Attributes a rule does not carry take the reserved UNK
value, so encoding is total and every record has one value per attribute.

A corpus encodes as one (n x A) int64 code matrix: row i is rules[i], the
columns follow vocab.attributes, and each code indexes that attribute's
values (0 is UNK). It is the one encoded form: fit counts its columns, the
posterior kernel scores its rows, and the cluster feature is one more column.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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


def encode_corpus(rules: Sequence[ParsedRule], vocab: AttributeVocabulary) -> np.ndarray:
    """(n x A) int64 value codes of rules, columns in vocab.attributes order.

    Total: an absent attribute or an unseen value encodes as UNK (0).
    """
    attrs = vocab.attributes
    tables = [vocab._index[attr] for attr in attrs]
    unk = [0] * len(attrs)
    flat = itertools.chain.from_iterable(
        map(dict.get, tables, map(rule.attribute_values().get, attrs), unk) for rule in rules
    )
    codes = np.fromiter(flat, dtype=np.int64, count=len(rules) * len(attrs))
    return codes.reshape(len(rules), len(attrs))


def encode_rule(rule: ParsedRule, vocab: AttributeVocabulary) -> np.ndarray:
    """The one code row of rule (see encode_corpus)."""
    return encode_corpus([rule], vocab)[0]


def attach_cluster_feature(
    codes: np.ndarray,
    labels: Mapping[int, int],
    vocab: AttributeVocabulary,
    *,
    strict: bool = False,
    augmented_vocab: AttributeVocabulary | None = None,
) -> tuple[AttributeVocabulary, np.ndarray]:
    """Add the synthetic cluster_id attribute to the vocabulary and the codes.

    labels maps a row position of codes to its cluster label. The returned
    matrix is a copy with one column inserted at cluster_id's sorted place.
    Rows without a label encode as UNK unless strict, in which case
    MissingAssignment is raised. Pass ``augmented_vocab`` to reuse a
    vocabulary already extended with cluster labels (e.g. for test rules).
    """
    rows = range(len(codes))
    if augmented_vocab is None:
        seen = sorted({str(labels[row]) for row in rows if row in labels})
        values = dict(vocab.values)
        values[CLUSTER_ATTRIBUTE] = (UNK, *seen)
        augmented_vocab = AttributeVocabulary(
            attributes=tuple(sorted(vocab.attributes + (CLUSTER_ATTRIBUTE,))),
            values=values,
        )
    column = np.zeros(len(codes), dtype=np.int64)
    for row in rows:
        if row in labels:
            column[row] = augmented_vocab.index_of(CLUSTER_ATTRIBUTE, str(labels[row]))
        elif strict:
            raise MissingAssignment(f"row {row} has no cluster label")
    position = augmented_vocab.attributes.index(CLUSTER_ATTRIBUTE)
    return augmented_vocab, np.insert(codes, position, column, axis=1)
