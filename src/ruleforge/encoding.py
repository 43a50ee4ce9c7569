"""Fixed-width categorical encoding of parsed rules.

Every rule is represented over the same closed set of attributes: the five
synthetic header attributes plus every option key observed in the corpus
(minus exclusions). Attributes a rule does not carry take the reserved UNK
value, so encoding is total and every record has one value per attribute.

factorize is the one walk over the rules' attribute_values() dicts: every
attribute key, its distinct values, and an (n x K) int32 matrix of their
codes, -1 where a rule lacks the key. The vocabulary (of all rows or of an
evaluation fold's) and the encoding are read from those codes, and the
distance matrix reads them as they are.

A corpus encodes as one (n x A) int64 code matrix: row i is rules[i], the
columns follow vocab.attributes, and each code indexes that attribute's
values (0 is UNK). It is the one encoded form: fit keeps its distinct rows,
the posterior kernel scores its rows, and the cluster feature is one more
column, built from the int array of cluster labels that clustering returns.
encode_codes, which reads a factorization, codes a value the vocabulary
lacks -1 instead, so in evaluation's held-out truth it matches no prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from ._numpy import np

from .errors import RuleforgeError
from .parser import ParsedRule

UNK = "UNK"

# Synthetic attribute added by attach_cluster_feature.
CLUSTER_ATTRIBUTE = "cluster_id"

VOCABULARY_FORMAT = "ruleforge-vocabulary"
VOCABULARY_VERSION = 1


class EmptyCorpus(RuleforgeError):
    """Vocabulary construction was given no rules."""


class UnknownAttribute(RuleforgeError):
    """An attribute name is not part of the vocabulary."""


@dataclass(frozen=True)
class ExclusionList:
    """Attribute keys to keep out of the vocabulary (none by default).

    The identity options (sid, rev, msg, reference) need no entry: the parser
    keeps them out of every rule's attributes. drop_constant additionally
    removes attributes that appear in every rule of the corpus with a single
    distinct value (they carry no signal).
    """

    excluded_keys: frozenset[str] = frozenset()
    drop_constant: bool = True


@dataclass(frozen=True)
class AttributeVocabulary:
    """Closed world of attributes and their values, read-only once checked.

    values maps each attribute to its value tuple: UNK exactly once, at index
    0, followed by the observed values sorted lexicographically; any other
    value list raises ValueError. It is a read-only view of a copy of the
    mapping given. attributes is derived from it: the attribute names sorted
    lexicographically, the column order of every code matrix, which column()
    looks up.
    """

    values: Mapping[str, tuple[str, ...]]
    attributes: tuple[str, ...] = field(init=False)
    _columns: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = MappingProxyType(dict(self.values))
        for attribute, values in table.items():
            rest = values[1:]
            if values[:1] != (UNK,) or UNK in rest or not (
                all(isinstance(v, str) for v in rest) and all(map(str.__lt__, rest, rest[1:]))
            ):
                raise ValueError(
                    f"values of {attribute!r} are not UNK then strictly increasing strings"
                )
        attributes = tuple(sorted(table))
        object.__setattr__(self, "values", table)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "_columns", {name: a for a, name in enumerate(attributes)})

    def column(self, attribute: str) -> int:
        """attribute's column in every code matrix; raises as values_of does."""
        self.values_of(attribute)
        return self._columns[attribute]

    def size(self, attribute: str) -> int:
        return len(self.values_of(attribute))

    def index_of(self, attribute: str, value: str | None) -> int:
        """Index of value for attribute; unseen values map to UNK (index 0)."""
        values = self.values_of(attribute)
        return values.index(value) if value in values else 0

    def value_at(self, attribute: str, index: int) -> str:
        return self.values_of(attribute)[index]

    def values_of(self, attribute: str) -> tuple[str, ...]:
        """The value tuple of attribute; one not in the vocabulary raises UnknownAttribute."""
        try:
            return self.values[attribute]
        except KeyError:
            raise UnknownAttribute(f"attribute {attribute!r} not in vocabulary") from None

    def one_hot_width(self) -> int:
        return sum(len(self.values[a]) for a in self.attributes)

    def to_json(self) -> str:
        import json  # here, not at the top: parse, cluster and evaluate never load it

        payload = {
            "format": VOCABULARY_FORMAT,
            "version": VOCABULARY_VERSION,
            "attributes": {a: list(self.values[a]) for a in self.attributes},
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def sha256(self) -> str:
        import json

        # CPython's built-in SHA-256, as random.py takes its SHA-512: hashlib
        # would load OpenSSL's libcrypto (3.6 MiB of a seed command's peak RSS)
        # for this one digest. hashlib serves a build without the module.
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256  # its name before Python 3.12
            except ImportError:
                from hashlib import sha256

        canonical = json.dumps(
            {a: list(self.values[a]) for a in self.attributes},
            sort_keys=True,
            separators=(",", ":"),
        )
        return sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Factorized:
    """A corpus as one (n x K) int32 code matrix over every attribute key.

    keys are sorted; values[k] holds key k's distinct values in first-seen
    order, and codes[i, k] indexes them, or is -1 where rule i lacks the key.
    A flag option's "" and a literal "UNK" value are values like any other.
    """

    keys: tuple[str, ...]
    values: tuple[tuple[str, ...], ...]
    codes: np.ndarray


def factorize(rules: Sequence[ParsedRule]) -> Factorized:
    """One walk over the rules, one attribute_values() dict at a time."""
    columns: dict[str, tuple[dict[str, int], list[int], list[int]]] = {}
    for i, rule in enumerate(rules):
        for key, value in rule.attribute_values().items():
            column = columns.get(key)
            if column is None:
                column = columns[key] = ({}, [], [])
            seen, rows, codes = column
            rows.append(i)
            codes.append(seen.setdefault(value, len(seen)))
    keys = tuple(sorted(columns))
    matrix = np.full((len(rules), len(keys)), -1, dtype=np.int32)
    for k, key in enumerate(keys):
        _, rows, codes = columns[key]
        matrix[rows, k] = codes
    return Factorized(keys, tuple(tuple(columns[key][0]) for key in keys), matrix)


def vocabulary_of_codes(
    table: Factorized, exclude: ExclusionList, rows: np.ndarray | None = None
) -> AttributeVocabulary:
    """The vocabulary of the selected rows (all of them by default).

    A key is present where its code is >= 0 and a value is observed where
    its count is nonzero; keys absent from every selected row are left out.
    """
    codes = table.codes if rows is None else table.codes[rows]
    values: dict[str, tuple[str, ...]] = {}
    for key, distinct, column in zip(table.keys, table.values, codes.T):
        if key in exclude.excluded_keys:
            continue
        present = column[column >= 0]
        observed = [distinct[c] for c in np.flatnonzero(np.bincount(present)).tolist()]
        constant = len(present) == len(codes) and len(observed) == 1
        if not observed or (exclude.drop_constant and constant):
            continue
        values[key] = (UNK, *sorted(v for v in observed if v != UNK))
    return AttributeVocabulary(values)


def build_vocabulary(
    rules: Sequence[ParsedRule], exclude: ExclusionList | None = None
) -> AttributeVocabulary:
    """Learn the attribute/value vocabulary from a corpus of parsed rules."""
    if not rules:
        raise EmptyCorpus("cannot build a vocabulary from zero rules")
    return vocabulary_of_codes(factorize(rules), exclude or ExclusionList())


def encode_codes(table: Factorized, vocab: AttributeVocabulary) -> np.ndarray:
    """(n x A) int64 vocabulary codes of a factorized corpus (see encode_corpus).

    An absent key and a literal "UNK" encode as UNK (0), but a value the
    vocabulary lacks encodes as -1, so it equals no value's code.
    """
    encoded = np.zeros((len(table.codes), len(vocab.attributes)), dtype=np.int64)
    column_of = {key: k for k, key in enumerate(table.keys)}
    for a, attr in enumerate(vocab.attributes):
        k = column_of.get(attr)
        if k is not None:
            index = {value: i for i, value in enumerate(vocab.values[attr])}
            # the trailing 0 is where code -1 (key absent) looks
            lookup = np.array([index.get(v, -1) for v in table.values[k]] + [0], dtype=np.int64)
            encoded[:, a] = lookup[table.codes[:, k]]
    return encoded


def encode_corpus(rules: Sequence[ParsedRule], vocab: AttributeVocabulary) -> np.ndarray:
    """(n x A) int64 value codes of rules, columns in vocab.attributes order.

    Total: an absent attribute, an unseen value and a literal "UNK" all
    encode as UNK (0).
    """
    codes = encode_codes(factorize(rules), vocab)
    return np.maximum(codes, 0, out=codes)


def encode_rule(rule: ParsedRule, vocab: AttributeVocabulary) -> np.ndarray:
    """The one code row of rule (see encode_corpus)."""
    return encode_corpus([rule], vocab)[0]


def string_order(values: Sequence[str]) -> np.ndarray:
    """The codes of values in ascending string order: UNK (0) takes its sorted place."""
    return np.array(sorted(range(len(values)), key=values.__getitem__), dtype=np.intp)


def attach_cluster_feature(
    codes: np.ndarray,
    labels: np.ndarray,
    vocab: AttributeVocabulary,
    rows: np.ndarray | None = None,
) -> tuple[AttributeVocabulary, np.ndarray]:
    """Add the synthetic cluster_id attribute to the vocabulary and the codes.

    labels holds the cluster label of each row of codes. cluster_id's values
    are the labels of the selected rows (all of them by default), sorted as
    strings, and any other label encodes as UNK, as vocabulary_of_codes
    selects a fold's values. The returned matrix is a copy with one column
    inserted at cluster_id's sorted place. A vocabulary that already holds
    cluster_id (a rule option of that name) raises RuleforgeError.
    """
    if CLUSTER_ATTRIBUTE in vocab.values:
        raise RuleforgeError(
            f"the rules carry a {CLUSTER_ATTRIBUTE!r} option, which the cluster feature "
            f"would duplicate: evaluate with --exclude {CLUSTER_ATTRIBUTE}"
        )
    distinct, inverse = np.unique(labels, return_inverse=True)
    names = [str(label) for label in distinct.tolist()]
    selected = np.bincount(inverse if rows is None else inverse[rows], minlength=len(names))
    observed = sorted(name for name, count in zip(names, selected.tolist()) if count)
    augmented = AttributeVocabulary({**vocab.values, CLUSTER_ATTRIBUTE: (UNK, *observed)})
    indices = [augmented.index_of(CLUSTER_ATTRIBUTE, name) for name in names]
    column = np.array(indices, dtype=np.int64)[inverse]
    return augmented, np.insert(codes, augmented.column(CLUSTER_ATTRIBUTE), column, axis=1)
