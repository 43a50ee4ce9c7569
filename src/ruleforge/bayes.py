"""Smoothed pairwise-conditional model over encoded rules.

The model scores a candidate value a_j for a target attribute by the product
of its smoothed conditionals given each evidence attribute's observed value:

    score(a_j) = prod_i P(a_j | a_i)
    P(a_j | a_i) = (F(a_j, a_i) + alpha) / (F(a_i) + alpha * T)

where F counts co-occurrences / occurrences over the training set and T is
the number of training samples. The T in the denominator is deliberate (it is
the published estimator); pass smoothing="conventional" to use the target
vocabulary size instead, which makes each conditional a proper distribution.
Scoring runs in log space so long evidence chains cannot underflow.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoding import AttributeVocabulary, EncodedRule, UnknownAttribute
from .errors import RuleforgeError

MODEL_FORMAT = "ruleforge-model"
MODEL_VERSION = 1

SMOOTHING_MODES = ("corpus", "conventional")


class EmptyDataset(RuleforgeError):
    """fit() was given no encoded rules."""


@dataclass
class CountTable:
    """Marginal and pairwise co-occurrence counts.

    pair_counts holds one (|V_a| x |V_b|) matrix per unordered attribute pair
    (a < b); the transposed view serves the other direction. Row sums of each
    pair table reproduce the first attribute's marginals, and every marginal
    sums to num_samples.
    """

    marginal_counts: dict[str, np.ndarray]
    pair_counts: dict[tuple[str, str], np.ndarray]
    num_samples: int

    def pair(self, attr_a: str, attr_b: str) -> np.ndarray:
        """Co-occurrence matrix indexed [value of attr_a, value of attr_b]."""
        if (attr_a, attr_b) in self.pair_counts:
            return self.pair_counts[(attr_a, attr_b)]
        if (attr_b, attr_a) in self.pair_counts:
            return self.pair_counts[(attr_b, attr_a)].T
        raise UnknownAttribute(f"no counts for attribute pair ({attr_a!r}, {attr_b!r})")

    def marginal(self, attribute: str) -> np.ndarray:
        try:
            return self.marginal_counts[attribute]
        except KeyError:
            raise UnknownAttribute(f"no counts for attribute {attribute!r}") from None


@dataclass
class PosteriorDistribution:
    """Scored candidate values for one target attribute.

    log_scores are the log unnormalized products; normalized is the softmax
    of log_scores and sums to 1 (within 1e-9).
    """

    attribute: str
    values: tuple[str, ...]
    log_scores: np.ndarray
    normalized: np.ndarray

    def probability(self, value: str) -> float:
        try:
            return float(self.normalized[self.values.index(value)])
        except ValueError:
            raise KeyError(f"value {value!r} not in distribution") from None

    def ranked(self) -> list[tuple[str, float]]:
        """Values by descending probability; ties by ascending value string."""
        order = sorted(
            range(len(self.values)),
            key=lambda i: (-self.normalized[i], self.values[i]),
        )
        return [(self.values[i], float(self.normalized[i])) for i in order]


@dataclass
class SmoothedModel:
    """Fitted counts plus the smoothing configuration; treat as immutable."""

    counts: CountTable
    alpha: float
    vocab: AttributeVocabulary
    smoothing: str = "corpus"
    skip_unk_evidence: bool = False
    with_prior: bool = False

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def to_json(self) -> str:
        pairs: dict[str, dict[str, list[list[int]]]] = {}
        for (a, b), table in self.counts.pair_counts.items():
            rows, cols = np.nonzero(table)
            triplets = [
                [int(r), int(c), int(table[r, c])] for r, c in zip(rows, cols)
            ]
            pairs.setdefault(a, {})[b] = triplets
        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "alpha": self.alpha,
            "smoothing": self.smoothing,
            "skip_unk_evidence": self.skip_unk_evidence,
            "with_prior": self.with_prior,
            "num_samples": self.counts.num_samples,
            "vocab_sha256": self.vocab.sha256(),
            "vocabulary": {a: list(self.vocab.values[a]) for a in self.vocab.attributes},
            "marginals": {
                a: [int(c) for c in self.counts.marginal_counts[a]]
                for a in self.vocab.attributes
            },
            "pairs": pairs,
        }
        return json.dumps(payload, sort_keys=True, indent=1) + "\n"

    @classmethod
    def load(cls, path: str) -> "SmoothedModel":
        """Read a model file; a malformed one raises RuleforgeError."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls._from_payload(json.load(handle), path)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise RuleforgeError(
                f"{path}: malformed model file ({type(exc).__name__}: {exc})"
            ) from None

    @classmethod
    def _from_payload(cls, payload: dict, path: str) -> "SmoothedModel":
        if payload.get("format") != MODEL_FORMAT:
            raise RuleforgeError(f"{path}: not a model file")
        vocab = AttributeVocabulary(
            attributes=tuple(sorted(payload["vocabulary"])),
            values={a: tuple(v) for a, v in payload["vocabulary"].items()},
        )
        if vocab.sha256() != payload["vocab_sha256"]:
            raise RuleforgeError(f"{path}: vocabulary hash mismatch")
        marginals = {}
        for a in vocab.attributes:
            counts = np.asarray(payload["marginals"][a], dtype=np.int64)
            if counts.shape != (vocab.size(a),) or (counts < 0).any():
                raise ValueError(f"bad marginal counts for {a!r}")
            marginals[a] = counts
        pair_counts: dict[tuple[str, str], np.ndarray] = {}
        for a, row in payload["pairs"].items():
            for b, triplets in row.items():
                pair_counts[(a, b)] = _pair_table(triplets, vocab.size(a), vocab.size(b))
        counts = CountTable(
            marginal_counts=marginals,
            pair_counts=pair_counts,
            num_samples=int(payload["num_samples"]),
        )
        return cls(
            counts=counts,
            alpha=float(payload["alpha"]),
            vocab=vocab,
            smoothing=payload["smoothing"],
            skip_unk_evidence=bool(payload["skip_unk_evidence"]),
            with_prior=bool(payload["with_prior"]),
        )


def _pair_table(triplets, size_a: int, size_b: int) -> np.ndarray:
    """Dense (size_a x size_b) counts from [row, col, count] triplets."""
    if not set(map(len, triplets)) <= {3}:
        raise ValueError("pair cells must be [row, col, count] triplets")
    # fromiter over the flattened cells is about 2.5x faster than np.asarray on
    # the nested lists, and a model file holds tens of thousands of cells.
    flat = itertools.chain.from_iterable(triplets)
    cells = np.fromiter(flat, dtype=np.int64, count=3 * len(triplets))
    rows, cols, counts = cells.reshape(-1, 3).T
    if (
        (rows < 0) | (rows >= size_a) | (cols < 0) | (cols >= size_b) | (counts < 0)
    ).any():
        raise ValueError("pair cell index or count out of range")
    table = np.zeros((size_a, size_b), dtype=np.int64)
    table[rows, cols] = counts
    return table


def fit(
    dataset: Sequence[EncodedRule],
    vocab: AttributeVocabulary,
    alpha: float = 1.0,
    *,
    smoothing: str = "corpus",
    skip_unk_evidence: bool = False,
    with_prior: bool = False,
) -> SmoothedModel:
    """Count marginals and pairwise co-occurrences over the encoded corpus."""
    if not dataset:
        raise EmptyDataset("cannot fit on an empty dataset")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if smoothing not in SMOOTHING_MODES:
        raise ValueError(f"smoothing must be one of {SMOOTHING_MODES}, got {smoothing!r}")
    attrs = vocab.attributes
    columns = {
        a: np.asarray([rec.values[a] for rec in dataset], dtype=np.int64) for a in attrs
    }
    marginals = {a: np.bincount(columns[a], minlength=vocab.size(a)) for a in attrs}
    pair_counts: dict[tuple[str, str], np.ndarray] = {}
    for i, a in enumerate(attrs):
        size_a = vocab.size(a)
        for b in attrs[i + 1 :]:
            size_b = vocab.size(b)
            flat = columns[a] * size_b + columns[b]
            pair_counts[(a, b)] = np.bincount(flat, minlength=size_a * size_b).reshape(
                size_a, size_b
            )
    counts = CountTable(
        marginal_counts=marginals, pair_counts=pair_counts, num_samples=len(dataset)
    )
    return SmoothedModel(
        counts=counts,
        alpha=alpha,
        vocab=vocab,
        smoothing=smoothing,
        skip_unk_evidence=skip_unk_evidence,
        with_prior=with_prior,
    )


def _denominator_mass(model: SmoothedModel, target: str) -> int:
    if model.smoothing == "corpus":
        return model.counts.num_samples
    return model.vocab.size(target)


def conditional_probability(
    model: SmoothedModel, target: tuple[str, str], given: tuple[str, str]
) -> float:
    """P(target value | given value) under the smoothed estimator.

    target and given are (attribute, value string) pairs; unseen values map
    to UNK, unknown attributes raise UnknownAttribute.
    """
    target_attr, target_value = target
    given_attr, given_value = given
    j = model.vocab.index_of(target_attr, target_value)
    i = model.vocab.index_of(given_attr, given_value)
    pair = model.counts.pair(given_attr, target_attr)
    joint = int(pair[i, j])
    marginal = int(model.counts.marginal(given_attr)[i])
    mass = _denominator_mass(model, target_attr)
    return (joint + model.alpha) / (marginal + model.alpha * mass)


def predict_distribution(
    model: SmoothedModel, observation: EncodedRule, target: str
) -> PosteriorDistribution:
    """Posterior over the target attribute's values given the observation.

    Every other vocabulary attribute contributes one conditional factor
    (UNK-valued evidence included unless the model was fitted with
    skip_unk_evidence). Computed in log space.
    """
    vocab = model.vocab
    values = vocab.values.get(target)
    if values is None:
        raise UnknownAttribute(f"attribute {target!r} not in vocabulary")
    log_scores = np.zeros(len(values), dtype=np.float64)
    mass = _denominator_mass(model, target)
    for attr in vocab.attributes:
        if attr == target:
            continue
        vi = observation.values.get(attr, 0)
        if model.skip_unk_evidence and vi == 0:
            continue
        pair = model.counts.pair(attr, target)
        numerators = pair[vi, :].astype(np.float64) + model.alpha
        denominator = float(model.counts.marginal(attr)[vi]) + model.alpha * mass
        log_scores += np.log(numerators) - np.log(denominator)
    if model.with_prior:
        marginal_j = model.counts.marginal(target).astype(np.float64)
        log_scores += np.log(marginal_j + model.alpha) - np.log(
            model.counts.num_samples + model.alpha * len(values)
        )
    shifted = np.exp(log_scores - log_scores.max())
    normalized = shifted / shifted.sum()
    return PosteriorDistribution(
        attribute=target,
        values=values,
        log_scores=log_scores,
        normalized=normalized,
    )


def predict_mle(distribution: PosteriorDistribution) -> str:
    """Most likely value; ties broken by the lexicographically smallest."""
    return distribution.ranked()[0][0]


def predict_topk(distribution: PosteriorDistribution, k: int) -> list[str]:
    """The k most likely values (all values when k exceeds the vocabulary)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [value for value, _ in distribution.ranked()[:k]]


def predict_above_threshold(distribution: PosteriorDistribution, t: float) -> list[str]:
    """Values with normalized probability strictly above t, most likely first."""
    return [value for value, prob in distribution.ranked() if prob > t]
