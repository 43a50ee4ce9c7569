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

One kernel, posterior_log_scores, scores an (m x A) matrix of value codes for
one target: per evidence attribute it gathers the pair-table rows of all m
records at once. predict_distribution is its one-row call, and
predict_mle_rows takes the most likely value of every row.

The pairwise counts are stored sparse: per attribute pair, only the nonzero
cells, as an (nnz x 3) array of [row, col, count] in row-major order. Those
are the model file's own triplet lists, and on a wide corpus they are a few
percent of the dense (|V_a| x |V_b|) cells. CountTable.pair builds one dense
table from them when a caller asks, so at most one is alive at a time.

A model file is the JSON text json.dumps(payload, sort_keys=True, indent=1)
gives. SmoothedModel.to_json writes those bytes itself, because an indent
makes CPython's json fall back to its pure-Python encoder, which visits every
count of every pair cell one by one. The format is unchanged: files written
before and after are byte-identical, and load reads them with json.load.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from .encoding import UNK, AttributeVocabulary, UnknownAttribute
from .errors import RuleforgeError

MODEL_FORMAT = "ruleforge-model"
MODEL_VERSION = 1

SMOOTHING_MODES = ("corpus", "conventional")


class EmptyDataset(RuleforgeError):
    """fit() was given no encoded rules."""


@dataclass
class CountTable:
    """Marginal and pairwise co-occurrence counts.

    pair_counts holds, per unordered attribute pair (a < b), the nonzero cells
    of the (|V_a| x |V_b|) co-occurrence table as an (nnz x 3) int64 array of
    [row, col, count], row-major with no cell repeated. pair() builds the
    dense table in either direction. Row sums of each pair table reproduce the
    first attribute's marginals, and every marginal sums to num_samples.
    """

    marginal_counts: dict[str, np.ndarray]
    pair_counts: dict[tuple[str, str], np.ndarray]
    num_samples: int

    def pair(self, attr_a: str, attr_b: str) -> np.ndarray:
        """Co-occurrence matrix indexed [value of attr_a, value of attr_b].

        A new dense table, built from the stored cells on every call.
        """
        if (attr_a, attr_b) in self.pair_counts:
            rows, cols, counts = self.pair_counts[(attr_a, attr_b)].T
        elif (attr_b, attr_a) in self.pair_counts:
            cols, rows, counts = self.pair_counts[(attr_b, attr_a)].T
        else:
            raise UnknownAttribute(f"no counts for attribute pair ({attr_a!r}, {attr_b!r})")
        shape = (len(self.marginal(attr_a)), len(self.marginal(attr_b)))
        table = np.zeros(shape, dtype=np.int64)
        table[rows, cols] = counts
        return table

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
        """The model file's text: sorted keys, one-space indent, one value a line.

        The bytes json.dumps(payload, sort_keys=True, indent=1) would give:
        strings escaped by json's own encode_basestring_ascii, scalars by
        json.dumps, each integer list one str.join and each pair's stored
        [row, col, count] cells one more.
        """
        attrs = self.vocab.attributes
        pairs: dict[str, dict[str, np.ndarray]] = {}
        for (a, b), cells in self.counts.pair_counts.items():
            pairs.setdefault(a, {})[b] = cells
        scalars = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "alpha": self.alpha,
            "smoothing": self.smoothing,
            "skip_unk_evidence": self.skip_unk_evidence,
            "with_prior": self.with_prior,
            "num_samples": self.counts.num_samples,
            "vocab_sha256": self.vocab.sha256(),
        }
        fields = {key: json.dumps(value) for key, value in scalars.items()}
        values, marginals = self.vocab.values, self.counts.marginal_counts
        fields["vocabulary"] = _json_object(
            {a: _json_block(map(encode_basestring_ascii, values[a]), 3, "[]") for a in attrs}, 2
        )
        fields["marginals"] = _json_object(
            {a: _json_block(map(str, marginals[a].tolist()), 3, "[]") for a in attrs}, 2
        )
        fields["pairs"] = _json_object(
            {
                a: _json_object({b: _json_cells(cells, 4) for b, cells in row.items()}, 3)
                for a, row in pairs.items()
            },
            2,
        )
        return _json_object(fields, 1) + "\n"

    @classmethod
    def load(cls, path: str) -> "SmoothedModel":
        """Read a model file; a malformed or inconsistent one raises RuleforgeError."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls._from_payload(json.load(handle), path)
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise RuleforgeError(
                f"{path}: malformed model file ({type(exc).__name__}: {exc})"
            ) from None

    @classmethod
    def _from_payload(cls, payload: dict, path: str) -> "SmoothedModel":
        if payload.get("format") != MODEL_FORMAT:
            raise RuleforgeError(f"{path}: not a model file")
        version = payload["version"]
        if type(version) is not int or version != MODEL_VERSION:
            raise RuleforgeError(f"{path}: unsupported model version {version!r}")
        alpha = float(payload["alpha"])
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {alpha}")
        smoothing = payload["smoothing"]
        if smoothing not in SMOOTHING_MODES:
            raise ValueError(f"smoothing must be one of {SMOOTHING_MODES}, got {smoothing!r}")
        num_samples = int(payload["num_samples"])
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        vocab = AttributeVocabulary(
            attributes=tuple(sorted(payload["vocabulary"])),
            values={a: tuple(v) for a, v in payload["vocabulary"].items()},
        )
        if vocab.sha256() != payload["vocab_sha256"]:
            raise RuleforgeError(f"{path}: vocabulary hash mismatch")
        for a, values in vocab.values.items():
            if not _is_value_list(values):
                raise ValueError(f"values of {a!r} are not UNK then strictly increasing strings")
        marginals = {}
        for a in vocab.attributes:
            counts = np.asarray(payload["marginals"][a], dtype=np.int64)
            if counts.shape != (vocab.size(a),) or (counts < 0).any():
                raise ValueError(f"bad marginal counts for {a!r}")
            if sum(counts.tolist()) != num_samples:
                raise ValueError(f"marginal counts for {a!r} do not sum to num_samples")
            marginals[a] = counts
        pair_counts: dict[tuple[str, str], np.ndarray] = {}
        for a, row in payload["pairs"].items():
            for b, triplets in row.items():
                pair_counts[(a, b)] = _pair_cells(triplets, marginals[a], marginals[b])
        counts = CountTable(
            marginal_counts=marginals,
            pair_counts=pair_counts,
            num_samples=num_samples,
        )
        return cls(
            counts=counts,
            alpha=alpha,
            vocab=vocab,
            smoothing=smoothing,
            skip_unk_evidence=bool(payload["skip_unk_evidence"]),
            with_prior=bool(payload["with_prior"]),
        )


def _is_value_list(values: tuple) -> bool:
    """UNK, then strictly increasing strings other than UNK, as build_vocabulary makes them."""
    rest = values[1:]
    return (
        values[:1] == (UNK,)
        and all(isinstance(v, str) for v in rest)
        and UNK not in rest
        and all(x < y for x, y in zip(rest, rest[1:]))
    )


def _json_block(items: Iterable[str], depth: int, brackets: str) -> str:
    """Rendered items, one a line `depth` spaces in, as json.dumps(indent=1) lays them out."""
    pad = "\n" + " " * depth
    body = ("," + pad).join(items)
    if not body:
        return brackets
    return f"{brackets[0]}{pad}{body}\n{' ' * (depth - 1)}{brackets[1]}"


def _json_object(members: dict[str, str], depth: int) -> str:
    """An object of rendered member values, keys sorted."""
    keyed = (f"{encode_basestring_ascii(key)}: {members[key]}" for key in sorted(members))
    return _json_block(keyed, depth, "{}")


def _json_cells(cells: np.ndarray, depth: int) -> str:
    """The stored [row, col, count] cells as JSON arrays, in their order."""
    inner, outer = "\n" + " " * (depth + 1), "\n" + " " * depth
    cell = f"[{inner}{{}},{inner}{{}},{inner}{{}}{outer}]"
    return _json_block(map(cell.format, *cells.T.tolist()), depth, "[]")


def _pair_cells(triplets, marginal_a: np.ndarray, marginal_b: np.ndarray) -> np.ndarray:
    """The (nnz x 3) stored cells of a file's [row, col, count] triplets.

    The row sums must be marginal_a and the column sums marginal_b. The cells
    come back canonical, as fit makes them: a repeated cell is summed into
    one, zero counts are dropped and the rest sorted row-major.
    """
    if not set(map(len, triplets)) <= {3}:
        raise ValueError("pair cells must be [row, col, count] triplets")
    # fromiter over the flattened cells is about 2.5x faster than np.asarray on
    # the nested lists, and a model file holds tens of thousands of cells.
    numbers = itertools.chain.from_iterable(triplets)
    cells = np.fromiter(numbers, dtype=np.int64, count=3 * len(triplets))
    rows, cols, counts = cells.reshape(-1, 3).T
    size_a, size_b = len(marginal_a), len(marginal_b)
    if (
        (rows < 0) | (rows >= size_a) | (cols < 0) | (cols >= size_b) | (counts < 0)
    ).any():
        raise ValueError("pair cell index or count out of range")
    row_sums = np.zeros(size_a, dtype=np.int64)
    np.add.at(row_sums, rows, counts)
    col_sums = np.zeros(size_b, dtype=np.int64)
    np.add.at(col_sums, cols, counts)
    if not (np.array_equal(row_sums, marginal_a) and np.array_equal(col_sums, marginal_b)):
        raise ValueError("pair counts do not sum to the marginals")
    flat, inverse = np.unique(rows * size_b + cols, return_inverse=True)
    summed = np.zeros(len(flat), dtype=np.int64)
    np.add.at(summed, inverse, counts)
    kept = summed > 0
    return _cells(flat[kept], summed[kept], size_b)


def _cells(flat: np.ndarray, counts: np.ndarray, size_b: int) -> np.ndarray:
    """(nnz x 3) [row, col, count] cells from flat row-major cell indices."""
    cells = np.empty((len(flat), 3), dtype=np.int64)
    np.divmod(flat, size_b, out=(cells[:, 0], cells[:, 1]))
    cells[:, 2] = counts
    return cells


def _count_cells(col_a: np.ndarray, col_b: np.ndarray, size_a: int, size_b: int) -> np.ndarray:
    """Nonzero co-occurrence cells of two code columns, row-major."""
    table = np.bincount(col_a * size_b + col_b, minlength=size_a * size_b)
    cells = np.flatnonzero(table)
    return _cells(cells, table[cells], size_b)


def fit(
    codes: np.ndarray,
    vocab: AttributeVocabulary,
    alpha: float = 1.0,
    *,
    smoothing: str = "corpus",
    skip_unk_evidence: bool = False,
    with_prior: bool = False,
) -> SmoothedModel:
    """Count marginals and pairwise co-occurrences over encode_corpus's (n x A) codes.

    Each pair is counted on its own and only its nonzero cells are kept.
    """
    if len(codes) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if smoothing not in SMOOTHING_MODES:
        raise ValueError(f"smoothing must be one of {SMOOTHING_MODES}, got {smoothing!r}")
    attrs = vocab.attributes
    columns = dict(zip(attrs, np.ascontiguousarray(codes.T)))
    marginals = {a: np.bincount(columns[a], minlength=vocab.size(a)) for a in attrs}
    pair_counts = {
        (a, b): _count_cells(columns[a], columns[b], vocab.size(a), vocab.size(b))
        for a, b in itertools.combinations(attrs, 2)
    }
    counts = CountTable(
        marginal_counts=marginals, pair_counts=pair_counts, num_samples=len(codes)
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


def posterior_log_scores(model: SmoothedModel, codes: np.ndarray, target: str) -> np.ndarray:
    """(m x |V_target|) log unnormalized posterior scores, one row per row of codes.

    codes is an (m x A) int array with columns in vocab.attributes order (see
    encoding.encode_corpus). Every other attribute adds one log conditional per
    row, in vocabulary order (a row's UNK evidence is skipped when the model
    was fitted with skip_unk_evidence), then the prior term when it is on.
    The operations per element are those of a one-row call, so a row's
    scores do not depend on which rows share the call.
    """
    vocab = model.vocab
    values = vocab.values.get(target)
    if values is None:
        raise UnknownAttribute(f"attribute {target!r} not in vocabulary")
    log_scores = np.zeros((len(codes), len(values)), dtype=np.float64)
    mass = _denominator_mass(model, target)
    for k, attr in enumerate(vocab.attributes):
        if attr == target:
            continue
        column = codes[:, k]
        pair, marginal = model.counts.pair(attr, target), model.counts.marginal(attr)
        # The logs are taken over the smaller of the gathered rows and the whole
        # table, whose rows are gathered after. Each element is the same float
        # operation on the same count either way.
        gather_first = len(codes) < len(marginal)
        if gather_first:
            pair, marginal = pair[column], marginal[column]
        numerators = pair.astype(np.float64) + model.alpha
        denominators = marginal.astype(np.float64) + model.alpha * mass
        terms = np.log(numerators) - np.log(denominators)[:, None]
        if not gather_first:
            terms = terms[column]
        if model.skip_unk_evidence:
            np.add(log_scores, terms, out=log_scores, where=(column != 0)[:, None])
        else:
            log_scores += terms
    if model.with_prior:
        marginal_j = model.counts.marginal(target).astype(np.float64)
        log_scores += np.log(marginal_j + model.alpha) - np.log(
            model.counts.num_samples + model.alpha * len(values)
        )
    return log_scores


def _normalize(log_scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of log scores."""
    shifted = np.exp(log_scores - log_scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def predict_distribution(
    model: SmoothedModel, row: np.ndarray, target: str
) -> PosteriorDistribution:
    """Posterior over the target attribute's values given one row of codes.

    Every other vocabulary attribute contributes one conditional factor
    (UNK-valued evidence included unless the model was fitted with
    skip_unk_evidence). Computed in log space by posterior_log_scores.
    """
    log_scores = posterior_log_scores(model, row.reshape(1, -1), target)
    return PosteriorDistribution(
        attribute=target,
        values=model.vocab.values[target],
        log_scores=log_scores[0],
        normalized=_normalize(log_scores)[0],
    )


def predict_mle(distribution: PosteriorDistribution) -> str:
    """Most likely value; ties broken by the lexicographically smallest."""
    return distribution.ranked()[0][0]


# Cells scored per block in predict_mle_rows, so each float64 temporary stays
# near 128 KiB however many rows a call scores.
_BLOCK_CELLS = 1 << 14


def predict_mle_rows(model: SmoothedModel, codes: np.ndarray, target: str) -> list[str]:
    """predict_mle(predict_distribution(...)) for every row of codes.

    Ties among the most likely values go to the smallest value string: the
    columns are read in string order, where UNK (index 0) has its own place,
    and argmax takes the first maximum.
    """
    values = model.vocab.values.get(target)
    if values is None:
        raise UnknownAttribute(f"attribute {target!r} not in vocabulary")
    by_string = np.array(sorted(range(len(values)), key=values.__getitem__), dtype=np.intp)
    step = max(1, _BLOCK_CELLS // len(values))
    picks: list[int] = []
    for start in range(0, len(codes), step):
        normalized = _normalize(posterior_log_scores(model, codes[start : start + step], target))
        picks.extend(by_string[normalized[:, by_string].argmax(axis=1)].tolist())
    return [values[i] for i in picks]


def predict_topk(distribution: PosteriorDistribution, k: int) -> list[str]:
    """The k most likely values (all values when k exceeds the vocabulary)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [value for value, _ in distribution.ranked()[:k]]


def predict_above_threshold(distribution: PosteriorDistribution, t: float) -> list[str]:
    """Values with normalized probability strictly above t, most likely first."""
    return [value for value, prob in distribution.ranked() if prob > t]
