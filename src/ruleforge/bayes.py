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
one target: per evidence attribute it counts the (evidence, target)
co-occurrences the m records need and adds their log conditionals.
predict_distribution is its one-row call, and predict_mle_rows takes the code
of the most likely value of every row.

The model is its sufficient statistics: the sorted distinct rows of the
(n x A) code matrix, each with its multiplicity. Every marginal and pairwise
count is a weighted sum over those rows (Moore & Lee, "Cached Sufficient
Statistics for Efficient Machine Learning with Large Datasets", JAIR 8, 1998),
so the two arrays are all a model keeps and all a model file stores. fit and
load both make a CountTable, which checks the rows and sorts and merges them
when they are not sorted and distinct already; each count is a weighted
bincount over the stored columns, taken when a caller asks for it.

A model file is the compact JSON text json.dumps(payload, sort_keys=True)
gives, plus a newline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ._numpy import np

from .encoding import AttributeVocabulary, string_order
from .errors import RuleforgeError

MODEL_FORMAT = "ruleforge-model"
MODEL_VERSION = 2

SMOOTHING_MODES = ("corpus", "conventional")

# Every count is a bincount weighted by the multiplicities. Its float64 partial
# sums are integers no larger than num_samples, so below 2**53 they are exact.
_EXACT_COUNTS = 2**53


class EmptyDataset(RuleforgeError):
    """A CountTable, so fit(), was given no encoded rules."""


@dataclass(frozen=True)
class CountTable:
    """The training rows as the model keeps them, and the counts taken from them.

    Made from an (m x A) integer code matrix, columns in vocab.attributes
    order, and one integer multiplicity >= 1 per row, summing to num_samples
    < 2**53; no rows raise EmptyDataset, other invalid input ValueError. rows
    keeps the sorted distinct rows, column-major so each attribute's column is
    a contiguous view, and multiplicities how often each occurs, both in
    read-only copies. marginal() and pair() count from those columns on
    every call; nothing else is kept.
    """

    rows: np.ndarray
    multiplicities: np.ndarray
    vocab: AttributeVocabulary
    num_samples: int = field(init=False)

    def __post_init__(self):
        rows, weights = np.asarray(self.rows), np.array(self.multiplicities)
        if rows.shape[:1] == (0,):  # a scalar is no matrix, which _check_codes reports
            raise EmptyDataset("cannot fit on an empty dataset")
        _check_codes(rows, self.vocab)
        if weights.shape != rows.shape[:1] or weights.dtype.kind not in "iu":
            raise ValueError(f"multiplicities must be {len(rows)} integers, one per row")
        object.__setattr__(self, "num_samples", sum(weights.tolist()))  # an int64 sum could wrap
        if weights.min() < 1 or self.num_samples >= _EXACT_COUNTS:
            raise ValueError("multiplicities must be >= 1 and sum to less than 2**53")
        if not _strictly_increasing(rows):
            # Sort the rows and merge each run of equal rows. lexsort sorts by
            # its last key first, and is several times faster than np.unique
            # (rows, axis=0). With no columns every row is the same row.
            order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
            rows = rows[order]
            starts = np.ones(len(rows), dtype=bool)
            np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
            rows, weights = rows[starts], np.add.reduceat(weights[order], np.flatnonzero(starts))
        rows = np.array(rows, order="F")  # a copy even of a caller's canonical rows
        rows.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "multiplicities", weights)

    def column(self, attribute: str) -> np.ndarray:
        """The stored rows' codes for attribute, a view of rows."""
        return self.rows[:, self.vocab.column(attribute)]

    def marginal(self, attribute: str) -> np.ndarray:
        """How many training rows hold each value of attribute: a new int64 array."""
        size = self.vocab.size(attribute)
        return np.bincount(self.column(attribute), self.multiplicities, size).astype(np.int64)

    def pair(self, attr_a: str, attr_b: str) -> np.ndarray:
        """Co-occurrence matrix indexed [value of attr_a, value of attr_b]: a new int64 array.

        pair(a, a) is the diagonal matrix of marginal(a).
        """
        table, _ = self.cooccurrences(attr_a, attr_b, np.arange(self.vocab.size(attr_a)))
        return table.astype(np.int64)

    def cooccurrences(
        self, evidence: str, target: str, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(table, slots): the target's value counts among rows with each evidence code.

        table is float64 with one row of |V_target| counts per distinct code
        in codes, in ascending code order, and table[slots[i]] counts the
        training rows whose evidence value is codes[i]. The evidence values
        codes lacks share one spare slot, dropped after counting, so the table
        is never taller than len(codes) or |V_evidence|. It is one weighted
        bincount over all stored rows.
        """
        evidence_col, target_col = self.column(evidence), self.column(target)
        size_e, size_t = self.vocab.size(evidence), self.vocab.size(target)
        present = np.zeros(size_e, dtype=bool)
        present[codes] = True
        distinct = present.nonzero()[0]
        height = len(distinct)
        slot = np.empty(size_e, dtype=np.intp)
        slot.fill(height)  # np.full is a Python wrapper around these two calls
        slot[distinct] = np.arange(height)
        cells = slot[evidence_col] * size_t + target_col
        table = np.bincount(cells, self.multiplicities, (height + 1) * size_t)[: height * size_t]
        return table.reshape(height, size_t), slot[codes]

    @property
    def pair_counts(self) -> dict[tuple[str, str], np.ndarray]:
        """Per attribute pair a < b, pair(a, b)'s nonzero cells as [row, col, count] rows.

        Derived on each read, and never read by the library: it is kept for the
        bayes.pair_cells gauge of the benchmark tracer (perfbench/tracing.py).
        """
        cells = {}
        for a, b in itertools.combinations(self.vocab.attributes, 2):
            table = self.pair(a, b)
            nonzero = np.nonzero(table)
            cells[(a, b)] = np.column_stack((*nonzero, table[nonzero]))
        return cells


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
        """Values by descending probability; ties by ascending value string.

        The codes start in string_order and the sort is stable, so ties keep it.
        """
        scores = self.normalized.tolist()
        order = sorted(string_order(self.values).tolist(), key=lambda i: -scores[i])
        return [(self.values[i], scores[i]) for i in order]


@dataclass(frozen=True)
class SmoothedModel:
    """Fitted counts plus the smoothing configuration, frozen once checked.

    The settings are checked here, for fit and load alike: alpha must be
    finite and > 0 and is kept as a float, smoothing one of SMOOTHING_MODES,
    and the two flags are kept as bools, so to_json writes what load reads.
    """

    counts: CountTable
    alpha: float
    smoothing: str = "corpus"
    skip_unk_evidence: bool = False
    with_prior: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):  # before float(): a str raises
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.smoothing not in SMOOTHING_MODES:
            raise ValueError(f"smoothing must be one of {SMOOTHING_MODES}, got {self.smoothing!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "skip_unk_evidence", bool(self.skip_unk_evidence))
        object.__setattr__(self, "with_prior", bool(self.with_prior))

    @property
    def vocab(self) -> AttributeVocabulary:
        """The vocabulary the stored rows are coded in: the CountTable's own."""
        return self.counts.vocab

    def save(self, path: str) -> None:
        """Write to_json's text as UTF-8 bytes; the file is opened once the text is built."""
        data = self.to_json().encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data)

    def to_json(self) -> str:
        """The model file's text: compact JSON with sorted keys, then a newline."""
        import json  # here, not at the top: parse, cluster and evaluate never load it

        payload = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "alpha": self.alpha,
            "smoothing": self.smoothing,
            "skip_unk_evidence": self.skip_unk_evidence,
            "with_prior": self.with_prior,
            "num_samples": self.counts.num_samples,
            "vocab_sha256": self.vocab.sha256(),
            "vocabulary": dict(self.vocab.values),
            "rows": self.counts.rows.tolist(),
            "multiplicities": self.counts.multiplicities.tolist(),
        }
        return json.dumps(payload, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path: str) -> "SmoothedModel":
        """Read a model file; a malformed or inconsistent one raises RuleforgeError."""
        import json

        try:
            with open(path, "r", encoding="utf-8-sig") as handle:  # drops a byte-order mark
                return cls._from_payload(json.load(handle), path)
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise RuleforgeError(
                f"{path}: malformed model file ({type(exc).__name__}: {exc})"
            ) from None

    @classmethod
    def _from_payload(cls, payload: dict, path: str) -> "SmoothedModel":
        """The model of a parsed file; the vocabulary and CountTable check what they hold."""
        if payload.get("format") != MODEL_FORMAT:
            raise RuleforgeError(f"{path}: not a model file")
        version = payload["version"]
        if type(version) is not int or version != MODEL_VERSION:
            raise RuleforgeError(f"{path}: unsupported model version {version!r}")
        vocab = AttributeVocabulary({a: tuple(v) for a, v in payload["vocabulary"].items()})
        if vocab.sha256() != payload["vocab_sha256"]:
            raise RuleforgeError(f"{path}: vocabulary hash mismatch")
        rows, multiplicities = payload["rows"], payload["multiplicities"]
        if not (type(rows) is type(multiplicities) is list):
            raise ValueError("rows and multiplicities must be lists")
        # np.array would truncate a float and read true as 1, so the types come first
        if not set(map(type, itertools.chain(multiplicities, *rows))) <= {int}:
            raise ValueError("rows and multiplicities must hold integers only")
        num_samples = _json_scalar(payload, "num_samples", int)
        if num_samples < 1 or sum(multiplicities) != num_samples:
            raise ValueError("num_samples must be >= 1 and the sum of the multiplicities")
        return cls(
            counts=CountTable(
                np.array(rows, dtype=np.int64), np.array(multiplicities, dtype=np.int64), vocab
            ),
            alpha=_json_scalar(payload, "alpha", int, float),
            smoothing=payload["smoothing"],
            skip_unk_evidence=_json_scalar(payload, "skip_unk_evidence", bool),
            with_prior=_json_scalar(payload, "with_prior", bool),
        )


def _json_scalar(payload: dict, key: str, *kinds: type):
    """payload[key] if its exact type is one of kinds: true is no number, 1 no boolean."""
    if type(payload[key]) not in kinds:
        raise ValueError(f"{key} must be of type {' or '.join(k.__name__ for k in kinds)}")
    return payload[key]


def _check_codes(codes: np.ndarray, vocab: AttributeVocabulary) -> None:
    """Raise ValueError unless codes is an integer (m x A) matrix of vocab's value codes."""
    width = len(vocab.attributes)
    if codes.ndim != 2 or codes.shape[1] != width or codes.dtype.kind not in "iu":
        raise ValueError(f"codes must be an integer matrix of {width} columns, not {codes.shape}")
    sizes = np.array([len(vocab.values[a]) for a in vocab.attributes], dtype=np.int64)
    if (codes < 0).any() or (codes >= sizes).any():
        raise ValueError("a code is outside its attribute's values")


def _strictly_increasing(rows: np.ndarray) -> bool:
    """Whether each row is lexicographically greater than the one before it.

    The columns are compared in order, for the pairs of neighbouring rows
    still tied on every column before, so each temporary is one column long.
    """
    tied = np.ones(max(len(rows) - 1, 0), dtype=bool)
    for before, after in zip(rows[:-1].T, rows[1:].T):
        if (before[tied] > after[tied]).any():
            return False
        tied &= before == after
    return not tied.any()


def fit(
    codes: np.ndarray,
    vocab: AttributeVocabulary,
    alpha: float = 1.0,
    *,
    smoothing: str = "corpus",
    skip_unk_evidence: bool = False,
    with_prior: bool = False,
) -> SmoothedModel:
    """The model of encode_corpus's (n x A) codes, checked as load checks a file's rows."""
    return SmoothedModel(
        counts=CountTable(codes, np.ones(len(codes), dtype=np.int64), vocab),
        alpha=alpha,
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
    to UNK, unknown attributes raise UnknownAttribute. The two may name the
    same attribute: the joint count is then the marginal for equal values
    and 0 otherwise. Both counts come from the posterior kernel's
    cooccurrences: the given value's row of target counts, and its sum.
    """
    target_attr, target_value = target
    given_attr, given_value = given
    j = model.vocab.index_of(target_attr, target_value)
    i = model.vocab.index_of(given_attr, given_value)
    table, _ = model.counts.cooccurrences(given_attr, target_attr, np.array([i]))
    mass = _denominator_mass(model, target_attr)
    return float((table[0, j] + model.alpha) / (table[0].sum() + model.alpha * mass))


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
    values = vocab.values_of(target)
    log_scores = np.zeros((len(codes), len(values)), dtype=np.float64)
    mass = _denominator_mass(model, target)
    for k, attr in enumerate(vocab.attributes):
        if attr == target:
            continue
        column = codes[:, k]
        table, slots = model.counts.cooccurrences(attr, target, column)
        numerators = table + model.alpha
        denominators = table.sum(axis=1) + model.alpha * mass
        terms = (np.log(numerators) - np.log(denominators)[:, None])[slots]
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
    skip_unk_evidence). Computed in log space by posterior_log_scores. An
    invalid code row raises ValueError.
    """
    codes = row.reshape(1, -1)
    _check_codes(codes, model.vocab)
    log_scores = posterior_log_scores(model, codes, target)
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


def predict_mle_rows(model: SmoothedModel, codes: np.ndarray, target: str) -> np.ndarray:
    """The code of predict_mle(predict_distribution(...)) for every row of codes.

    Ties among the most likely values go to the smallest value string: the
    columns are read in string_order, and argmax takes the first maximum.
    """
    values = model.vocab.values_of(target)
    by_string = string_order(values)
    step = max(1, _BLOCK_CELLS // len(values))
    picks = np.empty(len(codes), dtype=np.intp)
    for start in range(0, len(codes), step):
        normalized = _normalize(posterior_log_scores(model, codes[start : start + step], target))
        picks[start : start + step] = by_string[normalized[:, by_string].argmax(axis=1)]
    return picks


def predict_topk(distribution: PosteriorDistribution, k: int) -> list[str]:
    """The k most likely values (all values when k exceeds the vocabulary)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [value for value, _ in distribution.ranked()[:k]]


def predict_above_threshold(distribution: PosteriorDistribution, t: float) -> list[str]:
    """Values with normalized probability strictly above t, most likely first."""
    return [value for value, prob in distribution.ranked() if prob > t]
