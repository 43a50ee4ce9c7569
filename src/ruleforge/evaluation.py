"""Leave-one-condition-out evaluation and its baselines.

The protocol: shuffle the corpus with a fixed seed, split it into k folds,
and for each fold fit the model on the remaining rules. For every test rule
and every attribute, hide that attribute, predict it from the rest, and score
an exact match against the true value (UNK counts as a value: an absent
attribute is correctly predicted by UNK). Baselines: the training majority
value, and a uniform draw over the attribute's vocabulary.

Matches are compared as codes. Each fold encodes the corpus once in its
training vocabulary: that matrix is the held-out truth, where a value no
training rule holds is -1 and so matches nothing, and with -1 read as UNK
it is the model's evidence. The model predicts a hidden attribute for all
test rules in one bayes.predict_mle_rows call per (fold, target), and every
classifier's accuracy is the share of its picked codes equal to the truth.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ._numpy import np

# predict_distribution, encode_rule and build_vocabulary are not called here;
# perfbench/tracing.py wraps them under this module's name
from .bayes import fit, predict_distribution, predict_mle_rows
from .clustering import DistanceMatrix, DistanceParams, agglomerate, build_distance_matrix
from .encoding import (
    UNK,
    ExclusionList,
    attach_cluster_feature,
    build_vocabulary,
    encode_codes,
    encode_rule,
    factorize,
    string_order,
    vocabulary_of_codes,
)
from .errors import RuleforgeError
from .parser import ParsedRule

CLASSIFIER_BAYES = "bayes"
CLASSIFIER_BAYES_CLUSTER = "bayes+cluster"
CLASSIFIER_RANDOM = "random"
CLASSIFIER_MAX_FREQUENCY = "max_frequency"


class InsufficientData(RuleforgeError):
    """The corpus is too small for the requested fold count."""


@dataclass(frozen=True)
class SplitSpec:
    """Cross-validation configuration."""

    folds: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass
class AttributeAccuracyReport:
    """Per-attribute, per-classifier accuracy across folds."""

    attributes: tuple[str, ...]
    classifiers: tuple[str, ...]
    folds: int
    accuracies: dict[tuple[str, str], dict[int, float]]

    def mean(self, attribute: str, classifier: str) -> float:
        cells = self.accuracies[(attribute, classifier)]
        return sum(cells.values()) / len(cells)

    def to_csv(self) -> str:
        """CSV with header attribute,classifier,fold,accuracy.

        One row per evaluated fold plus a summary row with fold "mean".
        """
        import csv  # here, not at the top: parse never loads it

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["attribute", "classifier", "fold", "accuracy"])
        for attribute in self.attributes:
            for classifier in self.classifiers:
                cells = self.accuracies.get((attribute, classifier))
                if not cells:
                    continue
                for fold in sorted(cells):
                    writer.writerow([attribute, classifier, fold, f"{cells[fold]:.6f}"])
                writer.writerow(
                    [attribute, classifier, "mean", f"{self.mean(attribute, classifier):.6f}"]
                )
        return buffer.getvalue()


def make_folds(n: int, spec: SplitSpec) -> list[np.ndarray]:
    """Disjoint index folds covering range(n), shuffled by the spec seed."""
    if n < spec.folds:
        raise InsufficientData(f"{n} rules cannot fill {spec.folds} folds")
    rng = np.random.default_rng(spec.rng_seed)
    permutation = rng.permutation(n)
    return [np.sort(fold) for fold in np.array_split(permutation, spec.folds)]


def baseline_max_frequency(
    train_codes: np.ndarray, test_codes: np.ndarray, values: Sequence[str]
) -> float:
    """Accuracy of always predicting the training majority code.

    Codes index values; count ties break toward the smallest value string.
    """
    if not len(train_codes) or not len(test_codes):
        raise InsufficientData("baseline needs non-empty train and test codes")
    by_string = string_order(values)
    majority = by_string[np.bincount(train_codes, minlength=len(values))[by_string].argmax()]
    return np.count_nonzero(test_codes == majority) / len(test_codes)


def baseline_random(
    test_codes: np.ndarray, values: Sequence[str], rng: np.random.Generator
) -> float:
    """Accuracy of a uniform draw over the codes of values (UNK included)."""
    if not len(test_codes):
        raise InsufficientData("baseline needs non-empty test codes")
    draws = rng.integers(0, len(values), size=len(test_codes))
    return np.count_nonzero(draws == test_codes) / len(test_codes)


def value_frequencies(rules: Sequence[ParsedRule], attribute: str) -> list[tuple[str, int]]:
    """Observed values of one attribute by descending count.

    Rules lacking the attribute count toward UNK, so the counts sum to the
    corpus size. Ties order by ascending value string.
    """
    if not rules:
        return []
    counter: Counter[str] = Counter(
        rule.attribute_values().get(attribute, UNK) for rule in rules
    )
    counter.setdefault(UNK, 0)
    return sorted(counter.items(), key=lambda item: (-item[1], item[0]))


def _nearest_cluster(distances: np.ndarray, labels: np.ndarray) -> int:
    """The label 0..k-1 at smallest average distance (the smallest on a tie)."""
    return int(np.argmin(np.bincount(labels, weights=distances) / np.bincount(labels)))


def loco_evaluate(
    rules: Sequence[ParsedRule],
    spec: SplitSpec | None = None,
    *,
    alpha: float = 1.0,
    exclude: ExclusionList | None = None,
    smoothing: str = "corpus",
    skip_unk_evidence: bool = False,
    with_prior: bool = False,
    with_clusters: bool = False,
    cluster_train_only: bool = False,
    distance_params: DistanceParams | None = None,
    linkage: str = "average",
    cut_count: int | None = None,
    cut_height: float | None = None,
) -> AttributeAccuracyReport:
    """Cross-validated leave-one-condition-out accuracy per attribute.

    Constant attributes stay in the vocabulary by default here (they are
    trivially predictable, and dropping them would silently remove rows from
    the report); pass an ExclusionList to change that. With with_clusters the
    whole corpus is clustered once and cluster_id joins the evidence — pass
    cluster_train_only to cluster each fold's training rules only and place
    held-out rules by nearest average distance. Either way the distance
    matrix is built once, over the whole corpus; a fold reads its rows. A
    held-out rule whose cluster holds no training rule gets cluster_id UNK.
    """
    if spec is None:
        spec = SplitSpec()
    if exclude is None:
        exclude = ExclusionList(drop_constant=False)
    n = len(rules)
    folds = make_folds(n, spec)
    model_options = dict(
        smoothing=smoothing, skip_unk_evidence=skip_unk_evidence, with_prior=with_prior
    )

    if with_clusters:
        matrix = build_distance_matrix(rules, distance_params)
        if not cluster_train_only:  # nothing reads D again: merge in its own storage
            labels = agglomerate(
                matrix, linkage, cut_height=cut_height, cut_count=cut_count, overwrite=True
            ).labels

    table = factorize(rules)
    accuracies: dict[tuple[str, str], dict[int, float]] = {}
    classifiers = [CLASSIFIER_BAYES]
    if with_clusters:
        classifiers.append(CLASSIFIER_BAYES_CLUSTER)
    classifiers += [CLASSIFIER_RANDOM, CLASSIFIER_MAX_FREQUENCY]

    def record(attribute: str, classifier: str, fold: int, value: float) -> None:
        accuracies.setdefault((attribute, classifier), {})[fold] = value

    for fold_index, test_ids in enumerate(folds):
        train_ids = np.setdiff1d(np.arange(n), test_ids, assume_unique=True)

        vocab = vocabulary_of_codes(table, exclude, train_ids)
        codes = encode_codes(table, vocab)
        test_truth = codes[test_ids]  # -1: a value no training rule holds
        np.maximum(codes, 0, out=codes)  # which the evidence reads as UNK
        train_codes, test_codes = codes[train_ids], codes[test_ids]
        model = fit(train_codes, vocab, alpha, **model_options)

        scorers = [(CLASSIFIER_BAYES, model, test_codes)]
        if with_clusters:
            if cluster_train_only:
                # the fold's own copy of its rows of D, merged in place and
                # freed before the next fold's; D stays intact for _nearest_cluster
                train_labels = agglomerate(
                    DistanceMatrix(matrix.entries[np.ix_(train_ids, train_ids)]),
                    linkage,
                    cut_height=cut_height,
                    cut_count=cut_count,
                    overwrite=True,
                ).labels
                labels = np.empty(n, dtype=train_labels.dtype)
                labels[train_ids] = train_labels
                labels[test_ids] = [
                    _nearest_cluster(matrix.entries[i, train_ids], train_labels) for i in test_ids
                ]
            cluster_vocab, cluster_codes = attach_cluster_feature(codes, labels, vocab, train_ids)
            cluster_model = fit(cluster_codes[train_ids], cluster_vocab, alpha, **model_options)
            scorers.append((CLASSIFIER_BAYES_CLUSTER, cluster_model, cluster_codes[test_ids]))

        for attr_index, attribute in enumerate(vocab.attributes):
            values = vocab.values[attribute]
            true_codes = test_truth[:, attr_index]

            for classifier, scorer, held_out in scorers:
                picks = predict_mle_rows(scorer, held_out, attribute)
                accuracy = np.count_nonzero(picks == true_codes) / len(test_ids)
                record(attribute, classifier, fold_index, accuracy)

            rng = np.random.default_rng([spec.rng_seed, fold_index, attr_index])
            accuracy = baseline_random(true_codes, values, rng)
            record(attribute, CLASSIFIER_RANDOM, fold_index, accuracy)
            accuracy = baseline_max_frequency(train_codes[:, attr_index], true_codes, values)
            record(attribute, CLASSIFIER_MAX_FREQUENCY, fold_index, accuracy)

    attributes = tuple(sorted({attr for attr, _ in accuracies}))
    return AttributeAccuracyReport(
        attributes=attributes,
        classifiers=tuple(classifiers),
        folds=spec.folds,
        accuracies=accuracies,
    )
