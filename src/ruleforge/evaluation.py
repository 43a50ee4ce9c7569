"""Leave-one-condition-out evaluation, baselines, and threshold sweeps.

The protocol: shuffle the corpus with a fixed seed, split it into k folds,
and for each fold fit the model on the remaining rules. For every test rule
and every attribute, hide that attribute, predict it from the rest, and score
an exact string match against the true value (UNK counts as a value: an
absent attribute is correctly predicted by UNK). Baselines: the training
majority value, and a uniform draw over the attribute's vocabulary.

Each fold's test rules become one code matrix, so the model predicts a
hidden attribute for all of them in one bayes.predict_mle_rows call per
(fold, target).
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .abduction import (
    SeedObservation,
    Strategy,
    build_candidate_graph,
    seed_posteriors,
    select_candidates,
)
# predict_distribution, encode_rule and build_vocabulary are not called here;
# perfbench/tracing.py wraps them under this module's name
from .bayes import SmoothedModel, fit, predict_distribution, predict_mle_rows
from .clustering import DistanceMatrix, DistanceParams, agglomerate, build_distance_matrix
from .encoding import (
    CLUSTER_ATTRIBUTE,
    UNK,
    ExclusionList,
    attach_cluster_feature,
    build_vocabulary,
    encode_codes,
    encode_rule,
    factorize,
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


@dataclass
class ThresholdSweepResult:
    """Generated-rule counts over an ascending threshold grid."""

    points: tuple[tuple[float, int], ...]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["threshold", "generated_rules"])
        for threshold, count in self.points:
            writer.writerow([repr(threshold), count])
        return buffer.getvalue()


def make_folds(n: int, spec: SplitSpec) -> list[np.ndarray]:
    """Disjoint index folds covering range(n), shuffled by the spec seed."""
    if n < spec.folds:
        raise InsufficientData(f"{n} rules cannot fill {spec.folds} folds")
    rng = np.random.default_rng(spec.rng_seed)
    permutation = rng.permutation(n)
    return [np.sort(fold) for fold in np.array_split(permutation, spec.folds)]


def baseline_max_frequency(train_values: Sequence[str], test_values: Sequence[str]) -> float:
    """Accuracy of always predicting the training majority value.

    Count ties break toward the lexicographically smallest value.
    """
    if not train_values or not test_values:
        raise InsufficientData("baseline needs non-empty train and test values")
    counts = Counter(train_values)
    majority = min(counts, key=lambda v: (-counts[v], v))
    return sum(1 for value in test_values if value == majority) / len(test_values)


def baseline_random(
    test_values: Sequence[str],
    vocabulary_values: Sequence[str],
    rng: np.random.Generator,
) -> float:
    """Accuracy of a uniform draw over the attribute's vocabulary (UNK included)."""
    if not test_values:
        raise InsufficientData("baseline needs non-empty test values")
    draws = rng.integers(0, len(vocabulary_values), size=len(test_values))
    hits = sum(
        1 for value, draw in zip(test_values, draws) if vocabulary_values[draw] == value
    )
    return hits / len(test_values)


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
    matrix is built once, over the whole corpus; a fold reads its rows.
    """
    if spec is None:
        spec = SplitSpec()
    if exclude is None:
        exclude = ExclusionList(drop_constant=False)
    n = len(rules)
    folds = make_folds(n, spec)

    if with_clusters:
        matrix = build_distance_matrix(rules, distance_params)
        if not cluster_train_only:
            labels = agglomerate(matrix, linkage, cut_height=cut_height, cut_count=cut_count).labels

    table = factorize(rules)
    column_of = {key: k for k, key in enumerate(table.keys)}
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
        train_codes = codes[train_ids]
        test_codes = codes[test_ids]
        model = fit(
            train_codes,
            vocab,
            alpha,
            smoothing=smoothing,
            skip_unk_evidence=skip_unk_evidence,
            with_prior=with_prior,
        )

        if with_clusters:
            if cluster_train_only:
                train_matrix = DistanceMatrix(matrix.entries[np.ix_(train_ids, train_ids)])
                train_labels = agglomerate(
                    train_matrix, linkage, cut_height=cut_height, cut_count=cut_count
                ).labels
                test_labels = np.array(
                    [_nearest_cluster(matrix.entries[i, train_ids], train_labels) for i in test_ids]
                )
            else:
                train_labels, test_labels = labels[train_ids], labels[test_ids]
            cluster_vocab, cluster_train_codes = attach_cluster_feature(
                train_codes, train_labels, vocab
            )
            _, cluster_test_codes = attach_cluster_feature(
                test_codes, test_labels, vocab, augmented_vocab=cluster_vocab
            )
            cluster_model = fit(
                cluster_train_codes,
                cluster_vocab,
                alpha,
                smoothing=smoothing,
                skip_unk_evidence=skip_unk_evidence,
                with_prior=with_prior,
            )

        for attr_index, attribute in enumerate(vocab.attributes):
            k = column_of[attribute]
            strings = np.array([*table.values[k], UNK], dtype=object)[table.codes[:, k]]
            true_values = strings[test_ids].tolist()
            train_values = strings[train_ids].tolist()

            predictions = predict_mle_rows(model, test_codes, attribute)
            hits = sum(1 for p, t in zip(predictions, true_values) if p == t)
            record(attribute, CLASSIFIER_BAYES, fold_index, hits / len(true_values))

            if with_clusters:
                predictions = predict_mle_rows(cluster_model, cluster_test_codes, attribute)
                hits = sum(1 for p, t in zip(predictions, true_values) if p == t)
                record(
                    attribute, CLASSIFIER_BAYES_CLUSTER, fold_index, hits / len(true_values)
                )

            rng = np.random.default_rng([spec.rng_seed, fold_index, attr_index])
            record(
                attribute,
                CLASSIFIER_RANDOM,
                fold_index,
                baseline_random(true_values, vocab.values[attribute], rng),
            )
            record(
                attribute,
                CLASSIFIER_MAX_FREQUENCY,
                fold_index,
                baseline_max_frequency(train_values, true_values),
            )

    attributes = tuple(sorted({attr for attr, _ in accuracies}))
    return AttributeAccuracyReport(
        attributes=attributes,
        classifiers=tuple(classifiers),
        folds=spec.folds,
        accuracies=accuracies,
    )


def threshold_sweep(
    model: SmoothedModel,
    seed: SeedObservation,
    thresholds: Sequence[float],
    *,
    limit: int = 10_000,
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
        candidates = select_candidates(
            model.vocab, seed, Strategy.threshold(threshold), posteriors
        )
        graph = build_candidate_graph(seed, candidates, model.vocab)
        points.append((float(threshold), min(graph.total_combinations() - 1, limit)))
    return ThresholdSweepResult(points=tuple(points))
