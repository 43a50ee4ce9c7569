"""Cross-validated evaluation protocol, baselines, and threshold sweeps."""

import numpy as np
import pytest

from conftest import TABLE2_TEXTS
from ruleforge import (
    CLASSIFIER_BAYES,
    CLASSIFIER_BAYES_CLUSTER,
    CLASSIFIER_MAX_FREQUENCY,
    CLASSIFIER_RANDOM,
    UNK,
    ExclusionList,
    InsufficientData,
    InvalidCut,
    SeedObservation,
    SplitSpec,
    Strategy,
    abduce_antecedents,
    baseline_max_frequency,
    build_candidate_graph,
    baseline_random,
    build_vocabulary,
    encode_corpus,
    enumerate_rules,
    fit,
    loco_evaluate,
    make_folds,
    parse_rule,
    threshold_sweep,
    value_frequencies,
)


class TestSplitSpec:
    def test_defaults(self):
        spec = SplitSpec()
        assert spec.folds == 10
        assert spec.rng_seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(folds=1)


class TestMakeFolds:
    def test_disjoint_cover(self):
        folds = make_folds(23, SplitSpec(folds=5, rng_seed=3))
        assert len(folds) == 5
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(23))
        sizes = [len(fold) for fold in folds]
        assert max(sizes) - min(sizes) <= 1
        for fold in folds:
            assert list(fold) == sorted(fold)

    def test_deterministic_per_seed(self):
        first = make_folds(30, SplitSpec(folds=4, rng_seed=7))
        second = make_folds(30, SplitSpec(folds=4, rng_seed=7))
        other = make_folds(30, SplitSpec(folds=4, rng_seed=8))
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            make_folds(5, SplitSpec(folds=10))


class TestBaselines:
    def test_max_frequency_hand_case(self):
        accuracy = baseline_max_frequency(
            ["a", "a", "b"], ["a", "b", "a", "a"]
        )
        assert accuracy == pytest.approx(3 / 4)

    def test_max_frequency_tie_breaks_lexicographically(self):
        # a and b both appear twice: the smaller string wins
        accuracy = baseline_max_frequency(["b", "a", "b", "a"], ["a", "b"])
        assert accuracy == pytest.approx(1 / 2)
        accuracy = baseline_max_frequency(["b", "a", "b", "a"], ["a"])
        assert accuracy == pytest.approx(1.0)

    def test_max_frequency_empty(self):
        with pytest.raises(InsufficientData):
            baseline_max_frequency([], ["a"])
        with pytest.raises(InsufficientData):
            baseline_max_frequency(["a"], [])

    def test_random_is_seeded(self):
        vocabulary = [UNK, "a", "b", "c"]
        test_values = ["a"] * 50
        first = baseline_random(test_values, vocabulary, np.random.default_rng(5))
        second = baseline_random(test_values, vocabulary, np.random.default_rng(5))
        assert first == second

    def test_random_converges_to_uniform(self):
        vocabulary = [UNK, "a", "b", "c"]
        test_values = ["a"] * 20_000
        accuracy = baseline_random(test_values, vocabulary, np.random.default_rng(0))
        assert accuracy == pytest.approx(1 / 4, abs=0.02)

    def test_random_empty(self):
        with pytest.raises(InsufficientData):
            baseline_random([], ["a"], np.random.default_rng(0))


class TestValueFrequencies:
    def test_sample_corpus_flow(self, sample_rules):
        assert value_frequencies(sample_rules, "flow") == [
            ("established,to_server", 7),
            (UNK, 2),
            ("stateless", 1),
            ("to_client,established", 1),
            ("to_server", 1),
        ]

    def test_sample_corpus_dsize(self, sample_rules):
        assert value_frequencies(sample_rules, "dsize") == [
            (UNK, 10),
            ("<56", 1),
            (">100", 1),
        ]

    def test_counts_cover_the_corpus(self, sample_rules):
        for attribute in ("flow", "dsize", "content", "target_port"):
            counts = value_frequencies(sample_rules, attribute)
            assert sum(count for _, count in counts) == len(sample_rules)

    def test_empty(self):
        assert value_frequencies([], "flow") == []


class TestLocoEvaluate:
    def test_identical_rules_are_fully_predictable(self):
        text = 'alert tcp any any -> any 445 (flow:to_server; dsize:>10; sid:1; rev:1;)'
        rules = [parse_rule(text) for _ in range(10)]
        report = loco_evaluate(rules, SplitSpec(folds=5))
        assert report.folds == 5
        for attribute in report.attributes:
            assert report.mean(attribute, CLASSIFIER_BAYES) == 1.0
            assert report.mean(attribute, CLASSIFIER_MAX_FREQUENCY) == 1.0

    def test_report_shape_on_sample_corpus(self, sample_rules):
        report = loco_evaluate(sample_rules, SplitSpec(folds=3))
        assert report.classifiers == (
            CLASSIFIER_BAYES,
            CLASSIFIER_RANDOM,
            CLASSIFIER_MAX_FREQUENCY,
        )
        assert list(report.attributes) == sorted(report.attributes)
        assert "flow" in report.attributes
        assert "target_port" in report.attributes
        for key, cells in report.accuracies.items():
            # an attribute absent from a fold's training vocabulary records
            # no cell for that fold, so coverage may be partial
            assert cells
            assert set(cells) <= {0, 1, 2}
            for accuracy in cells.values():
                assert 0.0 <= accuracy <= 1.0
        for classifier in report.classifiers:
            assert set(report.accuracies[("target_port", classifier)]) == {0, 1, 2}

    def test_deterministic(self, sample_rules):
        first = loco_evaluate(sample_rules, SplitSpec(folds=3))
        second = loco_evaluate(sample_rules, SplitSpec(folds=3))
        assert first.to_csv() == second.to_csv()

    def test_csv_shape(self, sample_rules):
        report = loco_evaluate(sample_rules, SplitSpec(folds=3))
        lines = report.to_csv().splitlines()
        assert lines[0] == "attribute,classifier,fold,accuracy"
        cells = sum(len(folds) for folds in report.accuracies.values())
        expected = 1 + cells + len(report.accuracies)
        assert len(lines) == expected
        mean_rows = [line for line in lines if ",mean," in line]
        assert len(mean_rows) == len(report.attributes) * len(report.classifiers)
        for line in lines[1:]:
            accuracy = line.rsplit(",", 1)[1]
            assert len(accuracy.split(".")[1]) == 6

    def test_with_clusters_adds_classifier(self, sample_rules):
        report = loco_evaluate(
            sample_rules, SplitSpec(folds=3), with_clusters=True, cut_count=3
        )
        assert CLASSIFIER_BAYES_CLUSTER in report.classifiers
        for attribute in report.attributes:
            accuracy = report.mean(attribute, CLASSIFIER_BAYES_CLUSTER)
            assert 0.0 <= accuracy <= 1.0

    def test_cluster_train_only_path(self, sample_rules):
        report = loco_evaluate(
            sample_rules,
            SplitSpec(folds=3),
            with_clusters=True,
            cluster_train_only=True,
            cut_count=3,
        )
        assert CLASSIFIER_BAYES_CLUSTER in report.classifiers
        for attribute in report.attributes:
            accuracy = report.mean(attribute, CLASSIFIER_BAYES_CLUSTER)
            assert 0.0 <= accuracy <= 1.0

    def test_nan_cut_height_rejected(self, sample_rules):
        with pytest.raises(InvalidCut, match="cut_height"):
            loco_evaluate(sample_rules, SplitSpec(folds=3), with_clusters=True, cut_height=float("nan"))

    def test_exclusions_apply(self, sample_rules):
        report = loco_evaluate(
            sample_rules,
            SplitSpec(folds=3),
            exclude=ExclusionList(
                excluded_keys=frozenset({"sid", "rev", "msg", "reference", "flow"}),
                drop_constant=False,
            ),
        )
        assert "flow" not in report.attributes

    def test_insufficient_rules(self, sample_rules):
        with pytest.raises(InsufficientData):
            loco_evaluate(sample_rules[:5], SplitSpec(folds=10))


class TestThresholdSweep:
    @pytest.fixture
    def model_and_seed(self):
        rules = [parse_rule(text) for text in TABLE2_TEXTS]
        vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
        model = fit(encode_corpus(rules, vocab), vocab)
        return model, SeedObservation.from_rule(rules[0], vocab)

    def test_counts_on_known_grid(self, model_and_seed):
        model, seed = model_and_seed
        result = threshold_sweep(model, seed, [0.001, 0.01, 0.5])
        # at 0.001 UNK clears the bar for the two varying option attributes
        # (1/641 each) so the layers are 2*3*3; at 0.01 they are 2*2*2; at
        # 0.5 no alternative survives
        assert result.points == ((0.001, 17), (0.01, 7), (0.5, 0))

    def test_counts_never_increase(self, model_and_seed):
        model, seed = model_and_seed
        grid = [0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.9]
        result = threshold_sweep(model, seed, grid)
        counts = [count for _, count in result.points]
        assert counts == sorted(counts, reverse=True)

    def test_limit_preserves_monotonicity(self, model_and_seed):
        model, seed = model_and_seed
        result = threshold_sweep(model, seed, [0.001, 0.01, 0.5], limit=10)
        assert result.points == ((0.001, 10), (0.01, 7), (0.5, 0))

    def test_csv_format(self, model_and_seed):
        model, seed = model_and_seed
        result = threshold_sweep(model, seed, [0.001, 0.01])
        lines = result.to_csv().splitlines()
        assert lines == ["threshold,generated_rules", "0.001,17", "0.01,7"]

    def test_validation(self, model_and_seed):
        model, seed = model_and_seed
        with pytest.raises(ValueError):
            threshold_sweep(model, seed, [])
        with pytest.raises(ValueError):
            threshold_sweep(model, seed, [0.1, 0.01])
        with pytest.raises(ValueError):
            threshold_sweep(model, seed, [0.01], limit=-1)

    @pytest.mark.parametrize("allow_insertion", [False, True])
    def test_counts_are_the_enumerated_rules(self, sample_rules, allow_insertion):
        vocab = build_vocabulary(sample_rules)
        model = fit(encode_corpus(sample_rules, vocab), vocab)
        grid = [0.001, 0.01, 0.05, 0.2]
        for rule in sample_rules:
            seed = SeedObservation.from_rule(rule, vocab)
            for limit in (0, 5, 10_000):
                result = threshold_sweep(
                    model, seed, grid, limit=limit, allow_insertion=allow_insertion
                )
                want = []
                for threshold in grid:
                    candidates = abduce_antecedents(
                        model, seed, Strategy.threshold(threshold), allow_insertion=allow_insertion
                    )
                    graph = build_candidate_graph(seed, candidates, vocab)
                    want.append((threshold, len(enumerate_rules(graph, seed, limit=limit))))
                assert result.points == tuple(want)
