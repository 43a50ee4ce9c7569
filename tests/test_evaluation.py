"""Cross-validated evaluation protocol, baselines, and threshold sweeps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
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
from ruleforge.parser import ParsedRule, RuleHeader, RuleOption


class TestSplitSpec:
    def test_defaults(self):
        spec = SplitSpec()
        assert spec.folds == 10
        assert spec.rng_seed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(folds=1)
        with pytest.raises(ValueError, match="rng_seed"):
            SplitSpec(rng_seed=-1)


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


def codes_of(strings, values):
    """The codes of strings, each an index into values."""
    return np.array([values.index(v) for v in strings], dtype=np.int64)


class TestBaselines:
    VALUES = (UNK, "a", "b", "c")

    def test_max_frequency_hand_case(self):
        train = codes_of(["a", "a", "b"], self.VALUES)
        test = codes_of(["a", "b", "a", "a"], self.VALUES)
        assert baseline_max_frequency(train, test, self.VALUES) == pytest.approx(3 / 4)

    def test_max_frequency_tie_breaks_lexicographically(self):
        # a and b both appear twice: the smaller string wins
        train = codes_of(["b", "a", "b", "a"], self.VALUES)
        accuracy = baseline_max_frequency(train, codes_of(["a", "b"], self.VALUES), self.VALUES)
        assert accuracy == pytest.approx(1 / 2)
        accuracy = baseline_max_frequency(train, codes_of(["a"], self.VALUES), self.VALUES)
        assert accuracy == pytest.approx(1.0)

    @pytest.mark.parametrize("value, winner", [("$HOME_NET", "$HOME_NET"), ("any", UNK)])
    def test_max_frequency_tie_with_unk_goes_to_the_smaller_string(self, value, winner):
        values = (UNK, value)
        train = codes_of([value, UNK], values)
        test = codes_of([winner], values)
        assert baseline_max_frequency(train, test, values) == 1.0

    def test_max_frequency_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(InsufficientData):
            baseline_max_frequency(empty, codes_of(["a"], self.VALUES), self.VALUES)
        with pytest.raises(InsufficientData):
            baseline_max_frequency(codes_of(["a"], self.VALUES), empty, self.VALUES)

    def test_random_is_seeded(self):
        test = codes_of(["a"] * 50, self.VALUES)
        first = baseline_random(test, self.VALUES, np.random.default_rng(5))
        second = baseline_random(test, self.VALUES, np.random.default_rng(5))
        assert first == second
        draws = np.random.default_rng(5).integers(0, len(self.VALUES), size=len(test))
        assert first == np.count_nonzero(draws == test) / len(test)

    def test_random_converges_to_uniform(self):
        test = codes_of(["a"] * 20_000, self.VALUES)
        accuracy = baseline_random(test, self.VALUES, np.random.default_rng(0))
        assert accuracy == pytest.approx(1 / 4, abs=0.02)

    def test_random_never_matches_an_unseen_value(self):
        test = np.full(1000, -1, dtype=np.int64)
        assert baseline_random(test, self.VALUES, np.random.default_rng(0)) == 0.0

    def test_random_empty(self):
        with pytest.raises(InsufficientData):
            baseline_random(np.zeros(0, dtype=np.int64), ["a"], np.random.default_rng(0))


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


# Values that sort before "UNK" ("$HOME_NET", "80", "A") and after it ("any",
# "zz"), a literal "UNK", a flag's "", and ONLY: a value no other rule holds,
# so it is unseen in training whenever its rule is held out. An option key a
# rule does not draw is absent from it.
ONLY = "only"
VALUES = ["", UNK, "$HOME_NET", "80", "A", "any", "zz", ONLY]


def corpus_rule(i: int, protocol: str, port: str, options: dict[str, str]) -> ParsedRule:
    def value(v: str) -> str:
        return f"{ONLY}-{i}" if v == ONLY else v

    return ParsedRule(
        RuleHeader("alert", protocol, "any", "any", "->", "any", value(port)),
        tuple(RuleOption(key, value(v)) for key, v in options.items()),
    )


CORPUS = st.lists(
    st.tuples(
        st.sampled_from(["tcp", "udp"]),
        st.sampled_from(VALUES[1:]),
        st.dictionaries(st.sampled_from(["flow", "dsize", "nocase"]), st.sampled_from(VALUES)),
    ),
    min_size=6,
    max_size=14,
).map(lambda drawn: [corpus_rule(i, *fields) for i, fields in enumerate(drawn)])

EDGE_CORPUS = [
    parse_rule(text)
    for text in (
        "alert tcp any any -> any 80 (flow:UNK; dsize:$HOME_NET; sid:1;)",
        "alert tcp any any -> any 80 (flow:zz; dsize:$HOME_NET; sid:2;)",
        "alert udp any any -> any UNK (flow:UNK; sid:3;)",
        "alert udp any any -> any any (flow:any; dsize:A; sid:4;)",
        "alert tcp any any -> any 445 (flow:only-5; sid:5;)",
        "alert tcp any any -> any 80 (flow:zz; nocase; sid:6;)",
        "alert udp any any -> any any (dsize:A; nocase; sid:7;)",
        "alert tcp any any -> any 8080 (flow:UNK; dsize:zz; sid:8;)",
        "alert tcp any any -> any 80 (flow:any; dsize:$HOME_NET; sid:9;)",
    )
]

MODEL_OPTIONS = [
    {},
    {"skip_unk_evidence": True, "with_prior": True},
    {"alpha": 0.37, "smoothing": "conventional"},
]


@pytest.mark.parametrize("with_clusters", [False, True])
@pytest.mark.parametrize("drop_constant", [False, True])
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    rules=CORPUS,
    folds=st.integers(2, 4),
    seed=st.integers(0, 2**32),
    options=st.sampled_from(MODEL_OPTIONS),
)
@example(rules=EDGE_CORPUS, folds=3, seed=0, options={})
def test_loco_evaluate_matches_the_string_oracle(
    rules, folds, seed, options, with_clusters, drop_constant
):
    spec = SplitSpec(folds=folds, rng_seed=seed)
    exclude = ExclusionList(drop_constant=drop_constant)
    report = loco_evaluate(
        rules, spec, exclude=exclude, with_clusters=with_clusters, cut_count=3, **options
    )
    assert report.to_csv() == oracles.loco_evaluate_strings(
        rules, spec, exclude, with_clusters=with_clusters, cut_count=3, **options
    )


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
                    graph = build_candidate_graph(seed, candidates)
                    want.append((threshold, len(enumerate_rules(graph, seed, limit=limit))))
                assert result.points == tuple(want)
