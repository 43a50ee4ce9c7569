"""Abduction and rule generation on hand-computed corpora.

The expected posterior fractions below were recomputed independently with
exact rational arithmetic over the fixture corpora.
"""

import copy
from collections import Counter

import pytest

import oracles
from ruleforge import (
    UNK,
    VALUE_JOIN,
    CombinationOverflow,
    ExclusionList,
    SeedObservation,
    Strategy,
    abduce_antecedents,
    build_candidate_graph,
    build_vocabulary,
    encode_corpus,
    enumerate_rules,
    fit,
    materialize_snort_rules,
    parse_rule,
    parse_ruleset,
    predict_distribution,
    serialize_rule,
)
from ruleforge.abduction import DEFAULT_SID_BASE


def model_for(rules, *, drop_constant=False, alpha=1.0):
    vocab = build_vocabulary(rules, ExclusionList(drop_constant=drop_constant))
    model = fit(encode_corpus(rules, vocab), vocab, alpha)
    return model, vocab


def generate_from(rules, seed_index, strategy, *, allow_insertion=False, **enum_kwargs):
    model, vocab = model_for(rules)
    seed = SeedObservation.from_rule(rules[seed_index], vocab)
    candidates = abduce_antecedents(
        model, seed, strategy, allow_insertion=allow_insertion
    )
    graph = build_candidate_graph(seed, candidates)
    return enumerate_rules(graph, seed, **enum_kwargs), graph, seed


class TestTwoRuleScenario:
    """Two near-duplicate rules differing in three attributes."""

    WIDE_PORTS = "[135,139,445,593,1024:]"

    def test_posterior_fractions(self, table2_rules):
        model, vocab = model_for(table2_rules)
        assert len(vocab.attributes) == 10
        seed = SeedObservation.from_rule(table2_rules[0], vocab)
        dist = predict_distribution(model, seed.encoded, "target_port")
        assert dist.probability(self.WIDE_PORTS) == pytest.approx(128 / 641, rel=1e-12)
        assert dist.probability("[139,445]") == pytest.approx(512 / 641, rel=1e-12)
        assert dist.probability(UNK) == pytest.approx(1 / 641, rel=1e-12)
        # a constant attribute keeps nearly all mass on its single value
        flow = predict_distribution(model, seed.encoded, "flow")
        assert flow.probability(UNK) == pytest.approx(1 / 5833, rel=1e-12)

    def test_threshold_abduction_finds_one_candidate_per_varying_attribute(
        self, table2_rules
    ):
        model, vocab = model_for(table2_rules)
        seed = SeedObservation.from_rule(table2_rules[0], vocab)
        candidates = abduce_antecedents(model, seed, Strategy.threshold(0.01))
        varying = {
            "target_port": [self.WIDE_PORTS],
            "dce_opnum": ["1"],
            "byte_test": ["4,>,512,8,relative,dce"],
        }
        for attr in vocab.attributes:
            assert candidates[attr] == varying.get(attr, [])

    def test_enumeration_produces_seven_rules(self, table2_rules):
        result, graph, seed = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        assert graph.total_combinations() == 8
        assert len(result) == 7
        assert not result.truncated
        seed_dict = seed.rule.attribute_values()
        ported = [
            g for g in result if g.rule.header.dst_port == self.WIDE_PORTS
        ]
        assert len(ported) == 4
        for gen in result:
            assert gen.seed_sid == 13162
            assert gen.rule.attribute_values() != seed_dict
            # every graph attribute is accounted for
            assert set(gen.changes) == set(graph.layers)
            assert all(
                state in {"kept", "replaced", "dropped", "inserted"}
                for state in gen.changes.values()
            )

    def test_materialized_rules_reparse(self, table2_rules):
        result, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        text = materialize_snort_rules(list(result), "NETBIOS")
        lines = text.splitlines()
        assert len(lines) == 7
        for offset, line in enumerate(lines):
            rule = parse_rule(line)
            assert rule.sid == DEFAULT_SID_BASE + offset
            assert rule.rev == 1
            assert rule.msg == f"NETBIOS Generated rule alert from ID-{rule.sid}"
            assert parse_rule(serialize_rule(rule)) == rule

    def test_threshold_one_generates_nothing(self, table2_rules):
        result, graph, _ = generate_from(table2_rules, 0, Strategy.threshold(1.0))
        assert graph.total_combinations() == 1
        assert len(result) == 0

    def test_single_rule_corpus_mle_yields_no_alternatives(self, table2_rules):
        result, graph, _ = generate_from(table2_rules[:1], 0, Strategy.mle())
        assert all(len(layer) == 1 for layer in graph.layers.values())
        assert len(result) == 0


class TestDropAndInsert:
    def test_drop_flag_option(self, drop_flag_rules):
        # seed A is the only rule with dce_stub_data; the other two agree on
        # port 445, so both "switch port" and "drop the flag" clear t=0.1
        model, vocab = model_for(drop_flag_rules)
        seed = SeedObservation.from_rule(drop_flag_rules[0], vocab)
        dist_port = predict_distribution(model, seed.encoded, "target_port")
        assert dist_port.probability("445") == pytest.approx(243 / 308, rel=1e-12)
        dist_stub = predict_distribution(model, seed.encoded, "dce_stub_data")
        assert dist_stub.probability(UNK) == pytest.approx(243 / 307, rel=1e-12)

        result, graph, _ = generate_from(drop_flag_rules, 0, Strategy.threshold(0.1))
        assert graph.layers["target_port"] == ("139", "445")
        assert graph.layers["dce_stub_data"] == ("", UNK)
        assert len(result) == 3
        dropped = [
            g
            for g in result
            if "dce_stub_data" not in g.rule.attribute_keys()
            and g.rule.header.dst_port == "445"
        ]
        assert len(dropped) == 1
        assert dropped[0].changes["dce_stub_data"] == "dropped"
        assert dropped[0].changes["target_port"] == "replaced"
        assert dropped[0].changes["flow"] == "kept"

    def test_topk_two_supersets_threshold(self, drop_flag_rules):
        # top-2 always includes each attribute's runner-up, so the constant
        # flow option also offers UNK (a drop) that threshold 0.1 filters out
        by_threshold, _, _ = generate_from(drop_flag_rules, 0, Strategy.threshold(0.1))
        by_topk, graph, _ = generate_from(drop_flag_rules, 0, Strategy.topk(2))
        assert graph.layers["flow"] == ("established,to_server", UNK)
        assert graph.total_combinations() == 8
        assert len(by_topk) == 7
        serial = lambda result: {serialize_rule(g.rule) for g in result}
        assert serial(by_threshold) < serial(by_topk)
        assert any("flow" not in g.rule.attribute_keys() for g in by_topk)

    def test_insertion_requires_opt_in(self, drop_flag_rules):
        # seed B lacks dce_stub_data entirely
        closed, graph, _ = generate_from(drop_flag_rules, 1, Strategy.threshold(0.01))
        assert graph.layers["dce_stub_data"] == (UNK,)
        assert all(
            "dce_stub_data" not in g.rule.attribute_keys() for g in closed
        )

        opened, graph, _ = generate_from(
            drop_flag_rules, 1, Strategy.threshold(0.01), allow_insertion=True
        )
        assert graph.layers["dce_stub_data"] == (UNK, "")
        assert len(opened) == 3
        inserted = [
            g for g in opened if "dce_stub_data" in g.rule.attribute_keys()
        ]
        assert len(inserted) == 2
        pure_insert = [
            g for g in inserted if g.rule.header.dst_port == "445"
        ]
        assert len(pure_insert) == 1
        assert pure_insert[0].changes["dce_stub_data"] == "inserted"
        text = serialize_rule(pure_insert[0].rule)
        assert "dce_stub_data;" in text

    def test_unk_never_offered_for_header_attributes(self, drop_flag_rules):
        # target_port 139 appears once, UNK would clear a tiny threshold for
        # the ports too; the graph must still not offer dropping a header slot
        _, graph, _ = generate_from(drop_flag_rules, 0, Strategy.threshold(0.001))
        assert UNK not in graph.layers["target_port"]
        assert UNK not in graph.layers["source_ip"]


class TestCompositeOptions:
    TEXTS = [
        'alert tcp any any -> any 445 (flow:to_server; content:"A"; content:"B"; dsize:>10; sid:1; rev:1;)',
        'alert tcp any any -> any 445 (flow:to_server; content:"C"; content:"D"; dsize:>10; sid:2; rev:1;)',
    ]

    def test_composite_replacement_splits_back_into_options(self):
        rules = [parse_rule(t) for t in self.TEXTS]
        model, vocab = model_for(rules)
        seed = SeedObservation.from_rule(rules[0], vocab)
        assert seed.value_of("content") == '"A"' + VALUE_JOIN + '"B"'
        candidates = abduce_antecedents(model, seed, Strategy.threshold(0.01))
        assert candidates["content"] == ['"C"' + VALUE_JOIN + '"D"']
        graph = build_candidate_graph(seed, candidates)
        result = enumerate_rules(graph, seed)
        assert len(result) == 1
        generated = result[0]
        assert generated.changes["content"] == "replaced"
        keys = [opt.key for opt in generated.rule.options]
        values = [opt.value for opt in generated.rule.options]
        # both payload fragments land at the original position, in order
        assert keys == ["flow", "content", "content", "dsize"]
        assert values == ["to_server", '"C"', '"D"', ">10"]
        assert parse_rule(serialize_rule(generated.rule)) == generated.rule


class TestEnumerationLimits:
    def test_strict_overflow(self, table2_rules):
        with pytest.raises(CombinationOverflow):
            generate_from(
                table2_rules, 0, Strategy.threshold(0.01), limit=6, strict=True
            )

    def test_truncation_keeps_prefix(self, table2_rules):
        full, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        cut, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01), limit=6)
        assert cut.truncated
        assert len(cut) == 6
        assert [serialize_rule(g.rule) for g in cut] == [
            serialize_rule(g.rule) for g in full
        ][:6]

    def test_limit_zero(self, table2_rules):
        result, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01), limit=0)
        assert len(result) == 0
        assert result.truncated

    def test_negative_limit_rejected(self, table2_rules):
        with pytest.raises(ValueError):
            generate_from(table2_rules, 0, Strategy.threshold(0.01), limit=-1)

    def test_exact_fit_is_not_truncated(self, table2_rules):
        result, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01), limit=7)
        assert len(result) == 7
        assert not result.truncated

    def test_determinism(self, table2_rules):
        first, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        second, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        assert [serialize_rule(g.rule) for g in first] == [
            serialize_rule(g.rule) for g in second
        ]


class TestStrategy:
    def test_validation(self):
        with pytest.raises(ValueError):
            Strategy.topk(0)
        with pytest.raises(ValueError):
            Strategy.threshold(-0.1)
        with pytest.raises(ValueError):
            Strategy.threshold(1.5)

    def test_mle_selects_single_best(self, table2_rules):
        model, vocab = model_for(table2_rules)
        seed = SeedObservation.from_rule(table2_rules[0], vocab)
        dist = predict_distribution(model, seed.encoded, "target_port")
        assert Strategy.mle().select(dist) == ["[139,445]"]
        assert Strategy.topk(2).select(dist) == [
            "[139,445]",
            "[135,139,445,593,1024:]",
        ]
        assert Strategy.threshold(0.99).select(dist) == []


class TestMaterialize:
    def test_sid_base_floor(self, table2_rules):
        result, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        with pytest.raises(ValueError):
            materialize_snort_rules(list(result), "X", sid_base=100)
        custom = materialize_snort_rules(list(result), "X", sid_base=300000)
        assert parse_rule(custom.splitlines()[0]).sid == 300000

    def test_leaves_generated_rules_unchanged(self, table2_rules):
        result, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        before = copy.deepcopy([gen.rule for gen in result])
        first = materialize_snort_rules(list(result), "X")
        assert materialize_snort_rules(list(result), "X") == first
        assert [gen.rule for gen in result] == before
        assert all(gen.rule.sid is None for gen in result)

    def test_empty_batch(self):
        assert materialize_snort_rules([], "X") == ""

    @pytest.mark.parametrize("category", ["NETBIOS", "A;B", "A(B)", "A\\B", "A\\", "A;()\\B"])
    def test_accepted_categories_reparse(self, table2_rules, category):
        result, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        text = materialize_snort_rules(list(result), category)
        rules, errors = parse_ruleset(text)
        assert not errors
        assert len(rules) == len(result)
        assert [rule.msg.split(" Generated rule")[0] for rule in rules] == [category] * len(rules)

    @pytest.mark.parametrize("category", ['A"B', "A\nB", "A\rB", '"'])
    def test_category_that_would_not_reparse_raises(self, table2_rules, category):
        result, _, _ = generate_from(table2_rules, 0, Strategy.threshold(0.01))
        with pytest.raises(ValueError, match="category"):
            materialize_snort_rules(list(result), category)

    def test_seed_without_sid_gets_zero(self):
        rule = parse_rule("alert tcp any any -> any 445 (flow:to_server;)")
        vocab = build_vocabulary(
            [rule, parse_rule("alert tcp any any -> any 80 (flow:to_client;)")],
            ExclusionList(drop_constant=False),
        )
        seed = SeedObservation.from_rule(rule, vocab)
        assert seed.seed_sid == 0

    def test_seed_holds_the_vocabulary_it_was_encoded_with(self, table2_rules):
        vocab = build_vocabulary(table2_rules, ExclusionList(drop_constant=False))
        seed = SeedObservation.from_rule(table2_rules[0], vocab)
        assert seed.vocab is vocab
        assert seed.seed_sid == table2_rules[0].sid


@pytest.mark.parametrize("allow_insertion", [False, True])
@pytest.mark.parametrize(
    "strategy", [Strategy.topk(3), Strategy.threshold(0.01)], ids=["topk", "threshold"]
)
def test_generated_rules_match_the_option_by_option_reference(
    sample_rules, strategy, allow_insertion
):
    """Every sample rule as the seed: the same rules, and changes in the same key order."""
    labels = Counter()
    for index in range(len(sample_rules)):
        result, graph, seed = generate_from(
            sample_rules, index, strategy, allow_insertion=allow_insertion, limit=2000
        )
        expected = oracles.enumerate_rules(graph, seed, 2000)
        assert len(result) == len(expected)
        for generated, (rule, changes) in zip(result, expected):
            assert generated.rule == rule
            assert list(generated.changes.items()) == list(changes.items())
            labels.update(changes.values())
    assert labels["kept"] and labels["replaced"] and labels["dropped"]
    assert bool(labels["inserted"]) == allow_insertion
