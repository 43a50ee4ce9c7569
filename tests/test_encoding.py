"""Vocabulary construction and categorical encoding."""

import dataclasses
import hashlib
import importlib.util
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ruleforge import (
    CLUSTER_ATTRIBUTE,
    UNK,
    VALUE_JOIN,
    AttributeVocabulary,
    EmptyCorpus,
    EmptyDataset,
    ExclusionList,
    RuleforgeError,
    UnknownAttribute,
    attach_cluster_feature,
    build_vocabulary,
    encode_corpus,
    encode_rule,
    fit,
    parse_rule,
)
from ruleforge.encoding import encode_codes, factorize, vocabulary_of_codes
from ruleforge.parser import ParsedRule, RuleHeader, RuleOption


def rule(text):
    return parse_rule(text)


class TestFactorize:
    def test_codes_in_first_seen_order_with_minus_one_for_absent(self):
        rules = [
            rule("alert tcp any any -> any any (flow:b; nocase; sid:1;)"),
            rule("alert udp any any -> any any (flow:UNK; sid:2;)"),
            rule("alert tcp any any -> any any (flow:b; sid:3;)"),
        ]
        table = factorize(rules)
        assert list(table.keys) == sorted(table.keys)
        assert table.codes.shape == (3, len(table.keys))
        assert table.codes.dtype == np.int32
        flow = table.keys.index("flow")
        assert table.values[flow] == ("b", UNK)  # a literal UNK is a value here
        assert table.codes[:, flow].tolist() == [0, 1, 0]
        nocase = table.keys.index("nocase")
        assert table.values[nocase] == ("",)  # a flag is present
        assert table.codes[:, nocase].tolist() == [0, -1, -1]
        protocol = table.keys.index("protocol")
        assert table.values[protocol] == ("tcp", "udp")
        assert table.codes[:, protocol].tolist() == [0, 1, 0]


# Small alphabets, so values repeat, keys collide and constants occur. Values
# include the literal "UNK" and the flag value "", and a key drawn twice in one
# rule is flattened with VALUE_JOIN.
KEYS = ["flow", "content", "nocase", "classtype", "sid", "msg", CLUSTER_ATTRIBUTE]
VALUES = ["", UNK, "a", "b", "B", "10", "2", "a" + VALUE_JOIN + "b", "\u00e9"]
HEADER_VALUES = st.sampled_from(["any", UNK, "80", "$HOME_NET"])
HEADERS = st.builds(
    RuleHeader,
    st.just("alert"),
    st.sampled_from(["tcp", "udp", UNK]),
    HEADER_VALUES,
    HEADER_VALUES,
    st.just("->"),
    HEADER_VALUES,
    HEADER_VALUES,
)
RULES = st.lists(
    st.builds(
        lambda header, pairs: ParsedRule(
            header, tuple(RuleOption(k, v) for k, v in pairs)
        ),
        HEADERS,
        st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)), max_size=6),
    ),
    min_size=1,
    max_size=12,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rules=RULES, data=st.data())
def test_codes_give_the_dict_walks_vocabulary_and_encoding(rules, data):
    rows = data.draw(
        st.lists(st.integers(0, len(rules) - 1), min_size=1, unique=True).map(sorted)
    )
    exclude = ExclusionList(
        excluded_keys=frozenset(data.draw(st.sets(st.sampled_from(KEYS + ["protocol"])))),
        drop_constant=data.draw(st.booleans()),
    )
    table = factorize(rules)
    vocab = vocabulary_of_codes(table, exclude, np.array(rows))
    expected = oracles.build_vocabulary([rules[i] for i in rows], exclude)
    assert vocab.attributes == expected.attributes
    assert vocab.values == expected.values
    codes = oracles.encode_corpus(rules, vocab)
    unseen = np.array(
        [
            [rule.attribute_values().get(a, UNK) not in vocab.values[a] for a in vocab.attributes]
            for rule in rules
        ],
        dtype=bool,
    ).reshape(codes.shape)
    assert np.array_equal(encode_codes(table, vocab), np.where(unseen, -1, codes))
    assert np.array_equal(encode_corpus(rules, vocab), codes)
    whole = build_vocabulary(rules, exclude)
    assert whole.values == oracles.build_vocabulary(rules, exclude).values


class TestBuildVocabulary:
    def test_unk_is_always_index_zero(self, sample_rules):
        vocab = build_vocabulary(sample_rules)
        for attr in vocab.attributes:
            assert vocab.values[attr][0] == UNK
            assert vocab.index_of(attr, UNK) == 0

    def test_values_sorted_after_unk(self, sample_rules):
        vocab = build_vocabulary(sample_rules)
        for attr in vocab.attributes:
            tail = list(vocab.values[attr][1:])
            assert tail == sorted(tail)
            assert UNK not in tail

    def test_attributes_sorted_and_identity_excluded(self, sample_rules):
        vocab = build_vocabulary(sample_rules)
        assert list(vocab.attributes) == sorted(vocab.attributes)
        for key in ("sid", "rev", "msg", "reference"):
            assert key not in vocab.attributes

    def test_header_attributes_present(self, sample_rules):
        vocab = build_vocabulary(sample_rules)
        for attr in ("protocol", "source_ip", "source_port", "target_ip", "target_port"):
            assert attr in vocab.attributes

    def test_constant_attribute_dropped_by_default(self):
        rules = [
            rule("alert tcp any any -> any any (flow:a; classtype:x; sid:1;)"),
            rule("alert tcp any any -> any any (flow:b; classtype:x; sid:2;)"),
        ]
        vocab = build_vocabulary(rules)
        assert "classtype" not in vocab.attributes
        assert "flow" in vocab.attributes
        kept = build_vocabulary(rules, ExclusionList(drop_constant=False))
        assert "classtype" in kept.attributes

    def test_partially_present_attribute_is_not_constant(self):
        rules = [
            rule("alert tcp any any -> any any (flow:a; dsize:>10; sid:1;)"),
            rule("alert tcp any any -> any any (flow:b; sid:2;)"),
        ]
        vocab = build_vocabulary(rules)
        assert "dsize" in vocab.attributes
        assert vocab.values["dsize"] == (UNK, ">10")

    def test_extra_exclusions(self):
        rules = [
            rule("alert tcp any any -> any any (flow:a; content:\"x\"; sid:1;)"),
            rule("alert udp any any -> any any (flow:b; content:\"y\"; sid:2;)"),
        ]
        exclude = ExclusionList(
            excluded_keys=frozenset({"sid", "rev", "msg", "reference", "content"}),
            drop_constant=False,
        )
        vocab = build_vocabulary(rules, exclude)
        assert "content" not in vocab.attributes

    def test_literal_unk_value_collapses(self):
        rules = [
            rule("alert tcp any any -> any any (flow:UNK; sid:1;)"),
            rule("alert udp any any -> any any (flow:a; sid:2;)"),
        ]
        vocab = build_vocabulary(rules)
        assert vocab.values["flow"] == (UNK, "a")
        assert vocab.values["flow"].count(UNK) == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([])


class TestVocabularyLookups:
    @pytest.fixture
    def vocab(self):
        return AttributeVocabulary({"flow": (UNK, "a", "b"), "proto": (UNK, "tcp")})

    def test_index_of_and_value_at_are_inverse(self, vocab):
        for attr in vocab.attributes:
            for i, value in enumerate(vocab.values[attr]):
                assert vocab.index_of(attr, value) == i
                assert vocab.value_at(attr, i) == value

    def test_unseen_value_maps_to_unk(self, vocab):
        assert vocab.index_of("flow", "never-seen") == 0
        assert vocab.index_of("flow", None) == 0
        assert vocab.index_of("flow", UNK) == 0

    def test_unknown_attribute_raises(self, vocab):
        with pytest.raises(UnknownAttribute):
            vocab.index_of("nope", "a")
        with pytest.raises(UnknownAttribute):
            vocab.index_of("nope", None)
        with pytest.raises(UnknownAttribute):
            vocab.value_at("nope", 0)
        with pytest.raises(UnknownAttribute, match="^attribute 'nope' not in vocabulary$"):
            vocab.column("nope")

    def test_column_is_the_attribute_position(self, vocab):
        for attr in vocab.attributes:
            assert vocab.column(attr) == vocab.attributes.index(attr)

    def test_sizes_and_width(self, vocab):
        assert vocab.size("flow") == 3
        assert vocab.one_hot_width() == 5

    def test_json_round_trip_and_hash(self, vocab):
        text = vocab.to_json()
        attrs = json.loads(text)["attributes"]
        again = AttributeVocabulary({a: tuple(vals) for a, vals in attrs.items()})
        assert again.attributes == vocab.attributes
        assert again.values == vocab.values
        assert again.sha256() == vocab.sha256()
        assert text == again.to_json()

    @pytest.mark.parametrize(
        "values",
        [("a", UNK, "b"), ("!", "a", "b"), (UNK, "a", "a"), (UNK, "b", "a"), (UNK, "A", UNK)],
        ids=["unk_swapped", "unk_missing", "value_duplicate", "values_out_of_order", "unk_repeated"],
    )
    def test_value_list_other_than_build_vocabulary_makes_raises(self, values):
        """UNK, then strictly increasing strings; "!" < "a" and "A" < "UNK" are increasing."""
        with pytest.raises(ValueError, match="^values of 'flow' are not UNK then strictly"):
            AttributeVocabulary({"flow": values, "proto": (UNK, "tcp")})

    def test_attributes_are_sorted_from_any_dict_order(self, vocab):
        shuffled = AttributeVocabulary(dict(reversed(vocab.values.items())))
        assert list(shuffled.values) == ["proto", "flow"]
        assert shuffled.attributes == ("flow", "proto")
        assert shuffled.sha256() == vocab.sha256()
        assert shuffled.to_json() == vocab.to_json()

    def test_read_only_once_checked(self, vocab):
        """No value list can be changed or added past the constructor's checks."""
        given = {"flow": (UNK, "a")}
        held = AttributeVocabulary(given)
        given["flow"] = ("zz",)
        given["b"] = ("zz",)
        assert dict(held.values) == {"flow": (UNK, "a")}
        with pytest.raises(TypeError):
            vocab.values["b"] = ("zz",)
        with pytest.raises(TypeError):
            vocab.values["flow"] = (UNK, "z")
        for name, value in [("values", {"b": ("zz",)}), ("attributes", ("b",))]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(vocab, name, value)
        assert vocab.attributes == ("flow", "proto")
        assert vocab.values["flow"] == (UNK, "a", "b")


# The modules AttributeVocabulary.sha256 tries, in order.
DIGEST_MODULES = ("_sha2", "_sha256", "hashlib")

# Prints the digest of the vocabulary in argv[2] and which of DIGEST_MODULES
# are loaded after it, with the modules named in argv[1] blocked.
DIGEST = f"""
import json, sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
from ruleforge.encoding import AttributeVocabulary
values = {{a: tuple(v) for a, v in json.loads(sys.argv[2]).items()}}
vocab = AttributeVocabulary(values)
digest = vocab.sha256()
loaded = [name for name in {DIGEST_MODULES!r} if sys.modules.get(name)]
print(json.dumps({{"digest": digest, "loaded": loaded}}))
"""


@pytest.mark.parametrize(
    "blocked", [(), ("_sha2",), ("_sha2", "_sha256")], ids=lambda b: "+".join(b) or "none"
)
@pytest.mark.parametrize(
    "values",
    [
        {"content": [UNK, "\x1f\"\\", "caf\u00e9", "\U0001d11e"], "flow": [UNK, "\u2028"]},
        {"\u00e9t\u00e9": [UNK, "\u65e5\u672c"]},
        {},
    ],
    ids=["non-ascii", "non-ascii-key", "empty"],
)
def test_digest_is_sha256_at_every_step_of_the_fallback(values, blocked):
    """sha256 takes the first module of _sha2, _sha256, hashlib that imports."""
    canonical = json.dumps(values, sort_keys=True, separators=(",", ":")).encode("utf-8")
    result = subprocess.run(
        [sys.executable, "-c", DIGEST, ",".join(blocked), json.dumps(values)], capture_output=True
    )
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stdout)
    assert report["digest"] == hashlib.sha256(canonical).hexdigest()
    available = [m for m in DIGEST_MODULES if m not in blocked and importlib.util.find_spec(m)]
    assert available[0] in report["loaded"]
    if available[0] != "hashlib":
        assert "hashlib" not in report["loaded"]


class TestEncodeRule:
    def test_encoding_is_total(self):
        rules = [
            rule("alert tcp any any -> any any (flow:a; dsize:>10; sid:1;)"),
            rule("alert udp any any -> any any (flow:b; sid:2;)"),
        ]
        vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
        encoded = encode_rule(rules[1], vocab)
        assert encoded.shape == (len(vocab.attributes),)
        assert encoded[vocab.attributes.index("dsize")] == 0  # absent -> UNK
        assert vocab.value_at("flow", encoded[vocab.attributes.index("flow")]) == "b"

    def test_encode_corpus_rows_follow_rule_order(self, sample_rules):
        vocab = build_vocabulary(sample_rules)
        codes = encode_corpus(sample_rules, vocab)
        assert codes.shape == (len(sample_rules), len(vocab.attributes))
        assert codes.dtype == np.int64
        for i, parsed in enumerate(sample_rules):
            assert np.array_equal(codes[i], encode_rule(parsed, vocab))
        assert np.array_equal(encode_corpus(sample_rules[::-1], vocab), codes[::-1])

    def test_codes_are_in_range_and_match_index_of(self, sample_rules):
        vocab = build_vocabulary(sample_rules)
        codes = encode_corpus(sample_rules, vocab)
        for parsed, row in zip(sample_rules, codes):
            present = parsed.attribute_values()
            for attr, code in zip(vocab.attributes, row.tolist()):
                assert 0 <= code < vocab.size(attr)
                assert code == vocab.index_of(attr, present.get(attr))

    def test_empty_corpus_gives_zero_rows(self, sample_rules):
        vocab = build_vocabulary(sample_rules)
        assert factorize([]).codes.shape == (0, 0)
        codes = encode_corpus([], vocab)
        assert codes.shape == (0, len(vocab.attributes))
        assert codes.dtype == np.int64
        with pytest.raises(EmptyDataset):
            fit(codes, vocab)


class TestAttachClusterFeature:
    @pytest.fixture
    def base(self):
        rules = [
            rule("alert tcp any any -> any any (flow:a; sid:1;)"),
            rule("alert udp any any -> any any (flow:b; sid:2;)"),
            rule("alert tcp any any -> any any (flow:c; sid:3;)"),
        ]
        vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
        return vocab, encode_corpus(rules, vocab)

    def test_adds_cluster_attribute(self, base):
        vocab, codes = base
        before = codes.copy()
        labels = np.array([0, 1, 0])
        augmented, records = attach_cluster_feature(codes, labels, vocab)
        assert CLUSTER_ATTRIBUTE in augmented.attributes
        assert augmented.values[CLUSTER_ATTRIBUTE] == (UNK, "0", "1")
        column = augmented.attributes.index(CLUSTER_ATTRIBUTE)
        assert records[:, column].tolist() == [1, 2, 1]
        # original codes untouched
        assert np.array_equal(codes, before)

    def test_column_goes_to_the_sorted_place(self):
        # "classtype" sorts before cluster_id, "flow" and the header attributes after it
        rules = [
            rule("alert tcp any any -> any any (classtype:a; flow:a; sid:1;)"),
            rule("alert udp any any -> any 53 (classtype:b; flow:b; sid:2;)"),
        ]
        vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
        codes = encode_corpus(rules, vocab)
        before = codes.copy()
        augmented, records = attach_cluster_feature(codes, np.array([4, 7]), vocab)
        column = augmented.attributes.index(CLUSTER_ATTRIBUTE)
        assert augmented.attributes[column - 1] < CLUSTER_ATTRIBUTE
        assert augmented.attributes[column + 1] > CLUSTER_ATTRIBUTE
        assert records.shape == (2, len(vocab.attributes) + 1)
        assert records[:, column].tolist() == [1, 2]
        assert np.array_equal(np.delete(records, column, axis=1), codes)
        assert np.array_equal(codes, before)

    def test_uncovered_rule_gets_unk(self, base):
        # a label the reused vocabulary does not cover encodes as UNK
        vocab, codes = base
        augmented, _ = attach_cluster_feature(codes[:2], np.array([0, 0]), vocab)
        _, records = attach_cluster_feature(
            codes, np.array([0, 0, 1]), vocab, augmented_vocab=augmented
        )
        assert records[:, augmented.attributes.index(CLUSTER_ATTRIBUTE)].tolist() == [1, 1, 0]

    def test_labels_sort_as_strings(self, base):
        vocab, codes = base
        augmented, records = attach_cluster_feature(codes, np.array([10, 2, 10]), vocab)
        assert augmented.values[CLUSTER_ATTRIBUTE] == (UNK, "10", "2")
        assert records[:, augmented.attributes.index(CLUSTER_ATTRIBUTE)].tolist() == [1, 2, 1]

    def test_augmented_vocabulary_reuse(self, base):
        vocab, codes = base
        augmented, _ = attach_cluster_feature(codes[:2], np.array([0, 1]), vocab)
        # held-out row with a label the training vocabulary never saw
        again, records = attach_cluster_feature(
            codes[2:], np.array([5]), vocab, augmented_vocab=augmented
        )
        assert again is augmented
        assert records[0, augmented.attributes.index(CLUSTER_ATTRIBUTE)] == 0  # unseen -> UNK

    def test_corpus_with_a_cluster_id_option_rejected(self):
        # its option's column would sit beside the label column under one name
        rules = [
            rule("alert tcp any any -> any any (flow:a; cluster_id:7; sid:1;)"),
            rule("alert udp any any -> any any (flow:b; sid:2;)"),
        ]
        vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
        codes = encode_corpus(rules, vocab)
        with pytest.raises(RuleforgeError, match="--exclude cluster_id"):
            attach_cluster_feature(codes, np.array([0, 1]), vocab)
