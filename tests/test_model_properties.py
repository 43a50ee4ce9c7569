"""Property tests for the counts, the model file, the posterior, the enumeration and rules.

Hypothesis runs derandomized, so every run draws the same examples. A corpus
is a list of dict rows that conftest.encode_dicts turns into the code matrix
fit counts. Every row also renders as a rule whose parsed attribute values
are that row, so any row can be the seed of an enumeration.
"""

import json
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import MODEL_CONFIGS, encode_dicts, vocabulary_from_dicts
from ruleforge import (
    UNK,
    AttributeVocabulary,
    PosteriorDistribution,
    SeedObservation,
    SmoothedModel,
    Strategy,
    abduce_antecedents,
    build_candidate_graph,
    enumerate_rules,
    fit,
    materialize_snort_rules,
    parse_rule,
    parse_ruleset,
    predict_distribution,
    predict_mle,
)
from ruleforge.abduction import DEFAULT_SID_BASE
from ruleforge.parser import HEADER_FIELDS
from ruleforge.bayes import posterior_log_scores

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=100)

HEADER_POOLS = {
    "protocol": ["tcp", "udp"],
    "source_ip": ["any", "$HOME_NET"],
    "source_port": ["any", "80", "445"],
    "target_ip": ["any", "$EXTERNAL_NET"],
    "target_port": ["any", "80", "[139,445]"],
}
OPTION_KEYS = ["flow", "k0", "k1"]
# "$HOME_NET" and "80" sort before "UNK", "smb" and "x" after it
OPTION_VALUES = ["$HOME_NET", "80", "UNKNOWN", "smb", "x"]

ROW = st.builds(
    lambda header, options: {**header, **options},
    st.fixed_dictionaries({attr: st.sampled_from(pool) for attr, pool in HEADER_POOLS.items()}),
    st.dictionaries(st.sampled_from(OPTION_KEYS), st.sampled_from(OPTION_VALUES)),
)
CORPUS = st.lists(ROW, min_size=1, max_size=12)
# Corpora over at most two attributes, down to none at all, with many repeated rows.
NARROW_CORPUS = st.lists(
    st.dictionaries(st.sampled_from(["k0", "k1"]), st.sampled_from(["a", "b"])),
    min_size=1,
    max_size=12,
)
STRATEGY = st.one_of(
    st.just(Strategy.mle()),
    st.integers(1, 4).map(Strategy.topk),
    st.floats(0.0, 1.0).map(Strategy.threshold),
)


def render(row: dict, sid: int) -> str:
    header = [row[attr] for attr in HEADER_POOLS]
    header.insert(3, "->")
    body = "".join(f"{key}:{row[key]}; " for key in OPTION_KEYS if key in row)
    return f"alert {' '.join(header)} ({body}sid:{sid};)"


def generate(corpus, seed_index, strategy, allow_insertion, limit):
    """(graph, enumeration) for one corpus row as the seed."""
    vocab = vocabulary_from_dicts(corpus)
    model = fit(encode_dicts(corpus, vocab), vocab)
    row = corpus[seed_index % len(corpus)]
    seed_rule = parse_rule(render(row, sid=7))
    assert seed_rule.attribute_values() == row
    seed = SeedObservation.from_rule(seed_rule, vocab)
    assert seed.encoded.tolist() == encode_dicts([row], vocab)[0].tolist()
    candidates = abduce_antecedents(model, seed, strategy, allow_insertion=allow_insertion)
    graph = build_candidate_graph(seed, candidates)
    return graph, enumerate_rules(graph, seed, limit=limit)


@DETERMINISTIC
@given(corpus=CORPUS)
def test_pair_tables_equal_the_dense_counts(corpus):
    vocab = vocabulary_from_dicts(corpus)
    codes = encode_dicts(corpus, vocab)
    counts = fit(codes, vocab).counts
    dense = oracles.dense_pair_counts(codes, vocab)
    assert set(counts.pair_counts) == set(dense)
    for (a, b), table in dense.items():
        forward, backward = counts.pair(a, b), counts.pair(b, a)
        assert forward.dtype == backward.dtype == table.dtype
        assert forward.tolist() == table.tolist()
        assert backward.tolist() == table.T.tolist()


@settings(DETERMINISTIC, max_examples=50)
@given(
    corpus=st.one_of(CORPUS, NARROW_CORPUS),
    config=st.sampled_from(MODEL_CONFIGS),
    shuffle=st.randoms(use_true_random=False),
)
@example(corpus=[{}, {}], config=MODEL_CONFIGS[0], shuffle=random.Random(0))
@example(
    corpus=[{"k0": "a"}, {"k0": "b"}, {}, {"k0": "a"}],
    config=MODEL_CONFIGS[1],
    shuffle=random.Random(0),
)
def test_model_file_round_trips(corpus, config, shuffle, tmp_path_factory):
    vocab = vocabulary_from_dicts(corpus)
    alpha, kwargs = config
    codes = encode_dicts(corpus, vocab)
    model = fit(codes, vocab, alpha, **kwargs)
    distinct, counts = np.unique(codes, axis=0, return_counts=True)
    assert model.counts.rows.tolist() == distinct.tolist()
    assert model.counts.multiplicities.tolist() == counts.tolist()
    text = model.to_json()
    path = tmp_path_factory.mktemp("model") / "model.json"
    model.save(str(path))
    loaded = SmoothedModel.load(str(path))
    assert loaded.to_json() == text
    assert loaded.counts.num_samples == model.counts.num_samples == len(corpus)
    for a in vocab.attributes:
        assert np.array_equal(loaded.counts.marginal(a), model.counts.marginal(a))
    assert loaded.counts.pair_counts.keys() == model.counts.pair_counts.keys()
    for pair, cells in model.counts.pair_counts.items():
        assert np.array_equal(loaded.counts.pair_counts[pair], cells)
    for target in vocab.attributes:
        assert (
            posterior_log_scores(loaded, codes, target).tobytes()
            == posterior_log_scores(model, codes, target).tobytes()
        )
    # the same rows in another order, one of them written as two, load canonical
    payload = json.loads(text)
    rows, multiplicities = payload["rows"], payload["multiplicities"]
    order = list(range(len(rows)))
    shuffle.shuffle(order)
    payload["rows"] = [rows[i] for i in order]
    payload["multiplicities"] = [multiplicities[i] for i in order]
    split = next((i for i, m in enumerate(payload["multiplicities"]) if m >= 2), None)
    if split is not None:
        payload["rows"].append(payload["rows"][split])
        payload["multiplicities"].append(payload["multiplicities"][split] - 1)
        payload["multiplicities"][split] = 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert SmoothedModel.load(str(path)).to_json() == text


# Any vocabulary build_vocabulary could make: UNK, then distinct sorted strings.
VOCABULARY = st.dictionaries(
    st.text(max_size=3),
    st.sets(st.text(max_size=3), max_size=4).map(lambda values: (UNK, *sorted(values - {UNK}))),
    max_size=4,
).map(AttributeVocabulary)


@settings(DETERMINISTIC, max_examples=50)
@given(vocab=VOCABULARY, config=st.sampled_from(MODEL_CONFIGS), data=st.data())
def test_every_fitted_model_saves_as_a_file_that_load_reads_back(
    vocab, config, data, tmp_path_factory
):
    """fit, to_json, load, to_json: the same text for any valid codes, repeated and unsorted."""
    row = st.tuples(*(st.integers(0, vocab.size(a) - 1) for a in vocab.attributes))
    pool = data.draw(st.lists(row, min_size=1, max_size=6))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    codes = np.array(rows, dtype=np.int64).reshape(len(rows), len(vocab.attributes))
    alpha, kwargs = config
    text = fit(codes, vocab, alpha, **kwargs).to_json()
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(text, encoding="utf-8")
    assert SmoothedModel.load(str(path)).to_json() == text


@settings(DETERMINISTIC, max_examples=50)
@given(corpus=CORPUS, unseen=st.lists(ROW, max_size=3), config=st.sampled_from(MODEL_CONFIGS))
def test_posterior_scores_equal_the_per_record_loop(corpus, unseen, config):
    vocab = vocabulary_from_dicts(corpus)
    alpha, kwargs = config
    model = fit(encode_dicts(corpus, vocab), vocab, alpha, **kwargs)
    observations = encode_dicts(corpus + unseen, vocab)
    for target in vocab.attributes:
        batched = posterior_log_scores(model, observations, target)
        for record, row in zip(observations, batched):
            want, _ = oracles.posterior_loop(
                model, dict(zip(vocab.attributes, record.tolist())), target
            )
            assert row.tobytes() == want.tobytes()


@settings(DETERMINISTIC, max_examples=50)
@given(corpus=CORPUS, unseen=st.lists(ROW, max_size=3))
def test_posterior_rows_sum_to_one(corpus, unseen):
    vocab = vocabulary_from_dicts(corpus)
    codes = encode_dicts(corpus, vocab)
    # rows outside the training corpus may hold values it never saw (UNK)
    observations = encode_dicts(corpus + unseen, vocab)
    for alpha, kwargs in MODEL_CONFIGS:
        model = fit(codes, vocab, alpha, **kwargs)
        for row in observations:
            for target in vocab.attributes:
                normalized = predict_distribution(model, row, target).normalized
                assert (normalized >= 0).all()
                assert abs(normalized.sum() - 1.0) <= 1e-9


@st.composite
def tie_heavy_distributions(draw):
    """A posterior whose values share at most three log scores, so most of them tie."""
    values = (UNK, *sorted(draw(st.lists(st.sampled_from(OPTION_VALUES), unique=True))))
    scores = st.sampled_from([0.0, -1.0, -2.5])
    log_scores = np.array(draw(st.lists(scores, min_size=len(values), max_size=len(values))))
    shifted = np.exp(log_scores - log_scores.max())
    return PosteriorDistribution("k0", values, log_scores, shifted / shifted.sum())


@DETERMINISTIC
@given(distribution=tie_heavy_distributions())
def test_mle_selects_what_top_one_selects(distribution):
    """Strategy.mle() is topk(1): predict_mle's value, the smallest string among the tied best."""
    selected = Strategy.mle().select(distribution)
    assert selected == Strategy.topk(1).select(distribution) == [predict_mle(distribution)]
    values, normalized = distribution.values, distribution.normalized.tolist()
    assert selected == [values[oracles.ranked_order(values, normalized)[0]]]


@DETERMINISTIC
@given(
    corpus=CORPUS,
    seed_index=st.integers(0, 11),
    strategy=STRATEGY,
    allow_insertion=st.booleans(),
    limit=st.integers(0, 40),
)
def test_enumeration_count_is_the_product_minus_the_seed(
    corpus, seed_index, strategy, allow_insertion, limit
):
    graph, result = generate(corpus, seed_index, strategy, allow_insertion, limit)
    total = graph.total_combinations() - 1
    assert len(result) == min(total, limit)
    assert result.truncated == (total > limit)


@DETERMINISTIC
@given(
    corpus=CORPUS,
    seed_index=st.integers(0, 11),
    strategy=STRATEGY,
    allow_insertion=st.booleans(),
    sid_base=st.integers(DEFAULT_SID_BASE, DEFAULT_SID_BASE + 10**6),
)
def test_materialized_rules_reparse_with_contiguous_sids(
    corpus, seed_index, strategy, allow_insertion, sid_base
):
    _, result = generate(corpus, seed_index, strategy, allow_insertion, limit=200)
    text = materialize_snort_rules(result.rules, "TEST", sid_base=sid_base)
    parsed, errors = parse_ruleset(text)
    assert errors == []
    assert [rule.sid for rule in parsed] == list(range(sid_base, sid_base + len(result)))
    for again, generated in zip(parsed, result):
        assert again.attribute_values() == generated.rule.attribute_values()


@DETERMINISTIC
@given(corpus=CORPUS, seed_index=st.integers(0, 11), data=st.data())
def test_layers_lead_with_the_seed_without_repeats(corpus, seed_index, data):
    """Any candidate lists, seed value, repeats and UNK included, give well-formed layers."""
    vocab = vocabulary_from_dicts(corpus)
    row = corpus[seed_index % len(corpus)]
    seed = SeedObservation.from_rule(parse_rule(render(row, sid=7)), vocab)
    candidates = {
        attr: data.draw(st.lists(st.sampled_from(vocab.values[attr]), max_size=6))
        for attr in vocab.attributes
    }
    graph = build_candidate_graph(seed, candidates)
    assert tuple(graph.layers) == vocab.attributes
    for attr in vocab.attributes:
        layer = graph.layers[attr]
        assert layer[0] == row.get(attr, UNK)
        assert len(set(layer)) == len(layer)
        assert set(layer[1:]) <= set(candidates[attr])
        if attr in HEADER_FIELDS:
            assert UNK not in layer


@DETERMINISTIC
@given(
    corpus=CORPUS,
    seed_index=st.integers(0, 11),
    strategy=STRATEGY,
    allow_insertion=st.booleans(),
)
def test_enumerated_rules_differ_from_the_seed_and_each_other(
    corpus, seed_index, strategy, allow_insertion
):
    _, result = generate(corpus, seed_index, strategy, allow_insertion, limit=200)
    for generated in result:
        assert set(generated.changes.values()) != {"kept"}
    keys = [tuple(sorted(g.rule.attribute_values().items())) for g in result]
    assert len(set(keys)) == len(keys)
