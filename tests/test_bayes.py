"""Smoothed pairwise-conditional model against independent recomputation."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    MODEL_CONFIGS,
    SMALL_DICT_CORPORA,
    encode_dicts,
    random_dict_corpus,
    vocabulary_from_dicts,
)
from ruleforge import (
    UNK,
    CountTable,
    EmptyDataset,
    RuleforgeError,
    SmoothedModel,
    UnknownAttribute,
    bayes,
    build_vocabulary,
    conditional_probability,
    encode_corpus,
    fit,
    predict_above_threshold,
    predict_distribution,
    predict_mle,
    predict_topk,
)
from ruleforge.bayes import _strictly_increasing, posterior_log_scores, predict_mle_rows

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


def fit_dicts(corpus, alpha=1.0, **kwargs):
    vocab = vocabulary_from_dicts(corpus)
    return fit(encode_dicts(corpus, vocab), vocab, alpha, **kwargs), vocab


def observation_record(corpus_row, vocab):
    return encode_dicts([corpus_row], vocab)[0]


class TestConditionalProbability:
    def test_hand_checked_fractions(self, ten_rule_corpus):
        model, _ = fit_dicts(ten_rule_corpus)
        got = conditional_probability(model, ("port", "445"), ("svc", "smb"))
        assert got == pytest.approx(3 / 14, rel=1e-12)
        got = conditional_probability(model, ("port", "53"), ("svc", "smb"))
        assert got == pytest.approx(1 / 14, rel=1e-12)

    def test_every_pair_matches_recount(self, ten_rule_corpus):
        """Every attribute pair, an attribute with itself included."""
        model, vocab = fit_dicts(ten_rule_corpus)
        for target_attr in vocab.attributes:
            for evidence_attr in vocab.attributes:
                for target_value in vocab.values[target_attr]:
                    for evidence_value in vocab.values[evidence_attr]:
                        got = conditional_probability(
                            model,
                            (target_attr, target_value),
                            (evidence_attr, evidence_value),
                        )
                        want = oracles.conditional(
                            ten_rule_corpus,
                            (target_attr, target_value),
                            (evidence_attr, evidence_value),
                            alpha=1.0,
                        )
                        assert got == pytest.approx(want, rel=1e-12)

    def test_alternate_alpha_matches_recount(self, ten_rule_corpus):
        model, vocab = fit_dicts(ten_rule_corpus, alpha=0.25)
        for target_value in vocab.values["port"]:
            got = conditional_probability(model, ("port", target_value), ("svc", "smb"))
            want = oracles.conditional(
                ten_rule_corpus, ("port", target_value), ("svc", "smb"), alpha=0.25
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_conventional_smoothing_uses_vocabulary_size(self, ten_rule_corpus):
        model, _ = fit_dicts(ten_rule_corpus, smoothing="conventional")
        # port has 5 values (UNK, 139, 445, 53, 8080) so the mass is 5, not 10
        got = conditional_probability(model, ("port", "445"), ("svc", "smb"))
        assert got == pytest.approx((2 + 1) / (4 + 5), rel=1e-12)

    def test_small_alpha_approaches_count_ratio(self, ten_rule_corpus):
        model, _ = fit_dicts(ten_rule_corpus, alpha=1e-9)
        got = conditional_probability(model, ("port", "445"), ("svc", "smb"))
        assert got == pytest.approx(2 / 4, abs=1e-6)

    def test_probabilities_stay_in_unit_interval(self):
        for corpus in SMALL_DICT_CORPORA.values():
            model, vocab = fit_dicts(corpus)
            for target_attr in vocab.attributes:
                for evidence_attr in vocab.attributes:
                    if target_attr == evidence_attr:
                        continue
                    for tv in vocab.values[target_attr]:
                        for ev in vocab.values[evidence_attr]:
                            p = conditional_probability(
                                model, (target_attr, tv), (evidence_attr, ev)
                            )
                            assert 0.0 < p <= 1.0

    def test_unseen_value_treated_as_unk(self, ten_rule_corpus):
        model, _ = fit_dicts(ten_rule_corpus)
        novel = conditional_probability(model, ("port", "99999"), ("svc", "smb"))
        unk = conditional_probability(model, ("port", UNK), ("svc", "smb"))
        assert novel == unk

    def test_unknown_attribute_raises(self, ten_rule_corpus):
        model, _ = fit_dicts(ten_rule_corpus)
        with pytest.raises(UnknownAttribute):
            conditional_probability(model, ("nope", "x"), ("svc", "smb"))

    def test_counts_raise_the_vocabulary_error(self, ten_rule_corpus):
        model, vocab = fit_dicts(ten_rule_corpus)
        message = "^attribute 'nope' not in vocabulary$"
        with pytest.raises(UnknownAttribute, match=message):
            model.counts.column("nope")
        for attr in vocab.attributes:
            with pytest.raises(UnknownAttribute, match=message):
                model.counts.pair(attr, "nope")


class TestPredictDistribution:
    @pytest.mark.parametrize("name", sorted(SMALL_DICT_CORPORA))
    def test_matches_exhaustive_recomputation(self, name):
        corpus = SMALL_DICT_CORPORA[name]
        model, vocab = fit_dicts(corpus)
        for row in corpus:
            observation = observation_record(row, vocab)
            for target in vocab.attributes:
                got = predict_distribution(model, observation, target)
                want = oracles.posterior(corpus, row, target, alpha=1.0)
                for value in vocab.values[target]:
                    assert got.probability(value) == pytest.approx(
                        want[value], rel=1e-9
                    ), (name, target, value)
                assert predict_mle(got) == oracles.posterior_argmax(want)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"smoothing": "conventional"},
            {"skip_unk_evidence": True},
            {"with_prior": True},
            {"smoothing": "conventional", "skip_unk_evidence": True, "with_prior": True},
        ],
    )
    def test_variants_match_recomputation(self, ten_rule_corpus, kwargs):
        model, vocab = fit_dicts(ten_rule_corpus, alpha=0.5, **kwargs)
        for row in ten_rule_corpus:
            observation = observation_record(row, vocab)
            for target in vocab.attributes:
                got = predict_distribution(model, observation, target)
                want = oracles.posterior(ten_rule_corpus, row, target, alpha=0.5, **kwargs)
                for value in vocab.values[target]:
                    assert got.probability(value) == pytest.approx(want[value], rel=1e-9)

    def test_factorial_corpus_is_symmetric(self):
        corpus = SMALL_DICT_CORPORA["factorial"]
        model, vocab = fit_dicts(corpus)
        observation = observation_record(corpus[0], vocab)
        dist = predict_distribution(model, observation, "beta")
        # the grid is balanced, so both observed values tie and UNK trails
        # per-evidence factors: P(b1|a1)=3/20, P(b1|c1)=5/24 versus 1/20 and
        # 1/24 for UNK, so the score ratio is 15 and b1 normalizes to 15/31
        assert dist.probability("b1") == pytest.approx(dist.probability("b2"), rel=1e-12)
        assert dist.probability("b1") / dist.probability(UNK) == pytest.approx(15.0, rel=1e-9)
        assert dist.probability("b1") == pytest.approx(15 / 31, rel=1e-12)

    def test_normalization_sums_to_one(self):
        for corpus in SMALL_DICT_CORPORA.values():
            model, vocab = fit_dicts(corpus)
            observation = observation_record(corpus[0], vocab)
            for target in vocab.attributes:
                dist = predict_distribution(model, observation, target)
                assert dist.normalized.sum() == pytest.approx(1.0, abs=1e-9)

    def test_log_space_survives_many_attributes(self):
        # 60 rules x 120 attributes: linear-space products underflow to zero,
        # log-space scoring must stay finite and normalized.
        rng = np.random.default_rng(3)
        corpus = [
            {f"k{j:03d}": f"v{rng.integers(2)}" for j in range(120)} for _ in range(60)
        ]
        model, vocab = fit_dicts(corpus)
        observation = observation_record(corpus[0], vocab)
        dist = predict_distribution(model, observation, "k000")
        assert np.isfinite(dist.log_scores).all()
        assert np.isfinite(dist.normalized).all()
        assert dist.normalized.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.normalized.max() > 0

    def test_fit_is_order_invariant(self, ten_rule_corpus):
        vocab = vocabulary_from_dicts(ten_rule_corpus)
        forward = encode_dicts(ten_rule_corpus, vocab)
        backward = forward[::-1]
        assert fit(forward, vocab).to_json() == fit(backward, vocab).to_json()

    def test_count_invariants(self, ten_rule_corpus):
        model, vocab = fit_dicts(ten_rule_corpus)
        n = model.counts.num_samples
        assert n == len(ten_rule_corpus)
        attrs = vocab.attributes
        for attr in attrs:
            assert model.counts.marginal(attr).sum() == n
            diagonal = np.diag(model.counts.marginal(attr))
            assert np.array_equal(model.counts.pair(attr, attr), diagonal)
        for i, a in enumerate(attrs):
            for b in attrs[i + 1 :]:
                pair = model.counts.pair(a, b)
                assert pair.sum() == n
                assert np.array_equal(pair.sum(axis=1), model.counts.marginal(a))
                assert np.array_equal(pair.sum(axis=0), model.counts.marginal(b))
                assert np.array_equal(model.counts.pair(b, a), pair.T)


# "$HOME_NET" and "80" sort before "UNK", "any" and "smb" after it
VALUE_POOL = ["$HOME_NET", "80", "445", "any", "smb", "x", "UNKNOWN"]


def random_corpus(rng):
    attrs = [f"k{j}" for j in range(int(rng.integers(2, 6)))]
    pools = {
        a: list(rng.choice(VALUE_POOL, size=int(rng.integers(1, 5)), replace=False))
        for a in attrs
    }
    corpus = []
    for _ in range(int(rng.integers(1, 25))):
        row = {a: str(rng.choice(pools[a])) for a in attrs if rng.random() < 0.7}
        corpus.append(row or {attrs[0]: pools[attrs[0]][0]})
    return corpus


def random_codes(rng, vocab, rows):
    return np.stack(
        [rng.integers(0, vocab.size(a), size=rows) for a in vocab.attributes], axis=1
    )


class TestBatchedPosterior:
    @pytest.mark.parametrize("alpha, kwargs", MODEL_CONFIGS)
    def test_rows_match_the_per_record_loop(self, alpha, kwargs):
        rng = np.random.default_rng(20)
        for _ in range(25):
            corpus = random_corpus(rng)
            model, vocab = fit_dicts(corpus, alpha=alpha, **kwargs)
            codes = np.concatenate([encode_dicts(corpus, vocab), random_codes(rng, vocab, 12)])
            for target in vocab.attributes:
                batched = posterior_log_scores(model, codes, target)
                assert batched.shape == (len(codes), vocab.size(target))
                for record, row in zip(codes, batched):
                    want_scores, want_normalized = oracles.posterior_loop(
                        model, dict(zip(vocab.attributes, record.tolist())), target
                    )
                    assert row.tobytes() == want_scores.tobytes()
                    got = predict_distribution(model, record, target)
                    assert got.log_scores.tobytes() == want_scores.tobytes()
                    assert got.normalized.tobytes() == want_normalized.tobytes()
                picks = predict_mle_rows(model, codes, target)
                assert picks.shape == (len(codes),)
                assert [vocab.values[target][c] for c in picks] == [
                    predict_mle(predict_distribution(model, r, target)) for r in codes
                ]

    @pytest.mark.parametrize("alpha, kwargs", MODEL_CONFIGS)
    def test_blocks_on_both_sides_of_the_size_choice(self, alpha, kwargs):
        """One row, fewer rows than any evidence vocabulary, more than every one.

        Whatever the block's size, cooccurrences counts one table row per
        distinct evidence code of the block.
        """
        rng = np.random.default_rng(21)
        corpus = [
            {f"k{j}": f"v{rng.integers(4 + 3 * j)}" for j in range(4) if rng.random() < 0.9}
            for _ in range(80)
        ]
        model, vocab = fit_dicts(corpus, alpha=alpha, **kwargs)
        sizes = [vocab.size(a) for a in vocab.attributes]
        assert min(sizes) >= 4
        for m in (1, min(sizes) - 1, max(sizes) + 1):
            block = random_codes(rng, vocab, m)
            block[m // 2] = block[-1]  # two rows share every code when m > 1
            for target in vocab.attributes:
                for evidence, column in zip(vocab.attributes, block.T):
                    table, slots = model.counts.cooccurrences(evidence, target, column)
                    assert table.shape == (len(set(column.tolist())), vocab.size(target))
                    assert np.array_equal(table[slots], model.counts.pair(evidence, target)[column])
                scores = posterior_log_scores(model, block, target)
                for record, row in zip(block, scores):
                    want, _ = oracles.posterior_loop(
                        model, dict(zip(vocab.attributes, record.tolist())), target
                    )
                    assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "value, winner", [("$HOME_NET", "$HOME_NET"), ("80", "80"), ("smb", UNK)]
    )
    def test_tie_with_unk_goes_to_the_smaller_string(self, value, winner):
        # "a" is UNK in one rule and `value` in the other, both with b = v
        corpus = [{"a": value, "b": "v"}, {"b": "v"}, {"a": "zz", "b": "w"}]
        model, vocab = fit_dicts(corpus)
        observation = observation_record({"b": "v"}, vocab)
        codes = observation.reshape(1, -1)
        distribution = predict_distribution(model, observation, "a")
        assert distribution.probability(value) == distribution.probability(UNK)
        assert predict_mle(distribution) == winner
        assert [vocab.values["a"][c] for c in predict_mle_rows(model, codes, "a")] == [winner]

    def test_one_row_blocks_give_the_same_predictions(self, monkeypatch):
        rng = np.random.default_rng(7)
        corpus = [{"a": "$HOME_NET", "b": "v"}, {"b": "v"}, {"a": "zz", "b": "w"}]
        corpus += random_corpus(rng)
        model, vocab = fit_dicts(corpus)
        codes = np.concatenate([encode_dicts(corpus, vocab), random_codes(rng, vocab, 30)])
        whole = {target: predict_mle_rows(model, codes, target) for target in vocab.attributes}
        monkeypatch.setattr(bayes, "_BLOCK_CELLS", 1)
        for target in vocab.attributes:
            assert np.array_equal(predict_mle_rows(model, codes, target), whole[target])

    def test_unknown_target_raises(self, ten_rule_corpus):
        model, vocab = fit_dicts(ten_rule_corpus)
        codes = encode_dicts(ten_rule_corpus, vocab)
        with pytest.raises(UnknownAttribute):
            posterior_log_scores(model, codes, "nope")
        with pytest.raises(UnknownAttribute):
            predict_mle_rows(model, codes, "nope")


class TestSelectors:
    @pytest.fixture
    def distribution(self):
        corpus = SMALL_DICT_CORPORA["factorial"]
        model, vocab = fit_dicts(corpus)
        observation = observation_record(corpus[0], vocab)
        return predict_distribution(model, observation, "beta")

    def test_ranked_breaks_ties_lexicographically(self, distribution):
        assert [value for value, _ in distribution.ranked()] == ["b1", "b2", UNK]

    def test_mle_takes_first_ranked(self, distribution):
        assert predict_mle(distribution) == "b1"

    def test_topk(self, distribution):
        assert predict_topk(distribution, 1) == ["b1"]
        assert predict_topk(distribution, 2) == ["b1", "b2"]
        assert predict_topk(distribution, 99) == ["b1", "b2", UNK]
        with pytest.raises(ValueError):
            predict_topk(distribution, 0)

    def test_threshold_is_strictly_greater(self, distribution):
        unk_probability = distribution.probability(UNK)
        assert UNK not in predict_above_threshold(distribution, unk_probability)
        assert UNK in predict_above_threshold(distribution, unk_probability - 1e-12)
        assert predict_above_threshold(distribution, 1.0) == []
        assert predict_above_threshold(distribution, 0.0) == ["b1", "b2", UNK]


class TestFitValidation:
    def test_empty_dataset(self, ten_rule_corpus):
        vocab = vocabulary_from_dicts(ten_rule_corpus)
        with pytest.raises(EmptyDataset):
            fit([], vocab)

    def test_alpha_must_be_positive(self, ten_rule_corpus):
        vocab = vocabulary_from_dicts(ten_rule_corpus)
        encoded = encode_dicts(ten_rule_corpus, vocab)
        for alpha in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                fit(encoded, vocab, alpha)

    def test_smoothing_mode_checked(self, ten_rule_corpus):
        vocab = vocabulary_from_dicts(ten_rule_corpus)
        encoded = encode_dicts(ten_rule_corpus, vocab)
        with pytest.raises(ValueError):
            fit(encoded, vocab, smoothing="laplace")

    @pytest.mark.parametrize(
        "defect", ["code_negative", "code_too_large", "codes_float", "column_missing", "column_extra"]
    )
    def test_codes_outside_the_vocabulary(self, ten_rule_corpus, defect):
        """fit checks its codes as load checks a model file's rows."""
        vocab = vocabulary_from_dicts(ten_rule_corpus)
        codes = encode_dicts(ten_rule_corpus, vocab)
        if defect == "code_negative":  # encode_codes' code for a value the vocabulary lacks
            codes[0, 0] = -1
        elif defect == "code_too_large":
            codes[0, 0] = vocab.size(vocab.attributes[0])
        elif defect == "codes_float":
            codes = codes.astype(np.float64)
        elif defect == "column_missing":
            codes = codes[:, 1:]
        else:
            codes = np.column_stack((codes, codes[:, 0]))
        with pytest.raises(ValueError):
            fit(codes, vocab)

    @pytest.mark.parametrize(
        "multiplicities",
        [[1, 0], [1], [1, 1, 1], [1.0, 1.0], [2**52, 2**52], [2**62, 2**62]],
        ids=["zero", "too_few", "too_many", "float", "sum_2_53", "sum_wraps_int64"],
    )
    def test_count_table_checks_its_multiplicities(self, ten_rule_corpus, multiplicities):
        vocab = vocabulary_from_dicts(ten_rule_corpus)
        rows = encode_dicts(ten_rule_corpus[:2], vocab)
        with pytest.raises(ValueError):
            CountTable(rows, np.array(multiplicities), vocab)


def test_predict_distribution_rejects_invalid_codes(ten_rule_corpus):
    """A -1 code is not read as the last value, nor one past the end as an IndexError."""
    model, vocab = fit_dicts(ten_rule_corpus)
    row = observation_record(ten_rule_corpus[0], vocab)
    target, evidence = vocab.attributes[0], vocab.column(vocab.attributes[1])
    for code in (-1, vocab.size(vocab.attributes[1])):
        bad = row.copy()
        bad[evidence] = code
        with pytest.raises(ValueError, match="outside its attribute's values"):
            predict_distribution(model, bad, target)
    with pytest.raises(ValueError, match="integer matrix"):
        predict_distribution(model, row[1:], target)


class TestPersistence:
    def test_save_load_round_trip(self, ten_rule_corpus, tmp_path):
        model, vocab = fit_dicts(ten_rule_corpus, alpha=0.5, smoothing="conventional")
        path = tmp_path / "model.json"
        model.save(str(path))
        loaded = SmoothedModel.load(str(path))
        assert loaded.alpha == model.alpha
        assert loaded.smoothing == model.smoothing
        assert loaded.counts.num_samples == model.counts.num_samples
        assert loaded.vocab.values == vocab.values
        observation = observation_record(ten_rule_corpus[0], vocab)
        for target in vocab.attributes:
            before = predict_distribution(model, observation, target)
            after = predict_distribution(loaded, observation, target)
            assert np.allclose(before.normalized, after.normalized)
        assert loaded.to_json() == model.to_json()

    @pytest.mark.parametrize("kwargs", [{"alpha": 1}, {"skip_unk_evidence": 1}])
    def test_settings_save_as_load_reads_them(self, ten_rule_corpus, kwargs, tmp_path):
        """An int alpha saves as a float, a truthy flag as a JSON boolean."""
        model, _ = fit_dicts(ten_rule_corpus, **kwargs)
        path = tmp_path / "model.json"
        model.save(str(path))
        first = path.read_bytes()
        SmoothedModel.load(str(path)).save(str(path))
        assert path.read_bytes() == first

    def test_load_rejects_tampered_vocabulary(self, ten_rule_corpus, tmp_path):
        model, _ = fit_dicts(ten_rule_corpus)
        path = tmp_path / "model.json"
        model.save(str(path))
        text = path.read_text().replace('"smb"', '"smc"', 1)
        path.write_text(text)
        with pytest.raises(RuleforgeError):
            SmoothedModel.load(str(path))

    def test_non_canonical_rows_load_as_their_canonical_form(self, ten_rule_corpus, tmp_path):
        """Repeated and out-of-order rows load as the canonical file does."""
        model, vocab = fit_dicts(ten_rule_corpus)
        canonical = model.to_json()
        payload = json.loads(canonical)
        rows, multiplicities = payload["rows"], payload["multiplicities"]
        split = multiplicities.index(max(multiplicities))
        assert multiplicities[split] >= 2  # one row written as two
        rows.append(rows[split])
        multiplicities.append(multiplicities[split] - 1)
        multiplicities[split] = 1
        rows.reverse()
        multiplicities.reverse()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        loaded = SmoothedModel.load(str(path))
        assert loaded.to_json() == canonical
        for pair, cells in model.counts.pair_counts.items():
            assert np.array_equal(loaded.counts.pair_counts[pair], cells)
        codes = encode_dicts(ten_rule_corpus, vocab)
        for target in vocab.attributes:
            assert (
                posterior_log_scores(loaded, codes, target).tobytes()
                == posterior_log_scores(model, codes, target).tobytes()
            )

    def test_failed_save_leaves_the_old_file(self, ten_rule_corpus, tmp_path, monkeypatch):
        """save builds the text before it opens, and so truncates, the file."""
        model, _ = fit_dicts(ten_rule_corpus)
        path = tmp_path / "model.json"
        model.save(str(path))
        before = path.read_bytes()

        def fail(self):
            raise RuntimeError("to_json failed")

        monkeypatch.setattr(SmoothedModel, "to_json", fail)
        with pytest.raises(RuntimeError):
            model.save(str(path))
        assert path.read_bytes() == before

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(RuleforgeError):
            SmoothedModel.load(str(path))


class TestModelFileBytes:
    """to_json writes compact JSON with sorted keys, and load reads the same bytes back."""

    @staticmethod
    def assert_same_bytes(model, tmp_path):
        text = model.to_json()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True) + "\n"
        assert payload["rows"] == model.counts.rows.tolist()
        assert payload["multiplicities"] == model.counts.multiplicities.tolist()
        assert sum(payload["multiplicities"]) == payload["num_samples"]
        path = tmp_path / "model.json"
        model.save(str(path))
        assert path.read_bytes() == text.encode("utf-8")
        assert SmoothedModel.load(str(path)).to_json() == text

    def test_sample_netbios_model(self, sample_rules, tmp_path):
        vocab = build_vocabulary(sample_rules)
        model = fit(encode_corpus(sample_rules, vocab), vocab)
        assert len(vocab.attributes) > 2
        self.assert_same_bytes(model, tmp_path)

    @pytest.mark.parametrize("corpus", [[{}, {}], [{"only": "a"}, {"only": "b"}, {}]])
    def test_no_pair_tables(self, corpus, tmp_path):
        vocab = vocabulary_from_dicts(corpus)
        model = fit(encode_dicts(corpus, vocab), vocab)
        assert len(vocab.attributes) == len(corpus[0])
        assert model.counts.pair_counts == {}
        distinct = {tuple(sorted(row.items())) for row in corpus}
        assert model.counts.rows.shape == (len(distinct), len(vocab.attributes))
        self.assert_same_bytes(model, tmp_path)

    def test_escaped_strings(self, tmp_path):
        awkward = ['say "hi"', "back\\slash", "nul\x00tab\tnl\nbell\x07", "\x1f", "café", "𝄞"]
        corpus = [
            {"k\x1f\"é": awkward[i % 6], "plain": awkward[(i * 5) % 6], "z𝄞": str(i % 2)}
            for i in range(9)
        ]
        vocab = vocabulary_from_dicts(corpus)
        model = fit(encode_dicts(corpus, vocab), vocab)
        self.assert_same_bytes(model, tmp_path)

    @pytest.mark.parametrize("alpha", [0.1, 1e-300, 3.0])
    @pytest.mark.parametrize("smoothing", bayes.SMOOTHING_MODES)
    @pytest.mark.parametrize("skip_unk_evidence", [False, True])
    @pytest.mark.parametrize("with_prior", [False, True])
    def test_configurations(self, alpha, smoothing, skip_unk_evidence, with_prior, tmp_path):
        model, _ = fit_dicts(
            SMALL_DICT_CORPORA["random_20x6"],
            alpha,
            smoothing=smoothing,
            skip_unk_evidence=skip_unk_evidence,
            with_prior=with_prior,
        )
        self.assert_same_bytes(model, tmp_path)


@settings(DETERMINISTIC, max_examples=60)
@given(
    shape=st.tuples(st.integers(0, 10**6), st.integers(1, 30), st.integers(0, 4), st.integers(1, 3)),
    data=st.data(),
)
def test_shuffled_and_repeated_rows_load_as_the_canonical_file(shape, data, tmp_path_factory):
    """Each row written as several, all in any order: the same CountTable and bytes."""
    model, _ = fit_dicts(random_dict_corpus(*shape))
    canonical = model.to_json()
    payload = json.loads(canonical)
    entries = []
    for row, m in zip(payload["rows"], payload["multiplicities"]):
        parts = data.draw(st.integers(1, m))
        entries += [(row, m // parts + (i < m % parts)) for i in range(parts)]
    entries = data.draw(st.permutations(entries))
    payload["rows"] = [row for row, _ in entries]
    payload["multiplicities"] = [m for _, m in entries]
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    loaded, want = SmoothedModel.load(str(path)).counts, model.counts
    assert loaded.rows.shape == want.rows.shape
    assert loaded.rows.dtype == want.rows.dtype and loaded.rows.flags.f_contiguous
    assert np.array_equal(loaded.rows, want.rows)
    assert loaded.multiplicities.dtype == want.multiplicities.dtype
    assert np.array_equal(loaded.multiplicities, want.multiplicities)
    assert (loaded.num_samples, loaded.vocab) == (want.num_samples, want.vocab)
    assert SmoothedModel.load(str(path)).to_json() == canonical


def test_fit_copies_rows_that_are_already_canonical(ten_rule_corpus):
    model, vocab = fit_dicts(ten_rule_corpus)
    rows = model.counts.rows  # sorted, distinct and column-major
    refit = fit(rows, vocab)
    assert np.array_equal(refit.counts.rows, rows)
    assert not np.shares_memory(refit.counts.rows, rows)


def test_a_checked_model_cannot_be_changed(sample_corpus_path):
    """Each mutation that let to_json write a file load rejects now raises."""
    model = SmoothedModel.load(str(sample_corpus_path.with_suffix(".model.json")))
    text = model.to_json()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.alpha = -1.0
    with pytest.raises(ValueError, match="read-only"):
        model.counts.rows[0, 0] = 10**6
    with pytest.raises(ValueError, match="read-only"):
        model.counts.multiplicities[0] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.counts = CountTable(model.counts.rows, model.counts.multiplicities, model.vocab)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.counts.num_samples = 1
    assert model.to_json() == text


def test_count_table_copies_the_callers_arrays(ten_rule_corpus):
    """The caller's arrays stay writable, and writing them changes no table."""
    model, vocab = fit_dicts(ten_rule_corpus)
    rows, weights = model.counts.rows.copy(), model.counts.multiplicities.copy()
    table = CountTable(rows, weights, vocab)
    assert rows.flags.writeable and weights.flags.writeable
    weights[0] += 1
    rows[0, 0] = 0
    assert np.array_equal(table.multiplicities, model.counts.multiplicities)
    assert np.array_equal(table.rows, model.counts.rows)
    assert table.num_samples == model.counts.num_samples


@DETERMINISTIC
@given(
    rows=st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(st.integers(0, 2), min_size=width, max_size=width))
    )
)
def test_strictly_increasing_is_tuple_order(rows):
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)
    expected = all(tuple(a) < tuple(b) for a, b in zip(rows, rows[1:]))
    assert _strictly_increasing(matrix) == expected


def test_fit_keeps_no_dense_pair_tables():
    """A wide vocabulary: fit's peak stays well below the dense tables' total size."""
    corpus = random_dict_corpus(5, n_rules=1000, n_attrs=8, n_values=250)
    vocab = vocabulary_from_dicts(corpus)
    codes = encode_dicts(corpus, vocab)
    assert vocab.one_hot_width() > 1500
    dense_bytes = sum(
        8 * vocab.size(a) * vocab.size(b) for a, b in itertools.combinations(vocab.attributes, 2)
    )
    tracemalloc.start()
    try:
        model = fit(codes, vocab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4
    for (a, b), table in oracles.dense_pair_counts(codes, vocab).items():
        assert np.array_equal(model.counts.pair(a, b), table)


@DETERMINISTIC
@given(
    others=st.sets(st.sampled_from(["$HOME_NET", "80", "UNKNOWN", "any", "smb", "x"])),
    data=st.data(),
)
def test_ranked_is_the_one_key_sort(others, data):
    """ranked() against oracles.ranked_order, over distributions full of exact ties."""
    values = (UNK, *sorted(others))
    # few distinct log scores, so many probabilities are exactly equal
    scores = st.lists(st.integers(-3, 0), min_size=len(values), max_size=len(values))
    log_scores = np.array(data.draw(scores), dtype=np.float64)
    normalized = bayes._normalize(log_scores)
    distribution = bayes.PosteriorDistribution("a", values, log_scores, normalized)
    expected = oracles.ranked_order(values, normalized.tolist())
    assert distribution.ranked() == [(values[i], float(normalized[i])) for i in expected]
