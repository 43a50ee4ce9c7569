"""Acceptance gate: one test per shipped guarantee.

Each test prints a single verdict line; the conftest terminal-summary hook
replays them after the run so they are visible without -s. Expected values
are frozen from independent recomputation (exact rational arithmetic for the
probability fractions, brute-force reference implementations for edit
distance and clustering).
"""

import contextlib
import functools
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import (
    ACCEPTANCE_LINES,
    PUBLISHED_RULE_TEXTS,
    SMALL_DICT_CORPORA,
    TABLE2_TEXTS,
    TEN_RULE_CORPUS,
    encode_dicts,
    vocabulary_from_dicts,
)
from ruleforge import (
    CLASSIFIER_BAYES,
    CLASSIFIER_MAX_FREQUENCY,
    CLASSIFIER_RANDOM,
    UNK,
    DistanceMatrix,
    DistanceParams,
    ExclusionList,
    SeedObservation,
    SplitSpec,
    Strategy,
    abduce_antecedents,
    agglomerate,
    build_candidate_graph,
    build_vocabulary,
    conditional_probability,
    encode_corpus,
    enumerate_rules,
    fit,
    levenshtein,
    loco_evaluate,
    materialize_snort_rules,
    parse_rule,
    parse_ruleset,
    predict_distribution,
    predict_mle,
    rule_distance,
    serialize_rule,
    threshold_sweep,
    value_frequencies,
)
from ruleforge.cli import run

SAMPLE_CORPUS = Path(__file__).parent / "data" / "sample_netbios.rules"


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                line = f"[criterion {number:02d}] {name}: SKIP ({exc})"
                ACCEPTANCE_LINES.append(line)
                print(line)
                raise
            except BaseException:
                line = f"[criterion {number:02d}] {name}: FAIL"
                ACCEPTANCE_LINES.append(line)
                print(line)
                raise
            line = f"[criterion {number:02d}] {name}: PASS"
            ACCEPTANCE_LINES.append(line)
            print(line)

        return wrapper

    return decorate


@contextlib.contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def sample_rules():
    rules, errors = parse_ruleset(SAMPLE_CORPUS.read_text(encoding="utf-8"))
    assert not errors
    return rules


def table2_model():
    rules = [parse_rule(text) for text in TABLE2_TEXTS]
    vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
    model = fit(encode_corpus(rules, vocab), vocab)
    return rules, vocab, model


@criterion(1, "lossless rule parsing and serialization")
def test_criterion_01():
    with budget(1.0):
        expected_identity = {
            7209: (13, "NETBIOS DCERPC NCACN-IP-TCP srvsvc NetrPathCanonicalize overflow attempt", 0),
            14782: (12, "NETBIOS DCERPC NCACN-IP-TCP srvsvc NetrpPathCanonicalize path canonicalization stack overflow attempt ", 0),
            13162: (9, "NETBIOS DCERPC NCACN-IP-TCP spoolss EnumPrinters overflow attempt", 4),
            250001: (1, "NETBIOS Generated rule alert from ID-250001", 0),
        }
        for sid, text in PUBLISHED_RULE_TEXTS.items():
            rule = parse_rule(text)
            rev, msg, n_references = expected_identity[sid]
            assert rule.sid == sid
            assert rule.rev == rev
            assert rule.msg == msg
            assert len(rule.references) == n_references
            assert rule.header.action == "alert"
            assert rule.header.protocol == "tcp"
            assert rule.header.src_addr == "$EXTERNAL_NET"
            assert rule.header.direction == "->"
            # the full parse -> serialize -> parse cycle loses nothing
            cycled = parse_rule(serialize_rule(rule))
            assert cycled == rule
            assert serialize_rule(cycled) == serialize_rule(rule)
        # spot checks on structure the cycle must preserve
        wide = parse_rule(PUBLISHED_RULE_TEXTS[14782])
        assert [opt.key for opt in wide.options].count("pcre") == 2
        assert wide.header.dst_port == "[135,139,445,593,1024:]"
        flagged = parse_rule(PUBLISHED_RULE_TEXTS[13162])
        assert ("dce_stub_data", "") in [(o.key, o.value) for o in flagged.options]


@criterion(2, "pairwise conditional probabilities match direct recounting")
def test_criterion_02():
    with budget(1.0):
        vocab = vocabulary_from_dicts(TEN_RULE_CORPUS)
        model = fit(encode_dicts(TEN_RULE_CORPUS, vocab), vocab, 1.0)
        assert conditional_probability(
            model, ("port", "445"), ("svc", "smb")
        ) == pytest.approx(3 / 14, rel=1e-12)
        assert conditional_probability(
            model, ("port", "53"), ("svc", "smb")
        ) == pytest.approx(1 / 14, rel=1e-12)
        for target_attr in vocab.attributes:
            for evidence_attr in vocab.attributes:
                if target_attr == evidence_attr:
                    continue
                for tv in vocab.values[target_attr]:
                    for ev in vocab.values[evidence_attr]:
                        got = conditional_probability(
                            model, (target_attr, tv), (evidence_attr, ev)
                        )
                        want = oracles.conditional(
                            TEN_RULE_CORPUS,
                            (target_attr, tv),
                            (evidence_attr, ev),
                            alpha=1.0,
                        )
                        assert got == pytest.approx(want, rel=1e-12)


@criterion(3, "posterior distributions match exhaustive recomputation")
def test_criterion_03():
    with budget(5.0):
        for name, corpus in sorted(SMALL_DICT_CORPORA.items()):
            vocab = vocabulary_from_dicts(corpus)
            model = fit(encode_dicts(corpus, vocab), vocab, 1.0)
            for row in corpus:
                observation = encode_dicts([row], vocab)[0]
                for target in vocab.attributes:
                    got = predict_distribution(model, observation, target)
                    want = oracles.posterior(corpus, row, target, alpha=1.0)
                    for value in vocab.values[target]:
                        assert got.probability(value) == pytest.approx(
                            want[value], rel=1e-9
                        ), (name, target, value)
                    assert predict_mle(got) == oracles.posterior_argmax(want)


@criterion(4, "seed expansion enumerates the expected rule family")
def test_criterion_04():
    with budget(1.0):
        rules, vocab, model = table2_model()
        seed = SeedObservation.from_rule(rules[0], vocab)
        candidates = abduce_antecedents(model, seed, Strategy.threshold(0.01))
        graph = build_candidate_graph(seed, candidates, vocab)
        assert graph.total_combinations() == 8
        result = enumerate_rules(graph, seed)
        assert len(result) == 7
        assert not result.truncated
        seed_values = rules[0].attribute_values()
        wide = "[135,139,445,593,1024:]"
        assert sum(1 for g in result if g.rule.header.dst_port == wide) == 4
        port_only = [
            g
            for g in result
            if g.changes["target_port"] == "replaced"
            and all(
                state == "kept"
                for attr, state in g.changes.items()
                if attr != "target_port"
            )
        ]
        assert len(port_only) == 1
        text = materialize_snort_rules(list(result), "NETBIOS")
        reparsed, errors = parse_ruleset(text)
        assert not errors
        assert len(reparsed) == 7
        for offset, rule in enumerate(reparsed):
            assert rule.sid == 250001 + offset
            assert rule.rev == 1
            assert rule.msg == f"NETBIOS Generated rule alert from ID-{rule.sid}"
            assert rule.attribute_values() != seed_values


def _fuzz_pools():
    return {
        "addr": ("any", "$EXTERNAL_NET", "$HOME_NET", "10.0.0.0/8"),
        "port": ("any", "139", "445", "[135,139,445]", "1024:"),
        "flow": ("established,to_server", "to_client,established", "stateless"),
        "content": ('"|00 01|"', '"abc"', '"|DE AD BE EF|"', '"GET /"'),
        "dsize": (">100", "<56", ">512"),
        "dce_opnum": ("0", "1", "31,32"),
        "byte_test": ("4,>,256,0", "4,>,512,8,relative", "2,=,16,0"),
    }


def _fuzz_rule(rng, pools, sid):
    pick = lambda key: pools[key][int(rng.integers(len(pools[key])))]
    options = []
    if rng.random() < 0.85:
        options.append(f"flow:{pick('flow')}")
    if rng.random() < 0.7:
        options.append(f"content:{pick('content')}")
    if rng.random() < 0.45:
        options.append(f"dsize:{pick('dsize')}")
    if rng.random() < 0.45:
        options.append(f"dce_opnum:{pick('dce_opnum')}")
    if rng.random() < 0.3:
        options.append(f"byte_test:{pick('byte_test')}")
    if rng.random() < 0.2:
        options.append("nocase")
    if rng.random() < 0.2:
        options.append("dce_stub_data")
    direction = "->" if rng.random() < 0.9 else "<>"
    protocol = "tcp" if rng.random() < 0.7 else "udp"
    parts = [f'msg:"fuzz {sid}"'] + options + [f"sid:{sid}", "rev:1"]
    text = (
        f"alert {protocol} {pick('addr')} {pick('port')} {direction} "
        f"{pick('addr')} {pick('port')} ({'; '.join(parts)};)"
    )
    return parse_rule(text)


@criterion(5, "every generated rule is valid and differs from its seed")
def test_criterion_05():
    with budget(60.0):
        rng = np.random.default_rng(20260816)
        pools = _fuzz_pools()
        total = 0
        for index in range(80):
            rules = [_fuzz_rule(rng, pools, 1000 + i) for i in range(15)]
            vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
            model = fit(encode_corpus(rules, vocab), vocab)
            seed_rule = rules[int(rng.integers(len(rules)))]
            seed = SeedObservation.from_rule(seed_rule, vocab)
            strategy = Strategy.topk(2) if index % 2 else Strategy.threshold(0.02)
            candidates = abduce_antecedents(
                model, seed, strategy, allow_insertion=index % 3 == 0
            )
            graph = build_candidate_graph(seed, candidates, vocab)
            result = enumerate_rules(graph, seed, limit=100)
            text = materialize_snort_rules(list(result), "FUZZ")
            reparsed, errors = parse_ruleset(text)
            assert not errors, errors
            assert len(reparsed) == len(result)
            seed_values = seed_rule.attribute_values()
            for rule in reparsed:
                assert rule.attribute_values() != seed_values
                assert parse_rule(serialize_rule(rule)) == rule
            total += len(reparsed)
        assert total >= 1000, f"only {total} rules generated by the fuzz sweep"


@criterion(6, "generated-rule counts shrink as the threshold rises")
def test_criterion_06():
    with budget(30.0):
        rules = sample_rules()
        vocab = build_vocabulary(rules, ExclusionList(drop_constant=False))
        model = fit(encode_corpus(rules, vocab), vocab)
        grid = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3]
        for rule in rules:
            seed = SeedObservation.from_rule(rule, vocab)
            result = threshold_sweep(model, seed, grid, limit=5000)
            counts = [count for _, count in result.points]
            assert [t for t, _ in result.points] == grid
            assert counts == sorted(counts, reverse=True), (rule.sid, counts)


@criterion(7, "published ruleset statistics reproduce")
def test_criterion_07():
    root = os.environ.get("SNORT_RULES_DIR")
    if not root:
        pytest.skip("SNORT_RULES_DIR not set")
    with budget(10.0):
        expected_counts = {
            "special-attacks": 902,
            "web-misc": 643,
            "web-cgi": 379,
            "web-php": 201,
            "netbios": 540,
        }
        fallbacks = {"special-attacks": ("specific-threats",)}
        corpora = {}
        for category, count in expected_counts.items():
            names = (category,) + fallbacks.get(category, ())
            path = next(
                (
                    Path(root) / f"{name}.rules"
                    for name in names
                    if (Path(root) / f"{name}.rules").is_file()
                ),
                None,
            )
            if path is None:
                pytest.skip(f"no rules file for {category} under {root}")
            rules, _ = parse_ruleset(path.read_text(encoding="utf-8", errors="replace"))
            corpora[category] = rules
            assert len(rules) == count, (category, len(rules))
        netbios = corpora["netbios"]
        assert dict(value_frequencies(netbios, "detection_filter")) == {
            UNK: 538,
            "track by_dst,count 10,seconds 60": 2,
        }
        assert dict(value_frequencies(netbios, "dsize")) == {
            UNK: 538,
            "<56": 1,
            ">100": 1,
        }
        assert dict(value_frequencies(netbios, "flow")) == {
            "established,to_server": 271,
            UNK: 119,
            "to_server, established": 80,
            "established,to_client": 26,
            "stateless": 24,
            "to_client,established": 11,
            "established, to_server": 4,
            "to_server": 4,
            "established,to_server,no_stream": 1,
        }


def _correlated_corpus():
    flow_by_port = {"139": "established,to_server", "445": "to_client,established", "53": "stateless"}
    content_by_port = {"139": '"|00 01|"', "445": '"|00 02|"', "53": '"|00 03|"'}
    rules = []
    for i in range(60):
        port = ("139", "445", "53")[i % 3]
        rules.append(
            parse_rule(
                f"alert tcp $EXTERNAL_NET any -> $HOME_NET {port} "
                f'(msg:"X{i}"; flow:{flow_by_port[port]}; '
                f"content:{content_by_port[port]}; sid:{5000 + i}; rev:1;)"
            )
        )
    return rules


def _skewed_corpus():
    rules = []
    for i in range(60):
        dsize = {0: "dsize:>100; ", 1: "dsize:<56; "}.get(i, "")
        rules.append(
            parse_rule(
                f"alert tcp any any -> any 445 "
                f'(msg:"Y{i}"; flow:established,to_server; {dsize}sid:{6000 + i}; rev:1;)'
            )
        )
    return rules


@criterion(8, "model accuracy relates to the baselines as expected")
def test_criterion_08():
    with budget(60.0):
        spec = SplitSpec(folds=5, rng_seed=0)

        correlated = loco_evaluate(_correlated_corpus(), spec)
        for attribute in ("flow", "content"):
            bayes = correlated.mean(attribute, CLASSIFIER_BAYES)
            max_freq = correlated.mean(attribute, CLASSIFIER_MAX_FREQUENCY)
            # balanced marginals but deterministic pairings: evidence wins
            assert bayes >= max_freq + 0.3, (attribute, bayes, max_freq)

        skewed = loco_evaluate(_skewed_corpus(), spec)
        bayes = skewed.mean("dsize", CLASSIFIER_BAYES)
        max_freq = skewed.mean("dsize", CLASSIFIER_MAX_FREQUENCY)
        # 58 of 60 rules lack dsize: the trivial baseline is unbeatable here
        assert max_freq + 1e-9 >= bayes, (bayes, max_freq)
        assert max_freq >= 0.9

        for report in (correlated, skewed):
            for attribute in report.attributes:
                bayes = report.mean(attribute, CLASSIFIER_BAYES)
                rand = report.mean(attribute, CLASSIFIER_RANDOM)
                assert bayes >= rand - 0.02, (attribute, bayes, rand)


@criterion(9, "clustering agrees with brute-force reference runs")
def test_criterion_09():
    with budget(10.0):
        assert levenshtein("kitten", "sitting") == 3
        rule_i = parse_rule(
            'alert tcp any any -> any 445 (msg:"i"; flow:abc; dsize:>100; sid:1; rev:1;)'
        )
        rule_j = parse_rule(
            'alert tcp any any -> any 445 (msg:"j"; flow:abd; sid:2; rev:1;)'
        )
        assert rule_distance(rule_i, rule_j) == pytest.approx(2.0)
        assert rule_distance(
            rule_i, rule_j, DistanceParams(w1=2.0, w2=0.5)
        ) == pytest.approx(2.5)

        for n in range(3, 9):
            rng = np.random.default_rng(500 + n)
            raw = rng.uniform(1.0, 10.0, size=(n, n))
            entries = (raw + raw.T) / 2
            np.fill_diagonal(entries, 0.0)
            for linkage in ("single", "complete", "average"):
                want = oracles.agglomerate_bruteforce(entries, linkage)
                got = agglomerate(DistanceMatrix(entries), linkage, cut_count=1)
                assert [(a, b) for a, b, _ in got.merge_history] == [
                    (a, b) for a, b, _ in want
                ]
                for (_, _, gh), (_, _, wh) in zip(got.merge_history, want):
                    assert gh == pytest.approx(wh, rel=1e-9)
                for count in range(1, n + 1):
                    cut = agglomerate(
                        DistanceMatrix(entries), linkage, cut_count=count
                    )
                    assert dict(enumerate(cut.labels.tolist())) == oracles.labels_at_count(
                        n, want, count
                    )


@criterion(10, "fixed seeds make the whole pipeline reproducible")
def test_criterion_10():
    with budget(60.0):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            corpus = str(SAMPLE_CORPUS)
            pair = tmp_path / "pair.rules"
            pair.write_text("\n".join(TABLE2_TEXTS) + "\n", encoding="utf-8")

            outputs = {}
            for tag in ("first", "second"):
                model_path = tmp_path / f"model-{tag}.json"
                generated_path = tmp_path / f"generated-{tag}.rules"
                report_path = tmp_path / f"report-{tag}.csv"
                assert run(
                    ["train", "--rules", str(pair), "--out", str(model_path), "--keep-constant"]
                ) == 0
                assert run(
                    [
                        "generate",
                        "--model",
                        str(model_path),
                        "--rules",
                        str(pair),
                        "--seed-sid",
                        "13162",
                        "--out",
                        str(generated_path),
                    ]
                ) == 0
                assert run(
                    [
                        "evaluate",
                        "--rules",
                        corpus,
                        "--folds",
                        "3",
                        "--seed",
                        "0",
                        "--out",
                        str(report_path),
                    ]
                ) == 0
                outputs[tag] = (
                    model_path.read_bytes(),
                    generated_path.read_bytes(),
                    report_path.read_bytes(),
                )
            assert outputs["first"] == outputs["second"]
            rules, errors = parse_ruleset(outputs["first"][1].decode("utf-8"))
            assert not errors
            assert len(rules) == 7
