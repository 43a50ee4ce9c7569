"""Tests of the benchmark's own parts: corpus generator, output checks, tracing.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ruleforge import SmoothedModel, build_vocabulary, encode_corpus, fit, parse_ruleset  # noqa: E402

from checks import (  # noqa: E402
    CheckFailed,
    check_cluster_csv,
    check_evaluate_csv,
    check_generated,
    check_lint,
    check_model,
)
from corpus import CorpusSpec, generate  # noqa: E402
from tracing import Tracer, distance_work, instrumented  # noqa: E402

SMALL = CorpusSpec(rules=120, families=12, pool=20, long_share=0.1, long_len=12)


def test_generator_same_seed_same_bytes():
    assert generate(SMALL, 7).text == generate(SMALL, 7).text


def test_generator_other_seed_other_bytes():
    assert generate(SMALL, 7).text != generate(SMALL, 8).text


def test_generator_exercises_every_parser_path():
    corpus = generate(SMALL, 3)
    rules, errors = parse_ruleset(corpus.text)
    assert [rule.sid for rule in rules] == list(corpus.sids)
    assert len(errors) == corpus.malformed > 0
    assert "\\\n" in corpus.text and "\n#" in corpus.text
    assert any("\x1f" in rule.option_values().get("content", "") for rule in rules)
    keys = {key for rule in rules for key in rule.option_values()}
    assert keys == corpus.option_keys


def _generated(sid_base: int, count: int) -> bytes:
    return "".join(
        f'alert tcp any any -> $HOME_NET {80 + i} (content:"x{i}"; '
        f'msg:"T Generated rule alert from ID-{sid_base + i}"; sid:{sid_base + i}; rev:1;)\n'
        for i in range(count)
    ).encode()


def test_check_generated_accepts_valid_output():
    assert check_generated(_generated(2_000_000, 3), 2_000_000, 10) == 3


def test_check_generated_rejects_truncated_rule_line():
    text = _generated(2_000_000, 3)
    with pytest.raises(CheckFailed, match="re-parse"):
        check_generated(text[: len(text) - 12] + b"\n", 2_000_000, 10)


def test_check_generated_rejects_non_contiguous_sids():
    text = _generated(2_000_000, 3).replace(b"sid:2000001;", b"sid:2000005;")
    with pytest.raises(CheckFailed, match="contiguous"):
        check_generated(text, 2_000_000, 10)


def test_check_generated_rejects_more_than_limit():
    with pytest.raises(CheckFailed, match="limit"):
        check_generated(_generated(2_000_000, 3), 2_000_000, 2)


@pytest.fixture(scope="module")
def small_rules():
    return parse_ruleset(generate(SMALL, 5).text)[0]


def test_check_model_accepts_saved_model_and_rejects_truncated_file(tmp_path, small_rules):
    vocab = build_vocabulary(small_rules)
    path = tmp_path / "model.json"
    fit(encode_corpus(small_rules, vocab), vocab).save(str(path))
    check_model(str(path), len(small_rules))
    with pytest.raises(CheckFailed, match="samples"):
        check_model(str(path), len(small_rules) + 1)
    path.write_text(path.read_text()[:-200])
    with pytest.raises(CheckFailed, match="does not load"):
        check_model(str(path), len(small_rules))


def _cluster_csv(labels: list[int]) -> bytes:
    return ("sid,cluster_id\n" + "".join(f"{100 + i},{label}\n" for i, label in enumerate(labels))).encode()


def test_check_cluster_csv():
    sids = (100, 101, 102, 103)
    check_cluster_csv(_cluster_csv([0, 1, 0, 2]), sids, 3)
    with pytest.raises(CheckFailed, match="rows"):
        check_cluster_csv(_cluster_csv([0, 1, 0]), sids, 3)  # a missing row
    with pytest.raises(CheckFailed, match="labels"):
        check_cluster_csv(_cluster_csv([0, 1, 0, 1]), sids, 3)  # too few clusters
    with pytest.raises(CheckFailed, match="smallest member"):
        check_cluster_csv(_cluster_csv([1, 0, 1, 2]), sids, 3)


def _evaluate_csv(attributes, folds: int) -> list[str]:
    rows = ["attribute,classifier,fold,accuracy"]
    for attribute, classifier in itertools.product(sorted(attributes), ("bayes", "random", "max_frequency")):
        rows += [f"{attribute},{classifier},{fold},0.500000" for fold in range(folds)]
        rows.append(f"{attribute},{classifier},mean,0.500000")
    return rows


def test_check_evaluate_csv():
    attributes = frozenset({"flow", "protocol"})
    rows = _evaluate_csv(attributes, 3)
    check_evaluate_csv(("\n".join(rows) + "\n").encode(), attributes, 3)
    with pytest.raises(CheckFailed, match="missing"):
        check_evaluate_csv(("\n".join(rows[:-1]) + "\n").encode(), attributes, 3)  # a missing row
    bad = rows[:1] + [rows[1].replace("0.500000", "1.500000")] + rows[2:]
    with pytest.raises(CheckFailed, match="outside"):
        check_evaluate_csv(("\n".join(bad) + "\n").encode(), attributes, 3)


def test_check_lint():
    check_lint(b"c.rules:4: bad sid\nparsed 9 rules, 1 errors\n", 9, 1)
    with pytest.raises(CheckFailed, match="diagnostics"):
        check_lint(b"parsed 9 rules, 1 errors\n", 9, 1)  # a missing diagnostic
    with pytest.raises(CheckFailed, match="last line"):
        check_lint(b"c.rules:4: bad sid\nparsed 8 rules, 1 errors\n", 9, 1)


def test_checks_reject_output_that_is_not_utf8_or_csv():
    garbage = b"\xff\xfe sid,cluster_id\n"
    for check in (
        lambda data: check_generated(data, 2_000_000, 10),
        lambda data: check_cluster_csv(data, (100,), 1),
        lambda data: check_evaluate_csv(data, frozenset({"flow"}), 3),
        lambda data: check_lint(data, 9, 1),
    ):
        with pytest.raises(CheckFailed, match="not UTF-8"):
            check(garbage)
    with pytest.raises(CheckFailed, match="not CSV"):
        check_cluster_csv(b"sid,cluster_id\n" + b"1" * 200_000 + b",0\n", (100,), 1)  # a huge field


def test_distance_work_matches_brute_force(small_rules):
    rules = small_rules[:40]
    lookups, pairs = 0, set()
    for a, b in itertools.combinations([r.attribute_values() for r in rules], 2):
        for key in a.keys() & b.keys():
            if a[key] != b[key]:
                lookups += 1
                pairs.add(tuple(sorted((a[key], b[key]))))
    assert distance_work(rules) == {
        "clustering.lookups_unequal": lookups,
        "clustering.value_pairs_distinct": len(pairs),
        "clustering.lev_cells": sum(len(x) * len(y) for x, y in pairs),
    }


def test_instrumented_records_spans_and_restores(small_rules):
    import ruleforge.cli as cli

    original = cli.build_distance_matrix
    tracer = Tracer()
    with instrumented(tracer), tracer.span("outer"):
        assert cli.build_distance_matrix is not original
        cli.build_distance_matrix(small_rules[:10])
    assert cli.build_distance_matrix is original
    assert SmoothedModel.__dict__["load"].__func__.__name__ == "load"
    totals = tracer.totals()
    assert totals["clustering.distance"]["calls"] == 1
    outer = totals["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - totals["clustering.distance"]["total_s"])
    assert [s.name for s in tracer.children_of("outer")] == ["clustering.distance"]


def test_benchmark_json_names_what_the_runner_reports():
    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.LAYER_METRICS
    ]
    ctx = run.Context(
        launcher=None, workload=run.WORKLOADS["cluster"], work=Path("."), corpus=None,
        properties={}, setup=None, ops=[], setup_results=[run.OpResult("parse", 0.4, 40.0)],
        reference_s=[0.03],
    )
    metrics, _ = run.end_to_end(ctx, [run.OpResult("cluster", 1.0, 50.0)])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]


def test_end_to_end_scales_times_by_the_reference_unit():
    import run

    ctx = run.Context(
        launcher=None, workload=run.WORKLOADS["cluster"], work=Path("."), corpus=None,
        properties={}, setup=None, ops=[], setup_results=[run.OpResult("parse", 0.4, 40.0)],
        reference_s=[run.REF_UNIT_S, 3 * run.REF_UNIT_S],  # the machine runs at half speed
    )
    results = [run.OpResult("cluster", 1.0, 50.0), run.OpResult("cluster", 2.0, 50.0)]
    metrics, named = run.end_to_end(ctx, results)
    assert metrics["command_norm_s"][0] == pytest.approx(0.75)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert named["command_mean_wall_s"][0] == pytest.approx(1.5)
    assert named["setup_wall_s"][0] == pytest.approx(0.4)


def test_in_process_counts_a_crash_as_a_failed_command(tmp_path, monkeypatch):
    import run
    import ruleforge.cli as cli

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", crash)
    op = run.Op("cluster", ["cluster"], tmp_path / "out.csv", lambda data: None)
    ctx = run.Context(
        launcher=None, workload=run.WORKLOADS["cluster"], work=tmp_path, corpus=None,
        properties={}, setup=op, ops=[op],
    )
    results, plain, traced, labels = run.in_process(ctx, [op], Tracer(), 0)
    assert len(results) == 3 and all("exit 1" in r.error for r in results)
    assert "boom" in results[0].error
