"""Command-line interface: flows, exit codes, config handling, determinism."""

import hashlib
import io
import json
import logging
import os
import subprocess
import sys

import pytest

import ruleforge.abduction
from conftest import TABLE2_TEXTS
from ruleforge import SmoothedModel, __version__, parse_rule, parse_ruleset
from ruleforge import cli
from ruleforge.cli import load_config, run


@pytest.fixture(autouse=True)
def fresh_logging():
    """Rebind the root handler per test so log output follows capsys."""
    root = logging.getLogger()
    saved = root.handlers[:]
    for handler in saved:
        root.removeHandler(handler)
    yield
    for handler in root.handlers[:]:
        root.removeHandler(handler)
    for handler in saved:
        root.addHandler(handler)


@pytest.fixture
def corpus(sample_corpus_path):
    return str(sample_corpus_path)


@pytest.fixture
def table2_file(tmp_path):
    path = tmp_path / "pair.rules"
    path.write_text("\n".join(TABLE2_TEXTS) + "\n", encoding="utf-8")
    return str(path)


def run_as_main(argv: list[str]) -> int:
    """run() as in a fresh process: with no root handler, it logs to the current stderr.

    pytest's own log handlers are set aside for the call and put back after it.
    """
    root = logging.getLogger()
    saved = root.handlers[:]
    root.handlers.clear()
    try:
        return run(argv)
    finally:
        root.handlers[:] = saved


@pytest.fixture
def trained_model(tmp_path, table2_file):
    model_path = str(tmp_path / "model.json")
    code = run_as_main(["train", "--rules", table2_file, "--out", model_path, "--keep-constant"])
    assert code == 0
    return model_path


class TestParse:
    def test_canonical_output(self, capsys, corpus):
        assert run(["parse", "--rules", corpus]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 12
        for line in lines:
            rule = parse_rule(line)
            assert rule.sid is not None

    def test_lint_summary(self, capsys, corpus):
        assert run(["parse", "--rules", corpus, "--lint"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("parsed 12 rules, 0 errors")

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text(
            'alert tcp any any -> any 445 (sid:1;)\n'
            'alert tcp any any => any 445 (sid:2;)\n',
            encoding="utf-8",
        )
        assert run(["parse", "--rules", str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"{bad}:2:" in captured.err
        # the good rule is still emitted
        assert len(captured.out.strip().splitlines()) == 1

    def test_lint_reports_diagnostics_but_exits_0(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("garbage header line ( )\n", encoding="utf-8")
        assert run(["parse", "--rules", str(bad), "--lint"]) == 0
        out = capsys.readouterr().out
        assert f"{bad}:1:" in out
        assert "parsed 0 rules, 1 errors" in out

    def test_out_writes_file(self, tmp_path, corpus):
        target = tmp_path / "canon.rules"
        assert run(["parse", "--rules", corpus, "--out", str(target)]) == 0
        rules, errors = parse_ruleset(target.read_text(encoding="utf-8"))
        assert not errors
        assert len(rules) == 12


class TestTrain:
    def test_writes_model_and_vocabulary(self, tmp_path, table2_file):
        model_path = tmp_path / "model.json"
        vocab_path = tmp_path / "vocab.json"
        code = run(
            [
                "train",
                "--rules",
                table2_file,
                "--out",
                str(model_path),
                "--vocab-out",
                str(vocab_path),
                "--keep-constant",
            ]
        )
        assert code == 0
        model = SmoothedModel.load(str(model_path))
        assert model.counts.num_samples == 2
        assert len(model.vocab.attributes) == 10
        vocab_doc = json.loads(vocab_path.read_text(encoding="utf-8"))
        assert sorted(vocab_doc["attributes"]) == sorted(model.vocab.attributes)

    def test_exclude_and_default_constant_drop(self, tmp_path, table2_file):
        model_path = tmp_path / "model.json"
        code = run(
            ["train", "--rules", table2_file, "--out", str(model_path), "--exclude", "byte_test"]
        )
        assert code == 0
        model = SmoothedModel.load(str(model_path))
        # constants dropped by default; byte_test excluded explicitly
        assert list(model.vocab.attributes) == ["dce_opnum", "target_port"]

    def test_missing_rules_file(self, tmp_path):
        code = run(
            ["train", "--rules", str(tmp_path / "nope.rules"), "--out", str(tmp_path / "m.json")]
        )
        assert code == 2


class TestAbduce:
    def test_tsv_candidates(self, capsys, table2_file, trained_model):
        code = run(
            ["abduce", "--model", trained_model, "--rules", table2_file, "--seed-sid", "13162"]
        )
        assert code == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
        assert [row[0] for row in rows] == ["byte_test", "dce_opnum", "target_port"]
        for _, value, probability in rows:
            assert probability == "0.199688"
        assert rows[2][1] == "[135,139,445,593,1024:]"

    def test_target_filters_rows(self, capsys, table2_file, trained_model):
        code = run(
            [
                "abduce",
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--target",
                "dce_opnum",
            ]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows == ["dce_opnum\t1\t0.199688"]

    def test_unknown_sid(self, table2_file, trained_model):
        code = run(
            ["abduce", "--model", trained_model, "--rules", table2_file, "--seed-sid", "999"]
        )
        assert code == 2

    def test_target_scores_only_that_attribute(self, capsys, monkeypatch, table2_file, trained_model):
        scored = []
        predict = ruleforge.abduction.predict_distribution

        def counted(model, row, attribute):
            scored.append(attribute)
            return predict(model, row, attribute)

        monkeypatch.setattr(ruleforge.abduction, "predict_distribution", counted)
        argv = ["abduce", "--model", trained_model, "--rules", table2_file, "--seed-sid", "13162"]
        capsys.readouterr()
        assert run(argv) == 0
        full = capsys.readouterr().out.splitlines(keepends=True)
        assert len(scored) > 3
        for target in ["byte_test", "dce_opnum", "target_port", "flow"]:
            scored.clear()
            assert run([*argv, "--target", target]) == 0
            assert scored == [target]
            expected = [line for line in full if line.startswith(target + "\t")]
            assert capsys.readouterr().out == "".join(expected)

    def test_unknown_target(self, capsys, table2_file, trained_model):
        argv = ["abduce", "--model", trained_model, "--rules", table2_file, "--seed-sid", "13162"]
        capsys.readouterr()
        for insertion in [[], ["--allow-insertion"]]:
            assert run_as_main([*argv, "--target", "nope", *insertion]) == 2
            err = capsys.readouterr().err
            assert err == "ERROR ruleforge attribute 'nope' not in vocabulary\n"

    def test_tampered_model_rejected(self, tmp_path, table2_file, trained_model):
        text = (tmp_path / "model.json").read_text(encoding="utf-8")
        tampered = tmp_path / "tampered.json"
        tampered.write_text(
            text.replace('"established,to_server"', '"established,to_serverX"'),
            encoding="utf-8",
        )
        code = run(
            ["abduce", "--model", str(tampered), "--rules", table2_file, "--seed-sid", "13162"]
        )
        assert code == 2


class TestGenerate:
    def test_generates_seven_rules(self, tmp_path, table2_file, trained_model):
        out = tmp_path / "generated.rules"
        code = run(
            [
                "generate",
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--out",
                str(out),
                "--category",
                "NETBIOS",
            ]
        )
        assert code == 0
        rules, errors = parse_ruleset(out.read_text(encoding="utf-8"))
        assert not errors
        assert len(rules) == 7
        assert [rule.sid for rule in rules] == list(range(250001, 250008))
        assert all(rule.msg.startswith("NETBIOS Generated rule alert") for rule in rules)

    def test_deterministic_output(self, tmp_path, table2_file, trained_model):
        paths = [tmp_path / "a.rules", tmp_path / "b.rules"]
        for path in paths:
            code = run(
                [
                    "generate",
                    "--model",
                    trained_model,
                    "--rules",
                    table2_file,
                    "--seed-sid",
                    "13162",
                    "--out",
                    str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_strict_limit_overflow(self, tmp_path, table2_file, trained_model):
        code = run(
            [
                "generate",
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--out",
                str(tmp_path / "x.rules"),
                "--limit",
                "3",
                "--strict-limit",
            ]
        )
        assert code == 2

    def test_sid_base_flag(self, capsys, table2_file, trained_model):
        code = run(
            [
                "generate",
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--sid-base",
                "900001",
            ]
        )
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert parse_rule(first).sid == 900001

    @pytest.mark.parametrize("category", ['A"B', "A\nB", "A\rB"])
    def test_category_that_would_not_reparse_is_a_usage_error(
        self, capsys, table2_file, trained_model, category
    ):
        argv = ["generate", "--model", trained_model, "--rules", table2_file, "--seed-sid", "13162"]
        capsys.readouterr()  # the model fixture's log line
        assert run([*argv, "--category", category]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: category must not hold")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "defect",
        [
            "truncated",
            "no_num_samples",
            "row_1e6",
            "row_negative",
            "num_samples_negative",
            "num_samples_zero",
            "num_samples_2_53",
            "num_samples_2_63",
            "alpha_negative",
            "alpha_infinite",
            "smoothing_bogus",
            "marginal_sum",
            "marginal_1e30",
            "code_1e30",
            "code_float",
            "code_bool",
            "multiplicity_float",
            "row_width",
            "multiplicity_zero",
            "lengths_differ",
            "unk_swapped",
            "unk_missing",
            "value_duplicate",
            "values_out_of_order",
            "unk_repeated",
            "version_1",
            "version_3",
            "skip_unk_string",
            "with_prior_int",
            "alpha_string",
            "alpha_bool",
            "num_samples_float",
        ],
    )
    def test_malformed_model_exits_2(self, capsys, tmp_path, table2_file, trained_model, defect):
        text = (tmp_path / "model.json").read_text(encoding="utf-8")
        if defect == "truncated":
            text = text[: len(text) // 2]
        else:
            payload = json.loads(text)
            rows, multiplicities = payload["rows"], payload["multiplicities"]
            if defect == "no_num_samples":
                del payload["num_samples"]
            elif defect in ("row_1e6", "row_negative"):  # a code outside the attribute's values
                rows[0][0] = 10**6 if defect == "row_1e6" else -1
            elif defect == "num_samples_negative":
                payload["num_samples"] = -50
            elif defect == "num_samples_zero":  # no rows, so the sum agrees
                payload["num_samples"] = 0
                rows.clear()
                multiplicities.clear()
            elif defect == "num_samples_2_53":  # the sum agrees, but counts past 2**53 round
                multiplicities[0] += 2**53 - payload["num_samples"]
                payload["num_samples"] = 2**53
            elif defect == "num_samples_2_63":  # the sum agrees, but wraps in int64
                assert len(rows) >= 2
                del rows[2:]
                multiplicities[:] = [2**62, 2**62]
                payload["num_samples"] = 2**63
            elif defect == "alpha_negative":
                payload["alpha"] = -1.0
            elif defect == "alpha_infinite":
                payload["alpha"] = float("inf")  # json.dumps writes Infinity
            elif defect == "smoothing_bogus":
                payload["smoothing"] = "bogus"
            elif defect == "marginal_sum":  # the multiplicities, so every marginal, miss one
                payload["num_samples"] += 1
            elif defect == "marginal_1e30":  # a row counted past int64
                multiplicities[0] = 10**30
            elif defect == "code_1e30":
                rows[0][0] = 10**30
            elif defect == "code_float":  # not truncated to the valid code 1
                rows[0][0] = 1.5
            elif defect == "code_bool":  # true would read as the valid code 1
                rows[0][0] = True
            elif defect == "multiplicity_float":  # the sum still agrees
                multiplicities[0] = 1.0
            elif defect == "row_width":
                rows[0].append(1)
            elif defect == "multiplicity_zero":  # the sum still agrees
                rows.append(rows[0])
                multiplicities.append(0)
            elif defect == "lengths_differ":  # the sum still agrees
                rows.append(rows[0])
            elif defect in ("version_1", "version_3"):
                payload["version"] = int(defect[-1])
            elif defect == "skip_unk_string":  # bool("false") is True
                payload["skip_unk_evidence"] = "false"
            elif defect == "with_prior_int":
                payload["with_prior"] = 1
            elif defect == "alpha_string":
                payload["alpha"] = "1.0"
            elif defect == "alpha_bool":
                payload["alpha"] = True
            elif defect == "num_samples_float":  # int() truncates it to the agreeing sum
                payload["num_samples"] += 0.9
            else:  # a vocabulary build_vocabulary cannot make, its hash recomputed
                values = payload["vocabulary"]["byte_test"]  # UNK and two values
                if defect == "unk_swapped":
                    values[0], values[1] = values[1], values[0]
                elif defect == "unk_missing":  # still increasing: "!" < "4,>,256,..."
                    values[0] = "!"
                elif defect == "value_duplicate":
                    values[2] = values[1]
                elif defect == "unk_repeated":  # still increasing: "4,>,256,..." < "UNK"
                    values[2] = "UNK"
                else:
                    values[1], values[2] = values[2], values[1]
                # the hash AttributeVocabulary.sha256 takes, which cannot hold these lists
                canonical = json.dumps(payload["vocabulary"], sort_keys=True, separators=(",", ":"))
                payload["vocab_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            text = json.dumps(payload)
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        argv = ["generate", "--model", str(bad), "--rules", table2_file, "--seed-sid", "13162"]
        capsys.readouterr()
        assert run_as_main(argv) == 2
        err = capsys.readouterr().err
        assert f"ERROR ruleforge {bad}: " in err
        assert "Traceback" not in err
        if defect.startswith("version_"):
            assert f"unsupported model version {defect[-1]}" in err


class TestCluster:
    def test_csv_assignment(self, capsys, corpus):
        assert run(["cluster", "--rules", corpus, "--cut-count", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sid,cluster_id"
        assert len(lines) == 13
        labels = {int(row.split(",")[1]) for row in lines[1:]}
        assert labels == {0, 1, 2}

    def test_rule_without_sid_has_an_empty_sid_cell(self, tmp_path, capsys):
        path = tmp_path / "nosid.rules"
        path.write_text(
            'alert tcp any any -> any 80 (msg:"a"; content:"x";)\n'
            'alert tcp any any -> any 81 (msg:"b"; content:"y"; sid:0;)\n',
            encoding="utf-8",
        )
        assert run(["cluster", "--rules", str(path), "--cut-count", "1"]) == 0
        assert capsys.readouterr().out == "sid,cluster_id\n,0\n0,0\n"

    def test_invalid_cut(self, corpus):
        assert run(["cluster", "--rules", corpus, "--cut-count", "99"]) == 2


class TestOverflowingWeights:
    """Weights whose distances overflow float64 are a data error, not 12 clusters."""

    @pytest.mark.parametrize("form", ["argv", "config"])
    @pytest.mark.parametrize(
        "command", [["cluster"], ["evaluate", "--folds", "3", "--with-clusters"]]
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, corpus, command, form):
        argv = [*command, "--rules", corpus]
        if form == "argv":
            argv += ["--w1", "1e308", "--w2", "1e308"]
        else:
            config = tmp_path / "forge.conf"
            config.write_text("w1 = 1e308\nw2 = 1e308\n", encoding="utf-8")
            argv += ["--config", str(config)]
        capsys.readouterr()
        assert run_as_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == "ERROR ruleforge distances overflow with --w1 1e+308 and --w2 1e+308"


class TestClusterIdOption:
    """A rules option named cluster_id would shadow the cluster feature's column."""

    @pytest.fixture
    def clashing_corpus(self, tmp_path, sample_corpus_path):
        lines = sample_corpus_path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("alert"))
        lines[at] = lines[at].replace("sid:", "cluster_id:7; sid:", 1)
        path = tmp_path / "clash.rules"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("form", ["argv", "config"])
    def test_with_clusters_exits_2(self, tmp_path, capsys, clashing_corpus, form):
        argv = ["evaluate", "--rules", clashing_corpus, "--folds", "3"]
        if form == "argv":
            argv += ["--with-clusters"]
        else:
            config = tmp_path / "forge.conf"
            config.write_text("with_clusters = true\n", encoding="utf-8")
            argv += ["--config", str(config)]
        capsys.readouterr()
        assert run_as_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("ERROR ruleforge ")
        assert "--exclude cluster_id" in line

    def test_excluding_the_option_runs(self, capsys, clashing_corpus):
        argv = ["evaluate", "--rules", clashing_corpus, "--folds", "3", "--with-clusters"]
        assert run(argv + ["--exclude", "cluster_id"]) == 0
        assert "bayes+cluster" in capsys.readouterr().out


class TestEvaluate:
    def test_cluster_train_only_needs_with_clusters(self, capsys, corpus):
        assert run(["evaluate", "--rules", corpus, "--folds", "3", "--cluster-train-only"]) == 1
        assert capsys.readouterr().err == (
            "usage error: --cluster-train-only needs --with-clusters\n"
        )

    def test_cluster_train_only_from_config_needs_with_clusters(self, tmp_path, capsys, corpus):
        config = tmp_path / "run.conf"
        config.write_text("cluster_train_only = true\n", encoding="utf-8")
        argv = ["evaluate", "--rules", corpus, "--folds", "3", "--config", str(config)]
        assert run(argv) == 1
        assert "--cluster-train-only needs --with-clusters" in capsys.readouterr().err

    def test_csv_report(self, capsys, corpus):
        code = run(["evaluate", "--rules", corpus, "--folds", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "attribute,classifier,fold,accuracy"
        assert any(",mean," in line for line in lines)
        assert any(line.startswith("flow,bayes,") for line in lines)

    def test_with_clusters(self, capsys, corpus):
        code = run(
            [
                "evaluate",
                "--rules",
                corpus,
                "--folds",
                "3",
                "--with-clusters",
                "--cut-count",
                "3",
            ]
        )
        assert code == 0
        assert "bayes+cluster" in capsys.readouterr().out

    def test_too_few_rules(self, tmp_path, table2_file):
        assert run(["evaluate", "--rules", table2_file, "--folds", "10"]) == 2


class TestSweep:
    def test_csv_counts(self, capsys, table2_file, trained_model):
        code = run(
            [
                "sweep",
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--thresholds",
                "0.001,0.01,0.5",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["threshold,generated_rules", "0.001,17", "0.01,7", "0.5,0"]

    def test_bad_threshold_string(self, table2_file, trained_model):
        code = run(
            [
                "sweep",
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--thresholds",
                "0.1,abc",
            ]
        )
        assert code == 1

    def test_descending_thresholds(self, table2_file, trained_model):
        code = run(
            [
                "sweep",
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--thresholds",
                "0.5,0.01",
            ]
        )
        assert code == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys, table2_file, trained_model):
        config = tmp_path / "forge.conf"
        config.write_text("# defaults\nthreshold = 0.5\n", encoding="utf-8")
        code = run(
            [
                "generate",
                "--config",
                str(config),
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""  # nothing clears 0.5

    def test_flag_overrides_config(self, tmp_path, capsys, table2_file, trained_model):
        config = tmp_path / "forge.conf"
        config.write_text("threshold = 0.5\n", encoding="utf-8")
        code = run(
            [
                "generate",
                "--config",
                str(config),
                "--model",
                trained_model,
                "--rules",
                table2_file,
                "--seed-sid",
                "13162",
                "--threshold",
                "0.01",
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 7

    def test_hyphenated_keys_and_booleans(self, tmp_path):
        config = tmp_path / "forge.conf"
        config.write_text("allow-insertion = true\nsid-base = 300000\n", encoding="utf-8")
        loaded = load_config(str(config))
        assert loaded == {"allow_insertion": True, "sid_base": 300000}

    def test_unknown_key_rejected(self, tmp_path, table2_file):
        config = tmp_path / "forge.conf"
        config.write_text("no_such_option = 1\n", encoding="utf-8")
        assert run(["parse", "--config", str(config), "--rules", table2_file]) == 1

    def test_bad_value_type_rejected(self, tmp_path, table2_file):
        config = tmp_path / "forge.conf"
        config.write_text("alpha = not_a_number\n", encoding="utf-8")
        assert run(["parse", "--config", str(config), "--rules", table2_file]) == 1

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        config = tmp_path / "forge.conf"
        config.write_text(
            "  # a comment\ncategory = RUN#3\nrules = /data/run#3/x.rules\n", encoding="utf-8"
        )
        loaded = load_config(str(config))
        assert loaded == {"category": "RUN#3", "rules": "/data/run#3/x.rules"}

    @pytest.mark.parametrize(
        "line, command",
        [
            ("strategy = bogus", "generate"),
            ("linkage = bogus", "cluster"),
            ("smoothing = bogus", "train"),
            ("jobs = 2", "parse"),
        ],
    )
    def test_bad_or_removed_field_rejected(
        self, tmp_path, table2_file, trained_model, line, command
    ):
        config = tmp_path / "forge.conf"
        config.write_text(line + "\n", encoding="utf-8")
        extra = {
            "generate": ["--model", trained_model, "--seed-sid", "13162"],
            "train": ["--out", str(tmp_path / "other.json")],
        }.get(command, [])
        assert run([command, "--config", str(config), "--rules", table2_file, *extra]) == 1

    def test_missing_config_file(self, table2_file):
        assert run(["parse", "--config", "/nonexistent.conf", "--rules", table2_file]) == 1

    def test_abbreviated_config_flag_is_usage_error(self, tmp_path, capsys, table2_file):
        """--conf would reach argparse as --config, unread by the config loader."""
        config = tmp_path / "forge.conf"
        config.write_text("lint = true\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["parse", "--rules", table2_file, "--conf", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: unrecognized arguments: --conf")
        assert run(["parse", "--rules", table2_file, "--conf=missing.txt"]) == 1

    def test_repeated_config_flag_is_usage_error(self, tmp_path, capsys, table2_file):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("lint = true\n", encoding="utf-8")
        second.write_text("lint = false\n", encoding="utf-8")
        for extra in (["--config", str(second)], [f"--config={second}"]):
            capsys.readouterr()
            assert run(["parse", "--rules", table2_file, "--config", str(first), *extra]) == 1
            assert capsys.readouterr().err == "usage error: --config may be given only once\n"

    def test_no_parser_takes_an_abbreviated_flag(self, tmp_path):
        parser, subs = cli.build_parser()
        assert not any(p.allow_abbrev for p in [parser, *subs.values()])
        assert run(["parse", "--rul", str(tmp_path / "missing.rules")]) == 1

    def test_a_value_breaks_only_at_a_line_end(self, tmp_path, table2_file):
        """\x1c, a form feed, \x85 or U+2028 in a value stays in it, as on the command line."""
        out = tmp_path / "a\x1cb\x0cc\x85d\u2028e.txt"
        config = tmp_path / "forge.conf"
        config.write_text(f"out = {out}\r\nrules = {table2_file}\r\n", encoding="utf-8")
        plain = tmp_path / "plain.txt"
        assert run(["parse", "--rules", table2_file, "--out", str(plain)]) == 0
        assert run(["parse", "--config", str(config)]) == 0
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "command, field",
        [("parse", "rules"), ("parse", "out"), ("train", "rules"), ("train", "out"),
         ("train", "vocab_out")],
    )
    def test_nul_byte_in_a_path_is_usage_error(self, tmp_path, capsys, table2_file, command, field):
        config = tmp_path / "forge.conf"
        config.write_text(f"{field} = {tmp_path / 'a'}\0b\n", encoding="utf-8")
        argv = [command, "--config", str(config)]
        if field != "rules":
            argv += ["--rules", table2_file]
        if command == "train" and field != "out":
            argv += ["--out", str(tmp_path / "model.json")]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: config field {field!r}: ")


# Every subcommand's flags as build_parser declared them before the seed
# commands shared _add_seed_flags: option strings -> (dest, type, default,
# choices, required, action kind). A type is named as cli names it. Config
# files read each key through these actions, so none may change; the order
# they are declared in (the order --help lists them) is not compared.
SMOOTHING = ("corpus", "conventional")
STRATEGIES = ("threshold", "topk", "mle")
LINKAGES = ("single", "complete", "average")
FLAGS = {
    "parse": {
        ("-h", "--help"): ("help", None, "==SUPPRESS==", None, False, "Help"),
        ("--rules",): ("rules", None, None, None, True, "Store"),
        ("--lint",): ("lint", None, False, None, False, "StoreTrue"),
        ("--config",): ("config", None, None, None, False, "Store"),
        ("--out",): ("out", None, None, None, False, "Store"),
    },
    "train": {
        ("-h", "--help"): ("help", None, "==SUPPRESS==", None, False, "Help"),
        ("--rules",): ("rules", None, None, None, True, "Store"),
        ("--vocab-out",): ("vocab_out", None, None, None, False, "Store"),
        ("--exclude",): ("exclude", None, "", None, False, "Store"),
        ("--keep-constant",): ("keep_constant", None, False, None, False, "StoreTrue"),
        ("--alpha",): ("alpha", "_ALPHA", 1.0, None, False, "Store"),
        ("--smoothing",): ("smoothing", None, "corpus", SMOOTHING, False, "Store"),
        ("--skip-unk-evidence",): ("skip_unk_evidence", None, False, None, False, "StoreTrue"),
        ("--with-prior",): ("with_prior", None, False, None, False, "StoreTrue"),
        ("--config",): ("config", None, None, None, False, "Store"),
        ("--out",): ("out", None, None, None, True, "Store"),
    },
    "abduce": {
        ("-h", "--help"): ("help", None, "==SUPPRESS==", None, False, "Help"),
        ("--model",): ("model", None, None, None, True, "Store"),
        ("--rules",): ("rules", None, None, None, True, "Store"),
        ("--seed-sid",): ("seed_sid", "int", None, None, True, "Store"),
        ("--target",): ("target", None, None, None, False, "Store"),
        ("--strategy",): ("strategy", None, "threshold", STRATEGIES, False, "Store"),
        ("--threshold",): ("threshold", "_PROBABILITY", 0.01, None, False, "Store"),
        ("--topk",): ("topk", "_POSITIVE_INT", 3, None, False, "Store"),
        ("--allow-insertion",): ("allow_insertion", None, False, None, False, "StoreTrue"),
        ("--config",): ("config", None, None, None, False, "Store"),
        ("--out",): ("out", None, None, None, False, "Store"),
    },
    "generate": {
        ("-h", "--help"): ("help", None, "==SUPPRESS==", None, False, "Help"),
        ("--model",): ("model", None, None, None, True, "Store"),
        ("--rules",): ("rules", None, None, None, True, "Store"),
        ("--seed-sid",): ("seed_sid", "int", None, None, True, "Store"),
        ("--category",): ("category", None, "GENERATED", None, False, "Store"),
        ("--sid-base",): ("sid_base", "_SID_BASE", 250001, None, False, "Store"),
        ("--limit",): ("limit", "_NON_NEGATIVE_INT", 10000, None, False, "Store"),
        ("--strict-limit",): ("strict_limit", None, False, None, False, "StoreTrue"),
        ("--strategy",): ("strategy", None, "threshold", STRATEGIES, False, "Store"),
        ("--threshold",): ("threshold", "_PROBABILITY", 0.01, None, False, "Store"),
        ("--topk",): ("topk", "_POSITIVE_INT", 3, None, False, "Store"),
        ("--allow-insertion",): ("allow_insertion", None, False, None, False, "StoreTrue"),
        ("--config",): ("config", None, None, None, False, "Store"),
        ("--out",): ("out", None, None, None, False, "Store"),
    },
    "cluster": {
        ("-h", "--help"): ("help", None, "==SUPPRESS==", None, False, "Help"),
        ("--rules",): ("rules", None, None, None, True, "Store"),
        ("--w1",): ("w1", "_NON_NEGATIVE", 1.0, None, False, "Store"),
        ("--w2",): ("w2", "_NON_NEGATIVE", 1.0, None, False, "Store"),
        ("--linkage",): ("linkage", None, "average", LINKAGES, False, "Store"),
        ("--cut-count",): ("cut_count", "_POSITIVE_INT", None, None, False, "Store"),
        ("--cut-height",): ("cut_height", "_NON_NEGATIVE", None, None, False, "Store"),
        ("--config",): ("config", None, None, None, False, "Store"),
        ("--out",): ("out", None, None, None, False, "Store"),
    },
    "evaluate": {
        ("-h", "--help"): ("help", None, "==SUPPRESS==", None, False, "Help"),
        ("--rules",): ("rules", None, None, None, True, "Store"),
        ("--folds",): ("folds", "_FOLDS", 10, None, False, "Store"),
        ("--seed",): ("seed", "_NON_NEGATIVE_INT", 0, None, False, "Store"),
        ("--exclude",): ("exclude", None, "", None, False, "Store"),
        ("--with-clusters",): ("with_clusters", None, False, None, False, "StoreTrue"),
        ("--cluster-train-only",): ("cluster_train_only", None, False, None, False, "StoreTrue"),
        ("--alpha",): ("alpha", "_ALPHA", 1.0, None, False, "Store"),
        ("--smoothing",): ("smoothing", None, "corpus", SMOOTHING, False, "Store"),
        ("--skip-unk-evidence",): ("skip_unk_evidence", None, False, None, False, "StoreTrue"),
        ("--with-prior",): ("with_prior", None, False, None, False, "StoreTrue"),
        ("--w1",): ("w1", "_NON_NEGATIVE", 1.0, None, False, "Store"),
        ("--w2",): ("w2", "_NON_NEGATIVE", 1.0, None, False, "Store"),
        ("--linkage",): ("linkage", None, "average", LINKAGES, False, "Store"),
        ("--cut-count",): ("cut_count", "_POSITIVE_INT", None, None, False, "Store"),
        ("--cut-height",): ("cut_height", "_NON_NEGATIVE", None, None, False, "Store"),
        ("--config",): ("config", None, None, None, False, "Store"),
        ("--out",): ("out", None, None, None, False, "Store"),
    },
    "sweep": {
        ("-h", "--help"): ("help", None, "==SUPPRESS==", None, False, "Help"),
        ("--model",): ("model", None, None, None, True, "Store"),
        ("--rules",): ("rules", None, None, None, True, "Store"),
        ("--seed-sid",): ("seed_sid", "int", None, None, True, "Store"),
        ("--thresholds",): ("thresholds", None, "0.001,0.01,0.05,0.1", None, False, "Store"),
        ("--limit",): ("limit", "_NON_NEGATIVE_INT", 10000, None, False, "Store"),
        ("--allow-insertion",): ("allow_insertion", None, False, None, False, "StoreTrue"),
        ("--config",): ("config", None, None, None, False, "Store"),
        ("--out",): ("out", None, None, None, False, "Store"),
    },
}



def flag_table(sub) -> dict:
    def type_name(kind):
        if kind is None:
            return None
        return next((name for name, value in vars(cli).items() if value is kind), kind.__name__)

    return {
        tuple(action.option_strings): (
            action.dest,
            type_name(action.type),
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.required,
            type(action).__name__.strip("_").removesuffix("Action"),
        )
        for action in sub._actions
    }


def test_every_flag_is_declared_as_before():
    _, subs = cli.build_parser()
    assert {name: flag_table(sub) for name, sub in subs.items()} == FLAGS


class TestFlagRanges:
    @pytest.mark.parametrize("form", ["argv", "config"])
    @pytest.mark.parametrize(
        "command, values",
        [
            ("evaluate", "folds=1"),
            ("train", "alpha=0"),
            ("train", "alpha=inf"),
            ("generate", "strategy=topk topk=0"),
            ("generate", "limit=-1"),
            ("generate", "threshold=nan"),
            ("generate", "sid-base=5"),
            ("abduce", "threshold=1.5"),
            ("sweep", "limit=-1"),
            ("cluster", "w1=-1"),
            ("cluster", "w1=nan"),
            ("cluster", "w2=inf"),
            ("cluster", "w1=0 w2=0"),
            ("cluster", "cut-height=nan"),
            ("cluster", "cut-count=0"),
            ("cluster", "cut-count=-1"),
            ("cluster", "cut-count=2 cut-height=1"),
            ("evaluate", "w1=0 w2=0"),
            ("evaluate", "cut-count=0"),
            ("evaluate", "seed=-1"),
            ("evaluate", "seed=-3"),
            ("generate", 'category=A"B'),
        ],
    )
    def test_out_of_range_value_is_usage_error(
        self, tmp_path, capsys, table2_file, trained_model, form, command, values
    ):
        argv = [command, "--rules", table2_file]
        if command == "train":
            argv += ["--out", str(tmp_path / "other.json")]
        if command in ("abduce", "generate", "sweep"):
            argv += ["--model", trained_model, "--seed-sid", "13162"]
        pairs = [item.split("=") for item in values.split()]
        if form == "argv":
            argv += [part for key, value in pairs for part in (f"--{key}", value)]
        else:
            config = tmp_path / "forge.conf"
            config.write_text("".join(f"{k} = {v}\n" for k, v in pairs), encoding="utf-8")
            argv += ["--config", str(config)]
        assert run(argv) == 1
        assert "usage error" in capsys.readouterr().err


class TestRequiredFromConfig:
    def test_config_supplies_rules(self, tmp_path, capsys, corpus):
        config = tmp_path / "forge.conf"
        config.write_text(f"rules = {corpus}\n", encoding="utf-8")
        assert run(["parse", "--config", str(config), "--lint"]) == 0
        assert capsys.readouterr().out.strip().endswith("parsed 12 rules, 0 errors")

    def test_config_supplies_model_seed_and_out(self, tmp_path, table2_file, trained_model):
        config = tmp_path / "forge.conf"
        out = tmp_path / "model.json"
        config.write_text(
            f"model = {trained_model}\nseed-sid = 13162\nout = {out}\n", encoding="utf-8"
        )
        assert run(["train", "--config", str(config), "--rules", table2_file]) == 0
        assert out.exists()
        assert run(["abduce", "--config", str(config), "--rules", table2_file]) == 0

    def test_missing_from_argv_and_config(self, tmp_path, capsys):
        config = tmp_path / "forge.conf"
        config.write_text("lint = true\n", encoding="utf-8")
        assert run(["parse", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "usage error: the following arguments are required: --rules" in err


class TestSeedLookup:
    """abduce, generate and sweep parse only the lines that may hold --seed-sid."""

    @pytest.mark.parametrize("command", ["abduce", "generate", "sweep"])
    def test_never_parses_the_whole_file(
        self, monkeypatch, capsys, table2_file, trained_model, command
    ):
        def refuse(text):
            raise AssertionError("parse_ruleset called")

        monkeypatch.setattr("ruleforge.cli.parse_ruleset", refuse)
        argv = [command, "--model", trained_model, "--rules", table2_file, "--seed-sid", "13162"]
        assert run(argv) == 0
        assert capsys.readouterr().out

    def test_malformed_seed_line_is_reported(self, tmp_path, caplog, trained_model):
        rules = tmp_path / "seed.rules"
        rules.write_text(
            "# sid:99 in a comment\n"
            + TABLE2_TEXTS[0]
            + "\nalert tcp any any => any 445 (sid:99;)\n"
            + "alert tcp any any => any 445 (sid:98;)\n",
            encoding="utf-8",
        )
        argv = ["generate", "--model", trained_model, "--rules", str(rules), "--seed-sid", "99"]
        assert run(argv) == 2
        assert [(r.levelname, r.getMessage()) for r in caplog.records if r.name == "ruleforge"] == [
            ("WARNING", f"{rules}:3: invalid direction token '=>' (byte offset 18)"),
            ("ERROR", f"{rules}: no rule with sid 99"),
        ]  # line 4 does not hold the seed sid, so it is not parsed

    def test_first_well_formed_duplicate_is_the_seed(
        self, tmp_path, capsys, caplog, table2_file, trained_model
    ):
        first = TABLE2_TEXTS[0].replace("sid:13162;", "sid:555;")
        second = TABLE2_TEXTS[1].replace("sid:13163;", "sid:555;")
        rules = tmp_path / "duplicates.rules"
        rules.write_text(
            "\n".join([second.replace("->", "=>"), second, first]) + "\n", encoding="utf-8"
        )
        argv = ["abduce", "--model", trained_model, "--seed-sid"]
        assert run([*argv, "555", "--rules", str(rules)]) == 0
        found = capsys.readouterr().out
        assert f"{rules}:1: invalid direction token '=>'" in caplog.text
        assert run([*argv, "13163", "--rules", table2_file]) == 0
        from_second = capsys.readouterr().out
        assert run([*argv, "13162", "--rules", table2_file]) == 0
        assert found == from_second != capsys.readouterr().out


class TestNonUtf8Input:
    COMMANDS = ["parse", "train", "cluster", "evaluate", "generate", "abduce", "sweep"]

    def _argv(self, tmp_path, command, trained_model):
        if command == "train":
            return [command, "--out", str(tmp_path / "other.json")]
        if command in ("abduce", "generate", "sweep"):
            return [command, "--model", trained_model, "--seed-sid", "13162"]
        return [command]

    @pytest.mark.parametrize("form", ["argv", "config"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_rules_file_is_a_data_error(self, tmp_path, caplog, trained_model, command, form):
        bad = tmp_path / "latin1.rules"
        bad.write_bytes(TABLE2_TEXTS[0].encode("utf-8") + b"\n# caf\xe9 \xff\n")
        argv = self._argv(tmp_path, command, trained_model)
        if form == "argv":
            argv += ["--rules", str(bad)]
        else:
            config = tmp_path / "forge.conf"
            config.write_text(f"rules = {bad}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert run(argv) == 2
        [record] = [r for r in caplog.records if r.levelname == "ERROR"]
        assert record.name == "ruleforge"
        assert record.getMessage().startswith(f"{bad}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("command", ["generate", "abduce", "sweep"])
    def test_bad_byte_far_after_the_seed_is_a_data_error(
        self, tmp_path, caplog, trained_model, command
    ):
        """The seed is on line 1, and the byte lies past any block a first read decodes."""
        bad = tmp_path / "late.rules"
        padding = "".join(f"# comment line {i}\n" for i in range(20_000)).encode("utf-8")
        assert len(padding) > 1 << 18
        bad.write_bytes(TABLE2_TEXTS[0].encode("utf-8") + b"\n" + padding + b"# caf\xe9\n")
        argv = self._argv(tmp_path, command, trained_model)
        assert run([*argv, "--rules", str(bad)]) == 2
        [record] = [r for r in caplog.records if r.levelname == "ERROR"]
        assert record.getMessage().startswith(f"{bad}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_file_is_a_usage_error(
        self, tmp_path, capsys, table2_file, trained_model, command
    ):
        config = tmp_path / "forge.conf"
        config.write_bytes(b"threshold = 0.5\ncategory = caf\xe9\n")
        argv = self._argv(tmp_path, command, trained_model)
        assert run([*argv, "--rules", table2_file, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: cannot read config file {config}: 'utf-8' codec" in err


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a rules or config file is not data."""

    BOM = "\ufeff"

    @pytest.fixture
    def twins(self, tmp_path):
        """The same rules text twice, in files of the same name; the second starts with a mark."""
        malformed = "alert tcp any any => any 445 (sid:99;)"
        text = "\n".join([TABLE2_TEXTS[0], malformed, *TABLE2_TEXTS[1:]])
        (tmp_path / "plain").mkdir()
        (tmp_path / "marked").mkdir()
        plain = tmp_path / "plain" / "pair.rules"
        marked = tmp_path / "marked" / "pair.rules"
        plain.write_text(text + "\n", encoding="utf-8")
        marked.write_text(self.BOM + text + "\n", encoding="utf-8")
        return plain, marked

    def test_parse_output_matches_the_unmarked_file(self, capsys, twins):
        outputs = []
        for path in twins:
            assert run(["parse", "--rules", str(path)]) == 2  # line 2 is malformed
            outputs.append(capsys.readouterr())
        assert outputs[0].out == outputs[1].out
        assert outputs[0].out.startswith("alert tcp ")
        plain, marked = twins
        assert outputs[1].err == outputs[0].err.replace(str(plain), str(marked))

    def test_lint_line_numbers_are_unchanged(self, capsys, twins):
        reports = []
        for path in twins:
            assert run(["parse", "--rules", str(path), "--lint"]) == 0
            reports.append(capsys.readouterr().out.replace(str(path), "RULES"))
        assert reports[0] == reports[1]
        assert reports[0].startswith("RULES:2: invalid direction token '=>'")

    def test_train_writes_the_same_model(self, twins):
        models = []
        for path in twins:
            out = path.parent / "model.json"
            assert run(["train", "--rules", str(path), "--out", str(out), "--keep-constant"]) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_generate_finds_a_seed_on_the_first_line(self, capsys, trained_model, twins):
        outputs = []
        for path in twins:
            argv = ["generate", "--model", trained_model, "--rules", str(path), "--seed-sid"]
            assert run([*argv, "13162"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] and self.BOM not in outputs[0]

    def test_model_file_with_a_mark_loads(self, capsys, trained_model, twins):
        plain, _ = twins
        marked = plain.parent / "marked-model.json"
        with open(trained_model, encoding="utf-8") as handle:
            text = handle.read()
        marked.write_bytes((self.BOM + text).encode("utf-8"))
        assert SmoothedModel.load(str(marked)).to_json() == text
        outputs = []
        for model in (trained_model, str(marked)):
            argv = ["generate", "--model", model, "--rules", str(plain), "--seed-sid", "13162"]
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0]

    def test_config_file_with_a_mark_loads(self, tmp_path):
        config = tmp_path / "forge.conf"
        config.write_text(self.BOM + "threshold = 0.5\nsid-base = 300000\n", encoding="utf-8")
        assert load_config(str(config)) == {"threshold": 0.5, "sid_base": 300000}


class TestOutputBytes:
    def test_logged_count_is_the_file_size(self, tmp_path, caplog):
        rules = tmp_path / "accents.rules"
        rules.write_text(
            'alert tcp any any -> any 80 (msg:"café"; content:"éé"; sid:1;)\n', encoding="utf-8"
        )
        out = tmp_path / "canon.rules"
        with caplog.at_level(logging.INFO, logger="ruleforge"):
            assert run(["parse", "--rules", str(rules), "--out", str(out)]) == 0
        [message] = [r.getMessage() for r in caplog.records if "wrote=" in r.getMessage()]
        size = len(out.read_bytes())
        assert size > len(out.read_text(encoding="utf-8"))
        assert message == f"command=parse wrote={out} bytes={size}"


class TestLoggingScope:
    def test_no_handler_outlives_the_call(self, tmp_path, monkeypatch):
        root = logging.getLogger()
        saved, level = root.handlers[:], root.level
        root.handlers.clear()
        try:
            first = io.StringIO()
            monkeypatch.setattr(sys, "stderr", first)
            assert run(["parse", "--rules", str(tmp_path / "missing.rules")]) == 2
            assert "ERROR ruleforge" in first.getvalue()
            assert root.handlers == []
            assert root.level == level
            first.close()
            later = io.StringIO()
            monkeypatch.setattr(sys, "stderr", later)
            logging.getLogger("ruleforge").warning("a later line")
            assert "Logging error" not in later.getvalue()
        finally:
            root.handlers[:] = saved
            root.setLevel(level)

    def test_existing_handlers_are_kept(self, corpus):
        root = logging.getLogger()
        handler = logging.NullHandler()
        root.addHandler(handler)
        before = root.handlers[:]
        try:
            assert run(["parse", "--rules", corpus, "--lint"]) == 0
            assert root.handlers == before
        finally:
            root.removeHandler(handler)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["parse", "--nope"]) == 1

    def test_missing_required_argument(self, capsys):
        assert run(["parse"]) == 1

    def test_no_arguments(self, capsys):
        assert run([]) == 1

    def test_help(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out.lower() or True

    def test_subcommand_help(self, capsys):
        assert run(["generate", "--help"]) == 0
        assert "--sid-base" in capsys.readouterr().out

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


class TestConsoleScript:
    def test_entry_point_runs(self, corpus):
        result = subprocess.run(
            [sys.executable, "-m", "ruleforge.cli", "parse", "--rules", corpus, "--lint"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "parsed 12 rules, 0 errors" in result.stdout

    def test_non_utf8_rules_file_exits_2_without_a_traceback(self, tmp_path):
        bad = tmp_path / "latin1.rules"
        bad.write_bytes(b"# caf\xe9\n")
        result = subprocess.run(
            [sys.executable, "-m", "ruleforge.cli", "parse", "--rules", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith(f"ERROR ruleforge {bad}: 'utf-8' codec can't decode")
        assert "Traceback" not in result.stderr

    def test_nul_byte_in_a_config_path_exits_1_without_a_traceback(self, tmp_path, table2_file):
        config = tmp_path / "forge.conf"
        config.write_text("out = model\0.json\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "ruleforge.cli", "train", "--config", str(config),
             "--rules", table2_file],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("usage error: config field 'out': ")
        assert "Traceback" not in result.stderr

    @pytest.fixture
    def one_bad_line(self, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text(
            "alert tcp any any -> any 445 (sid:1;)\nalert tcp any any => any 445 (sid:2;)\n",
            encoding="utf-8",
        )
        return bad

    def test_parse_reports_a_malformed_line_once(self, one_bad_line):
        # in a child process: pytest's log capture would hide a logged duplicate
        result = subprocess.run(
            [sys.executable, "-m", "ruleforge.cli", "parse", "--rules", str(one_bad_line)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"{one_bad_line}:2: invalid direction token '=>' (byte offset 18)"
        ]

    def test_lint_reports_a_malformed_line_only_on_stdout(self, one_bad_line):
        result = subprocess.run(
            [sys.executable, "-m", "ruleforge.cli", "parse", "--rules", str(one_bad_line), "--lint"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert result.stdout.splitlines() == [
            f"{one_bad_line}:2: invalid direction token '=>' (byte offset 18)",
            "parsed 1 rules, 1 errors",
        ]

    def test_stdout_is_utf8_in_an_ascii_locale(self, tmp_path):
        rules = tmp_path / "cafe.rules"
        rules.write_text('alert tcp any any -> any 80 (msg:"caf\u00e9"; sid:1;)\n', encoding="utf-8")
        out = tmp_path / "cafe.out"
        argv = [sys.executable, "-m", "ruleforge.cli", "parse", "--rules", str(rules)]
        assert subprocess.run([*argv, "--out", str(out)]).returncode == 0
        result = subprocess.run(
            argv, capture_output=True, env={**os.environ, "PYTHONIOENCODING": "ascii"}
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        assert result.stdout == out.read_bytes()
        assert "caf\u00e9".encode("utf-8") in result.stdout
