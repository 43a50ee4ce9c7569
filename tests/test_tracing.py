"""The benchmark's tracer (perfbench/tracing.py) still works with the library.

The tracer wraps library names from outside and reads the model's counts, so
a library change can break it without breaking any command. This runs every
command the benchmark traces on the sample corpus under instrumented(), with
the tracer loaded from its file and left unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import oracles
from ruleforge import SmoothedModel, encode_corpus
from ruleforge.cli import run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """The tracer module, registered for the test only (its dataclass looks itself up)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_command_runs_under_the_tracer(
    sample_corpus_path, sample_rules, tmp_path, monkeypatch
):
    tracing = load_tracing(monkeypatch)
    rules, model = str(sample_corpus_path), str(tmp_path / "model.json")
    seed = ["--model", model, "--rules", rules, "--seed-sid", "13162"]
    commands = [
        ["train", "--rules", rules, "--out", model],
        ["abduce", *seed, "--threshold", "0.01"],
        ["generate", *seed, "--limit", "20", "--out", str(tmp_path / "generated.rules")],
        ["sweep", *seed, "--thresholds", "0.001,0.01,0.5"],
        ["evaluate", "--rules", rules, "--folds", "3", "--out", str(tmp_path / "eval.csv")],
        ["cluster", "--rules", rules, "--cut-count", "3", "--out", str(tmp_path / "clusters.csv")],
    ]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        for op, argv in enumerate(commands):
            tracer.op = op
            assert run(argv) == 0, argv[0]
    spans = tracer.totals()
    for name in ("bayes.fit", "bayes.load", "bayes.predict", "evaluation.loco"):
        assert spans[name]["calls"] >= 1, name
    vocab = SmoothedModel.load(model).vocab
    dense = oracles.dense_pair_counts(encode_corpus(sample_rules, vocab), vocab)
    assert tracer.gauges["bayes.pair_cells"] == 3 * sum(
        np.count_nonzero(table) for table in dense.values()
    )
