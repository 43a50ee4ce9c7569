"""Benchmark of the ruleforge CLI.

Run from the repository root:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 34 --trace 0

Each workload generates a seeded synthetic corpus (perfbench/corpus.py) and
drives ``python -m ruleforge.cli`` in child processes, one at a time, in a
closed loop with one client, for --seconds. Each command's wall time is timed
and its peak RSS read from os.wait4's rusage, and every output is checked
(perfbench/checks.py); a failed check counts as a failed operation and never
stops the run.

Each workload has a set-up command: `ruleforge train` for synth, which writes
the model its generate calls read, and `ruleforge parse --lint` for evaluate
and cluster, which validates their corpus. The corpus itself is generated
before anything is timed.

End-to-end metrics (--trace 0), per workload: setup_s, the median wall time
of the set-up command, run SETUP_REPEATS times at even intervals over the
run (the first before any other command); command_norm_s, the mean wall
time of the workload's command (generate, evaluate or cluster);
command_peak_rss_mb, the median of its peak RSS. On a shared machine the
speed of a core drifts by 20-30% over minutes, for any work done on it, so
the two times are normalised: after each command the benchmark runs a fixed
reference unit of CPU work (perfbench/reference.py) until the units add up
to REF_SHARE of the command time so far, and both times are scaled by
REF_UNIT_S over the run's mean unit time. They read as the seconds the
commands would take on a machine where the unit takes REF_UNIT_S. The
reference runs no ruleforge code, so every change in the program shows in
them. The printed report adds the raw wall times, the unit's time and the
per-command names (train_s, model_mb, generate_p50_s,
generate_rules_per_s, ...) with the failed-command ratio and the sample
count. Children are started from a small launcher process
(perfbench/launcher.py) so that their peak RSS is their own.

With --trace 1 the run instead reports per-layer metrics: it runs a few
commands as children, then replays the same commands (and synth's train)
in-process through ``ruleforge.cli.run``, in pairs of a plain replay and one
with every public library function wrapped in a span (perfbench/tracing.py).
The difference between the two is the tracing overhead.

--workload all runs every workload in turn and prints each one's metrics.
The last line of stdout is always one JSON object with the keys correct,
attempted, failed and metrics. Result files with the spans, every sample
and the environment go to .perfbench/ in the repository root.

Tests of the benchmark itself: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from corpus import Corpus, CorpusSpec, generate

# checks, tracing and ruleforge are imported inside functions: main() first
# puts this checkout's src/ on sys.path. reference, which imports numpy, is
# imported there too, after the launcher has started (see launcher.py).

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
REF_SHARE = 0.25  # seconds of reference units per second of command time
REF_UNIT_S = 0.03  # the unit's typical time on a 2-vCPU Xeon VM; sets the scale only
CHILD_TIMEOUT_S = 150
SID_BASE = 2_000_000
GENERATE_LIMIT = 500
GENERATE_SEEDS = 16
EVALUATE_FOLDS = 3


@dataclass(frozen=True)
class Workload:
    """One corpus shape, its set-up command and the command the end-to-end metrics time.

    BENCHMARK.json says why each workload is there.
    """

    name: str
    setup: str  # "train" or "parse"
    command: str
    spec: CorpusSpec


# Per-command name of the latency in the printed report.
LATENCY_NAMES = {"generate": "generate_p50_s", "evaluate": "evaluate_s", "cluster": "cluster_s"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth", "train", "generate", CorpusSpec(rules=5000, families=200, pool=400)),
        Workload("evaluate", "parse", "evaluate", CorpusSpec(rules=700, families=60, pool=60)),
        Workload(
            "cluster",
            "parse",
            "cluster",
            CorpusSpec(
                rules=500, families=60, pool=30, long_share=0.1, long_len=20, content_max=1
            ),
        ),
    )
}

LAYER_METRICS = (
    # (name, unit, source). Means over the replayed commands that reach the
    # layer: "span:<name>" seconds in the span, "self:<name>" the same less
    # its child spans, "calls:<name>" span count, "count:<name>" counter.
    # "gauge:<name>" is the largest value seen. Layers a workload does not
    # run read 0.
    ("parser.parse_s", "s", "span:parser.parse"),
    ("parser.rules", "count", "count:parser.rules"),
    ("parser.rejected", "count", "count:parser.rejected"),
    ("encoding.vocab_s", "s", "span:encoding.vocab"),
    ("encoding.encode_s", "s", "span:encoding.encode"),
    ("encoding.attributes", "count", "gauge:encoding.attributes"),
    ("encoding.width", "count", "gauge:encoding.width"),
    ("bayes.fit_s", "s", "span:bayes.fit"),
    ("bayes.fit_peak_mb", "MiB", "gauge:bayes.fit_peak_mb"),
    ("bayes.pair_cells", "count", "gauge:bayes.pair_cells"),
    ("bayes.to_json_s", "s", "span:bayes.to_json"),
    ("bayes.model_bytes", "bytes", "gauge:bayes.model_bytes"),
    ("bayes.load_s", "s", "span:bayes.load"),
    ("bayes.predict_calls", "count", "calls:bayes.predict"),
    ("bayes.predict_s", "s", "span:bayes.predict"),
    ("abduction.abduce_s", "s", "span:abduction.abduce"),
    ("abduction.enumerate_s", "s", "span:abduction.enumerate"),
    ("abduction.materialize_s", "s", "span:abduction.materialize"),
    ("abduction.combinations", "count", "count:abduction.combinations"),
    ("abduction.rules_emitted", "count", "count:abduction.rules_emitted"),
    ("abduction.truncated_share", "ratio", "count:abduction.truncated"),
    ("clustering.distance_s", "s", "span:clustering.distance"),
    ("clustering.agglomerate_s", "s", "span:clustering.agglomerate"),
    ("clustering.lookups_unequal", "count", "gauge:clustering.lookups_unequal"),
    ("clustering.value_pairs_distinct", "count", "gauge:clustering.value_pairs_distinct"),
    ("clustering.lev_cells", "count", "gauge:clustering.lev_cells"),
    ("evaluation.loco_s", "s", "span:evaluation.loco"),
    ("evaluation.self_s", "s", "self:evaluation.loco"),
    ("evaluation.predictions", "count", "count:evaluation.predictions"),
    ("cli.startup_s", "s", "gauge:cli.startup_s"),
    ("cli.overhead_s", "s", "gauge:cli.overhead_s"),
)


@dataclass
class Op:
    """One CLI command and how to check what it wrote."""

    label: str
    args: list[str]  # arguments after `python -m ruleforge.cli`
    output: Path
    check: Callable[[bytes], dict | None]


@dataclass
class OpResult:
    label: str
    wall_s: float
    peak_rss_mb: float
    output_bytes: int = 0
    sha256: str = ""
    error: str = ""
    details: dict = field(default_factory=dict)


@dataclass
class Context:
    launcher: Launcher
    workload: Workload
    work: Path
    corpus: Corpus
    properties: dict
    setup: Op
    ops: list[Op]
    setup_results: list[OpResult] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)  # reference unit times


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that starts every CLI command (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args: list[str], log: Path) -> tuple[int, float, float]:
        """Run `python -m ruleforge.cli args`; return (exit code, wall s, peak RSS MiB)."""
        request = {
            "argv": [sys.executable, "-m", "ruleforge.cli", *args],
            "stderr": str(log),
            "timeout_s": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["wall_s"], reply["peak_rss_mb"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the launcher exits at the end of its input
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail(path: Path, limit: int = 300) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-limit:].strip()


def finish_op(op: Op, result: OpResult, code: int, log: Path) -> OpResult:
    """Record the output and run the op's check; never raises."""
    from checks import CheckFailed

    if code != 0:
        result.error = f"exit {code}: {tail(log)}"
        return result
    try:
        data = op.output.read_bytes()
        result.output_bytes = len(data)
        result.sha256 = hashlib.sha256(data).hexdigest()
        result.details = op.check(data) or {}
    except (OSError, CheckFailed) as exc:
        result.error = f"check: {exc}"
    return result


def run_op_child(op: Op, launcher: Launcher, work: Path) -> OpResult:
    log = work / "child.log"
    code, wall, rss = launcher.run(op.args, log)
    return finish_op(op, OpResult(op.label, wall, rss), code, log)


# ---------------------------------------------------------------- workloads


def corpus_properties(workload: Workload, corpus: Corpus) -> dict:
    from ruleforge import build_vocabulary, parse_ruleset

    rules, errors = parse_ruleset(corpus.text)
    vocab = build_vocabulary(rules)
    value_lengths = sorted(len(v) for r in rules for v in r.attribute_values().values())
    quartiles = statistics.quantiles(value_lengths, n=4)
    return {
        **corpus.properties(),
        "n": len(rules),
        "rejected": len(errors),
        "A": len(vocab.attributes),
        "W": vocab.one_hot_width(),
        "value_length": {
            "min": value_lengths[0],
            "q1": quartiles[0],
            "median": quartiles[1],
            "q3": quartiles[2],
            "max": value_lengths[-1],
        },
        "spec": workload.spec.__dict__,
    }


def synth_seeds(corpus: Corpus) -> list[int]:
    """Seed sids: the rules carrying the most option keys, ties by sid."""
    ranked = sorted(zip(corpus.carried, corpus.sids), key=lambda c: (-c[0], c[1]))
    return [sid for _, sid in ranked[:GENERATE_SEEDS]]


def make_ops(workload: Workload, corpus: Corpus, work: Path) -> list[Op]:
    from ruleforge import HEADER_ATTRIBUTES

    from checks import check_cluster_csv, check_evaluate_csv, check_generated

    rules_path = str(work / "corpus.rules")
    if workload.name == "synth":
        out = work / "generated.rules"

        def check_generate(data: bytes) -> dict:
            emitted = check_generated(data, SID_BASE, GENERATE_LIMIT)
            return {"rules": emitted, "truncated": emitted == GENERATE_LIMIT}

        return [
            Op(
                f"generate:{sid}",
                [
                    "generate", "--model", str(work / "model.json"), "--rules", rules_path,
                    "--seed-sid", str(sid), "--strategy", "topk", "--topk", "3",
                    "--limit", str(GENERATE_LIMIT), "--sid-base", str(SID_BASE),
                    "--category", "SYNTH", "--out", str(out),
                ],
                out,
                check_generate,
            )
            for sid in synth_seeds(corpus)
        ]

    if workload.name == "evaluate":
        out = work / "evaluate.csv"
        attributes = frozenset(HEADER_ATTRIBUTES) | corpus.option_keys
        return [
            Op(
                "evaluate",
                ["evaluate", "--rules", rules_path, "--folds", str(EVALUATE_FOLDS), "--out", str(out)],
                out,
                lambda data: check_evaluate_csv(data, attributes, EVALUATE_FOLDS),
            )
        ]

    out = work / "cluster.csv"
    cut = math.ceil(math.sqrt(len(corpus.sids)))
    return [
        Op(
            "cluster",
            ["cluster", "--rules", rules_path, "--cut-count", str(cut), "--out", str(out)],
            out,
            lambda data: check_cluster_csv(data, corpus.sids, cut),
        )
    ]


def train_op(corpus: Corpus, work: Path) -> Op:
    """`ruleforge train` on the corpus; its check loads each distinct model once."""
    from checks import check_model

    model = work / "model.json"
    verified: set[str] = set()

    def check_train(data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if digest not in verified:  # identical bytes load identically
            check_model(str(model), len(corpus.sids))
            verified.add(digest)

    args = ["train", "--rules", str(work / "corpus.rules"), "--out", str(model)]
    return Op("train", args, model, check_train)


def lint_op(corpus: Corpus, work: Path) -> Op:
    """`ruleforge parse --lint` on the corpus: one diagnostic per malformed line."""
    from checks import check_lint

    out = work / "lint.txt"
    args = ["parse", "--lint", "--rules", str(work / "corpus.rules"), "--out", str(out)]
    return Op("parse", args, out, lambda data: check_lint(data, len(corpus.sids), corpus.malformed))


def set_up(launcher: Launcher, workload: Workload, seed: int) -> Context:
    """Write the corpus and the commands with their expected outputs; nothing here is timed."""
    work = WORK / f"{workload.name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    launcher.run(["--version"], work / "child.log")  # fill bytecode caches before timing
    from reference import reference_unit

    for _ in range(3):
        reference_unit()  # build its inputs and warm numpy before timing
    corpus = generate(workload.spec, seed)
    (work / "corpus.rules").write_text(corpus.text, encoding="utf-8")
    setup = (train_op if workload.setup == "train" else lint_op)(corpus, work)
    setup.output.unlink(missing_ok=True)  # no stale output can stand in for a failed set-up
    properties = corpus_properties(workload, corpus)
    return Context(launcher, workload, work, corpus, properties, setup, make_ops(workload, corpus, work))


# ---------------------------------------------------------------- measuring


def closed_loop(ctx: Context, seconds: float, setups: int = SETUP_REPEATS) -> list[OpResult]:
    """Run the ops round-robin, one at a time, for about seconds.

    The set-up command runs setups times, into ctx.setup_results: first,
    then whenever another 1/setups of the time has passed, and before the
    loop ends if it has not run often enough by then. A command is started
    only if, taking as long as the previous one, it would end less than half
    its time past the deadline. The measured time stays close to seconds,
    and the run's length stays bounded however long one command takes.
    After each command, reference units run into ctx.reference_s until they
    add up to REF_SHARE of the command time so far, so that they sample the
    machine's speed all through the run.
    """
    from reference import reference_unit

    results: list[OpResult] = []
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    busy = 0.0
    while True:
        now = time.perf_counter()
        ending = bool(results) and now + results[-1].wall_s / 2 > deadline
        if done < setups and (ending or now >= start + done * seconds / setups):
            result = run_op_child(ctx.setup, ctx.launcher, ctx.work)
            ctx.setup_results.append(result)
            done += 1
        elif ending:
            return results
        else:
            result = run_op_child(ctx.ops[len(results) % len(ctx.ops)], ctx.launcher, ctx.work)
            results.append(result)
        busy += result.wall_s
        while sum(ctx.reference_s) < REF_SHARE * busy:
            ctx.reference_s.append(reference_unit())


def mark_nondeterministic(results: list[OpResult]) -> None:
    """Fail repeats of one command whose output bytes differ from its first run."""
    first: dict[str, str] = {}
    for result in results:
        if not result.error and result.sha256 != first.setdefault(result.label, result.sha256):
            result.error = "output differs from an earlier run of the same command"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(ctx: Context, results: list[OpResult]) -> tuple[dict, dict]:
    good = [r for r in results if not r.error] or results
    setups = [r for r in ctx.setup_results if not r.error] or ctx.setup_results
    setup_wall = median([r.wall_s for r in setups])
    command_wall = statistics.mean(r.wall_s for r in good)
    unit = statistics.mean(ctx.reference_s)
    metrics = {
        "setup_s": (setup_wall * REF_UNIT_S / unit, "s"),
        "command_norm_s": (command_wall * REF_UNIT_S / unit, "s"),
        "command_peak_rss_mb": (median([r.peak_rss_mb for r in good]), "MiB"),
    }
    command = ctx.workload.command
    named = {
        "setup_wall_s": (setup_wall, "s"),
        "command_mean_wall_s": (command_wall, "s"),
        "reference_unit_s": (unit, f"s, mean of {len(ctx.reference_s)}"),
        LATENCY_NAMES[command]: (median([r.wall_s for r in good]), "s"),
        f"{command}_peak_rss_mb": metrics["command_peak_rss_mb"],
    }
    if ctx.workload.setup == "train":
        named["train_s"] = (setup_wall, "s")
        named["train_peak_rss_mb"] = (median([r.peak_rss_mb for r in setups]), "MiB")
        named["model_mb"] = (median([r.output_bytes / 2**20 for r in setups]), "MiB")
    everything = ctx.setup_results + results
    failed = sum(1 for r in everything if r.error)
    named["ops_failed_ratio"] = (failed / len(everything), f"of {len(everything)}")
    if ctx.workload.name == "synth":
        emitted = sum(r.details.get("rules", 0) for r in good)
        named["generate_rules_per_s"] = (emitted / sum(r.wall_s for r in good), "1/s")
        truncated = sum(1 for r in good if r.details.get("truncated"))
        named["generate_truncated_share"] = (truncated / len(good), f"of {len(good)} calls")
    named["samples"] = (len(good), "count")
    return metrics, named


def in_process(
    ctx: Context, ops: list[Op], tracer, seconds: float
) -> tuple[list[OpResult], list[float], list[float], list[str]]:
    """Replay ops through ruleforge.cli.run, each once plain and once traced.

    Rounds over the ops repeat until seconds have passed; the labels of the
    replayed ops come back last, one per plain/traced pair. An untimed replay
    of the first op comes first, because the first replay in a process pays
    for growing its heap. The two timed replays of an op run back to back, in
    alternating order, so that drift in the machine's speed cancels out of
    the tracing overhead.
    """
    from ruleforge import cli

    from tracing import instrumented

    log = ctx.work / "inprocess.log"

    def replay(op: Op) -> tuple[int, float]:
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.run(op.args)
            except Exception:  # fails this command only, as a crash in a child would
                logging.getLogger(__name__).exception("%s raised", op.label)
                code = 1
            return code, time.perf_counter() - start

    def traced(op: Op) -> tuple[int, float]:
        with instrumented(tracer), tracer.span("cli.run"):
            return replay(op)

    results, plain_walls, traced_walls = [], [], []
    root = logging.getLogger()
    handler = logging.FileHandler(log, mode="w")
    root.addHandler(handler)  # keeps cli.run from logging to stderr
    root.setLevel(logging.INFO)
    try:
        code, wall = replay(ops[0])
        results.append(finish_op(ops[0], OpResult(ops[0].label, wall, 0.0), code, log))
        deadline = time.perf_counter() + seconds
        index = 0
        while index < len(ops) or time.perf_counter() < deadline:
            op = ops[index % len(ops)]
            tracer.op = index
            order = [(replay, plain_walls), (traced, traced_walls)]
            if index % 2:
                order.reverse()
            for run, walls in order:
                code, wall = run(op)
                walls.append(wall)
                results.append(finish_op(op, OpResult(op.label, wall, 0.0), code, log))
            index += 1
    finally:
        root.removeHandler(handler)
        handler.close()
    return results, plain_walls, traced_walls, [ops[i % len(ops)].label for i in range(index)]


def layer_metrics(ctx: Context, seconds: float) -> tuple[dict, list[OpResult], dict]:
    """The traced run: a third of the time children, the rest in-process replays.

    synth also replays its set-up's train, so the layers only training
    reaches are measured too.
    """
    from ruleforge.bayes import fit

    from tracing import Tracer, distance_work

    children = closed_loop(ctx, seconds / 3, setups=1)
    ops = ctx.ops[: len(children)]  # replay the commands the children ran
    if ctx.workload.setup == "train":
        ops = [ctx.setup, *ops]
    child_walls: dict[str, list[float]] = {}
    for result in ctx.setup_results + children:
        child_walls.setdefault(result.label, []).append(result.wall_s)
    startup = median([ctx.launcher.run(["--version"], ctx.work / "child.log")[1] for _ in range(3)])
    tracer = Tracer()
    replays, plain_walls, traced_walls, labels = in_process(ctx, ops, tracer, seconds * 2 / 3)

    stage_sums = [0.0] * len(labels)
    for span in tracer.children_of("cli.run"):
        stage_sums[span.op] += span.end - span.start
    overheads = [statistics.mean(child_walls[label]) - stage for label, stage in zip(labels, stage_sums)]
    tracer.gauge("cli.startup_s", startup)
    tracer.gauge("cli.overhead_s", statistics.mean(overheads))
    for span in tracer.children_of("evaluation.loco"):
        if span.name == "bayes.predict":
            tracer.count("evaluation.predictions", 1, span.op)
    if "bayes.fit" in tracer.captured:
        args, kwargs = tracer.captured["bayes.fit"]
        tracemalloc.start()  # a separate fit, so tracemalloc slows no timed span
        try:
            fit(*args, **kwargs)
            tracer.gauge("bayes.fit_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    if "clustering.distance" in tracer.captured:
        for name, value in distance_work(tracer.captured["clustering.distance"][0][0]).items():
            tracer.gauge(name, value)
    tracer.captured.clear()

    totals = tracer.totals()
    metrics = {}
    for name, unit, source in LAYER_METRICS:
        kind, key = source.split(":", 1)
        row = totals.get(key, {})
        if kind == "gauge":
            value = tracer.gauges.get(key, 0)
        elif kind == "count":
            value = tracer.counts.get(key, 0) / max(len(tracer.count_ops.get(key, ())), 1)
        else:
            field_name = {"span": "total_s", "self": "self_s", "calls": "calls"}[kind]
            value = row.get(field_name, 0) / max(row.get("commands", 0), 1)
        metrics[name] = (value, unit)
    overhead = statistics.mean(traced_walls) - statistics.mean(plain_walls)
    shares = {}
    if tracer.gauges.get("clustering.lookups_unequal"):
        lookups = tracer.gauges["clustering.lookups_unequal"]
        shares["distinct_value_pairs_per_lookup"] = {
            "value": tracer.gauges["clustering.value_pairs_distinct"] / lookups,
            "base": f"{lookups} unequal shared-key lookups",
        }
    if tracer.counts.get("abduction.rules_emitted"):
        calls = len(tracer.count_ops["abduction.rules_emitted"])
        shares["seeds_truncated_at_limit"] = {
            "value": tracer.counts.get("abduction.truncated", 0) / calls,
            "base": f"{calls} generate calls",
        }
    extra = {
        "shares": shares,
        "replayed": labels,
        "child_wall_s": child_walls,
        "inprocess_plain_wall_s": plain_walls,
        "inprocess_traced_wall_s": traced_walls,
        "tracing_overhead_s": overhead,
        "tracing_overhead_share": overhead / statistics.mean(plain_walls),
        "spans": {name: row for name, row in sorted(totals.items())},
        "trace": tracer.to_json(),
    }
    return metrics, children + replays, extra


# ---------------------------------------------------------------- reporting


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no sha
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(
    launcher: Launcher, workload: Workload, seed: int, seconds: float, trace: bool
) -> dict:
    ctx = set_up(launcher, workload, seed)
    props = ctx.properties
    print(
        f"# workload={workload.name} seed={seed} trace={int(trace)} n={props['n']} "
        f"A={props['A']} W={props['W']} families={props['families']} "
        f"rejected={props['rejected']} value_len_median={props['value_length']['median']}"
    )
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "corpus": props}
    if trace:
        metrics, results, extra = layer_metrics(ctx, seconds)
        record.update(extra)
        shown = metrics
        print(f"# tracing overhead: {extra['tracing_overhead_s']:.4f} s per command "
              f"({100 * extra['tracing_overhead_share']:.1f}% of the plain in-process replay, "
              f"{len(extra['inprocess_traced_wall_s'])} pairs)")
        for name, share in extra["shares"].items():
            print(f"# {name}: {share['value']:.6g} of {share['base']}")
    else:
        results = closed_loop(ctx, seconds)
        mark_nondeterministic(ctx.setup_results + results)
        metrics, named = end_to_end(ctx, results)
        record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        shown = {**metrics, **named}
    results = ctx.setup_results + results
    failed = [r for r in results if r.error]
    for name, (value, unit) in shown.items():
        print(f"{workload.name:9} {name:34} {fmt(value):>14} {unit}")
    for result in failed[:5]:
        print(f"# FAILED {result.label}: {result.error}")
    record["samples"] = [r.__dict__ for r in results]
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out = WORK / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"attempted": len(results), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ruleforge" / "cli.py").is_file():
        print(f"error: no ruleforge sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    # Started while this process is still small: see launcher.py.
    with Launcher() as launcher:
        sys.path.insert(0, str(SRC))
        import ruleforge

        if Path(ruleforge.__file__).resolve().parent != (SRC / "ruleforge").resolve():
            print(f"error: imported ruleforge from {ruleforge.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        for name in names:
            outcome = run_workload(
                launcher, WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in outcome["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
