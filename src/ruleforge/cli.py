"""Command-line interface.

Subcommands: parse, train, abduce, generate, cluster, evaluate, sweep.
Results go to stdout or --out; log lines go to stderr. Exit codes: 0 on
success, 1 on usage/config errors (out-of-range values included), 2 on data
errors (unreadable files, parse failures, unknown sids, ...).

A flat key = value config file (--config FILE) can preload the flags. Its
keys are the long names of any subcommand's flags (hyphens or underscores),
its values are checked as strictly as on the command line, choices and
ranges included, and a line whose first non-blank character is '#' is a
comment. Flags given on the command line override the file, and the file may
supply a flag that is otherwise required. No flag may be abbreviated, and
--config may not be repeated.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .abduction import (
    DEFAULT_LIMIT,
    DEFAULT_SID_BASE,
    STRATEGY_CHOICES,
    SeedObservation,
    Strategy,
    abduce_antecedents,
    build_candidate_graph,
    enumerate_rules,
    materialize_snort_rules,
    seed_posteriors,
    select_candidates,
    threshold_sweep,
)
# predict_distribution is not called here; perfbench/tracing.py wraps it under
# this module's name
from .bayes import SMOOTHING_MODES, SmoothedModel, fit, predict_distribution
from .clustering import DistanceParams, LINKAGES, agglomerate, build_distance_matrix
from .encoding import ExclusionList, build_vocabulary, encode_corpus
from .errors import RuleforgeError
from .evaluation import SplitSpec, loco_evaluate
from .parser import ParseError, ParsedRule, find_rule, parse_ruleset, serialize_rule

LOG = logging.getLogger("ruleforge")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no abbreviations: --conf is never --config
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise UsageError(message)


_BOOL_WORDS = {
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "on": True,
    "off": False,
    "1": True,
    "0": False,
}


def _bounded(kind, description: str, accept):
    """An argparse type: kind(text), kept only when accept(value) holds."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {description}, got {text!r}")
        return value

    return convert


_FOLDS = _bounded(int, "an integer >= 2", lambda v: v >= 2)
_POSITIVE_INT = _bounded(int, "an integer >= 1", lambda v: v >= 1)
_NON_NEGATIVE_INT = _bounded(int, "an integer >= 0", lambda v: v >= 0)
_SID_BASE = _bounded(int, f"an integer >= {DEFAULT_SID_BASE}", lambda v: v >= DEFAULT_SID_BASE)
_ALPHA = _bounded(float, "a finite number > 0", lambda v: math.isfinite(v) and v > 0)
_NON_NEGATIVE = _bounded(float, "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)
_PROBABILITY = _bounded(float, "a number in [0, 1]", lambda v: 0 <= v <= 1)


def _coerce_config(key: str, raw: str, action: argparse.Action):
    if "\0" in raw:  # no command-line flag can carry one, and no path may hold one
        raise UsageError(f"config field {key!r}: a value cannot hold a NUL byte, got {raw!r}")
    if action.nargs == 0:  # store_true
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise UsageError(f"config field {key!r}: expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    kind = action.type or str
    try:
        value = kind(raw.strip())
    except ValueError:
        raise UsageError(
            f"config field {key!r}: expected {kind.__name__}, got {raw!r}"
        ) from None
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"config field {key!r}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise UsageError(f"config field {key!r}: expected one of {choices}, got {raw!r}")
    return value


def load_config(path: str, subs: dict[str, argparse.ArgumentParser] | None = None) -> dict:
    """Read a flat key = value config file; a line starting with '#' is a comment.

    Its keys are the flags of subs, build_parser's subcommands (built here if
    not given).
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    if subs is None:
        _, subs = build_parser()
    fields: dict[str, argparse.Action] = {}
    for sub in subs.values():
        for action in sub._actions:
            if action.dest not in ("help", "config"):
                fields.setdefault(action.dest, action)
    values: dict = {}
    # read_text ends every line at \n; str.splitlines would also break inside a value
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key = key.strip().replace("-", "_")
        if key not in fields:
            raise UsageError(f"{path}:{line_no}: unknown config field {key!r}")
        values[key] = _coerce_config(key, value, fields[key])
    return values


def _extract_config_path(argv: list[str]) -> str | None:
    """The --config path of argv, read as the subcommands read it; given at most once."""
    flag = _Parser(add_help=False)
    flag.add_argument("--config", action="append", default=[])
    paths = flag.parse_known_args(argv)[0].config
    if len(paths) > 1:
        raise UsageError("--config may be given only once")
    return paths[0] if paths else None


def _add_common(sub: argparse.ArgumentParser, out_required: bool = False) -> None:
    sub.add_argument("--config", help="flat key=value config file; flags override it")
    sub.add_argument(
        "--out",
        required=out_required,
        help="file to write the results to" + ("" if out_required else " (default stdout)"),
    )


def _add_exclude(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--exclude",
        default="",
        help="comma-separated attribute keys to exclude from the vocabulary",
    )


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--alpha", type=_ALPHA, default=1.0, help="smoothing constant, > 0 (default 1.0)"
    )
    sub.add_argument(
        "--smoothing",
        choices=SMOOTHING_MODES,
        default="corpus",
        help="denominator mass: 'corpus' uses the training-set size, "
        "'conventional' the target vocabulary size (default corpus)",
    )
    sub.add_argument(
        "--skip-unk-evidence",
        action="store_true",
        help="ignore UNK-valued evidence attributes when scoring",
    )
    sub.add_argument(
        "--with-prior",
        action="store_true",
        help="multiply scores by the smoothed marginal of the target value",
    )


def _add_strategy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--strategy",
        choices=STRATEGY_CHOICES,
        default="threshold",
        help="candidate selection strategy (default threshold)",
    )
    sub.add_argument(
        "--threshold",
        type=_PROBABILITY,
        default=0.01,
        help="probability cutoff in [0, 1] for the threshold strategy (default 0.01)",
    )
    sub.add_argument(
        "--topk", type=_POSITIVE_INT, default=3, help="k for the topk strategy, >= 1 (default 3)"
    )


def _add_seed_flags(sub: argparse.ArgumentParser) -> None:
    """The flags of the commands that abduce from one seed rule: abduce, generate, sweep."""
    sub.add_argument("--model", required=True, help="model file from train")
    sub.add_argument("--rules", required=True, help="rules file holding the seed")
    sub.add_argument("--seed-sid", type=int, required=True, help="sid of the seed rule")
    sub.add_argument(
        "--allow-insertion",
        action="store_true",
        help="also offer candidates for attributes the seed does not carry",
    )


def _add_cluster_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--w1",
        type=_NON_NEGATIVE,
        default=1.0,
        help="weight of the key-set distance, >= 0 (default 1.0)",
    )
    sub.add_argument(
        "--w2",
        type=_NON_NEGATIVE,
        default=1.0,
        help="weight of the per-attribute edit distance, >= 0 (default 1.0)",
    )
    sub.add_argument(
        "--linkage", choices=LINKAGES, default="average", help="linkage (default average)"
    )
    sub.add_argument(
        "--cut-count",
        type=_POSITIVE_INT,
        default=None,
        help="cut the dendrogram to this many clusters, >= 1 (default ceil(sqrt(n)))",
    )
    sub.add_argument(
        "--cut-height",
        type=_NON_NEGATIVE,
        default=None,
        help="cut the dendrogram at this height, >= 0",
    )


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="ruleforge",
        description="Parse snort rules, learn antecedent correlations, and "
        "synthesize, cluster, and evaluate rules.",
    )
    parser.add_argument("--version", action="version", version=f"ruleforge {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    sub = commands.add_parser("parse", help="parse a rules file and report problems")
    sub.add_argument("--rules", required=True, help="snort rules file")
    sub.add_argument(
        "--lint",
        action="store_true",
        help="report per-line diagnostics and a summary instead of re-serializing",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_parse)
    subs["parse"] = sub

    sub = commands.add_parser("train", help="fit the pairwise-conditional model")
    sub.add_argument("--rules", required=True, help="training rules file")
    sub.add_argument("--vocab-out", help="also dump the vocabulary as JSON")
    _add_exclude(sub)
    sub.add_argument(
        "--keep-constant",
        action="store_true",
        help="keep attributes whose value is constant across the corpus",
    )
    _add_model_flags(sub)
    _add_common(sub, out_required=True)
    sub.set_defaults(handler=_cmd_train)
    subs["train"] = sub

    sub = commands.add_parser("abduce", help="rank candidate values for a seed rule")
    _add_seed_flags(sub)
    sub.add_argument("--target", help="only this attribute (default: all attributes)")
    _add_strategy_flags(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_abduce)
    subs["abduce"] = sub

    sub = commands.add_parser("generate", help="enumerate and emit new rules from a seed")
    _add_seed_flags(sub)
    sub.add_argument(
        "--category",
        default="GENERATED",
        help='msg category tag, without " or a line break (default GENERATED)',
    )
    sub.add_argument(
        "--sid-base",
        type=_SID_BASE,
        default=DEFAULT_SID_BASE,
        help=f"first sid to allocate (default {DEFAULT_SID_BASE})",
    )
    sub.add_argument(
        "--limit",
        type=_NON_NEGATIVE_INT,
        default=DEFAULT_LIMIT,
        help=f"maximum rules to enumerate, >= 0 (default {DEFAULT_LIMIT})",
    )
    sub.add_argument(
        "--strict-limit",
        action="store_true",
        help="fail instead of truncating when the limit is exceeded",
    )
    _add_strategy_flags(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_generate)
    subs["generate"] = sub

    sub = commands.add_parser("cluster", help="cluster rules by weighted distance")
    sub.add_argument("--rules", required=True, help="rules file to cluster")
    _add_cluster_flags(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_cluster)
    subs["cluster"] = sub

    sub = commands.add_parser("evaluate", help="cross-validated per-attribute accuracy")
    sub.add_argument("--rules", required=True, help="rules file to evaluate on")
    sub.add_argument("--folds", type=_FOLDS, default=10, help="fold count, >= 2 (default 10)")
    sub.add_argument(
        "--seed",
        type=_NON_NEGATIVE_INT,
        default=0,
        help="seed of the fold split and the random baseline, >= 0 (default 0)",
    )
    _add_exclude(sub)
    sub.add_argument(
        "--with-clusters",
        action="store_true",
        help="also score the model with the cluster_id feature attached",
    )
    sub.add_argument(
        "--cluster-train-only",
        action="store_true",
        help="cluster training rules only; place held-out rules by nearest distance",
    )
    _add_model_flags(sub)
    _add_cluster_flags(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_evaluate)
    subs["evaluate"] = sub

    sub = commands.add_parser("sweep", help="generated-rule counts across thresholds")
    _add_seed_flags(sub)
    sub.add_argument(
        "--thresholds",
        default="0.001,0.01,0.05,0.1",
        help="comma-separated ascending thresholds (default 0.001,0.01,0.05,0.1)",
    )
    sub.add_argument(
        "--limit",
        type=_NON_NEGATIVE_INT,
        default=DEFAULT_LIMIT,
        help=f"maximum rules to enumerate per threshold (default {DEFAULT_LIMIT})",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_sweep)
    subs["sweep"] = sub

    return parser, subs


def _write_output(args, text: str) -> None:
    if args.out:
        data = text.encode("utf-8")
        Path(args.out).write_bytes(data)
        LOG.info("command=%s wrote=%s bytes=%d", args.command, args.out, len(data))
    else:
        sys.stdout.write(text)


@contextmanager
def _open_rules(path: str):
    """The rules file, open for reading as text; a byte that is not UTF-8 is a data error.

    utf-8-sig drops a leading byte-order mark, and universal newlines end a
    line at \\n, \\r\\n or \\r, as parse_ruleset and find_rule expect.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise RuleforgeError(f"{path}: {exc}") from None


def _warn(path: str, errors: list[ParseError]) -> None:
    for err in errors:
        LOG.warning("%s:%d: %s", path, err.line, err.message)


def _read_rules(path: str) -> tuple[list[ParsedRule], list[ParseError]]:
    with _open_rules(path) as handle:
        rules, errors = parse_ruleset(handle)
    _warn(path, errors)
    return rules, errors


def _exclusions(args, drop_constant: bool) -> ExclusionList:
    excluded = frozenset(key.strip().lower() for key in args.exclude.split(",") if key.strip())
    return ExclusionList(excluded_keys=excluded, drop_constant=drop_constant)


def _load_seed(args) -> tuple[SmoothedModel, SeedObservation]:
    """The --model file and the observation of the --rules rule with --seed-sid.

    Only the lines that may hold the sid are parsed, and only their errors
    are logged; `parse --lint` reports the rest of the file. The rest is
    still read, a block at a time, so a byte that is not UTF-8 anywhere in
    the file is a data error.
    """
    model = SmoothedModel.load(args.model)
    with _open_rules(args.rules) as handle:
        rule, errors = find_rule(handle, args.seed_sid)
        while handle.read(1 << 16):
            pass
    _warn(args.rules, errors)
    if rule is None:
        raise RuleforgeError(f"{args.rules}: no rule with sid {args.seed_sid}")
    return model, SeedObservation.from_rule(rule, model.vocab)


def _strategy(args) -> Strategy:
    if args.strategy == "threshold":
        return Strategy.threshold(args.threshold)
    if args.strategy == "topk":
        return Strategy.topk(args.topk)
    return Strategy.mle()


def _distance_params(args) -> DistanceParams:
    """The distance weights, once the cluster flags that exclude each other are checked."""
    if args.cut_count is not None and args.cut_height is not None:
        raise UsageError("--cut-count and --cut-height cannot both be given")
    try:
        return DistanceParams(w1=args.w1, w2=args.w2)
    except ValueError as exc:
        raise UsageError(f"--w1 and --w2: {exc}") from None


def _cmd_parse(args) -> int:
    # the diagnostics are this command's output, written once and not logged
    with _open_rules(args.rules) as handle:
        rules, errors = parse_ruleset(handle)
    lines = [f"{args.rules}:{e.line}: {e.message}\n" for e in errors]
    if args.lint:
        lines.append(f"parsed {len(rules)} rules, {len(errors)} errors\n")
        _write_output(args, "".join(lines))
        return 0
    sys.stderr.write("".join(lines))
    body = "".join(serialize_rule(rule) + "\n" for rule in rules)
    _write_output(args, body)
    return 2 if errors else 0


def _cmd_train(args) -> int:
    rules, _ = _read_rules(args.rules)
    vocab = build_vocabulary(rules, _exclusions(args, drop_constant=not args.keep_constant))
    model = fit(
        encode_corpus(rules, vocab),
        vocab,
        args.alpha,
        smoothing=args.smoothing,
        skip_unk_evidence=args.skip_unk_evidence,
        with_prior=args.with_prior,
    )
    model.save(args.out)
    if args.vocab_out:
        Path(args.vocab_out).write_bytes(vocab.to_json().encode("utf-8"))
    LOG.info(
        "command=train rules=%d attributes=%d alpha=%s model=%s",
        len(rules),
        len(vocab.attributes),
        args.alpha,
        args.out,
    )
    return 0


def _cmd_abduce(args) -> int:
    model, seed = _load_seed(args)
    # seed_posteriors raises UnknownAttribute for a --target the vocabulary lacks
    targets = [args.target] if args.target else model.vocab.attributes
    posteriors = seed_posteriors(
        model, seed, targets=targets, allow_insertion=args.allow_insertion
    )
    candidates = select_candidates(seed, _strategy(args), posteriors)
    lines = [
        f"{attribute}\t{value}\t{posteriors[attribute].probability(value):.6f}\n"
        for attribute in targets
        for value in candidates[attribute]  # in ranked order
    ]
    _write_output(args, "".join(lines))
    return 0


def _cmd_generate(args) -> int:
    model, seed = _load_seed(args)
    candidates = abduce_antecedents(
        model, seed, _strategy(args), allow_insertion=args.allow_insertion
    )
    graph = build_candidate_graph(seed, candidates)
    result = enumerate_rules(graph, seed, limit=args.limit, strict=args.strict_limit)
    try:
        text = materialize_snort_rules(result.rules, args.category, sid_base=args.sid_base)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(args, text)
    LOG.info(
        "command=generate seed_sid=%d combinations=%d generated=%d truncated=%s",
        args.seed_sid,
        graph.total_combinations(),
        len(result),
        result.truncated,
    )
    return 0


def _cmd_cluster(args) -> int:
    params = _distance_params(args)
    rules, _ = _read_rules(args.rules)
    # D is needed for nothing else: merge in its own storage
    assignment = agglomerate(
        build_distance_matrix(rules, params),
        args.linkage,
        cut_height=args.cut_height,
        cut_count=args.cut_count,
        overwrite=True,
    )
    # integers and empty sids: no field needs csv's quoting
    labels = assignment.labels.tolist()
    sids = ("" if rule.sid is None else rule.sid for rule in rules)
    rows = [f"{sid},{label}\n" for sid, label in zip(sids, labels)]
    _write_output(args, "".join(["sid,cluster_id\n", *rows]))
    LOG.info(
        "command=cluster rules=%d clusters=%d linkage=%s", len(rules), max(labels) + 1, args.linkage
    )
    return 0


def _cmd_evaluate(args) -> int:
    if args.cluster_train_only and not args.with_clusters:
        raise UsageError("--cluster-train-only needs --with-clusters")
    params = _distance_params(args)
    rules, _ = _read_rules(args.rules)
    spec = SplitSpec(folds=args.folds, rng_seed=args.seed)
    report = loco_evaluate(
        rules,
        spec,
        alpha=args.alpha,
        exclude=_exclusions(args, drop_constant=False),
        smoothing=args.smoothing,
        skip_unk_evidence=args.skip_unk_evidence,
        with_prior=args.with_prior,
        with_clusters=args.with_clusters,
        cluster_train_only=args.cluster_train_only,
        distance_params=params,
        linkage=args.linkage,
        cut_count=args.cut_count,
        cut_height=args.cut_height,
    )
    _write_output(args, report.to_csv())
    LOG.info(
        "command=evaluate rules=%d folds=%d attributes=%d",
        len(rules),
        spec.folds,
        len(report.attributes),
    )
    return 0


def _cmd_sweep(args) -> int:
    model, seed = _load_seed(args)
    try:
        thresholds = [float(part) for part in args.thresholds.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--thresholds must be comma-separated floats, got {args.thresholds!r}")
    try:
        result = threshold_sweep(
            model, seed, thresholds, limit=args.limit, allow_insertion=args.allow_insertion
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(args, result.to_csv())
    return 0


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising.

    When the root logger has no handler, log lines go to sys.stderr for the
    duration of the call; the root handlers and level are restored after it.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    if not handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s %(message)s"
        )
    try:
        return _run(argv)
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)


def _run(argv: list[str]) -> int:
    try:
        config_path = _extract_config_path(argv)
        parser, subs = build_parser()
        config = load_config(config_path, subs) if config_path else {}
        for sub in subs.values():
            for action in sub._actions:
                if action.dest in config:  # a flag the file supplies is no longer required
                    action.default = config[action.dest]
                    action.required = False
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else int(exc.code)
    except RuleforgeError as exc:
        LOG.error("%s", exc)
        return 2
    except OSError as exc:
        LOG.error("%s", exc)
        return 2


def main() -> None:
    # OpenBLAS starts a worker thread per core when numpy loads, which is about
    # half of `import numpy` (-X importtime: 130-138 ms with the pool, 61-77 ms
    # without, on a 2-vCPU VM). The one BLAS call here, build_distance_matrix's
    # row-block product, is no slower on one thread. Only this entry point pins
    # it: a value already set is kept, and run() leaves the environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # stdout carries the bytes --out would, whatever the locale's encoding;
    # run() leaves the caller's streams alone
    sys.stdout.reconfigure(encoding="utf-8", newline="\n")
    sys.exit(run())


if __name__ == "__main__":
    main()
