"""Output checks for every CLI command the benchmark runs.

Each check takes the bytes a command wrote and raises CheckFailed with a
reason, whatever is wrong with them; the runner counts that as a failed
operation and carries on. Expected values come from the corpus generator,
not from the program under test, except that emitted rules and model files
are read back through ruleforge's own parser and loader.
"""

from __future__ import annotations

import csv
import io

from ruleforge import SmoothedModel, parse_ruleset

# The classifiers an evaluate report without --with-clusters carries.
EVALUATE_CLASSIFIERS = ("bayes", "random", "max_frequency")


class CheckFailed(Exception):
    """An output does not meet its command's contract."""


def _text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckFailed(f"output is not UTF-8: {exc}") from None


def check_generated(data: bytes, sid_base: int, limit: int) -> int:
    """Emitted rules re-parse cleanly with contiguous sids; returns the rule count."""
    text = _text(data)
    lines = text.splitlines()
    if not lines:
        raise CheckFailed("no rules emitted")
    if len(lines) > limit:
        raise CheckFailed(f"{len(lines)} rules emitted, above --limit {limit}")
    rules, errors = parse_ruleset(text)
    if errors:
        raise CheckFailed(f"{len(errors)} emitted rules do not re-parse: {errors[0].message}")
    if len(rules) != len(lines):
        raise CheckFailed(f"{len(lines)} lines but {len(rules)} rules")
    sids = [rule.sid for rule in rules]
    if sids != list(range(sid_base, sid_base + len(rules))):
        raise CheckFailed(f"sids are not contiguous from {sid_base}")
    return len(rules)


def check_model(path: str, rules: int) -> None:
    """The model file loads and was fitted on every well-formed rule."""
    try:
        model = SmoothedModel.load(path)
    except Exception as exc:  # any load failure is a failed check, not a crash
        raise CheckFailed(f"model does not load: {type(exc).__name__}: {exc}") from None
    if model.counts.num_samples != rules:
        raise CheckFailed(f"model counts {model.counts.num_samples} samples, corpus has {rules}")


def check_lint(data: bytes, rules: int, rejected: int) -> None:
    """`parse --lint` names one problem per malformed line, then the counts."""
    lines = _text(data).splitlines()
    summary = f"parsed {rules} rules, {rejected} errors"
    if not lines or lines[-1] != summary:
        raise CheckFailed(f"last line is not {summary!r}")
    if len(lines) != rejected + 1:
        raise CheckFailed(f"{len(lines) - 1} diagnostics for {rejected} errors")


def _rows(data: bytes, header: list[str]) -> list[list[str]]:
    try:
        rows = list(csv.reader(io.StringIO(_text(data))))
    except csv.Error as exc:
        raise CheckFailed(f"output is not CSV: {exc}") from None
    if not rows or rows[0] != header:
        raise CheckFailed(f"CSV header is not {','.join(header)}")
    return rows[1:]


def check_cluster_csv(data: bytes, sids: tuple[int, ...], cut_count: int) -> None:
    """One row per rule in corpus order, exactly cut_count labels numbered by first member."""
    rows = _rows(data, ["sid", "cluster_id"])
    if len(rows) != len(sids):
        raise CheckFailed(f"{len(rows)} rows for {len(sids)} rules")
    try:
        got_sids = tuple(int(row[0]) for row in rows)
        labels = [int(row[1]) for row in rows]
    except (ValueError, IndexError):
        raise CheckFailed("non-integer sid or cluster_id") from None
    if got_sids != sids:
        raise CheckFailed("sids differ from the corpus order")
    if set(labels) != set(range(cut_count)):
        raise CheckFailed(f"{len(set(labels))} distinct labels, expected {cut_count}")
    first_seen = list(dict.fromkeys(labels))
    if first_seen != sorted(first_seen):
        raise CheckFailed("labels are not numbered by their smallest member")


def check_evaluate_csv(data: bytes, attributes: frozenset[str], folds: int) -> None:
    """Every attribute x classifier has one row per fold plus a mean, accuracies in [0, 1]."""
    rows = _rows(data, ["attribute", "classifier", "fold", "accuracy"])
    expected = {
        (attribute, classifier, fold)
        for attribute in attributes
        for classifier in EVALUATE_CLASSIFIERS
        for fold in [*map(str, range(folds)), "mean"]
    }
    got = [tuple(row[:3]) for row in rows]
    if len(got) != len(set(got)) or set(got) != expected:
        missing = len(expected - set(got))
        raise CheckFailed(f"{len(got)} rows, expected {len(expected)} ({missing} missing)")
    for row in rows:
        try:
            accuracy = float(row[3])
        except (ValueError, IndexError):
            raise CheckFailed(f"row {row} has no numeric accuracy") from None
        if not 0.0 <= accuracy <= 1.0:
            raise CheckFailed(f"accuracy {accuracy} outside [0, 1]")
