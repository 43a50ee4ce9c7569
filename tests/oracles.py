"""Independent reference implementations used to check the package.

Everything here is deliberately naive: plain dicts, quadratic loops, full DP
matrices, and brute-force cluster merging. None of it shares code with the
package beyond the UNK sentinel string, so agreement is meaningful. The
exceptions are the package's own earlier implementations, kept as references
for the code that replaced them: ranked_order sorts a posterior's values by
one (probability, string) key where the package sorts a string order by
probability alone, posterior_loop scores a fitted model
one record at a time, dense_pair_counts counts every cell of every pair table,
split_options splits a rule body one character at a time, logical_lines
joins continuation lines in two branches (one to start a logical line, one
to continue it) where the package has one, find_rule looks
a sid up by parsing the whole file, merge_sequence agglomerates with
three n x n arrays (the distances, an upper-triangle mask and a masked work
copy) where the package keeps one, build_vocabulary and encode_corpus
walk every rule's attribute_values() dict where the package reads the codes
of one factorization, and loco_evaluate_strings scores the evaluation fold
loop on value strings, one prediction at a time, where the package compares
the codes of one matrix per fold, and apply_combination builds a generated
rule option by option where the package asks the parser's
ParsedRule.with_attribute_values for it.
"""

from __future__ import annotations

import io
import itertools
from collections import Counter
from dataclasses import replace
from typing import Sequence, TextIO

import numpy as np

from ruleforge.bayes import fit, predict_distribution, predict_mle
from ruleforge.clustering import agglomerate, build_distance_matrix
from ruleforge.encoding import CLUSTER_ATTRIBUTE, AttributeVocabulary, EmptyCorpus, ExclusionList
from ruleforge.evaluation import (
    CLASSIFIER_BAYES,
    CLASSIFIER_BAYES_CLUSTER,
    CLASSIFIER_MAX_FREQUENCY,
    CLASSIFIER_RANDOM,
    AttributeAccuracyReport,
    SplitSpec,
    make_folds,
)
from ruleforge.parser import (
    HEADER_FIELDS,
    VALUE_JOIN,
    ParsedRule,
    RuleOption,
    UnterminatedOption,
    parse_ruleset,
)

UNK = "UNK"


# ---------------------------------------------------------------------------
# smoothed conditional probabilities over dict-shaped corpora


def corpus_attributes(corpus: list[dict]) -> list[str]:
    keys = set()
    for row in corpus:
        keys.update(row)
    return sorted(keys)


def corpus_values(corpus: list[dict], attribute: str) -> list[str]:
    seen = {row.get(attribute, UNK) for row in corpus}
    seen.discard(UNK)
    return [UNK] + sorted(seen)


def count_single(corpus: list[dict], attribute: str, value: str) -> int:
    return sum(1 for row in corpus if row.get(attribute, UNK) == value)


def count_joint(corpus, attr_a, value_a, attr_b, value_b) -> int:
    return sum(
        1
        for row in corpus
        if row.get(attr_a, UNK) == value_a and row.get(attr_b, UNK) == value_b
    )


def conditional(
    corpus: list[dict],
    target: tuple[str, str],
    evidence: tuple[str, str],
    alpha: float,
    smoothing: str = "corpus",
) -> float:
    """(F(a_j, a_i) + alpha) / (F(a_i) + alpha * mass)."""
    t_attr, t_value = target
    e_attr, e_value = evidence
    joint = count_joint(corpus, t_attr, t_value, e_attr, e_value)
    single = count_single(corpus, e_attr, e_value)
    if smoothing == "corpus":
        mass = len(corpus)
    else:
        mass = len(corpus_values(corpus, t_attr))
    return (joint + alpha) / (single + alpha * mass)


def posterior(
    corpus: list[dict],
    observation: dict,
    target: str,
    alpha: float,
    smoothing: str = "corpus",
    skip_unk_evidence: bool = False,
    with_prior: bool = False,
) -> dict[str, float]:
    """Normalized naive product of pairwise conditionals for every value."""
    scores: dict[str, float] = {}
    for value in corpus_values(corpus, target):
        score = 1.0
        if with_prior:
            mass = (
                len(corpus)
                if smoothing == "corpus"
                else len(corpus_values(corpus, target))
            )
            score *= (count_single(corpus, target, value) + alpha) / (
                len(corpus) + alpha * mass
            )
        for attribute in corpus_attributes(corpus):
            if attribute == target:
                continue
            observed = observation.get(attribute, UNK)
            if skip_unk_evidence and observed == UNK:
                continue
            score *= conditional(
                corpus, (target, value), (attribute, observed), alpha, smoothing
            )
        scores[value] = score
    total = sum(scores.values())
    return {value: score / total for value, score in scores.items()}


def posterior_argmax(distribution: dict[str, float]) -> str:
    return min(distribution, key=lambda value: (-distribution[value], value))


def ranked_order(values: Sequence[str], probabilities: Sequence[float]) -> list[int]:
    """Indices by descending probability, ties by ascending value string, in one key."""
    return sorted(range(len(values)), key=lambda i: (-probabilities[i], values[i]))


# ---------------------------------------------------------------------------
# per-record posterior over a fitted model, the bit-exact reference


def posterior_loop(model, observation: dict[str, int], target: str):
    """(log_scores, normalized) for one record of value codes.

    The per-record loop that predict_distribution ran before scoring moved to
    a batched kernel, kept operation for operation, so the kernel's rows must
    equal it bit for bit. It counts for itself, one stored row at a time from
    model.counts.rows and multiplicities, so it shares no counting code with
    the kernel.
    """
    vocab = model.vocab
    values = vocab.values[target]
    t = vocab.attributes.index(target)
    stored = list(zip(model.counts.rows.tolist(), model.counts.multiplicities.tolist()))
    num_samples = sum(multiplicity for _, multiplicity in stored)

    def target_counts(k: int | None, vi: int | None) -> list[int]:
        """Per target value, the rows whose attribute k holds code vi (all rows if k is None)."""
        counts = [0] * len(values)
        for row, multiplicity in stored:
            if k is None or row[k] == vi:
                counts[row[t]] += multiplicity
        return counts

    log_scores = np.zeros(len(values), dtype=np.float64)
    if model.smoothing == "corpus":
        mass = num_samples
    else:
        mass = len(values)
    for k, attr in enumerate(vocab.attributes):
        if attr == target:
            continue
        vi = observation.get(attr, 0)
        if model.skip_unk_evidence and vi == 0:
            continue
        joint = target_counts(k, vi)
        numerators = np.array(joint, dtype=np.float64) + model.alpha
        denominator = float(sum(joint)) + model.alpha * mass
        log_scores += np.log(numerators) - np.log(denominator)
    if model.with_prior:
        marginal_j = np.array(target_counts(None, None), dtype=np.float64)
        log_scores += np.log(marginal_j + model.alpha) - np.log(
            num_samples + model.alpha * len(values)
        )
    shifted = np.exp(log_scores - log_scores.max())
    return log_scores, shifted / shifted.sum()


# ---------------------------------------------------------------------------
# dense pairwise counts, the count-exact reference


def dense_pair_counts(codes: np.ndarray, vocab) -> dict[tuple[str, str], np.ndarray]:
    """One dense (|V_a| x |V_b|) co-occurrence table per attribute pair a < b.

    The counting fit did before it kept only the nonzero cells: one bincount
    over every cell of every table.
    """
    attrs = vocab.attributes
    columns = dict(zip(attrs, np.ascontiguousarray(codes.T)))
    tables = {}
    for i, a in enumerate(attrs):
        size_a = vocab.size(a)
        for b in attrs[i + 1 :]:
            size_b = vocab.size(b)
            flat = columns[a] * size_b + columns[b]
            tables[(a, b)] = np.bincount(flat, minlength=size_a * size_b).reshape(
                size_a, size_b
            )
    return tables


# ---------------------------------------------------------------------------
# character-loop option splitter, the segment-exact reference


def split_options(body: str, base_offset: int) -> list[tuple[str, int]]:
    """Split a rule body into option segments on unquoted, unescaped ';'.

    Returns (segment text, byte offset of segment start). A final segment
    without a trailing semicolon is accepted.
    """
    segments: list[tuple[str, int]] = []
    current: list[str] = []
    seg_start = 0
    in_quotes = False
    escaped = False
    quote_open = 0
    for i, ch in enumerate(body):
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            if in_quotes:
                quote_open = i
            current.append(ch)
            continue
        if ch == ";" and not in_quotes:
            segments.append(("".join(current), base_offset + seg_start))
            current = []
            seg_start = i + 1
            continue
        current.append(ch)
    if in_quotes:
        raise UnterminatedOption("unterminated quoted value", offset=base_offset + quote_open)
    tail = "".join(current)
    if tail.strip():
        segments.append((tail, base_offset + seg_start))
    return segments


def logical_lines(source: str | TextIO):
    """(first physical line number, joined logical line) pairs, as the parser yields them."""
    buffer: list[str] = []
    start_line = 0
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip()
        if buffer:
            if line.endswith("\\"):
                buffer.append(line[:-1].strip())
                continue
            buffer.append(line.strip())
            yield start_line, " ".join(part for part in buffer if part)
            buffer = []
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.endswith("\\"):
            buffer = [stripped[:-1].strip()]
            start_line = line_no
            continue
        yield line_no, stripped
    if buffer:
        yield start_line, " ".join(part for part in buffer if part)


def find_rule(text: str, sid: int) -> ParsedRule | None:
    """The first rule of the whole parsed file whose sid is sid."""
    rules, _ = parse_ruleset(text)
    return next((rule for rule in rules if rule.sid == sid), None)


# ---------------------------------------------------------------------------
# full-matrix Levenshtein


def levenshtein_full(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


# ---------------------------------------------------------------------------
# brute-force agglomerative clustering over a raw distance matrix


def _cluster_distance(matrix, members_a, members_b, linkage: str) -> float:
    crossings = [matrix[i][j] for i in members_a for j in members_b]
    if linkage == "single":
        return min(crossings)
    if linkage == "complete":
        return max(crossings)
    return sum(crossings) / len(crossings)


def agglomerate_bruteforce(matrix, linkage: str):
    """Merge sequence [(low_slot, high_slot, height), ...].

    A cluster's slot is its smallest member index; ties on distance break
    toward the smallest (low, high) slot pair.
    """
    n = len(matrix)
    clusters: dict[int, set[int]] = {i: {i} for i in range(n)}
    merges = []
    while len(clusters) > 1:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if b <= a:
                    continue
                dist = _cluster_distance(matrix, clusters[a], clusters[b], linkage)
                key = (dist, a, b)
                if best is None or key < best:
                    best = key
        dist, a, b = best
        clusters[a] = clusters[a] | clusters[b]
        del clusters[b]
        merges.append((a, b, dist))
    return merges


def labels_at_count(n: int, merges, count: int) -> dict[int, int]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, _ in merges[: n - count]:
        parent[find(b)] = find(a)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    ordered = sorted(groups.values(), key=min)
    labels = {}
    for label, members in enumerate(ordered):
        for member in members:
            labels[member] = label
    return labels


def merge_sequence(matrix, linkage: str) -> list[tuple[int, int, float]]:
    """Full greedy merge sequence via Lance-Williams updates.

    Cluster slots are indexed by their smallest member, so the merge of slots
    i < j lives on in slot i. Ties on distance resolve to the smallest (i, j)
    in row-major order, which np.argmin's first-occurrence rule gives us.
    matrix is a ruleforge DistanceMatrix.
    """
    n = matrix.n
    distances = matrix.entries.copy()
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    work = np.where(upper, distances, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        flat = int(np.argmin(work))
        i, j = divmod(flat, n)
        height = float(work[i, j])
        merges.append((i, j, height))
        others = np.where(active)[0]
        others = others[(others != i) & (others != j)]
        d_ik = distances[i, others]
        d_jk = distances[j, others]
        if linkage == "single":
            updated = np.minimum(d_ik, d_jk)
        elif linkage == "complete":
            updated = np.maximum(d_ik, d_jk)
        else:  # average
            updated = (sizes[i] * d_ik + sizes[j] * d_jk) / (sizes[i] + sizes[j])
        distances[i, others] = updated
        distances[others, i] = updated
        low = np.minimum(i, others)
        high = np.maximum(i, others)
        work[low, high] = updated
        work[j, :] = np.inf
        work[:, j] = np.inf
        sizes[i] += sizes[j]
        active[j] = False
    return merges


# ---------------------------------------------------------------------------
# vocabulary and encoding, one attribute_values() walk each


def build_vocabulary(
    rules: Sequence[ParsedRule], exclude: ExclusionList | None = None
) -> AttributeVocabulary:
    """Learn the attribute/value vocabulary from a corpus of parsed rules."""
    if not rules:
        raise EmptyCorpus("cannot build a vocabulary from zero rules")
    if exclude is None:
        exclude = ExclusionList()
    observed: dict[str, set[str]] = {}
    presence: Counter[str] = Counter()
    for rule in rules:
        for attr, value in rule.attribute_values().items():
            if attr in exclude.excluded_keys:
                continue
            observed.setdefault(attr, set()).add(value)
            presence[attr] += 1
    names: list[str] = []
    for attr in sorted(observed):
        constant = presence[attr] == len(rules) and len(observed[attr]) == 1
        if exclude.drop_constant and constant:
            continue
        names.append(attr)
    values = {
        attr: (UNK,) + tuple(sorted(v for v in observed[attr] if v != UNK))
        for attr in names
    }
    return AttributeVocabulary(values)


def encode_corpus(rules: Sequence[ParsedRule], vocab: AttributeVocabulary) -> np.ndarray:
    """(n x A) int64 value codes of rules, columns in vocab.attributes order.

    Total: an absent attribute or an unseen value encodes as UNK (0).
    """
    return encode_rows([rule.attribute_values() for rule in rules], vocab)


def encode_rows(rows: Sequence[dict[str, str]], vocab: AttributeVocabulary) -> np.ndarray:
    """encode_corpus of the rules whose attribute_values() dicts are rows."""
    attrs = vocab.attributes
    tables = [{value: i for i, value in enumerate(vocab.values[attr])} for attr in attrs]
    unk = [0] * len(attrs)
    flat = itertools.chain.from_iterable(
        map(dict.get, tables, map(row.get, attrs), unk) for row in rows
    )
    codes = np.fromiter(flat, dtype=np.int64, count=len(rows) * len(attrs))
    return codes.reshape(len(rows), len(attrs))


# ---------------------------------------------------------------------------
# the evaluation fold loop, scored on value strings


def loco_evaluate_strings(
    rules: Sequence[ParsedRule],
    spec: SplitSpec,
    exclude: ExclusionList,
    *,
    with_clusters: bool = False,
    cut_count: int | None = None,
    **model_options,
) -> str:
    """loco_evaluate(...).to_csv(), from a fold loop that compares value strings.

    Per fold, the package's model is fitted on the dict walk's vocabulary and
    encoding of the training rules, and every held-out rule's hidden value is
    predict_mle(predict_distribution(...)) of its own row. The majority is a
    Counter's (ties to the smallest string) and the random baseline draws
    what loco_evaluate draws; all three are matched against the true value
    strings, where an absent attribute is UNK. with_clusters clusters the
    whole corpus once and adds each rule's label to its values as cluster_id.
    """
    rows = [rule.attribute_values() for rule in rules]
    classifiers = [CLASSIFIER_BAYES]
    if with_clusters:
        matrix = build_distance_matrix(rules)
        labels = [str(label) for label in agglomerate(matrix, cut_count=cut_count).labels]
        cluster_rows = [{**row, CLUSTER_ATTRIBUTE: label} for row, label in zip(rows, labels)]
        classifiers.append(CLASSIFIER_BAYES_CLUSTER)
    classifiers += [CLASSIFIER_RANDOM, CLASSIFIER_MAX_FREQUENCY]
    accuracies: dict[tuple[str, str], dict[int, float]] = {}

    def score(attribute, classifier, fold, hits):
        accuracies.setdefault((attribute, classifier), {})[fold] = hits / len(test_ids)

    for fold, test_ids in enumerate(make_folds(len(rules), spec)):
        test_ids = test_ids.tolist()
        train_ids = [i for i in range(len(rules)) if i not in test_ids]
        vocab = build_vocabulary([rules[i] for i in train_ids], exclude)
        models = [(CLASSIFIER_BAYES, vocab, rows)]
        if with_clusters:
            values = dict(vocab.values)
            values[CLUSTER_ATTRIBUTE] = (UNK, *sorted({labels[i] for i in train_ids}))
            cluster_vocab = AttributeVocabulary(values)
            models.append((CLASSIFIER_BAYES_CLUSTER, cluster_vocab, cluster_rows))
        for classifier, model_vocab, model_rows in models:
            codes = encode_rows(model_rows, model_vocab)
            model = fit(codes[train_ids], model_vocab, **model_options)
            for attribute in vocab.attributes:
                hits = sum(
                    predict_mle(predict_distribution(model, codes[i], attribute))
                    == rows[i].get(attribute, UNK)
                    for i in test_ids
                )
                score(attribute, classifier, fold, hits)
        for a, attribute in enumerate(vocab.attributes):
            values = vocab.values[attribute]
            truths = [rows[i].get(attribute, UNK) for i in test_ids]
            rng = np.random.default_rng([spec.rng_seed, fold, a])
            draws = rng.integers(0, len(values), size=len(test_ids)).tolist()
            hits = sum(values[draw] == truth for draw, truth in zip(draws, truths))
            score(attribute, CLASSIFIER_RANDOM, fold, hits)
            counts = Counter(rows[i].get(attribute, UNK) for i in train_ids)
            majority = min(counts, key=lambda value: (-counts[value], value))
            score(attribute, CLASSIFIER_MAX_FREQUENCY, fold, truths.count(majority))
    report = AttributeAccuracyReport(
        attributes=tuple(sorted({attribute for attribute, _ in accuracies})),
        classifiers=tuple(classifiers),
        folds=spec.folds,
        accuracies=accuracies,
    )
    return report.to_csv()


# ---------------------------------------------------------------------------
# rule generation: each combination's rule built option by option


def apply_combination(
    seed_rule: ParsedRule, assignment: dict[str, str], seed_values: dict[str, str]
) -> tuple[ParsedRule, dict[str, str]]:
    """The rule of one combination, without identity, and its per-attribute changes."""
    changes: dict[str, str] = {}
    header_fields: dict[str, str] = {}
    for attr, value in assignment.items():
        if attr not in HEADER_FIELDS:
            continue
        if value == seed_values[attr]:
            changes[attr] = "kept"
        else:
            header_fields[HEADER_FIELDS[attr]] = value
            changes[attr] = "replaced"

    new_options: list[RuleOption] = []
    replaced_done: set[str] = set()
    for opt in seed_rule.options:
        key = opt.key
        if key not in assignment:
            new_options.append(opt)  # not modeled: carried over verbatim
            continue
        value = assignment[key]
        if value == seed_values[key]:
            new_options.append(opt)
            changes[key] = "kept"
        elif value == UNK:
            changes[key] = "dropped"
        else:
            changes[key] = "replaced"
            if key not in replaced_done:
                replaced_done.add(key)
                for part in value.split(VALUE_JOIN):
                    new_options.append(RuleOption(key=key, value=part))
    # attributes the seed lacked, now given a value (insertion path)
    for attr in sorted(assignment):
        if attr in HEADER_FIELDS or attr in changes:
            continue
        value = assignment[attr]
        if value == UNK:
            changes[attr] = "kept"
            continue
        changes[attr] = "inserted"
        for part in value.split(VALUE_JOIN):
            new_options.append(RuleOption(key=attr, value=part))
    header = replace(seed_rule.header, **header_fields)
    return ParsedRule(header=header, options=tuple(new_options)), changes


def enumerate_rules(graph, seed, limit: int) -> list[tuple[ParsedRule, dict[str, str]]]:
    """apply_combination over the graph's product in order, the seed's own left out."""
    order = tuple(graph.layers)
    seed_values = {attr: layer[0] for attr, layer in graph.layers.items()}
    combos = itertools.islice(itertools.product(*graph.layers.values()), 1, limit + 1)
    return [apply_combination(seed.rule, dict(zip(order, combo)), seed_values) for combo in combos]
