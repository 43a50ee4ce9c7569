"""Independent reference implementations used to check the package.

Everything here is deliberately naive: plain dicts, quadratic loops, full DP
matrices, and brute-force cluster merging. None of it shares code with the
package beyond the UNK sentinel string, so agreement is meaningful. The
exceptions are the package's own earlier implementations, kept as references
for the faster code that replaced them: posterior_loop scores a fitted model
one record at a time, dense_pair_counts counts every cell of every pair table,
split_options splits a rule body one character at a time, and find_rule looks
a sid up by parsing the whole file.
"""

from __future__ import annotations

import numpy as np

from ruleforge.parser import ParsedRule, UnterminatedOption, parse_ruleset

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


# ---------------------------------------------------------------------------
# per-record posterior over a fitted model, the bit-exact reference


def posterior_loop(model, observation: dict[str, int], target: str):
    """(log_scores, normalized) for one record of value codes.

    The per-record loop that predict_distribution ran before scoring moved to
    a batched kernel, kept operation for operation, so the kernel's rows must
    equal it bit for bit.
    """
    vocab = model.vocab
    values = vocab.values[target]
    log_scores = np.zeros(len(values), dtype=np.float64)
    if model.smoothing == "corpus":
        mass = model.counts.num_samples
    else:
        mass = len(values)
    for attr in vocab.attributes:
        if attr == target:
            continue
        vi = observation.get(attr, 0)
        if model.skip_unk_evidence and vi == 0:
            continue
        pair = model.counts.pair(attr, target)
        numerators = pair[vi, :].astype(np.float64) + model.alpha
        denominator = float(model.counts.marginal(attr)[vi]) + model.alpha * mass
        log_scores += np.log(numerators) - np.log(denominator)
    if model.with_prior:
        marginal_j = model.counts.marginal(target).astype(np.float64)
        log_scores += np.log(marginal_j + model.alpha) - np.log(
            model.counts.num_samples + model.alpha * len(values)
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
