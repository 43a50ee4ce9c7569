"""Weighted rule distance and hierarchical agglomerative clustering.

The distance between two rules combines structure and content:

    D(r_i, r_j) = w1 * KD(r_i, r_j) + w2 * sum_c lev(r_i[c], r_j[c])

where KD is the cardinality of the symmetric difference of the rules'
attribute-key sets and the sum runs over the keys both rules share (header
synthetics included). build_distance_matrix reads the corpus as
encoding.factorize gives it, computes each edit distance once per distinct
value pair within a key, with a bit-parallel kernel, into one table per key,
and assembles D from those tables and the key-presence matrix (codes >= 0)
with numpy. Clustering is plain bottom-up agglomeration over the precomputed
matrix with single/complete/average linkage, in one working copy of it;
equal-distance merge candidates are broken deterministically toward the
lowest index pair. A cut's labels are one int array over the rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoding import factorize
from .errors import RuleforgeError
from .parser import ParsedRule

LINKAGES = ("single", "complete", "average")


class InvalidCut(RuleforgeError):
    """The requested dendrogram cut cannot be taken."""


@dataclass(frozen=True)
class DistanceParams:
    """Weights of the two distance terms; finite, non-negative, not both zero."""

    w1: float = 1.0
    w2: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.w1) and math.isfinite(self.w2)):
            raise ValueError("distance weights must be finite")
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("distance weights must be non-negative")
        if self.w1 == 0 and self.w2 == 0:
            raise ValueError("at least one distance weight must be positive")


@dataclass
class DistanceMatrix:
    """Exactly symmetric, finite pairwise distances with a zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.entries, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.isfinite(matrix).all():
            raise ValueError("distances must be finite")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("distance matrix must be symmetric")
        if not np.allclose(np.diag(matrix), 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if (matrix < 0).any():
            raise ValueError("distances must be non-negative")
        self.entries = matrix

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass
class ClusterAssignment:
    """Flat labels plus the merge history that produced them.

    labels is an int array of length n: labels[i] is the cluster of matrix
    row i, numbered 0..k-1 in order of each cluster's smallest member.
    merge_history records (cluster_a, cluster_b, height) with non-decreasing
    heights, where a cluster is identified by its smallest member index.
    """

    labels: np.ndarray
    merge_history: tuple[tuple[int, int, float], ...]
    cut: dict[str, float] = field(default_factory=dict)

    def clusters(self) -> dict[int, list[int]]:
        """Label -> its rows, ascending."""
        groups: dict[int, list[int]] = {}
        for rule_id, label in enumerate(self.labels.tolist()):
            groups.setdefault(label, []).append(rule_id)
        return groups


def _levenshtein_row(pattern: str, texts: Sequence[str]) -> list[int]:
    """Unit-cost edit distance from pattern to each text, bit-parallel.

    Myers' bit-vector algorithm (J. ACM 46(3), 1999) in Hyyro's edit-distance
    form (2003): one Python int holds the vertical deltas pv/mv of a whole DP
    column, so each text character costs a fixed handful of integer
    operations whatever len(pattern) is. The pattern's match masks are built
    once and reused for every text. The distance is the last column's bottom
    cell: len(text) plus its +1 deltas less its -1 deltas.
    """
    if not pattern:
        return [len(text) for text in texts]
    peq: dict[str, int] = {}
    for bit, ch in enumerate(pattern):
        peq[ch] = peq.get(ch, 0) | (1 << bit)
    match = peq.get
    mask = (1 << len(pattern)) - 1
    distances = []
    for text in texts:
        pv, mv = mask, 0
        for ch in text:
            eq = match(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = ((mv | ~(xh | pv)) << 1) | 1
            pv = (((pv & xh) << 1) | ~(xv | ph)) & mask
            mv = ph & xv
        distances.append(len(text) + pv.bit_count() - mv.bit_count())
    return distances


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute)."""
    return _levenshtein_row(a, [b])[0]


def key_distance(rule_i: ParsedRule, rule_j: ParsedRule) -> int:
    """Cardinality of the symmetric difference of the attribute-key sets."""
    return len(rule_i.attribute_keys() ^ rule_j.attribute_keys())


def rule_distance(
    rule_i: ParsedRule, rule_j: ParsedRule, params: DistanceParams | None = None
) -> float:
    """Weighted structural + content distance between two rules."""
    if params is None:
        params = DistanceParams()
    values_i = rule_i.attribute_values()
    values_j = rule_j.attribute_values()
    lev_sum = sum(
        levenshtein(values_i[key], values_j[key])
        for key in values_i.keys() & values_j.keys()
    )
    return params.w1 * key_distance(rule_i, rule_j) + params.w2 * lev_sum


def _edit_table(values: Sequence[str]) -> np.ndarray:
    """Symmetric int32 edit distances between distinct values, plus a zero
    last row and column that code -1 (key absent) indexes."""
    size = len(values)
    table = np.zeros((size + 1, size + 1), dtype=np.int32)
    # each value is the pattern against the shorter ones: the kernel's cost
    # follows the text length
    order = sorted(range(size), key=lambda v: -len(values[v]))
    for rank, v in enumerate(order[:-1]):
        others = order[rank + 1 :]
        table[v, others] = _levenshtein_row(values[v], [values[w] for w in others])
    return table + table.T


# Cells of D assembled per numpy step, so each float64 temporary of a step
# stays near 128 KiB. At n = 500 the cluster command's peak RSS measured
# 1.2 MiB lower than with 512 KiB steps, at the same speed.
_BLOCK_CELLS = 1 << 14


def build_distance_matrix(
    rules: Sequence[ParsedRule], params: DistanceParams | None = None
) -> DistanceMatrix:
    """All pairwise rule distances, each edit distance computed once.

    factorize gives, per attribute key, every rule's value code (-1 when it
    lacks the key); the distinct values get one edit-distance table, and a
    row block of D gathers table[c_i, c_j] over the keys. KD comes from the
    key-presence matrix P as |K_i| + |K_j| - 2 P P^T. Both parts are exact
    integers, so D = w1 * KD + w2 * lev equals rule_distance bit for bit.
    Weights so large that an entry overflows float64 raise RuleforgeError.
    """
    if params is None:
        params = DistanceParams()
    n = len(rules)
    table = factorize(rules)
    presence = (table.codes >= 0).astype(np.float64)
    key_counts = presence.sum(axis=1)
    tables = [
        (_edit_table(values), column)
        for values, column in zip(table.values, table.codes.T)
        if len(values) > 1  # one value: every edit distance is 0
    ]
    w1, w2 = float(params.w1), float(params.w2)  # an int weight would keep edits int32
    matrix = np.empty((n, n), dtype=np.float64)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        keys_apart = key_counts[rows, None] + key_counts - 2 * (presence[rows] @ presence.T)
        edits = np.zeros(keys_apart.shape, dtype=np.int32)
        for table, column in tables:
            edits += table[column[rows]].take(column, axis=1)
        with np.errstate(over="ignore"):
            matrix[rows] = w1 * keys_apart + w2 * edits
        if not np.isfinite(matrix[rows]).all():
            raise RuleforgeError(f"distances overflow with --w1 {w1!r} and --w2 {w2!r}")
    return DistanceMatrix(entries=matrix)


def _merge_sequence(
    matrix: DistanceMatrix, linkage: str
) -> list[tuple[int, int, float]]:
    """Full greedy merge sequence via Lance-Williams updates, in one copy of D.

    Cluster slots are indexed by their smallest member, so the merge of slots
    i < j lives on in slot i. The copy holds +inf on the diagonal and in the
    rows and columns of merged-away slots, and stays symmetric, so np.argmin's
    row-major first minimum is the smallest (i, j), i < j, of the closest pairs.
    """
    n = matrix.n
    distances = matrix.entries.copy()
    np.fill_diagonal(distances, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(distances)), n)
        merges.append((i, j, float(distances[i, j])))
        active[[i, j]] = False
        others = np.flatnonzero(active)
        active[i] = True
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
        distances[j, :] = np.inf
        distances[:, j] = np.inf
        sizes[i] += sizes[j]
    return merges


def _labels_from_prefix(n: int, merges: Sequence[tuple[int, int, float]]) -> np.ndarray:
    """Labels 0..k-1 by smallest member: merge (i, j) keeps slot i, its smallest member."""
    slot = np.arange(n)
    for i, j, _ in merges:
        slot[slot == j] = i
    return np.unique(slot, return_inverse=True)[1]


def agglomerate(
    matrix: DistanceMatrix,
    linkage: str = "average",
    *,
    cut_height: float | None = None,
    cut_count: int | None = None,
) -> ClusterAssignment:
    """Bottom-up clustering of a distance matrix.

    Cut either at a height (merges with height <= cut_height are applied) or
    to a cluster count. With neither given, the count defaults to
    ceil(sqrt(n)). Labels are 0..k-1 ordered by each cluster's smallest
    member, so the result is deterministic.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = matrix.n
    if n == 0:
        raise InvalidCut("cannot cluster an empty matrix")
    if cut_height is not None and cut_count is not None:
        raise InvalidCut("specify cut_height or cut_count, not both")
    if cut_height is None and cut_count is None:
        cut_count = math.ceil(math.sqrt(n))
    if cut_count is not None and not 1 <= cut_count <= n:
        raise InvalidCut(f"cut_count must be in [1, {n}], got {cut_count}")
    if cut_height is not None and cut_height < 0:
        raise InvalidCut(f"cut_height must be >= 0, got {cut_height}")
    if linkage == "average" and not math.isfinite(n * float(matrix.entries.max())):
        # an average's weighted sum is at most n * max(D): keep it finite
        raise RuleforgeError("distances too large to average: n * max(D) overflows float64")

    merges = _merge_sequence(matrix, linkage)
    if cut_count is not None:
        applied = merges[: n - cut_count]
        cut = {"count": float(cut_count)}
    else:
        # heights are non-decreasing for these linkages, so the cut is a prefix
        applied = []
        for merge in merges:
            if merge[2] > cut_height:
                break
            applied.append(merge)
        cut = {"height": float(cut_height)}
    labels = _labels_from_prefix(n, applied)
    return ClusterAssignment(labels=labels, merge_history=tuple(merges), cut=cut)
