"""Weighted rule distance and hierarchical agglomerative clustering.

The distance between two rules combines structure and content:

    D(r_i, r_j) = w1 * KD(r_i, r_j) + w2 * sum_c lev(r_i[c], r_j[c])

where KD is the cardinality of the symmetric difference of the rules'
attribute-key sets and the sum runs over the keys both rules share (header
synthetics included). build_distance_matrix reads the corpus as
encoding.factorize gives it, computes each edit distance once per distinct
value pair within a key into one table per key, and assembles D from those
tables and the key-presence matrix (codes >= 0) with numpy. The edit
distances of all keys' value pairs come from one numpy run of Myers'
bit-parallel algorithm, one lane per pair and one text character per step,
over uint64 masks of as many words as the longest value needs; levenshtein
and rule_distance call the same kernel. Clustering is plain bottom-up
agglomeration over the precomputed matrix with single/complete/average
linkage, with each row's nearest neighbour cached; equal-distance merge
candidates are broken deterministically toward the lowest index pair,
exactly as a scan of the whole matrix would. The merge needs one n x n
working array: by default a copy of D, so the caller's matrix is left as it
was; a caller that owns D and needs it no longer passes overwrite=True, and
the merge runs in D's own storage. A cut's labels are one int array over the
rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._numpy import np

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
        # each check reads every row block before the next starts, so a matrix
        # that breaks several rules names the first rule it breaks; a block's
        # cells left of its first row were compared as an earlier block's
        blocks = _row_blocks(matrix.shape[0])
        if not all(np.isfinite(matrix[rows]).all() for rows in blocks):
            raise ValueError("distances must be finite")
        if not all(
            np.array_equal(matrix[rows, rows.start :], matrix[rows.start :, rows].T)
            for rows in blocks
        ):
            raise ValueError("distance matrix must be symmetric")
        if np.diag(matrix).any():
            raise ValueError("distance matrix diagonal must be zero")
        if any((matrix[rows] < 0).any() for rows in blocks):
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

    def clusters(self) -> dict[int, list[int]]:
        """Label -> its rows, ascending."""
        groups: dict[int, list[int]] = {}
        for rule_id, label in enumerate(self.labels.tolist()):
            groups.setdefault(label, []).append(rule_id)
        return groups


# Cells of D assembled or checked per numpy step, and value pairs run per
# block of the edit-distance kernel, so each 8-byte temporary of a step stays
# near 128 KiB. At n = 500 the cluster command's peak RSS measured 1.2 MiB
# lower than with 512 KiB steps of D, at the same speed.
_BLOCK_CELLS = 1 << 14
# Fewest rows of D per step. At n = 5000 the cell budget alone gives 3-row
# steps: build_distance_matrix took 1.5-1.6 s with them and 1.1-1.3 s with
# 16-row steps (in-process, 2-vCPU VM).
_BLOCK_ROWS = 16


def _row_blocks(n: int) -> list[slice]:
    """Row slices covering 0..n-1, of _BLOCK_CELLS cells or _BLOCK_ROWS rows."""
    step = max(_BLOCK_ROWS, _BLOCK_CELLS // max(n, 1))
    return [slice(start, start + step) for start in range(0, n, step)]


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64, as int64 (SWAR; numpy 1.x has no bitwise_count)."""
    u = np.uint64
    words = words - ((words >> u(1)) & u(0x5555555555555555))
    words = (words & u(0x3333333333333333)) + ((words >> u(2)) & u(0x3333333333333333))
    words = (words + (words >> u(4))) & u(0x0F0F0F0F0F0F0F0F)
    return ((words * u(0x0101010101010101)) >> u(56)).astype(np.int64)


def _edit_distances(
    values: Sequence[str],
    alphabets: Sequence[dict[int, int]],
    texts: np.ndarray,
    patterns: np.ndarray,
) -> np.ndarray:
    """Edit distance of each lane (values[texts[l]], values[patterns[l]]).

    Myers' bit-vector algorithm (J. ACM 46(3), 1999) in Hyyro's edit-distance
    form (2003), run with numpy across all lanes at once, one text character
    per step (Hyyro, Fredriksson & Navarro, ACM JEA 10, 2005). values are
    longest first, texts is non-decreasing, and a lane's text is no shorter
    than its pattern, so step p runs on a prefix of the lanes, and word w of
    the masks only on the lanes whose text is longer than 64 w. A lane's
    match masks and vertical deltas pv/mv span ceil(len/64) uint64 words;
    the add and the shift carry from word to word. Lanes run in blocks of
    _BLOCK_CELLS, and each step gathers its lanes' match words from one row
    per (pattern value, character of its alphabet): alphabets[v] maps v's
    characters to 0, 1, ... as a str.translate table. A lane's distance is
    its last column's bottom cell: len(text) plus the column's +1 vertical
    deltas less its -1 ones.
    """
    u = np.uint64
    lengths = np.array([len(value) for value in values], dtype=np.int64)
    longest = int(lengths[0])
    # values, and lanes, whose text is longer than p: prefixes of each
    alive = len(values) - np.cumsum(np.bincount(lengths, minlength=longest + 1))
    active = (len(texts) - np.cumsum(np.bincount(lengths.take(texts), minlength=longest + 1))).tolist()
    codes = np.frombuffer(
        "".join(map(str.translate, values, alphabets)).encode("utf-32-le", "surrogatepass"),
        dtype="<u4",
    ).astype(np.int64)
    char_start = np.cumsum(lengths) - lengths
    widths = np.array([len(alphabet) for alphabet in alphabets], dtype=np.int64)
    rows = np.cumsum(widths) - widths  # value v's match word for code c: peq[w, rows[v] + c]
    peq = np.zeros((-(-longest // 64), int(widths.sum())), dtype=u)
    for p in range(longest):
        k = int(alive[p])
        row = peq[p >> 6]
        row[rows[:k] + codes.take(char_start[:k] + p)] |= u(1 << (p & 63))
    distances = np.empty(len(texts), dtype=np.int64)
    for low in range(0, len(texts), _BLOCK_CELLS):
        text, pattern = texts[low : low + _BLOCK_CELLS], patterns[low : low + _BLOCK_CELLS]
        size = len(text)
        span = [min(max(count - low, 0), size) for count in active]
        steps = int(lengths[text[0]])
        width = -(-steps // 64)
        char_at, match_row = char_start.take(text), rows.take(pattern)
        pv = np.full((width, size), ~u(0))
        mv = np.zeros((width, size), dtype=u)
        for p in range(steps):
            k = span[p]
            index = match_row[:k] + codes.take(char_at[:k] + p)
            for w in range(width):
                kw = min(k, span[64 * w])
                eq = peq[w].take(index[:kw])
                pv_w, mv_w = pv[w, :kw], mv[w, :kw]
                xv = eq | mv_w
                total = (eq & pv_w) + pv_w
                if w + 1 < width:
                    carry_out = total < pv_w
                if w:
                    total += carry[:kw]
                    if w + 1 < width:
                        carry_out |= total < carry[:kw]
                xh = (total ^ pv_w) | eq
                ph = mv_w | ~(xh | pv_w)
                mh = pv_w & xh
                if w:
                    ph_shift = (ph << u(1)) | ph_in[:kw]
                    mh_shift = (mh << u(1)) | mh_in[:kw]
                else:
                    ph_shift = (ph << u(1)) | u(1)
                    mh_shift = mh << u(1)
                if w + 1 < width:
                    carry, ph_in, mh_in = carry_out, ph >> u(63), mh >> u(63)
                np.bitwise_and(ph_shift, xv, out=mv_w)
                np.bitwise_or(mh_shift, ~(xv | ph_shift), out=pv_w)
        # pv holds garbage above the pattern's bits; mv stays clear there
        result = lengths.take(text)
        pattern_length = lengths.take(pattern)
        for w in range(width):
            rest = pattern_length - 64 * w  # pattern bits in word w
            mask = (~u(0) >> np.clip(64 - rest, 0, 63).astype(u)) * (rest > 0)
            result += _popcount(pv[w] & mask) - _popcount(mv[w])
        distances[low : low + size] = result
    return distances


def _same_list_pairs(lists: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of ranks t < q with lists[t] == lists[q], ordered by t."""
    members: dict[int, list[int]] = {}
    for rank, key in enumerate(lists):
        members.setdefault(key, []).append(rank)
    grouped: list[int] = []  # the ranks, list by list
    after = [0] * len(lists)  # where the ranks after t in its list begin in grouped
    later = [0] * len(lists)  # how many there are
    for ranks in members.values():
        for place, rank in enumerate(ranks):
            grouped.append(rank)
            after[rank] = len(grouped)
            later[rank] = len(ranks) - 1 - place
    later = np.array(later, dtype=np.int64)
    first_lane = np.cumsum(later) - later
    texts = np.repeat(np.arange(len(lists)), later)
    patterns = np.array(grouped, dtype=np.int64).take(
        np.repeat(np.array(after, dtype=np.int64) - first_lane, later) + np.arange(len(texts))
    )
    return texts, patterns


def _edit_tables(value_lists: Sequence[Sequence[str]]) -> list[np.ndarray]:
    """One symmetric int32 table of edit distances per list of values, plus a
    zero last row and column that code -1 (key absent) indexes.

    The pairs of every list run through one pass of _edit_distances. Each
    list's values share one alphabet, and the longer value of a pair is its
    text, since the distance is symmetric.
    """
    sides = np.array([len(values) + 1 for values in value_lists], dtype=np.int64)
    offsets = np.cumsum(sides * sides) - sides * sides
    cells = np.zeros(int((sides * sides).sum()), dtype=np.int32)
    ranked = sorted(
        (
            (value, key, index)
            for key, values in enumerate(value_lists)
            for index, value in enumerate(values)
        ),
        key=lambda entry: -len(entry[0]),
    )
    lists = [key for _, key, _ in ranked]
    texts, patterns = _same_list_pairs(lists)
    if len(texts):
        alphabets = [
            {ord(ch): code for code, ch in enumerate(dict.fromkeys("".join(values)))}
            for values in value_lists
        ]
        keys = np.array(lists, dtype=np.int64)
        indexes = np.array([index for _, _, index in ranked], dtype=np.int64)
        cell_rows = offsets.take(keys) + indexes * sides.take(keys)
        cells[cell_rows.take(texts) + indexes.take(patterns)] = _edit_distances(
            [value for value, _, _ in ranked], [alphabets[key] for key in lists], texts, patterns
        )
    tables = [
        cells[start : start + side * side].reshape(side, side)
        for start, side in zip(offsets.tolist(), sides.tolist())
    ]
    return [table + table.T for table in tables]


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute)."""
    return int(_edit_tables([(a, b)])[0][0, 1])


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
    shared = values_i.keys() & values_j.keys()
    tables = _edit_tables([(values_i[key], values_j[key]) for key in shared])
    lev_sum = sum(int(table[0, 1]) for table in tables)
    return params.w1 * key_distance(rule_i, rule_j) + params.w2 * lev_sum


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
    # one value: every edit distance is 0
    edited = [(values, column) for values, column in zip(table.values, table.codes.T) if len(values) > 1]
    for values, column in edited:
        # a rule without the key reads its table's zero last row and column
        # as index len(values), not -1: take then skips its pass over
        # negative indexes, about half the gathers' time at n = 5000
        column[column < 0] = len(values)
    tables = list(zip(_edit_tables([values for values, _ in edited]), [column for _, column in edited]))
    w1, w2 = float(params.w1), float(params.w2)  # an int weight would keep edits int32
    matrix = np.empty((n, n), dtype=np.float64)
    for rows in _row_blocks(n):
        # the block is D's own rows: KD, then w1 * KD + w2 * lev, in place
        block = matrix[rows]
        np.matmul(presence[rows], presence.T, out=block)
        block *= -2
        block += key_counts[rows, None]
        block += key_counts
        edits = np.zeros(block.shape, dtype=np.int32)
        for table, column in tables:
            edits += table[column[rows]].take(column, axis=1)
        with np.errstate(over="ignore"):
            block *= w1
            block += w2 * edits
        if not np.isfinite(block).all():
            raise RuleforgeError(f"distances overflow with --w1 {w1!r} and --w2 {w2!r}")
    return DistanceMatrix(entries=matrix)


def _merge_sequence(distances: np.ndarray, linkage: str) -> list[tuple[int, int, float]]:
    """Full greedy merge sequence via Lance-Williams updates, in distances itself.

    distances starts as D and is the merge's working array. Cluster slots are
    indexed by their smallest member, so the merge of slots i < j lives on in
    slot i. The array holds +inf on the diagonal and in the rows and columns
    of merged-away slots, and stays exactly symmetric. Each row caches its
    minimum and the first column that attains it (Muellner's
    nearest-neighbour chain idea, arXiv:1109.2378, without a priority
    queue). The first row with the smallest cached minimum and its cached
    column are then the row-major first minimum of the whole array: the
    smallest (i, j), i < j, of the closest pairs. After a merge, row i is
    rescanned, and so is every row whose cached column was i or j and whose
    distance to the merged slot rose above its cached minimum; every other
    row only compares its new distance to i.
    """
    n = distances.shape[0]
    np.fill_diagonal(distances, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    nearest = distances.argmin(axis=1)
    nearest_distance = distances[np.arange(n), nearest]
    merges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        i = int(nearest_distance.argmin())
        j = int(nearest[i])
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
        nearest_distance[j] = np.inf
        # Row k changed only in columns i and j. If its new d[k, i] is at most
        # its cached minimum, that is its new minimum, first attained at i: a
        # tie in an earlier column would have been the cached one. Only a
        # row whose cached column was i or j can see its minimum rise.
        cached = nearest[others]
        current = nearest_distance[others]
        closer = (updated < current) | ((updated == current) & (i < cached))
        nearest[others[closer]] = i
        nearest_distance[others[closer]] = updated[closer]
        rows = np.concatenate((others[((cached == i) | (cached == j)) & (updated > current)], [i]))
        columns = distances[rows].argmin(axis=1)
        nearest[rows] = columns
        nearest_distance[rows] = distances[rows, columns]
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
    overwrite: bool = False,
) -> ClusterAssignment:
    """Bottom-up clustering of a distance matrix.

    Cut either at a height (merges with height <= cut_height are applied) or
    to a cluster count. With neither given, the count defaults to
    ceil(sqrt(n)). Labels are 0..k-1 ordered by each cluster's smallest
    member, so the result is deterministic.

    The merge works in one n x n array. By default that is a copy of
    matrix.entries, and the caller's matrix is left unchanged. With
    overwrite=True (after scipy's overwrite_a) the merge runs in
    matrix.entries itself and saves the copy: the caller gives D up, and
    afterwards its entries are scratch that no longer hold distances.
    Read-only entries, such as a memory-mapped np.load, raise ValueError.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    if overwrite and not matrix.entries.flags.writeable:
        raise ValueError("overwrite=True needs writeable distance entries; pass a copy")
    n = matrix.n
    if n == 0:
        raise InvalidCut("cannot cluster an empty matrix")
    if cut_height is not None and cut_count is not None:
        raise InvalidCut("specify cut_height or cut_count, not both")
    if cut_height is None and cut_count is None:
        cut_count = math.ceil(math.sqrt(n))
    if cut_count is not None and not 1 <= cut_count <= n:
        raise InvalidCut(f"cut_count must be in [1, {n}], got {cut_count}")
    if cut_height is not None and not cut_height >= 0:  # NaN fails the comparison too
        raise InvalidCut(f"cut_height must be >= 0, got {cut_height}")
    if linkage == "average" and not math.isfinite(n * float(matrix.entries.max())):
        # an average's weighted sum is at most n * max(D): keep it finite
        raise RuleforgeError("distances too large to average: n * max(D) overflows float64")

    merges = _merge_sequence(matrix.entries if overwrite else matrix.entries.copy(), linkage)
    if cut_count is not None:
        applied = merges[: n - cut_count]
    else:
        # heights are non-decreasing for these linkages, so the cut is a prefix
        applied = []
        for merge in merges:
            if merge[2] > cut_height:
                break
            applied.append(merge)
    labels = _labels_from_prefix(n, applied)
    return ClusterAssignment(labels=labels, merge_history=tuple(merges))
