"""Distance metric and agglomerative clustering against brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ruleforge import (
    ClusterAssignment,
    DistanceMatrix,
    DistanceParams,
    InvalidCut,
    RuleforgeError,
    agglomerate,
    build_distance_matrix,
    key_distance,
    levenshtein,
    parse_rule,
    rule_distance,
)
from ruleforge import clustering
from ruleforge.clustering import _edit_tables


def random_string(rng, alphabet="abcd", max_len=12):
    length = int(rng.integers(0, max_len + 1))
    return "".join(rng.choice(list(alphabet)) for _ in range(length))


class TestLevenshtein:
    def test_classic_example(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_edge_cases(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("same", "same") == 0
        assert levenshtein("a", "b") == 1

    def test_shared_affixes(self):
        # the trimmed fast path must agree with the plain definition
        assert levenshtein("prefix-x-suffix", "prefix-y-suffix") == 1
        assert levenshtein("flow:established", "flow:establishing") == 3

    def test_matches_full_matrix_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = random_string(rng)
            b = random_string(rng)
            want = oracles.levenshtein_full(a, b)
            assert levenshtein(a, b) == want
            assert levenshtein(b, a) == want

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        strings = [random_string(rng, max_len=8) for _ in range(12)]
        lev = {(a, b): levenshtein(a, b) for a in strings for b in strings}
        for a in strings:
            for b in strings:
                for c in strings:
                    assert lev[a, c] <= lev[a, b] + lev[b, c]


# around each uint64 word boundary of the pattern masks, and a 4-word pattern
BOUNDARY_LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129, 200]
WIDE_ALPHABET = "aé€😀"  # 1-, 2-, 3- and 4-byte UTF-8


def oracle_table(values):
    size = len(values)
    table = np.zeros((size + 1, size + 1), dtype=np.int32)
    for a in range(size):
        for b in range(a + 1, size):
            table[a, b] = table[b, a] = oracles.levenshtein_full(values[a], values[b])
    return table


def exact_string(rng, alphabet, length):
    return "".join(rng.choice(list(alphabet)) for _ in range(length))


boundary_values = st.sampled_from(BOUNDARY_LENGTHS).flatmap(
    lambda length: st.text(WIDE_ALPHABET, min_size=length, max_size=length)
)
value_lists = st.lists(
    st.lists(
        st.one_of(boundary_values, st.text("ab", max_size=8)), max_size=4, unique=True
    ),
    max_size=3,
)


class TestBitParallelKernel:
    @pytest.mark.parametrize("alphabet", ["ab", "abcd", "aé€😀"])
    @pytest.mark.parametrize("max_len", [8, 70, 200])
    def test_matches_full_matrix_oracle(self, alphabet, max_len):
        # above 64 characters the pattern masks span several machine words
        rng = np.random.default_rng(max_len * 31 + len(alphabet))
        strings = ["", *(random_string(rng, alphabet, max_len) for _ in range(12))]
        for a in strings:
            for b in strings[:6]:
                want = oracles.levenshtein_full(a, b)
                assert levenshtein(a, b) == want
                assert levenshtein(b, a) == want

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(value_lists)
    def test_tables_match_full_matrix_oracle(self, lists):
        # each list's table equals one built pair by pair from the full DP matrix
        tables = _edit_tables(lists)
        assert len(tables) == len(lists)
        for values, table in zip(lists, tables):
            assert table.dtype == np.int32
            assert table.tobytes() == oracle_table(values).tobytes()

    def test_every_boundary_length_in_one_list(self):
        rng = np.random.default_rng(11)
        values = [exact_string(rng, WIDE_ALPHABET, length) for length in BOUNDARY_LENGTHS]
        (table,) = _edit_tables([values])
        assert table.tobytes() == oracle_table(values).tobytes()

    def test_more_pairs_than_one_block(self, monkeypatch):
        # 36 + 10 pairs in blocks of 1, 7 and 16 lanes: blocks start mid-list and
        # mix one-word and multi-word patterns
        rng = np.random.default_rng(12)
        lists = [
            [exact_string(rng, WIDE_ALPHABET, length) for length in BOUNDARY_LENGTHS],
            [exact_string(rng, "ab", length) for length in (3, 70, 5, 64, 0)],
        ]
        want = [oracle_table(values).tobytes() for values in lists]
        for block in (1, 7, 16):
            monkeypatch.setattr(clustering, "_BLOCK_CELLS", block)
            assert [table.tobytes() for table in _edit_tables(lists)] == want

    def test_lists_without_pairs(self):
        assert _edit_tables([]) == []
        empty, single = _edit_tables([[], ["x"]])
        assert empty.tobytes() == np.zeros((1, 1), dtype=np.int32).tobytes()
        assert single.tobytes() == np.zeros((2, 2), dtype=np.int32).tobytes()


class TestRuleDistance:
    RULE_I = (
        'alert tcp any any -> any 445 (msg:"one"; flow:abc; dsize:>100; sid:1; rev:1;)'
    )
    RULE_J = 'alert tcp any any -> any 445 (msg:"two"; flow:abd; sid:2; rev:1;)'

    def test_worked_example(self):
        rule_i = parse_rule(self.RULE_I)
        rule_j = parse_rule(self.RULE_J)
        # dsize present on one side only: key distance 1; flow differs by one
        # edit: content distance 1; identity fields do not participate
        assert key_distance(rule_i, rule_j) == 1
        assert rule_distance(rule_i, rule_j) == pytest.approx(2.0)

    def test_weights_scale_each_term(self):
        rule_i = parse_rule(self.RULE_I)
        rule_j = parse_rule(self.RULE_J)
        params = DistanceParams(w1=2.0, w2=0.5)
        assert rule_distance(rule_i, rule_j, params) == pytest.approx(2 * 1 + 0.5 * 1)
        assert rule_distance(rule_i, rule_j, DistanceParams(w1=0, w2=1)) == 1.0
        assert rule_distance(rule_i, rule_j, DistanceParams(w1=1, w2=0)) == 1.0

    def test_identical_rules_have_zero_distance(self):
        rule = parse_rule(self.RULE_I)
        assert rule_distance(rule, rule) == 0.0

    def test_header_attributes_participate(self):
        rule_i = parse_rule('alert tcp any any -> any 445 (flow:abc; sid:1;)')
        rule_j = parse_rule('alert tcp any any -> any 446 (flow:abc; sid:2;)')
        # same keys, one edit in target_port
        assert rule_distance(rule_i, rule_j) == pytest.approx(1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DistanceParams(w1=-1.0)
        with pytest.raises(ValueError):
            DistanceParams(w2=-0.5)
        with pytest.raises(ValueError):
            DistanceParams(w1=0.0, w2=0.0)


class TestDistanceMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[1.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("diagonal", [1e-12, -1e-12])
    def test_nearly_zero_diagonal_rejected(self, diagonal):
        # the diagonal is checked as exactly as the symmetry beside it
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(np.array([[diagonal, 1.0], [1.0, 0.0]]))
        assert DistanceMatrix(np.array([[-0.0, 1.0], [1.0, 0.0]])).n == 2

    def test_nearly_symmetric_rejected(self):
        # agglomerate reads exact symmetry: on this matrix it would merge (1, 0),
        # naming a cluster by its larger member
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(np.array([[0, 2, 3], [2 - 1e-9, 0, 4], [3, 4, 0]]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_rejected(self, bad):
        # an infinite pair once merged a slot with itself: (0, 0, inf)
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(np.array([[0.0, bad, 1.0], [bad, 0.0, bad], [1.0, bad, 0.0]]))

    def test_checks_keep_their_order_across_row_blocks(self, monkeypatch):
        # blocks of 2 rows; each rule's fault sits in an earlier block than the
        # faults of the rules checked before it, and those still win
        monkeypatch.setattr(clustering, "_BLOCK_ROWS", 2)
        monkeypatch.setattr(clustering, "_BLOCK_CELLS", 0)
        entries = np.ones((8, 8))
        np.fill_diagonal(entries, 0.0)
        entries[0, 1] = entries[1, 0] = -1.0
        entries[2, 2] = 1.0
        entries[4, 5] = 3.0
        entries[6, 7] = entries[7, 6] = math.nan
        for rule, cells, mended in [
            ("finite", ([6, 7], [7, 6]), 1.0),
            ("symmetric", (4, 5), 1.0),
            ("diagonal", (2, 2), 0.0),
            ("non-negative", ([0, 1], [1, 0]), 1.0),
        ]:
            with pytest.raises(ValueError, match=rule):
                DistanceMatrix(entries.copy())
            entries[cells] = mended
        assert DistanceMatrix(entries).n == 8

    def test_every_asymmetric_cell_rejected_in_row_blocks(self, monkeypatch):
        # a block compares only its cells from its first row's column on
        monkeypatch.setattr(clustering, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(clustering, "_BLOCK_CELLS", 0)
        entries = random_matrix(np.random.default_rng(8), 8)
        for i in range(8):
            for j in range(8):
                if i != j:
                    skewed = entries.copy()
                    skewed[i, j] += 0.5
                    with pytest.raises(ValueError, match="symmetric"):
                        DistanceMatrix(skewed)

    def test_build_matches_pairwise_calls(self, sample_rules):
        rules = sample_rules[:6]
        params = DistanceParams(w1=1.5, w2=0.75)
        matrix = build_distance_matrix(rules, params)
        assert matrix.n == 6
        assert np.allclose(matrix.entries, matrix.entries.T)
        assert np.allclose(np.diag(matrix.entries), 0.0)
        for i in range(6):
            for j in range(6):
                want = rule_distance(rules[i], rules[j], params)
                assert matrix.entries[i, j] == pytest.approx(want)


WEIGHTS = [(1, 1), (1.5, 0.75), (0.1, 0.3), (0, 1)]

DISJOINT_TEXTS = [
    'alert tcp any any -> any 80 (content:"abc"; nocase; sid:1;)',
    'alert udp 10.0.0.1 53 -> any any (pcre:"/x+y/"; dsize:>5; sid:2;)',
    'alert icmp any any -> any any (itype:8; sid:3;)',
]


class TestBuildExact:
    """Each matrix entry is bit-for-bit the pairwise rule_distance."""

    @pytest.mark.parametrize("w1, w2", WEIGHTS)
    @pytest.mark.parametrize("corpus", ["sample", "disjoint", "empty", "single"])
    def test_entries_equal_rule_distance(self, sample_rules, corpus, w1, w2):
        rules = {
            "sample": sample_rules,
            "disjoint": [parse_rule(text) for text in DISJOINT_TEXTS],
            "empty": [],
            "single": sample_rules[:1],
        }[corpus]
        params = DistanceParams(w1=w1, w2=w2)
        matrix = build_distance_matrix(rules, params)
        assert matrix.entries.shape == (len(rules), len(rules))
        for i, rule_i in enumerate(rules):
            for j, rule_j in enumerate(rules):
                assert matrix.entries[i, j] == rule_distance(rule_i, rule_j, params)

    def test_row_blocks_give_the_same_bytes(self, sample_rules, monkeypatch):
        params = DistanceParams(w1=0.3, w2=0.7)
        whole = build_distance_matrix(sample_rules, params).entries
        monkeypatch.setattr(clustering, "_BLOCK_ROWS", 1)
        # 12 rules in blocks of 1 row; of 5, 5 and 2 rows; of all 12 rows
        for rows in (1, 5, 12):
            monkeypatch.setattr(clustering, "_BLOCK_CELLS", rows * len(sample_rules))
            assert clustering._row_blocks(len(sample_rules))[0] == slice(0, rows)
            blocked = build_distance_matrix(sample_rules, params)
            assert blocked.entries.tobytes() == whole.tobytes()

    def test_non_finite_weights_rejected(self):
        for w1, w2 in [(math.nan, 1.0), (1.0, math.inf), (math.inf, 0.0)]:
            with pytest.raises(ValueError):
                DistanceParams(w1=w1, w2=w2)

    @pytest.mark.parametrize("w1, w2", [(1e308, 1e308), (1e308, 0.0), (0.0, 1e308)])
    def test_overflowing_weights_rejected(self, sample_rules, w1, w2):
        # pytest turns numpy's RuntimeWarning into an error: none may be emitted
        with pytest.raises(RuleforgeError, match="--w1 .* --w2"):
            build_distance_matrix(sample_rules, DistanceParams(w1=w1, w2=w2))

    def test_largest_finite_weights_kept(self, sample_rules):
        params = DistanceParams(w1=1e300, w2=1e300)
        matrix = build_distance_matrix(sample_rules, params)
        assert np.isfinite(matrix.entries).all()
        assert matrix.entries[0, 1] == rule_distance(sample_rules[0], sample_rules[1], params)


def random_matrix(rng, n):
    raw = rng.uniform(1.0, 10.0, size=(n, n))
    symmetric = (raw + raw.T) / 2
    np.fill_diagonal(symmetric, 0.0)
    return symmetric


class TestAgglomerate:
    @pytest.mark.parametrize("linkage", ["single", "complete", "average"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_bruteforce(self, linkage, n):
        rng = np.random.default_rng(100 + n)
        entries = random_matrix(rng, n)
        want_merges = oracles.agglomerate_bruteforce(entries, linkage)
        full = agglomerate(DistanceMatrix(entries), linkage, cut_count=1)
        assert len(full.merge_history) == n - 1
        for got, want in zip(full.merge_history, want_merges):
            assert (got[0], got[1]) == (want[0], want[1])
            assert got[2] == pytest.approx(want[2], rel=1e-9)
        for count in range(1, n + 1):
            cut = agglomerate(DistanceMatrix(entries), linkage, cut_count=count)
            want_labels = oracles.labels_at_count(n, want_merges, count)
            assert dict(enumerate(cut.labels.tolist())) == want_labels
            assert len(np.unique(cut.labels)) == count

    def test_deterministic_tie_break(self):
        # two pairs at distance 1: the smaller indices merge first
        entries = np.full((4, 4), 5.0)
        np.fill_diagonal(entries, 0.0)
        entries[0, 1] = entries[1, 0] = 1.0
        entries[2, 3] = entries[3, 2] = 1.0
        result = agglomerate(DistanceMatrix(entries), "single", cut_count=2)
        assert result.merge_history[0][:2] == (0, 1)
        assert result.merge_history[1][:2] == (2, 3)
        assert result.labels.tolist() == [0, 0, 1, 1]

    def test_cut_height_prefix(self):
        # chain 0-1-2-3 with increasing gaps: heights 1, 2, 3 under single link
        entries = np.array(
            [
                [0.0, 1.0, 3.0, 6.0],
                [1.0, 0.0, 2.0, 5.0],
                [3.0, 2.0, 0.0, 3.0],
                [6.0, 5.0, 3.0, 0.0],
            ]
        )
        matrix = DistanceMatrix(entries)
        low = agglomerate(matrix, "single", cut_height=1.5)
        assert low.labels.tolist() == [0, 0, 1, 2]
        mid = agglomerate(matrix, "single", cut_height=2.0)
        assert mid.labels.tolist() == [0, 0, 0, 1]
        everything = agglomerate(matrix, "single", cut_height=10.0)
        assert set(everything.labels.tolist()) == {0}
        nothing = agglomerate(matrix, "single", cut_height=0.0)
        assert nothing.labels.tolist() == [0, 1, 2, 3]
        unbounded = agglomerate(matrix, "single", cut_height=math.inf)
        assert set(unbounded.labels.tolist()) == {0}

    def test_count_extremes(self):
        rng = np.random.default_rng(5)
        entries = random_matrix(rng, 5)
        matrix = DistanceMatrix(entries)
        one = agglomerate(matrix, "average", cut_count=1)
        assert set(one.labels.tolist()) == {0}
        all_singletons = agglomerate(matrix, "average", cut_count=5)
        assert all_singletons.labels.tolist() == list(range(5))

    def test_default_count_is_sqrt(self):
        rng = np.random.default_rng(9)
        entries = random_matrix(rng, 10)
        result = agglomerate(DistanceMatrix(entries), "average")
        assert len(np.unique(result.labels)) == math.ceil(math.sqrt(10))

    def test_single_point(self):
        result = agglomerate(DistanceMatrix(np.zeros((1, 1))), "single")
        assert result.labels.tolist() == [0]
        assert result.merge_history == ()

    def test_labels_ordered_by_smallest_member(self):
        # force cluster {1, 3} and {0, 2}: 0's cluster must get label 0
        entries = np.full((4, 4), 9.0)
        np.fill_diagonal(entries, 0.0)
        entries[1, 3] = entries[3, 1] = 1.0
        entries[0, 2] = entries[2, 0] = 2.0
        result = agglomerate(DistanceMatrix(entries), "single", cut_count=2)
        assert result.labels.tolist() == [0, 1, 0, 1]
        assert result.clusters() == {0: [0, 2], 1: [1, 3]}

    def test_invalid_cuts(self):
        matrix = DistanceMatrix(np.zeros((3, 3)))
        with pytest.raises(InvalidCut):
            agglomerate(matrix, "single", cut_height=1.0, cut_count=2)
        with pytest.raises(InvalidCut):
            agglomerate(matrix, "single", cut_count=0)
        with pytest.raises(InvalidCut):
            agglomerate(matrix, "single", cut_count=4)
        with pytest.raises(InvalidCut):
            agglomerate(matrix, "single", cut_height=-0.5)
        with pytest.raises(InvalidCut, match="cut_height"):
            # NaN fails every comparison, so a `cut_height < 0` check lets it through
            agglomerate(matrix, "single", cut_height=math.nan)
        with pytest.raises(InvalidCut):
            agglomerate(DistanceMatrix(np.zeros((0, 0))), "single")
        with pytest.raises(ValueError):
            agglomerate(matrix, "ward")

    def test_average_overflow_rejected(self):
        # (1e308 + 1e308) / 2 overflowed to inf, and the last merge became (0, 0, inf)
        entries = np.array([[0.0, 1.0, 1e308], [1.0, 0.0, 1e308], [1e308, 1e308, 0.0]])
        with pytest.raises(RuleforgeError, match="overflows"):
            agglomerate(DistanceMatrix(entries), "average", cut_count=1)
        for linkage in ("single", "complete"):
            result = agglomerate(DistanceMatrix(entries), linkage, cut_count=1)
            assert result.merge_history == ((0, 1, 1.0), (0, 2, 1e308))
            assert result.labels.tolist() == [0, 0, 0]

    def test_assignment_clusters_grouping(self):
        assignment = ClusterAssignment(labels=np.array([0, 1, 0, 1]), merge_history=())
        assert assignment.clusters() == {0: [0, 2], 1: [1, 3]}

    def test_rule_pipeline_end_to_end(self, sample_rules):
        matrix = build_distance_matrix(sample_rules)
        result = agglomerate(matrix, "average")
        assert result.labels.shape == (len(sample_rules),)
        k = math.ceil(math.sqrt(len(sample_rules)))
        assert len(np.unique(result.labels)) == k
        heights = [h for _, _, h in result.merge_history]
        assert heights == sorted(heights)


def tie_heavy_matrix(rng, n):
    """Symmetric small-integer distances: most pairs tie with many others."""
    upper = np.triu(rng.integers(0, 4, size=(n, n)).astype(np.float64), k=1)
    return upper + upper.T


class TestMergeSequenceReference:
    """The cached nearest-neighbour merge against the flat-scan reference loop."""

    @pytest.mark.parametrize("linkage", clustering.LINKAGES)
    @pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 60])
    def test_same_merges_and_labels_at_every_cut(self, linkage, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(3):
            matrix = DistanceMatrix(tie_heavy_matrix(rng, n))
            want = oracles.merge_sequence(matrix, linkage)
            for count in range(1, n + 1):
                cut = agglomerate(matrix, linkage, cut_count=count)
                assert cut.merge_history == tuple(want)
                assert dict(enumerate(cut.labels.tolist())) == oracles.labels_at_count(
                    n, want, count
                )

    @pytest.mark.parametrize("linkage", clustering.LINKAGES)
    def test_non_integer_distances(self, sample_rules, linkage):
        # 0.3 and 0.7 are inexact in binary: averages and ties round as in the oracle
        matrix = build_distance_matrix(sample_rules, DistanceParams(w1=0.3, w2=0.7))
        want = oracles.merge_sequence(matrix, linkage)
        for count in range(1, matrix.n + 1):
            cut = agglomerate(matrix, linkage, cut_count=count)
            assert cut.merge_history == tuple(want)
            assert dict(enumerate(cut.labels.tolist())) == oracles.labels_at_count(
                matrix.n, want, count
            )

    @pytest.mark.parametrize("linkage", clustering.LINKAGES)
    def test_tie_heavy_at_n_200(self, linkage):
        # distances 0-3 over 200 rows: a merge invalidates many cached
        # nearest neighbours at once, and their rescans chain through later merges
        rng = np.random.default_rng(200)
        for _ in range(2):
            matrix = DistanceMatrix(tie_heavy_matrix(rng, 200))
            want = oracles.merge_sequence(matrix, linkage)
            full = agglomerate(matrix, linkage, cut_count=1)
            assert full.merge_history == tuple(want)
            for count in (2, 14, 100, 199):
                cut = agglomerate(matrix, linkage, cut_count=count)
                assert dict(enumerate(cut.labels.tolist())) == oracles.labels_at_count(
                    200, want, count
                )

    def test_leaves_the_matrix_unchanged(self):
        matrix = DistanceMatrix(tie_heavy_matrix(np.random.default_rng(4), 12))
        before = matrix.entries.copy()
        for linkage in clustering.LINKAGES:
            agglomerate(matrix, linkage)
            assert matrix.entries.tobytes() == before.tobytes()


class TestOverwrite:
    """overwrite=True merges in matrix.entries itself, with the same result."""

    @pytest.mark.parametrize("linkage", clustering.LINKAGES)
    @pytest.mark.parametrize("kind", ["tie-heavy", "non-integer"])
    def test_same_merges_and_labels_as_the_copy(self, sample_rules, linkage, kind):
        if kind == "tie-heavy":
            entries = tie_heavy_matrix(np.random.default_rng(60), 60)
        else:
            params = DistanceParams(w1=0.3, w2=0.7)
            entries = build_distance_matrix(sample_rules, params).entries
        n = len(entries)
        want = oracles.merge_sequence(DistanceMatrix(entries), linkage)
        for count in range(1, n + 1):
            copied = agglomerate(DistanceMatrix(entries), linkage, cut_count=count)
            owned = agglomerate(
                DistanceMatrix(entries.copy()), linkage, cut_count=count, overwrite=True
            )
            assert owned.merge_history == copied.merge_history == tuple(want)
            assert owned.labels.tolist() == copied.labels.tolist()
            assert dict(enumerate(owned.labels.tolist())) == oracles.labels_at_count(
                n, want, count
            )

    def test_read_only_entries_rejected(self, tmp_path):
        path = tmp_path / "d.npy"
        np.save(path, tie_heavy_matrix(np.random.default_rng(5), 10))
        matrix = DistanceMatrix(np.load(path, mmap_mode="r"))
        assert not matrix.entries.flags.writeable
        with pytest.raises(ValueError, match="writeable"):
            agglomerate(matrix, "average", overwrite=True)
        # the default call still takes read-only entries: it merges in a copy
        want = agglomerate(DistanceMatrix(np.load(path)), "average", overwrite=True)
        got = agglomerate(matrix, "average")
        assert got.merge_history == want.merge_history
        assert got.labels.tolist() == want.labels.tolist()

    def test_only_the_default_allocates_a_copy(self):
        # numpy reports its buffers to tracemalloc: the copy of D shows in the
        # default call's peak, and the in-place call stays far below it
        entries = tie_heavy_matrix(np.random.default_rng(300), 300)
        peaks = {}
        for overwrite in (False, True):
            matrix = DistanceMatrix(entries.copy())
            tracemalloc.start()
            try:
                agglomerate(matrix, "average", overwrite=overwrite)
                peaks[overwrite] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] >= entries.nbytes
        assert peaks[True] < entries.nbytes / 2
