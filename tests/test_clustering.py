"""Distance metric and agglomerative clustering against brute-force oracles."""

import math

import numpy as np
import pytest

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
from ruleforge.clustering import _levenshtein_row


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
        for a in strings:
            for b in strings:
                for c in strings:
                    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


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

    def test_row_reuses_one_pattern(self):
        rng = np.random.default_rng(3)
        pattern = random_string(rng, "abc€", 90)
        texts = ["", pattern, *(random_string(rng, "abc€", 90) for _ in range(20))]
        want = [oracles.levenshtein_full(pattern, text) for text in texts]
        assert _levenshtein_row(pattern, texts) == want
        assert _levenshtein_row("", texts) == [len(text) for text in texts]
        assert _levenshtein_row(pattern, []) == []


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
        whole = build_distance_matrix(sample_rules).entries
        # 12 rules in blocks of 5, 5 and 2 rows
        monkeypatch.setattr(clustering, "_BLOCK_CELLS", 5 * len(sample_rules))
        assert build_distance_matrix(sample_rules).entries.tobytes() == whole.tobytes()

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
        assert result.cut == {"count": 4}

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
    """The one-matrix merge loop against the three-array loop it replaced."""

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

    def test_leaves_the_matrix_unchanged(self):
        matrix = DistanceMatrix(tie_heavy_matrix(np.random.default_rng(4), 12))
        before = matrix.entries.copy()
        agglomerate(matrix, "average")
        assert matrix.entries.tobytes() == before.tobytes()
