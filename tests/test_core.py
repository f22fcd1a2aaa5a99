from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees.core import (
    HyperTree,
    Matching,
    ResourceCapError,
    ValidationError,
    count_matchings_formula,
    count_spanning_trees_formula,
    enumerate_matchings,
    enumerate_spanning_trees,
    extract_matching,
    format_matching,
    format_tree,
    is_spanning_tree,
    parse_matching,
    parse_tree,
    tree_size,
)
from hypertrees.parking import parse_sequence
from hypertrees.prufer import parse_code

import reference
from conftest import naive_spanning_trees, outcome

FIG1 = "1,2,3;3,4,7;3,5,6"


class TestIsSpanningTree:
    def test_seven_vertex_example(self):
        assert is_spanning_tree(parse_tree(FIG1, 7, 3))

    def test_disconnected(self):
        assert not is_spanning_tree(parse_tree("1,2,3;4,5,6", 7, 3))

    def test_incidence_cycle(self):
        assert not is_spanning_tree(parse_tree("1,2,3;1,2,4", 5, 3))

    def test_single_hyperedge(self):
        assert is_spanning_tree(parse_tree("1,2,3", 3, 3))

    def test_single_vertex(self):
        assert is_spanning_tree(HyperTree(1, 3, ()))

    def test_wrong_edge_count(self):
        assert not is_spanning_tree(parse_tree("1,2,3", 5, 3))

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValidationError):
            parse_tree("1,2,2", 5, 3)
        with pytest.raises(ValidationError):
            parse_tree("1,2,9", 5, 3)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_relabeling_invariance(self, data):
        trees = naive_spanning_trees(5, 3)
        t = data.draw(st.sampled_from(trees))
        perm = data.draw(st.permutations(range(1, 6)))
        relabel = dict(zip(range(1, 6), perm))
        mapped = HyperTree(5, 3, tuple(tuple(relabel[v] for v in e) for e in t.edges))
        assert is_spanning_tree(mapped)


class TestAgainstReference:
    """The breadth-first walk from n decides exactly what the union-find decides."""

    @pytest.mark.parametrize("n,r", [(5, 3), (6, 3), (7, 3), (7, 4)])
    def test_every_edge_set_near_tree_size(self, n, r):
        # k-1, k and k+1 hyperedges, k = (n-1)//(r-1); at (6,3) no size is a tree size
        k = (n - 1) // (r - 1)
        all_edges = list(combinations(range(1, n + 1), r))
        trees = 0
        for size in (k - 1, k, k + 1):
            for edges in combinations(all_edges, size):
                t = HyperTree(n, r, edges)
                got = is_spanning_tree(t)
                assert got == reference.is_spanning_tree(t), t
                trees += got
        assert trees == count_spanning_trees_formula(n, r)

    @pytest.mark.parametrize(
        "text,why",
        [
            # n's component {1,2,3,4,5,7} holds the cycle 1-{1,2,7}-2-{1,2,3}-1, 6 is unreached
            ("1,2,7;1,2,3;3,4,5", "cycle next to n, a vertex unreached"),
            # n's component {5,6,7} is a tree, the cycle 1-{1,2,3}-2-{1,2,4}-1 lies elsewhere
            ("5,6,7;1,2,3;1,2,4", "tree at n, cycle elsewhere"),
            ("1,2,3;3,4,7;3,5,6;1,4,6", "one hyperedge too many"),
            ("1,2,7;3,4,7", "one hyperedge too few"),
        ],
    )
    def test_named_non_trees(self, text, why):
        t = parse_tree(text, 7, 3)
        assert not reference.is_spanning_tree(t), why
        assert not is_spanning_tree(t), why
        assert outcome(extract_matching, t) == (ValidationError, "input is not a spanning tree")


class TestEnumerateSpanningTrees:
    def test_smallest(self):
        assert [t.edges for t in enumerate_spanning_trees(3, 3)] == [((1, 2, 3),)]

    def test_five_vertices(self):
        trees = list(enumerate_spanning_trees(5, 3))
        assert len(trees) == 15
        assert trees == list(naive_spanning_trees(5, 3))

    def test_infeasible_size_is_empty(self):
        assert list(enumerate_spanning_trees(4, 3)) == []
        assert list(enumerate_spanning_trees(9, 4)) == []

    def test_matches_naive_oracle(self):
        for n, r in ((7, 4), (5, 2), (6, 2)):
            assert list(enumerate_spanning_trees(n, r)) == list(naive_spanning_trees(n, r))

    def test_lexicographic_order(self, trees_7_3):
        edge_sets = [t.edges for t in trees_7_3]
        assert edge_sets == sorted(edge_sets)

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_spanning_trees(13, 3, cap=1000))


class TestCountFormulas:
    @pytest.mark.parametrize(
        "n,r,expected",
        [
            (7, 3, 735), (5, 3, 15), (3, 3, 1), (1, 3, 1), (4, 3, 0), (7, 4, 70), (9, 4, 0),
            (1, 2, 1), (5, 2, 125), (7, 2, 16807),
        ],
    )
    def test_tree_counts(self, n, r, expected):
        assert count_spanning_trees_formula(n, r) == expected

    def test_formula_equals_brute_force(self):
        # at r = 2 (Cayley's n^(n-2)), n = 9 would enumerate 4.8 million trees
        for r, top in ((2, 7), (3, 9), (4, 9)):
            for n in range(1, top + 1):
                brute = sum(1 for _ in enumerate_spanning_trees(n, r))
                assert brute == count_spanning_trees_formula(n, r), (n, r)

    @pytest.mark.parametrize(
        "m,b,expected",
        [
            (4, 2, 3), (6, 2, 15), (6, 3, 10), (0, 2, 1), (5, 2, 0), (9, 3, 280),
            (4, 1, 1), (0, 1, 1),
        ],
    )
    def test_matching_counts(self, m, b, expected):
        assert count_matchings_formula(m, b) == expected

    @pytest.mark.parametrize(
        "n,r,expected",
        [
            (7, 3, 3), (1, 2, 0), (4, 3, None),
            (5, 1, (ValidationError, "uniformity must be at least 2")),
            (-1, 3, (ValidationError, "vertex count must be positive")),
            (0, 0, (ValidationError, "vertex count must be positive")),
        ],
    )
    def test_tree_size(self, n, r, expected):
        assert outcome(tree_size, n, r) == expected


class TestEnumerateMatchings:
    def test_pairs_of_four(self):
        got = [m.blocks for m in enumerate_matchings(4, 2)]
        assert got == [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]

    def test_single_pair(self):
        assert [m.blocks for m in enumerate_matchings(2, 2)] == [((1, 2),)]

    @pytest.mark.parametrize("m,b", [(6, 2), (6, 3), (8, 2), (9, 3), (5, 1)])
    def test_count_agrees_with_formula(self, m, b):
        matchings = list(enumerate_matchings(m, b))
        assert len(matchings) == count_matchings_formula(m, b)
        assert len(set(matchings)) == len(matchings)

    def test_indivisible_is_empty(self):
        assert list(enumerate_matchings(5, 2)) == []

    def test_out_of_domain_rejected(self):
        assert [m.blocks for m in enumerate_matchings(4, 1)] == [((1,), (2,), (3,), (4,))]
        assert outcome(list, enumerate_matchings(4, 0)) == (
            ValidationError,
            "block size must be positive",
        )
        assert outcome(list, enumerate_matchings(-2, 2)) == (
            ValidationError,
            "negative ground-set size",
        )

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_matchings(20, 2))  # 654,729,075 > DEFAULT_CAP


class TestExtractMatching:
    def test_seven_vertex_example(self):
        m = extract_matching(parse_tree(FIG1, 7, 3))
        assert m.blocks == ((1, 2), (3, 4), (5, 6))

    def test_two_edge_tree(self):
        m = extract_matching(parse_tree("1,2,5;3,4,5", 5, 3))
        assert m.blocks == ((1, 2), (3, 4))

    def test_single_edge(self):
        m = extract_matching(parse_tree("1,2,3", 3, 3))
        assert m.blocks == ((1, 2),)

    def test_rejects_non_tree(self):
        with pytest.raises(ValidationError):
            extract_matching(parse_tree("1,2,3;4,5,6", 7, 3))

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_single_vertex_gives_empty_matching(self, r):
        # the one-vertex tree arises from the one matching of the empty set
        (empty,) = enumerate_matchings(0, r - 1)
        assert extract_matching(HyperTree(1, r, ())) == empty

    @pytest.mark.parametrize("n,r", [(5, 3), (7, 3), (7, 4)])
    def test_each_edge_contains_one_block(self, n, r):
        for t in naive_spanning_trees(n, r):
            m = extract_matching(t)
            for e in t.edges:
                inside = [b for b in m.blocks if set(b) <= set(e)]
                assert len(inside) == 1

    @pytest.mark.parametrize("n,r", [(5, 3), (7, 3), (7, 4)])
    def test_every_tree_has_a_leaf_hyperedge(self, n, r):
        for t in naive_spanning_trees(n, r):
            m = extract_matching(t)
            degree = {}
            for e in t.edges:
                for v in e:
                    degree[v] = degree.get(v, 0) + 1
            leaves = [
                b
                for b in m.blocks
                if all(degree[v] == 1 for v in b)
                and any(set(b) <= set(e) for e in t.edges)
            ]
            assert leaves

    @pytest.mark.parametrize("n,r", [(5, 3), (7, 3), (7, 4)])
    def test_fiber_sizes_are_equal(self, n, r):
        fibers = {}
        for t in naive_spanning_trees(n, r):
            m = extract_matching(t)
            fibers[m] = fibers.get(m, 0) + 1
        k = (n - 1) // (r - 1)
        assert set(fibers.values()) == {n ** (k - 1)}
        assert len(fibers) == count_matchings_formula(n - 1, r - 1)


class TestTextFormats:
    def test_tree_round_trip(self):
        t = parse_tree("3,4,7;1,2,3;3,5,6", 7, 3)
        assert format_tree(t) == FIG1  # canonical order on output

    def test_matching_round_trip(self):
        m = parse_matching("3,4|1,2|5,6", 2)
        assert format_matching(m) == "1,2|3,4|5,6"

    def test_duplicate_rejection(self):
        with pytest.raises(ValidationError):
            parse_tree("1,2,3;1,2,3", 5, 3)
        with pytest.raises(ValidationError):
            parse_matching("1,2|2,3", 2)

    def test_bad_tokens(self):
        with pytest.raises(ValidationError):
            parse_tree("1,2,x", 5, 3)
        with pytest.raises(ValidationError):
            parse_matching("1,2|a,4", 2)

    def test_empty_parts_skipped(self):
        assert parse_tree(";1,2,3;;1,4,5;", 5, 3).edges == ((1, 2, 3), (1, 4, 5))
        assert parse_matching("|3,4||1,2|", 2).blocks == ((1, 2), (3, 4))
        assert parse_code(",3,,4,", 9).entries == (3, 4)
        assert parse_sequence(",1,,0") == (1, 0)

    @pytest.mark.parametrize(
        "parse,text,what,bad",
        [
            (lambda text: parse_tree(text, 5, 3), "1,2,x;3,4,5", "tree", "x"),
            (lambda text: parse_tree(text, 5, 3), "1,,2", "tree", ""),
            pytest.param(lambda text: parse_matching(text, 2), "1,2|a,4", "matching", "a",
                         id="parse_matching-1,2|a,4-matching-a"),
            (lambda text: parse_code(text, 9), "3;4", "code", "3;4"),
            (parse_sequence, "1, 2,x", "sequence", "x"),
        ],
    )
    def test_error_messages(self, parse, text, what, bad):
        with pytest.raises(ValidationError) as info:
            parse(text)
        assert str(info.value) == (
            f"cannot parse {what} {text!r}: invalid literal for int() with base 10: {bad!r}"
        )


class TestMatchingType:
    def test_blocks_ordered_by_minimum(self):
        m = Matching(2, ((5, 6), (1, 2), (3, 4)))
        assert m.blocks == ((1, 2), (3, 4), (5, 6))

    def test_must_cover_prefix(self):
        with pytest.raises(ValidationError):
            Matching(2, ((1, 2), (4, 5)))


@pytest.mark.parametrize(
    "make,args,message",
    [
        (HyperTree, (0, 3, ()), "vertex count must be positive"),
        (HyperTree, (3, 1, ()), "uniformity must be at least 2"),
        (Matching, (2, ((1, 2), (3,))), "block (3,) has size 1, expected 2"),
    ],
    ids=["tree-n0", "tree-r1", "matching-short-block"],
)
def test_construction_refusals(make, args, message):
    assert outcome(make, *args) == (ValidationError, message)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_empty_text_is_the_empty_matching(b):
    assert parse_matching("", b) == Matching(b, ())
