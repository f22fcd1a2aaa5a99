import math
from fractions import Fraction
from itertools import combinations, islice, permutations

import pytest
from hypothesis import example, given, settings
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
from hypertrees.prufer import PruferCode, decode, encode, parse_code

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


@st.composite
def edge_lists(draw):
    """(n, r, edges): a random tree on n = (r-1)k + 1 vertices, then spoiled a few times
    over: a hyperedge dropped, repeated or added at random (a cycle, a disconnected graph,
    a wrong edge count), or one vertex moved, grown, cut or set to a label out of range
    or of another type that compares with ints."""
    r = draw(st.integers(2, 4))
    k = draw(st.integers(0, 5))
    n = (r - 1) * k + 1
    order = draw(st.permutations(range(1, n)))
    placed, edges = [n], []
    for i in range(k):
        block = order[i * (r - 1):(i + 1) * (r - 1)]
        edges.append([draw(st.sampled_from(placed)), *block])
        placed += block
    label = st.one_of(
        st.integers(1, n),
        st.sampled_from([-1, 0, n + 1, True, False, 2.0, 1.5, Fraction(2), Fraction(1, 2)]),
    )
    spoils = st.sampled_from(["drop", "repeat", "add", "set", "grow", "cut"])
    for spoil in draw(st.lists(spoils, max_size=3)):
        if spoil == "add" or not edges:
            vertices = st.integers(1, max(n, r))  # n + 1 .. r out of range when n < r
            edges.append(draw(st.lists(vertices, min_size=r, max_size=r, unique=True)))
            continue
        j = draw(st.integers(0, len(edges) - 1))
        if spoil == "drop":
            del edges[j]
        elif spoil == "repeat":
            edges.append(list(edges[j]))
        elif spoil == "set" and edges[j]:  # "cut" may have emptied it
            edges[j][draw(st.integers(0, len(edges[j]) - 1))] = draw(label)
        elif spoil == "grow":
            edges[j].append(draw(label))
        elif edges[j]:
            edges[j].pop()
    return n, r, edges


class TestAgainstReference:
    """The breadth-first walk from n decides exactly what the union-find decides."""

    @given(edge_lists())
    @settings(max_examples=400, deadline=None)
    def test_random_edge_lists(self, case):
        # refused with the message of the per-edge checks; accepted, walked twice and after
        # extract_matching, the walk decides as the union-find does and changes no identity
        n, r, edges = case
        message = reference.hypertree_refusal(n, r, edges)
        if message is not None:
            assert outcome(HyperTree, n, r, edges) == (ValidationError, message)
            return
        t, unwalked = HyperTree(n, r, edges), HyperTree(n, r, edges)
        tree = reference.is_spanning_tree(t)
        assert is_spanning_tree(t) == is_spanning_tree(t) == tree
        if tree:
            extract_matching(t)
            assert is_spanning_tree(t)
        assert (t == unwalked, hash(t), repr(t)) == (True, hash(unwalked), repr(unwalked))

    def test_walk_is_made_once_and_kept(self):
        t = parse_tree(FIG1, 7, 3)
        assert t._walked is None
        assert is_spanning_tree(t)
        walked = t._walked
        m = extract_matching(t)
        assert decode(encode(t, m), m, 3)._walked is not None  # by decode's postcondition
        assert t._walked is walked
        cycle = parse_tree("1,2,3;1,2,4", 5, 3)
        assert not is_spanning_tree(cycle) and not is_spanning_tree(cycle)
        assert cycle._walked is None

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

    def test_matches_naive_oracle(self, trees_7_3):
        assert list(enumerate_spanning_trees(7, 3)) == list(trees_7_3)
        for n, r in ((7, 4), (5, 2), (6, 2), (4, 2), (3, 2), (2, 2), (1, 2), (1, 3)):
            assert list(enumerate_spanning_trees(n, r)) == list(naive_spanning_trees(n, r))

    def test_generators_share_no_state(self):
        # each search node holds its own component labels, so interleaved
        # and abandoned searches do not disturb one another
        naive = list(naive_spanning_trees(6, 2))
        first, second = enumerate_spanning_trees(6, 2), enumerate_spanning_trees(6, 2)
        interleaved = list(zip(first, second))
        assert [a for a, _ in interleaved] == [b for _, b in interleaved] == naive
        closed = enumerate_spanning_trees(6, 2)
        assert list(islice(closed, 10)) == naive[:10]
        closed.close()
        assert list(enumerate_spanning_trees(6, 2)) == naive

    def test_lexicographic_order(self, trees_7_3):
        edge_sets = [t.edges for t in trees_7_3]
        assert edge_sets == sorted(edge_sets)

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_spanning_trees(13, 3, cap=1000))
        # the search space S = C(N, k), N = C(n, r), is refused at every cap below S and
        # searched at cap S, also at caps N - 1 and N, where the partial products of N end
        for n, r in ((5, 3), (7, 3), (7, 4), (6, 2), (3, 3), (1, 3)):
            n_edges, k = math.comb(n, r), tree_size(n, r)
            space = math.comb(n_edges, k)
            for cap in sorted({n_edges - 1, n_edges, space - 1, space}):
                if cap < space:
                    with pytest.raises(ResourceCapError) as exc:
                        next(enumerate_spanning_trees(n, r, cap=cap))
                    assert str(exc.value) == f"search space C(C({n},{r}),{k}) exceeds cap {cap}"
                else:
                    trees = list(enumerate_spanning_trees(n, r, cap=cap))
                    assert len(trees) == count_spanning_trees_formula(n, r), (n, r)
        # C(20001, 10001) has more digits than an int may format, and C(200001, 100001)
        # takes most of a second to build: both are refused by their form, before N is built
        for n in (20001, 200001):
            with pytest.raises(ResourceCapError) as exc:
                next(enumerate_spanning_trees(n, n // 2 + 1))
            assert str(exc.value) == f"search space C(C({n},{n // 2 + 1}),2) exceeds cap 100000000"


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
        "m,b",
        [(0, 1), (0, 3), (1, 1), (7, 1), (2, 2), (6, 3), (12, 2), (999, 3), (3000, 2), (2400, 5)],
    )
    def test_matching_count_equals_running_product(self, m, b):
        # 0, 1, 2, 6, 7 and hundreds of factors: odd and even counts in the rounds
        running = 1
        for j in range(1, m // b + 1):
            running *= math.comb(j * b - 1, b - 1)
        assert count_matchings_formula(m, b) == running

    @pytest.mark.parametrize(
        "n,r,expected",
        [
            (7, 3, 3), (1, 2, 0), (4, 3, None),
            (5, 1, (ValidationError, "need n >= 1 and r >= 2")),
            (-1, 3, (ValidationError, "need n >= 1 and r >= 2")),
            (0, 0, (ValidationError, "need n >= 1 and r >= 2")),
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
            "need m >= 0 and b >= 1",
        )
        assert outcome(list, enumerate_matchings(-2, 2)) == (
            ValidationError,
            "need m >= 0 and b >= 1",
        )

    def test_cap_refusal(self):
        # 654,729,075 > DEFAULT_CAP at m = 20; from m = 3000 on the count has
        # more digits than an int may format, so the message names its form
        for m in (20, 3000, 4000):
            with pytest.raises(ResourceCapError) as exc:
                next(enumerate_matchings(m, 2))
            assert str(exc.value) == f"matching count of [{m}] in blocks of 2 exceeds cap 100000000"


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


@st.composite
def decoded_trees(draw):
    """A tree decoded from a uniform random block matching and code, r = 2..5, k = 0..300."""
    r = draw(st.integers(2, 5))
    k = draw(st.integers(0, 300))
    n = (r - 1) * k + 1
    perm = draw(st.permutations(range(1, n)))
    m = Matching(r - 1, tuple(tuple(perm[i:i + r - 1]) for i in range(0, n - 1, r - 1)))
    entries = draw(st.lists(st.integers(1, n), min_size=max(k - 1, 0), max_size=max(k - 1, 0)))
    return decode(PruferCode(n, tuple(entries)), m, r)


class TestTextFormats:
    @given(decoded_trees())
    @example(HyperTree(1, 3, ()))  # k = 0: the empty text
    @settings(max_examples=60, deadline=None)
    def test_format_parse_round_trip(self, t):
        text = format_tree(t)
        assert text == reference.format_tree(t)
        assert parse_tree(text, t.n, t.r) == t

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


@st.composite
def block_lists(draw):
    """(b, blocks): a random partition of [1, m] into blocks of size b, then spoiled a few
    times over: a block dropped, repeated or added, or one block grown or cut, or one
    member set to a label out of range, to another label (a repeat) or to an alias, 2.0
    or True, that compares equal to an int."""
    b = draw(st.integers(1, 4))
    k = draw(st.integers(0, 5))
    m = b * k
    order = draw(st.permutations(range(1, m + 1)))
    blocks = [list(order[i * b:(i + 1) * b]) for i in range(k)]
    label = st.one_of(st.integers(0, m + 1), st.sampled_from([2.0, True]))
    spoils = st.sampled_from(["drop", "repeat", "add", "set", "grow", "cut"])
    for spoil in draw(st.lists(spoils, max_size=3)):
        if spoil == "add" or not blocks:
            blocks.append(draw(st.lists(label, min_size=b, max_size=b)))
            continue
        j = draw(st.integers(0, len(blocks) - 1))
        if spoil == "drop":
            del blocks[j]
        elif spoil == "repeat":
            blocks.append(list(blocks[j]))
        elif spoil == "set" and blocks[j]:  # "cut" may have emptied it
            blocks[j][draw(st.integers(0, len(blocks[j]) - 1))] = draw(label)
        elif spoil == "grow":
            blocks[j].append(draw(label))
        elif blocks[j]:
            blocks[j].pop()
    return b, blocks


class TestMatchingType:
    @given(block_lists())
    @settings(max_examples=400, deadline=None)
    def test_random_block_lists(self, case):
        # refused with the message of the block-by-block checks; accepted, stored canonically
        b, blocks = case
        message = reference.matching_refusal(b, blocks)
        if message is not None:
            assert outcome(Matching, b, blocks) == (ValidationError, message)
            return
        m = Matching(b, blocks)
        assert m.blocks == tuple(sorted(tuple(sorted(g)) for g in blocks))
        assert m.index == {v: i for i, g in enumerate(m.blocks) for v in g}

    def test_blocks_ordered_by_minimum(self):
        m = Matching(2, ((5, 6), (1, 2), (3, 4)))
        assert m.blocks == ((1, 2), (3, 4), (5, 6))

    def test_must_cover_prefix(self):
        with pytest.raises(ValidationError):
            Matching(2, ((1, 2), (4, 5)))

    def test_one_shot_groups_read_once(self):
        m = Matching(2, (b for b in [(3, 4), (1, 2)]))
        assert m == Matching(2, ((1, 2), (3, 4)))
        assert HyperTree(3, 3, (e for e in [(3, 2, 1)])).edges == ((1, 2, 3),)


@pytest.mark.parametrize(
    "make,args,message",
    [
        (HyperTree, (0, 3, ()), "need n >= 1 and r >= 2"),
        (HyperTree, (3, 1, ()), "need n >= 1 and r >= 2"),
        (Matching, (2, ((1, 2), (3,))), "block (3,) has size 1, expected 2"),
        (Matching, (0, ()), "need block_size >= 1"),
        # size and repeats are checked ahead of the vertex range
        (HyperTree, (3, 3, ((1, 2, 3, 4),)), "hyperedge (1, 2, 3, 4) has size 4, expected 3"),
        (HyperTree, (5, 3, ((0, 0, 6),)), "hyperedge (0, 0, 6) repeats a vertex"),
        (HyperTree, (5, 3, ((0, 2, 3),)), "vertex 0 outside [1, 5]"),
        # vertex types are checked ahead of repeats: 2.0 and True are refused, not taken
        # for 2 and 1
        (HyperTree, (5, 3, ((1, 2, 2.0),)), "vertex 2.0 is not an integer"),
        (HyperTree, (5, 3, ((1, 2, True),)), "vertex True is not an integer"),
        # member types are checked ahead of the partition: 2.0 is refused, not taken for 2
        (Matching, (2, ((1, 1),)), "blocks do not partition [1, 2]"),
        (Matching, (2, ((1, 2), (2, 3))), "blocks do not partition [1, 4]"),
        (Matching, (2, ((1, 2), (4, 5))), "blocks do not partition [1, 4]"),
        (Matching, (2, ((1, 2), (2.0, 3))), "block member 2.0 is not an integer"),
    ],
    ids=["tree-n0", "tree-r1", "matching-short-block", "matching-b0", "tree-long-edge",
         "tree-repeat", "tree-vertex-0", "tree-alias-float", "tree-alias-bool",
         "matching-repeat-in-block",
         "matching-repeat-across-blocks", "matching-gap", "matching-alias"],
)
def test_construction_refusals(make, args, message):
    assert outcome(make, *args) == (ValidationError, message)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_empty_text_is_the_empty_matching(b):
    assert parse_matching("", b) == Matching(b, ())
