import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees.cli import main
from hypertrees.core import (
    HyperTree,
    InternalError,
    Matching,
    MatchingMismatchError,
    ValidationError,
    count_matchings_formula,
    enumerate_matchings,
    extract_matching,
    parse_matching,
    parse_tree,
)
from hypertrees.prufer import (
    PruferCode,
    count_trees_for_matching,
    decode,
    encode,
    format_code,
    parse_code,
)

import reference
from conftest import naive_spanning_trees, outcome


class TestEncode:
    def test_two_edge_trees(self):
        m = parse_matching("1,2|3,4", 2)
        t = parse_tree("1,2,5;3,4,5", 5, 3)
        assert encode(t, m).entries == (5,)
        t = parse_tree("1,2,3;3,4,5", 5, 3)
        assert encode(t, m).entries == (3,)

    def test_nine_vertex_example(self):
        m = parse_matching("1,2|3,4|5,6|7,8", 2)
        t = parse_tree("1,2,3;3,5,6;4,7,8;3,4,9", 9, 3)
        assert encode(t, m).entries == (3, 3, 4)

    def test_mismatched_matching_rejected(self):
        t = parse_tree("1,2,5;3,4,5", 5, 3)
        with pytest.raises(MatchingMismatchError):
            encode(t, parse_matching("1,3|2,4", 2))


class TestDecode:
    def test_two_edge_codes(self):
        m = parse_matching("1,2|3,4", 2)
        assert decode(PruferCode(5, (3,)), m, 3).edges == ((1, 2, 3), (3, 4, 5))
        assert decode(PruferCode(5, (5,)), m, 3).edges == ((1, 2, 5), (3, 4, 5))

    def test_nine_vertex_example(self):
        m = parse_matching("1,2|3,4|5,6|7,8", 2)
        t = decode(PruferCode(9, (3, 3, 4)), m, 3)
        assert t.edges == ((1, 2, 3), (3, 4, 9), (3, 5, 6), (4, 7, 8))

    def test_one_shot_entries_read_once(self):
        # the entries are checked after they are stored, not read a second
        # time from an exhausted iterator
        code = PruferCode(9, iter((3, 3, 4)))
        assert code == PruferCode(9, (3, 3, 4))
        m = parse_matching("1,2|3,4|5,6|7,8", 2)
        assert decode(code, m, 3) == decode(PruferCode(9, (3, 3, 4)), m, 3)

    def test_wrong_code_length_rejected(self):
        m = parse_matching("1,2|3,4", 2)
        with pytest.raises(ValidationError):
            decode(PruferCode(5, (3, 3)), m, 3)

    def test_wrong_block_size_rejected(self):
        m = parse_matching("1,2,3|4,5,6", 3)
        with pytest.raises(ValidationError):
            decode(PruferCode(7, (1,)), m, 3)

    def test_wrong_vertex_range_rejected(self):
        m = parse_matching("1,2|3,4|5,6|7,8", 2)
        assert outcome(decode, PruferCode(8, (3, 3, 4)), m, 3) == (
            ValidationError, "code is over [8], matching needs [9]"
        )

    def test_broken_postcondition_is_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr("hypertrees.prufer.is_spanning_tree", lambda t: False)
        with pytest.raises(InternalError, match="do not form a spanning tree"):
            decode(PruferCode(5, (3,)), parse_matching("1,2|3,4", 2), 3)
        argv = ["prufer", "decode", "--n", "5", "--r", "3", "--matching", "1,2|3,4", "--code", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: ")


@pytest.mark.parametrize("n,r", [(5, 3), (7, 3), (7, 4)])
class TestRoundTrips:
    def test_decode_then_encode(self, n, r):
        k = (n - 1) // (r - 1)
        for m in enumerate_matchings(n - 1, r - 1):
            for entries in product(range(1, n + 1), repeat=k - 1):
                code = PruferCode(n, entries)
                t = decode(code, m, r)
                assert extract_matching(t) == m
                assert encode(t, m) == code

    def test_encode_then_decode(self, n, r):
        for t in naive_spanning_trees(n, r):
            m = extract_matching(t)
            assert decode(encode(t, m), m, r) == t

    def test_fibers_partition_the_tree_set(self, n, r):
        k = (n - 1) // (r - 1)
        seen = set()
        for m in enumerate_matchings(n - 1, r - 1):
            fiber = {
                decode(PruferCode(n, entries), m, r)
                for entries in product(range(1, n + 1), repeat=k - 1)
            }
            assert len(fiber) == n ** (k - 1)  # injective in the code
            assert not (seen & fiber)  # disjoint across matchings
            seen |= fiber
        assert seen == set(naive_spanning_trees(n, r))


def textbook_prufer(edges, n):
    """Prüfer's code of an ordinary labelled tree: n - 2 times, delete the
    smallest leaf and record its neighbour."""
    neighbours = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    code = []
    for _ in range(n - 2):
        leaf = min(v for v, adjacent in neighbours.items() if len(adjacent) == 1)
        (u,) = neighbours.pop(leaf)
        neighbours[u].remove(leaf)
        code.append(u)
    return tuple(code)


def test_uniformity_2_is_the_textbook_code():
    # at r = 2 every tree arises from the matching into singletons; the
    # smallest leaf is never n, since three or more vertices leave two leaves
    n = 6
    singletons = Matching(1, tuple((v,) for v in range(1, n)))
    trees = naive_spanning_trees(n, 2)
    assert len(trees) == n ** (n - 2)
    for t in trees:
        assert encode(t, singletons).entries == textbook_prufer(t.edges, n), t


@pytest.mark.parametrize("r", [2, 3, 4])
class TestOneVertexTree:
    def test_empty_code_round_trip(self, r):
        t, empty = HyperTree(1, r, ()), Matching(r - 1, ())
        assert encode(t, empty) == PruferCode(1, ())
        assert decode(PruferCode(1, ()), empty, r) == t

    def test_other_block_size_rejected(self, r):
        assert outcome(encode, HyperTree(1, r, ()), Matching(r, ())) == (
            MatchingMismatchError, "tree does not arise from this matching"
        )

    def test_nonempty_code_rejected(self, r):
        # the expected length is 0, not k-1 = -1
        assert outcome(decode, PruferCode(1, (1,)), Matching(r - 1, ()), r) == (
            ValidationError, "code length 1 != 0 for the empty matching"
        )


class TestCountTreesForMatching:
    @pytest.mark.parametrize("n,r,expected", [(5, 3, 5), (7, 3, 49), (7, 4, 7), (1, 3, 1)])
    def test_values(self, n, r, expected):
        assert count_trees_for_matching(n, r) == expected

    def test_total_is_fiber_size_times_matchings(self):
        assert (
            count_trees_for_matching(7, 3) * count_matchings_formula(6, 2) == 735
        )

    @pytest.mark.parametrize(
        "n,r,message",
        [
            pytest.param(9, 4, "no spanning trees on 9 vertices for r = 4", id="9-4"),
            pytest.param(1, 0, "need n >= 1 and r >= 2", id="1-0"),
            pytest.param(1, 1, "need n >= 1 and r >= 2", id="1-1"),
            pytest.param(0, 3, "need n >= 1 and r >= 2", id="0-3"),
            pytest.param(5, 1, "need n >= 1 and r >= 2", id="5-1"),
        ],
    )
    def test_infeasible_rejected(self, n, r, message):
        assert outcome(count_trees_for_matching, n, r) == (ValidationError, message)


class TestCodeText:
    def test_round_trip(self):
        code = parse_code("3,3,4", 9)
        assert code == PruferCode(9, (3, 3, 4))
        assert format_code(code) == "3,3,4"

    def test_empty_code(self):
        assert parse_code("", 3).entries == ()

    def test_out_of_range_entry(self):
        with pytest.raises(ValidationError):
            parse_code("10", 9)

    def test_empty_vertex_set_rejected(self):
        assert outcome(PruferCode, 0, ()) == (ValidationError, "need n >= 1")


def _matching(perm, block_size):
    blocks = (perm[i:i + block_size] for i in range(0, len(perm), block_size))
    return Matching(block_size, tuple(map(tuple, blocks)))


@st.composite
def coded_fibers(draw, max_k):
    """(code, matching, r): a uniform random block matching and code, r in {3,4,5}."""
    r = draw(st.sampled_from((3, 4, 5)))
    k = draw(st.integers(1, max_k))
    n = (r - 1) * k + 1
    m = _matching(draw(st.permutations(range(1, n))), r - 1)
    entries = draw(st.lists(st.integers(1, n), min_size=k - 1, max_size=k - 1))
    return PruferCode(n, tuple(entries)), m, r


class TestAgainstReference:
    """The heap-based codes give exactly the outputs of the per-step scans."""

    @given(coded_fibers(max_k=12), st.data())
    @settings(max_examples=300, deadline=None)
    def test_small_k_matches_reference(self, case, data):
        code, m, r = case
        t = decode(code, m, r)
        assert t == reference.decode(code, m, r)
        assert extract_matching(t) == reference.extract_matching(t) == m
        assert encode(t, m) == reference.encode(t, m) == code
        other = _matching(data.draw(st.permutations(range(1, code.n))), r - 1)
        assert outcome(encode, t, other) == outcome(reference.encode, t, other)

    @given(coded_fibers(max_k=300))
    @settings(max_examples=40, deadline=None)
    def test_large_k_round_trip(self, case):
        code, m, r = case
        t = decode(code, m, r)
        assert extract_matching(t) == m
        assert encode(t, m) == code

    def test_ten_thousand_blocks(self):
        rng = random.Random(10_000)
        k, r = 10_000, 3
        n = (r - 1) * k + 1
        perm = list(range(1, n))
        rng.shuffle(perm)
        m = _matching(perm, r - 1)
        code = PruferCode(n, tuple(rng.randint(1, n) for _ in range(k - 1)))
        t = decode(code, m, r)
        assert encode(t, m) == code
