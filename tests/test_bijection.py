import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees.bijection import (
    consecutive_matching,
    parking_to_tree,
    tree_to_parking,
)
from hypertrees.core import (
    Matching,
    MatchingMismatchError,
    ValidationError,
    extract_matching,
    parse_tree,
)
from hypertrees.parking import count_parking, enumerate_parking
from hypertrees.prufer import PruferCode, count_trees_for_matching, decode

import reference
from conftest import naive_spanning_trees, outcome

ROUND_TRIP_SIZES = [(0, 1), (0, 2), (0, 3), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]


class TestTreeToParking:
    def test_worked_example(self):
        t = parse_tree("3,4,7;5,6,7;1,2,3", 7, 3)
        assert tree_to_parking(t) == (1, 0, 0)

    def test_both_blocks_on_root(self):
        assert tree_to_parking(parse_tree("1,2,5;3,4,5", 5, 3)) == (0, 0)

    def test_chained_blocks(self):
        assert tree_to_parking(parse_tree("1,2,3;3,4,5", 5, 3)) == (1, 0)

    def test_non_consecutive_matching_rejected(self):
        t = parse_tree("1,3,5;2,4,5", 5, 3)
        with pytest.raises(MatchingMismatchError):
            tree_to_parking(t)

    def test_rejects_non_tree(self):
        assert outcome(tree_to_parking, parse_tree("1,2,3;1,2,4", 5, 3)) == (
            ValidationError, "input is not a spanning tree"
        )

    @pytest.mark.parametrize("k,r", ROUND_TRIP_SIZES)
    def test_image_is_r_parking(self, k, r):
        from hypertrees.parking import is_r_parking

        for a in enumerate_parking(k, r):
            image = tree_to_parking(parking_to_tree(a, r))
            assert is_r_parking(image, r)


@pytest.mark.parametrize(
    "k,block_size,expected",
    [
        (-1, 2, (ValidationError, "need k >= 0 and block_size >= 1")),
        (-3, 0, (ValidationError, "need k >= 0 and block_size >= 1")),
        (2, 0, (ValidationError, "need k >= 0 and block_size >= 1")),
        (0, 2, Matching(2, ())),
    ],
)
def test_consecutive_matching_sizes(k, block_size, expected):
    assert outcome(consecutive_matching, k, block_size) == expected


class TestParkingToTree:
    def test_examples(self):
        assert parking_to_tree((0, 0), 2).edges == ((1, 2, 5), (3, 4, 5))
        assert parking_to_tree((1, 0), 2).edges == ((1, 2, 3), (3, 4, 5))
        assert parking_to_tree((1, 0, 0), 2).edges == ((1, 2, 3), (3, 4, 7), (5, 6, 7))

    def test_rejects_non_parking_input(self):
        with pytest.raises(ValidationError):
            parking_to_tree((0, 3), 2)

    def test_output_arises_from_consecutive_matching(self):
        for a in enumerate_parking(3, 2):
            t = parking_to_tree(a, 2)
            assert extract_matching(t) == consecutive_matching(3, 2)


@pytest.mark.parametrize("k,r", ROUND_TRIP_SIZES)
class TestRoundTrips:
    def test_parking_to_tree_to_parking(self, k, r):
        for a in enumerate_parking(k, r):
            assert tree_to_parking(parking_to_tree(a, r)) == a

    def test_image_counts(self, k, r):
        trees = {parking_to_tree(a, r) for a in enumerate_parking(k, r)}
        assert len(trees) == count_parking(k, r) == count_trees_for_matching(r * k + 1, r + 1)


@pytest.mark.parametrize("n,r", [(5, 3), (7, 3), (7, 4)])
def test_tree_to_parking_inverts_on_full_fiber(n, r):
    block = r - 1
    k = (n - 1) // block
    fiber = [
        t
        for t in naive_spanning_trees(n, r)
        if extract_matching(t) == consecutive_matching(k, block)
    ]
    assert len(fiber) == n ** (k - 1)
    for t in fiber:
        a = tree_to_parking(t)
        assert parking_to_tree(a, block) == t


@pytest.mark.parametrize("n,r", [(7, 3), (7, 4)])
def test_sorted_values_have_weakly_increasing_heights(n, r):
    # sorting indices by value (ties by block index) must list the blocks in
    # weakly increasing height (hyperedge distance from the root); this is
    # what bounds the i-th smallest value by (r-1)*(i-1).  Within one height
    # class the value order need not follow first BFS appearance: in
    # 1,2,4;3,4,7;3,5,6 the blocks {1,2} and {5,6} are both at height 2 but
    # get values 2 and 1.
    from collections import deque

    block_size = r - 1
    k = (n - 1) // block_size
    consec = consecutive_matching(k, block_size)
    for t in naive_spanning_trees(n, r):
        if extract_matching(t) != consec:
            continue
        dist = {t.n: 0}
        queue = deque([t.n])
        adj = {}
        for e in t.edges:
            for v in e:
                adj.setdefault(v, set()).update(e)
        while queue:
            u = queue.popleft()
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        a = tree_to_parking(t)
        by_value = sorted(range(k), key=lambda i: (a[i], i))
        heights = [min(dist[v] for v in consec.blocks[i]) for i in by_value]
        assert heights == sorted(heights)
        sorted_values = sorted(a)
        assert all(sorted_values[i] <= block_size * i for i in range(k))


def rotate_to_parking(xs, r):
    """The one rotation of a sequence over Z_(rk+1) that is r-parking.

    Cyclic lemma: a sequence is r-parking iff the walk whose step at v is
    r * #{entries equal to v} - 1 stays >= 0 for v < rk.  The walk ends at
    -1, so rotating value 0 to just after the first minimum of the walk
    gives the one rotation that does.
    """
    size = r * len(xs) + 1
    count = [0] * size
    for x in xs:
        count[x] += 1
    walk, low, start = 0, 0, 0
    for v in range(size):
        walk += r * count[v] - 1
        if walk < low:
            low, start = walk, v + 1
    return tuple((x - start) % size for x in xs)


@st.composite
def parking_functions(draw, max_k):
    """(a, r): a uniform random r-parking function, r in {1,2,3}, k <= max_k."""
    r = draw(st.sampled_from((1, 2, 3)))
    k = draw(st.integers(1, max_k))
    xs = draw(st.lists(st.integers(0, r * k), min_size=k, max_size=k))
    return rotate_to_parking(xs, r), r


class TestAgainstReference:
    """The one-search bijection gives exactly the outputs of the per-step searches."""

    @given(parking_functions(max_k=12))
    @settings(max_examples=300, deadline=None)
    def test_small_k_matches_reference(self, case):
        a, r = case
        t = parking_to_tree(a, r)
        assert t == reference.parking_to_tree(a, r)
        assert tree_to_parking(t) == reference.tree_to_parking(t) == a

    @given(st.sampled_from((1, 2, 3)), st.integers(1, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_matching_matches_reference(self, r, k, data):
        # trees from arbitrary block matchings: the consecutive check and
        # its error agree with the reference's
        n = r * k + 1
        perm = data.draw(st.permutations(range(1, n)))
        m = Matching(r, tuple(tuple(perm[i:i + r]) for i in range(0, n - 1, r)))
        entries = data.draw(st.lists(st.integers(1, n), min_size=k - 1, max_size=k - 1))
        t = decode(PruferCode(n, tuple(entries)), m, r + 1)
        assert outcome(tree_to_parking, t) == outcome(reference.tree_to_parking, t)

    @given(parking_functions(max_k=300))
    @settings(max_examples=40, deadline=None)
    def test_large_k_round_trip(self, case):
        a, r = case
        t = parking_to_tree(a, r)
        assert t == reference.parking_to_tree(a, r)
        assert extract_matching(t) == consecutive_matching(len(a), r)
        assert tree_to_parking(t) == a

    def test_ten_thousand_blocks(self):
        rng = random.Random(10_000)
        k, r = 10_000, 2
        a = rotate_to_parking([rng.randrange(r * k + 1) for _ in range(k)], r)
        assert tree_to_parking(parking_to_tree(a, r)) == a


@pytest.mark.parametrize("k,r", ROUND_TRIP_SIZES)
def test_rotation_gives_every_parking_function_once(k, r):
    size = r * k + 1
    counts = {}
    for xs in product(range(size), repeat=k):
        a = rotate_to_parking(xs, r)
        counts[a] = counts.get(a, 0) + 1
    assert set(counts) == set(enumerate_parking(k, r))
    assert set(counts.values()) == {size}
