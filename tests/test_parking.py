from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees.core import ResourceCapError, ValidationError
from hypertrees.parking import (
    count_parking,
    enumerate_parking,
    format_sequence,
    is_r_parking,
    parse_sequence,
    simulate_parking,
)

from conftest import outcome


@lru_cache(maxsize=None)
def sorted_parking(k, r):
    return sorted(enumerate_parking(k, r))


class TestIsRParking:
    @pytest.mark.parametrize(
        "a,r,expected",
        [
            ((1, 0, 0), 2, True),
            ((0, 3), 2, False),
            ((0, 0, 0, 0), 5, True),
            ((2, 0), 2, True),
            ((0, 1, 2), 1, True),
            ((0, 2, 2), 1, False),
        ],
    )
    def test_examples(self, a, r, expected):
        assert is_r_parking(a, r) is expected

    def test_empty_sequence(self):
        assert is_r_parking((), 3)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            is_r_parking((0, -1), 2)

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=6),
        st.integers(1, 3),
        st.randoms(),
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, a, r, rng):
        shuffled = list(a)
        rng.shuffle(shuffled)
        assert is_r_parking(a, r) == is_r_parking(shuffled, r)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_decrease(self, data):
        r = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 5))
        a = list(data.draw(st.sampled_from(sorted_parking(k, r))))
        i = data.draw(st.integers(0, k - 1))
        if a[i] > 0:
            a[i] -= 1
        assert is_r_parking(a, r)


class TestSimulateParking:
    @pytest.mark.parametrize(
        "a,expected",
        [((0, 0, 0), True), ((1, 1, 1), False), ((2, 0, 1), True), ((0,), True)],
    )
    def test_examples(self, a, expected):
        assert simulate_parking(a) is expected

    @pytest.mark.parametrize("k", range(1, 7))
    def test_agrees_with_characterization(self, k):
        for a in product(range(k), repeat=k):
            assert simulate_parking(a) == is_r_parking(a, 1), a

    def test_preference_past_the_street(self):
        assert not simulate_parking((5, 0))


class TestEnumerateParking:
    def test_k2_r2(self):
        got = list(enumerate_parking(2, 2))
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]

    def test_length_one(self):
        assert list(enumerate_parking(1, 4)) == [(0,)]

    @pytest.mark.parametrize(
        "k,r", [(0, 1), (0, 2), (1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2)]
    )
    def test_count_matches_formula(self, k, r):
        assert sum(1 for _ in enumerate_parking(k, r)) == count_parking(k, r)

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_parking(8, 3, cap=100))

    @pytest.mark.parametrize("r", [1, 2])
    def test_length_zero_refuses_below_cap_one(self, r):
        assert list(enumerate_parking(0, r, cap=1)) == [()]
        with pytest.raises(ResourceCapError) as exc:
            next(enumerate_parking(0, r, cap=0))
        assert str(exc.value) == "search space 1^0 exceeds cap 0"

    @pytest.mark.parametrize("k,r", [(-1, 1), (2, 0)])
    def test_out_of_domain_rejected(self, k, r):
        with pytest.raises(ValidationError):
            list(enumerate_parking(k, r))


class TestCountParking:
    @pytest.mark.parametrize("k,r,expected", [(2, 2, 5), (3, 2, 49), (3, 1, 16), (0, 2, 1)])
    def test_values(self, k, r, expected):
        assert count_parking(k, r) == expected


@pytest.mark.parametrize(
    "f,args",
    [
        (is_r_parking, ((0,), 0)),
        (lambda k, r: list(enumerate_parking(k, r)), (-1, 1)),
        (count_parking, (-1, 1)),
        (count_parking, (2, 0)),
    ],
    ids=["check-r0", "enumerate-k-1", "count-k-1", "count-r0"],
)
def test_one_domain_refusal(f, args):
    assert outcome(f, *args) == (ValidationError, "need k >= 0 and r >= 1")


def test_sequence_text_round_trip():
    assert parse_sequence("1,0,0") == (1, 0, 0)
    assert format_sequence((1, 0, 0)) == "1,0,0"
    assert parse_sequence("") == ()
    with pytest.raises(ValidationError):
        parse_sequence("1,x")
