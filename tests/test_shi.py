import copy
import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees import shi, verify
from hypertrees.cli import main
from hypertrees.core import ResourceCapError, ValidationError
from hypertrees.parking import count_parking
from hypertrees.prufer import count_trees_for_matching
from hypertrees.shi import (
    Hyperplane,
    Region,
    build_arrangement,
    iter_regions,
    regions,
    witness_satisfies,
)

from conftest import outcome
from reference import shi_witness


class TestBuildArrangement:
    def test_two_coordinates_r1(self):
        assert build_arrangement(2, 1) == (Hyperplane(1, 2, 0), Hyperplane(1, 2, 1))

    def test_sizes(self):
        assert len(build_arrangement(3, 2)) == 12
        assert len(build_arrangement(4, 3)) == 36
        assert build_arrangement(1, 5) == ()

    def test_deterministic_order(self):
        hps = build_arrangement(3, 1)
        assert hps == tuple(sorted(hps, key=lambda h: (h.i, h.j, h.c)))

    @pytest.mark.parametrize(
        "fields,message",
        [
            ((-1, 2, 0), "need 1 <= i < j, got i = -1, j = 2"),
            ((0, 2, 0), "need 1 <= i < j, got i = 0, j = 2"),
            ((2, 2, 0), "need 1 <= i < j, got i = 2, j = 2"),
            ((1, 2, 0.25), "hyperplane field 0.25 is not an integer"),
            ((1, 2, True), "hyperplane field True is not an integer"),
            ((1.0, 2, 0), "hyperplane field 1.0 is not an integer"),
            ((1, 2, "0"), "hyperplane field '0' is not an integer"),
        ],
    )
    def test_malformed_hyperplane_refused(self, fields, message):
        # without the check, i = -1 read x_m and answered, i = 0 failed both
        # signs, 0.25 and True were compared as they are, and 1.0 and "0" raised TypeError
        assert outcome(Hyperplane, *fields) == (ValidationError, message)


class TestCountRegions:
    @pytest.mark.parametrize(
        "m,r,expected",
        [(2, 1, 3), (3, 1, 16), (2, 2, 5), (3, 2, 49), (2, 3, 7), (1, 4, 1), (0, 2, 1)],
    )
    def test_values(self, m, r, expected):
        assert len(regions(m, r)) == expected

    @pytest.mark.parametrize("cap", [-5])
    def test_cap_below_one_refuses_at_first_interval(self, cap):
        with pytest.raises(ResourceCapError) as exc:
            regions(3, 2, cap=cap)
        assert str(exc.value) == f"region count 7^2 exceeds cap {cap}"

    def test_cap_counts_every_interval_of_a_branch(self):
        # (4,2) has 9^3 = 729 regions: a cap of 729 answers, one below refuses
        assert len(regions(4, 2, cap=729)) == 729
        with pytest.raises(ResourceCapError) as exc:
            regions(4, 2, cap=728)
        assert str(exc.value) == "region count 9^3 exceeds cap 728"

    @pytest.mark.parametrize(
        "m,r,total",
        [(2, 1, 3), (3, 1, 16), (2, 2, 5), (3, 2, 49), (2, 3, 7), (0, 2, 1), (1, 2, 1)],
    )
    def test_cap_decision_over_every_cap(self, m, r, total):
        # total is the region count (rm+1)^(m-1), one region for m <= 1; the
        # search, as a list or drained as a stream, answers exactly when the
        # cap covers it
        answer = regions(m, r)
        assert len(answer) == total
        for search in (regions, lambda *args: list(iter_regions(*args))):
            for cap in range(-1, total + 2):
                if cap >= total:
                    assert search(m, r, cap) == answer
                else:
                    with pytest.raises(ResourceCapError) as exc:
                        search(m, r, cap)
                    assert str(exc.value) == (
                        f"region count {r * m + 1}^{max(m - 1, 0)} exceeds cap {cap}"
                    )

    @pytest.mark.parametrize(
        "m,r,answers", [(6, 1, True), (5, 2, True), (5, 3, False), (6, 2, False)]
    )
    def test_default_cap(self, m, r, answers):
        # 7^5 and 11^4 regions fit the default cap of 50,000; 16^4 and 13^5 do not
        if answers:
            assert sum(1 for _ in iter_regions(m, r)) == (r * m + 1) ** (m - 1)
        else:
            with pytest.raises(ResourceCapError):
                iter_regions(m, r)

    def test_repeated_calls_agree(self):
        # child DBMs share rows with their parents and regions share witness
        # Fractions: nothing either call builds may carry over to the next
        assert regions(4, 2) == regions(4, 2)

    def test_sign_vectors_distinct(self):
        regs = regions(3, 1)
        assert len({reg.signs for reg in regs}) == len(regs)

    @pytest.mark.parametrize("m,r", [(2, 1), (2, 3), (3, 1), (3, 2)])
    def test_witnesses_strictly_feasible(self, m, r):
        hps = build_arrangement(m, r)
        for reg in regions(m, r):
            assert witness_satisfies(reg, hps)

    @pytest.mark.parametrize("m,r", [(2, 2), (3, 1), (3, 2)])
    def test_signs_match_grid_oracle(self, m, r):
        # each region contains an alcove of the arrangement x_i - x_j in Z,
        # and every alcove's barycentre lies on the grid (1/m)Z^m; sampling
        # that grid with x_m = 0 over a box wide enough for r gives the
        # region set independently of the search
        span = (r + 1) * (m - 1) * m
        grid = [Fraction(t, m) for t in range(-span, span + 1)]
        hps = build_arrangement(m, r)
        sampled = set()
        for head in product(grid, repeat=m - 1):
            x = head + (Fraction(0),)
            values = [x[h.i - 1] - x[h.j - 1] - h.c for h in hps]
            if all(values):
                sampled.add(tuple(1 if v > 0 else -1 for v in values))
        assert sampled == {reg.signs for reg in regions(m, r)}

    def test_large_arrangement(self):
        # (4,3): (rm+1)^(m-1) = 13^3 regions, each with a strict witness
        hps = build_arrangement(4, 3)
        regs = regions(4, 3)
        assert len({reg.signs for reg in regs}) == len(regs) == 2197
        assert all(witness_satisfies(reg, hps) for reg in regs)
        assert all(reg.witness[-1] == 0 for reg in regs)

    def test_order_independence(self):
        # the region count is a property of the arrangement, not of the
        # processing order; emulate a shuffle by sign-flipping consistency
        hps = build_arrangement(3, 1)
        regs = {reg.signs for reg in regions(3, 1)}
        rng = random.Random(7)
        perm = list(range(len(hps)))
        rng.shuffle(perm)
        # reorder each sign vector; distinctness and count must be preserved
        shuffled = {tuple(s[i] for i in perm) for s in regs}
        assert len(shuffled) == len(regs) == 16


class TestIterRegions:
    @pytest.mark.parametrize(
        "m,r", [(0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 1), (3, 3), (4, 3), (5, 2), (6, 1)]
    )
    def test_stream_equals_the_list(self, m, r):
        assert list(iter_regions(m, r)) == regions(m, r)

    @pytest.mark.parametrize("m,r", [(8, 2), (46, 1)])
    def test_first_region_comes_before_the_search_ends(self, m, r):
        # (8,2) has 17^7 regions; the first is the top interval of every
        # pair, reached in one branch per pair.  The 1,035 pairs of (46,1)
        # nest deeper than Python's recursion limit
        first = next(iter_regions(m, r, cap=(r * m + 1) ** (m - 1)))
        assert first.intervals == (r,) * (m * (m - 1) // 2)
        assert witness_satisfies(first, build_arrangement(m, r))

    def test_refused_stream_refuses_at_the_call(self):
        # the cap is checked against the region count before the search,
        # so a refused stream never yields
        with pytest.raises(ResourceCapError) as exc:
            iter_regions(4, 2, cap=728)
        assert str(exc.value) == "region count 9^3 exceeds cap 728"

    @pytest.mark.parametrize("m", [200, 10**6])
    def test_huge_count_refuses_at_the_call(self, m):
        with pytest.raises(ResourceCapError) as exc:
            iter_regions(m, 1)
        assert str(exc.value) == f"region count {m + 1}^{m - 1} exceeds cap 50000"


FIELD_SIZES = [(2, 1), (3, 2), (4, 2), (5, 1), (3, 3), (4, 3), (3, 4)]


def bounded_by_intervals(intervals, m, r):
    """Boundedness read off the intervals alone: x_i - x_j has an upper bound
    unless c = r and a lower one unless c = -r, and every difference is
    bounded exactly when those bounds connect every coordinate to every
    other, that is, when the graph i -> j of upper bounds is strongly
    connected."""
    above = {a: set() for a in range(m)}
    for (i, j), c in zip(combinations(range(m), 2), intervals):
        if c < r:
            above[i].add(j)
        if c > -r:
            above[j].add(i)
    for start in range(m):
        seen, todo = {start}, [start]
        while todo:
            new = above[todo.pop()] - seen
            seen |= new
            todo.extend(new)
        if len(seen) < m:
            return False
    return True


class TestRegionFields:
    @pytest.mark.parametrize("m,r", FIELD_SIZES)
    def test_intervals_expand_to_the_signs(self, m, r):
        regs = regions(m, r)
        for reg in regs:
            assert len(reg.intervals) == comb(m, 2)
            assert all(-r <= c <= r for c in reg.intervals)
            # interval (c, c+1) is above each hyperplane constant h <= c
            expanded = tuple(
                1 if h <= c else -1 for c in reg.intervals for h in range(-r + 1, r + 1)
            )
            assert expanded == reg.signs
        assert len({reg.intervals for reg in regs}) == len(regs)

    @pytest.mark.parametrize("m,r", FIELD_SIZES)
    def test_bounded_regions(self, m, r):
        # |chi(1)| = (rm - 1)^(m-1) (Athanasiadis 1996), and each flag agrees
        # with the strong connectivity of the interval bounds
        regs = regions(m, r)
        assert sum(reg.bounded for reg in regs) == (r * m - 1) ** (m - 1)
        assert all(reg.bounded == bounded_by_intervals(reg.intervals, m, r) for reg in regs)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("r", [1, 3])
    def test_single_region_is_bounded(self, m, r):
        assert regions(m, r) == [Region(r, (), (Fraction(0),) * m, True)]

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_derived_signs_hold_at_a_point_of_each_interval(self, r):
        # the hyperplane check is independent of the derivation: a point of
        # interval (c, c+1), or one step past the finite end of an open-ended
        # one, lies on the side of every x_1 - x_2 = h that the signs name
        hps = build_arrangement(2, r)
        for c in range(-r, r + 1):
            x = c + 1 if c == r else c - 1 if c == -r else c + Fraction(1, 2)
            reg = Region(r, (c,), (x, 0), -r < c < r)
            assert len(reg.signs) == 2 * r
            assert witness_satisfies(reg, hps)


class TestWitnessSatisfies:
    def test_detects_violation(self):
        hps = build_arrangement(2, 1)
        bogus = Region(1, (1,), (Fraction(0), Fraction(0)), False)
        assert not witness_satisfies(bogus, hps)

    def test_length_mismatch_rejected(self):
        # r = 2 gives four signs to the pair, r = 1 two hyperplanes
        region = Region(2, (0,), (Fraction(0), Fraction(0)), True)
        assert outcome(witness_satisfies, region, build_arrangement(2, 1)) == (
            ValidationError, "sign vector length does not match arrangement"
        )

    @pytest.mark.parametrize("size", [1, 2])
    def test_short_witness_rejected(self, size):
        # x_1 = x_2 = 0 lies on the first hyperplane, so size 2 fails before x_3 is read
        region = Region(1, (1, 1, 1), (Fraction(0),) * size, False)
        assert outcome(witness_satisfies, region, build_arrangement(3, 1)) == (
            ValidationError, "witness has fewer coordinates than the arrangement"
        )

    def test_long_witness_rejected(self):
        region = regions(3, 1)[0]
        longer = replace(region, witness=region.witness + (Fraction(0),))
        assert outcome(witness_satisfies, longer, build_arrangement(3, 1)) == (
            ValidationError, "witness has more coordinates than the arrangement"
        )

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("size", [0, 1, 2, 5])
    def test_witness_length_without_hyperplanes(self, m, size):
        # no hyperplane names a coordinate, so the arrangement has at most one
        region = Region(1, (), (Fraction(0),) * size, True)
        expected = True if size <= 1 else (
            ValidationError, "witness has more coordinates than the arrangement"
        )
        assert outcome(witness_satisfies, region, build_arrangement(m, 1)) == expected

    @pytest.mark.parametrize("entry", [1.5, "1/2", None])
    def test_non_rational_entry_rejected(self, entry):
        # 1.5 lies in the region x_1 - x_2 > 1, but a float is not exact
        region = Region(1, (1,), (entry, Fraction(0)), False)
        assert outcome(witness_satisfies, region, build_arrangement(2, 1)) == (
            ValidationError, "witness entries must be rational"
        )

    @pytest.mark.parametrize("m,r", [(4, 2), (5, 1), (3, 3)])
    def test_every_single_sign_flip_fails(self, m, r):
        # shifting one pair's interval by +-1 within [-r, r] flips exactly the
        # sign of the hyperplane between the two intervals; the witness is
        # strictly inside its region, so it lies on that hyperplane's wrong side
        hps = build_arrangement(m, r)
        shifts = 0
        for reg in regions(m, r):
            cs = reg.intervals
            for p, shift in product(range(len(cs)), (-1, 1)):
                if -r <= cs[p] + shift <= r:
                    moved = replace(reg, intervals=cs[:p] + (cs[p] + shift,) + cs[p + 1:])
                    assert sum(a != b for a, b in zip(moved.signs, reg.signs)) == 1
                    assert witness_satisfies(moved, hps) is False
                    shifts += 1
        assert shifts > 0

    def test_int_witness(self):
        # x_1 - x_2 = 2 lies above both hyperplanes x_1 - x_2 = 0 and = 1; 1 lies on one
        hps = build_arrangement(2, 1)
        assert witness_satisfies(Region(1, (1,), (2, 0), False), hps)
        assert not witness_satisfies(Region(1, (1,), (1, 0), False), hps)

    def test_rational_that_is_not_a_fraction(self):
        # a Fraction subclass takes the generic Rational path
        class SubFraction(Fraction):
            pass

        hps = build_arrangement(2, 1)
        assert witness_satisfies(Region(1, (0,), (SubFraction(1, 2), 0), True), hps)
        assert not witness_satisfies(Region(1, (1,), (SubFraction(1, 2), 0), False), hps)

    def test_int_and_mixed_denominators(self):
        hps = build_arrangement(3, 1)
        # differences 4/3, 5/2 and 7/6 over the common denominator 6
        inside = Region(1, (1, 1, 1), (3, Fraction(5, 3), Fraction(1, 2)), False)
        assert witness_satisfies(inside, hps)
        assert not witness_satisfies(replace(inside, intervals=(1, 1, 0)), hps)


def interval(c, r):
    """Interval c of a pair, (c, c+1), open-ended at c = r and c = -r."""
    return c if c > -r else -inf, c + 1 if c < r else inf


def fitting_intervals(d, i, j, r):
    """The intervals (lo, hi), top down, that meet the bounds d puts on x_i - x_j."""
    fits = (interval(c, r) for c in range(r, -r - 1, -1))
    return [(lo, hi) for lo, hi in fits if max(lo, -d[j][i]) < min(hi, d[i][j])]


@st.composite
def closed_regions(draw):
    """(m, r, closed DBM of one region): one interval per pair, each drawn
    among those consistent with the bounds closed so far."""
    m, r = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    d = [[0 if a == b else inf for b in range(m)] for a in range(m)]
    for i, j in combinations(range(m), 2):
        fits = fitting_intervals(d, i, j, r)
        lo, hi = fits[draw(st.integers(0, len(fits) - 1))]
        d = shi._tighten(d, i, j, hi, -lo)
    return m, r, d


@settings(max_examples=300, deadline=None)
@given(closed_regions())
def test_witness_matches_fraction_reference(case):
    # an odd lo + hi anywhere would make the integer midpoint floor away
    # from the Fraction one, so this also checks the 2^(m-1) denominator bound
    m, _, d = case
    got = shi._witness(d, {})
    assert got == shi_witness(d)
    assert len(got) == m and all(type(x) is Fraction for x in got)


@settings(max_examples=300, deadline=None)
@given(closed_regions())
def test_interval_range_matches_filter(case):
    # bounds tightened along a path can pass -r (or r), where only the
    # open-ended interval -r (or r) is left: the range clamps its ends to them
    m, r, d = case
    for i, j in combinations(range(m), 2):
        kept = [interval(c, r) for c in shi._intervals(d, i, j, r)]
        assert kept == fitting_intervals(d, i, j, r)


@settings(max_examples=200, deadline=None)
@given(closed_regions())
def test_tighten_leaves_its_input_unchanged(case):
    # replay the draw pair by pair (each pair's drawn interval is the one
    # that fits the final bounds) and tighten every sibling on the way
    m, r, final = case
    d = [[0 if a == b else inf for b in range(m)] for a in range(m)]
    for i, j in combinations(range(m), 2):
        before = copy.deepcopy(d)
        for lo, hi in fitting_intervals(d, i, j, r):
            shi._tighten(d, i, j, hi, -lo)
            assert d == before
        [(lo, hi)] = fitting_intervals(final, i, j, r)
        d = shi._tighten(d, i, j, hi, -lo)
    assert d == final


def floyd_warshall(d):
    """The shortest-path closure of d, from scratch."""
    d = [row[:] for row in d]
    for k, row_k in enumerate(d):
        for row in d:
            for y, k_to_y in enumerate(row_k):
                row[y] = min(row[y], row[k] + k_to_y)
    return d


@settings(max_examples=100, deadline=None)
@given(closed_regions())
def test_tighten_matches_closure_from_scratch(case):
    # along the replayed draw, add every pair's fitting intervals: earlier pairs'
    # bounds are already implied, later pairs' mostly shorten some rows
    m, r, final = case
    d = [[0 if a == b else inf for b in range(m)] for a in range(m)]
    for next_i, next_j in combinations(range(m), 2):
        for i, j in combinations(range(m), 2):
            for lo, hi in fitting_intervals(d, i, j, r):
                before = copy.deepcopy(d)
                got = shi._tighten(d, i, j, hi, -lo)
                bounded = copy.deepcopy(d)
                bounded[i][j], bounded[j][i] = min(d[i][j], hi), min(d[j][i], -lo)
                assert got == floyd_warshall(bounded)
                # a row is rebuilt exactly when the bounds shorten it
                assert all((new is old) == (new == old) for new, old in zip(got, d))
                assert (got is d) == (hi >= d[i][j] and -lo >= d[j][i])
                assert d == before
        [(lo, hi)] = fitting_intervals(final, next_i, next_j, r)
        d = shi._tighten(d, next_i, next_j, hi, -lo)
    assert d == final


@pytest.mark.parametrize(
    "f,m,r",
    [(build_arrangement, -1, 1), (regions, 2, 0), (regions, -1, 2), (iter_regions, -1, 2)],
)
def test_parking_domain_refusal(f, m, r):
    # the Shi side of the triangle has the domain of the parking side;
    # the stream refuses at the call, before any region is asked for
    assert outcome(f, m, r) == (ValidationError, "need k >= 0 and r >= 1")


class TestVerifyTriangle:
    @pytest.mark.parametrize(
        "k,r,value",
        [(2, 1, 3), (3, 1, 16), (2, 2, 5), (3, 2, 49), (2, 3, 7), (1, 3, 1), (0, 1, 1), (0, 3, 1)],
    )
    def test_three_way_equality(self, k, r, value):
        counts = len(regions(k, r)), count_parking(k, r), count_trees_for_matching(r * k + 1, r + 1)
        assert counts == (value,) * 3


# sha256 of `shi regions --witnesses` output: the sign vectors, their order
# and the witness points are all part of the CLI output and must not drift.
# The (4,2) and (5,1) digests, the benchmark's sizes, were taken from the
# Fraction witness placement before the integer one replaced it; the (4,3)
# and (5,2) digests before the search read its intervals off the bounds.
GOLDEN = {
    ("3", "2", False): "57298ed2a688d47b7f2e3acac6c0b9d937226fb73685246663fe887d4aada217",
    ("3", "2", True): "4f36d4deed2b81e27ed9e6dcbf438f475a0a6a527017b1272888c0d54c00edc6",
    ("3", "3", False): "5d211e62d45c32e823546f69d126f6e2d59d15188c3e8e44599eada9dfa6113d",
    ("3", "3", True): "882be5af918d73a5f05e7cb790c617c512e988d81c12e0f3fdd3903470396e76",
    ("4", "2", False): "7904656b6c1d37680773b3131802fb943cfae0f07ad79d2f0d7d36d555530a38",
    ("4", "2", True): "68d158f6a4847228d3f50fd47e4172d03a1847eebe9d05e342c275d2e5fc3ee7",
    ("5", "1", False): "1bbd684c0a2378baaaf146640b523b5c7c4c2e55e8a68240352c9bbbf0dee59b",
    ("5", "1", True): "87a91bdcfb6efbb2d84a42f86b26009279db680120021dc5a7a17fb26e3dac79",
    ("4", "3", False): "c3ffec987eb13527820987cb515b60ddaca7725d2fbb5011a52ab61dbec2e273",
    ("4", "3", True): "333900f5db2d7545de550d2c3f56f683a7d281a46fecb36bb7def1abde7d9f7b",
    ("5", "2", False): "cfb8f4656119c77f17611710491c6b1ef4105b4b18d6cc84dbde135eb8d4a96a",
}


@pytest.mark.parametrize("k,r,as_json", sorted(GOLDEN))
def test_witness_output_golden(capsys, k, r, as_json):
    argv = ["shi", "regions", "--k", k, "--r", r, "--witnesses"]
    assert main(argv + ["--json"] * as_json) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN[k, r, as_json]


class TestLabel:
    @pytest.mark.parametrize("r", [1, 2])
    def test_counts_separating_hyperplanes(self, r):
        # x_1 - x_2 in (c, c+1) lies c hyperplanes above the base region (0, 1)
        # when c > 0 and -c below it when c < 0; the label takes the count at
        # coordinate 1 or 2, which the mirrored labelling would swap
        labels = [shi.label(reg) for reg in regions(2, r)]
        assert labels == [(c, 0) for c in range(r, 0, -1)] + [(0, c) for c in range(r + 1)]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_no_pair_at_m_0_and_1(self, r):
        # R^0 and R^1 each have one region, bounded, with no interval to read
        assert [shi.label(reg) for reg in regions(0, r)] == [()]
        assert [shi.label(reg) for reg in regions(1, r)] == [(0,)]
        rows = list(verify.check_shi([(0, r), (1, r)]))
        assert rows == [
            (True, f"shi-triangle k={k} r={r} regions=1 parking=1 trees=1") for k in (0, 1)
        ]
