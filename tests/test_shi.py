import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from hypertrees.cli import main
from hypertrees.core import ResourceCapError, ValidationError
from hypertrees.parking import count_parking
from hypertrees.prufer import count_trees_for_matching
from hypertrees.shi import Hyperplane, Region, build_arrangement, regions, witness_satisfies

from conftest import outcome


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


class TestCountRegions:
    @pytest.mark.parametrize(
        "m,r,expected",
        [(2, 1, 3), (3, 1, 16), (2, 2, 5), (3, 2, 49), (2, 3, 7), (1, 4, 1), (0, 2, 1)],
    )
    def test_values(self, m, r, expected):
        assert len(regions(m, r)) == expected

    def test_cap_refusal(self):
        with pytest.raises(ResourceCapError):
            regions(3, 2, cap=10)

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


class TestWitnessSatisfies:
    def test_detects_violation(self):
        hps = build_arrangement(2, 1)
        bogus = Region((1, 1), (Fraction(0), Fraction(0)))
        assert not witness_satisfies(bogus, hps)

    def test_length_mismatch_rejected(self):
        region = Region((1,), (Fraction(0), Fraction(0)))
        assert outcome(witness_satisfies, region, build_arrangement(2, 1)) == (
            ValidationError, "sign vector length does not match arrangement"
        )

    @pytest.mark.parametrize("size", [1, 2])
    def test_short_witness_rejected(self, size):
        # x_1 = x_2 = 0 lies on the first hyperplane, so size 2 fails before x_3 is read
        region = Region((1,) * 6, (Fraction(0),) * size)
        assert outcome(witness_satisfies, region, build_arrangement(3, 1)) == (
            ValidationError, "witness has fewer coordinates than the arrangement"
        )


@pytest.mark.parametrize(
    "f,m,r", [(build_arrangement, -1, 1), (regions, 2, 0), (regions, -1, 2)]
)
def test_parking_domain_refusal(f, m, r):
    # the Shi side of the triangle has the domain of the parking side
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
# and the witness points are all part of the CLI output and must not drift
GOLDEN = {
    ("3", "2", False): "57298ed2a688d47b7f2e3acac6c0b9d937226fb73685246663fe887d4aada217",
    ("3", "2", True): "4f36d4deed2b81e27ed9e6dcbf438f475a0a6a527017b1272888c0d54c00edc6",
    ("3", "3", False): "5d211e62d45c32e823546f69d126f6e2d59d15188c3e8e44599eada9dfa6113d",
    ("3", "3", True): "882be5af918d73a5f05e7cb790c617c512e988d81c12e0f3fdd3903470396e76",
}


@pytest.mark.parametrize("k,r,as_json", sorted(GOLDEN))
def test_witness_output_golden(capsys, k, r, as_json):
    argv = ["shi", "regions", "--k", k, "--r", r, "--witnesses"]
    assert main(argv + ["--json"] * as_json) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN[k, r, as_json]
