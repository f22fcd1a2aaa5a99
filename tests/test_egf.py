from fractions import Fraction
from math import factorial

import pytest

from hypertrees.core import ValidationError, enumerate_spanning_trees
from hypertrees.egf import (
    RationalSeries,
    compose,
    constant,
    count_rooted_trees_recursive,
    egf_matchings,
    egf_rooted_trees,
    lagrange_coefficient,
    rooted_tree_count,
    verify_functional_equation,
)

from conftest import outcome


class TestRationalSeries:
    def test_exact_arithmetic(self):
        f = RationalSeries((Fraction(1), Fraction(1, 3), Fraction(1, 7)))
        g = RationalSeries((Fraction(0), Fraction(1, 2), Fraction(0)))
        prod = f * g
        assert prod.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 6))

    def test_power(self):
        f = RationalSeries((Fraction(1), Fraction(1), Fraction(0), Fraction(0)))
        assert (f**3).coeffs == (Fraction(1), Fraction(3), Fraction(3), Fraction(1))

    def test_shift(self):
        f = RationalSeries((Fraction(1), Fraction(2), Fraction(3)))
        assert f.shift().coeffs == (Fraction(0), Fraction(1), Fraction(2))

    @pytest.mark.parametrize(
        "f,args,message",
        [
            (RationalSeries, ((),), "series needs at least the constant term"),
            (pow, (RationalSeries((1,)), -1), "negative series power"),
        ],
        ids=["no-coefficients", "negative-power"],
    )
    def test_refusals(self, f, args, message):
        assert outcome(f, *args) == (ValidationError, message)


class TestCompose:
    def test_identity_substitution(self):
        f = RationalSeries((Fraction(1), Fraction(1), Fraction(0)))
        x = RationalSeries((Fraction(0), Fraction(1), Fraction(0)))
        assert compose(f, x).coeffs == f.coeffs

    def test_exp_like_in_x_squared(self):
        n = 6
        exp_like = RationalSeries(tuple(Fraction(1, factorial(j)) for j in range(n + 1)))
        x2 = constant(0, n) + RationalSeries(
            tuple(Fraction(1) if i == 2 else Fraction(0) for i in range(n + 1))
        )
        got = compose(exp_like, x2)
        for i in range(n + 1):
            expected = Fraction(1, factorial(i // 2)) if i % 2 == 0 else Fraction(0)
            assert got.coeffs[i] == expected

    def test_nonzero_constant_term_rejected(self):
        f = constant(1, 3)
        with pytest.raises(ValidationError):
            compose(f, constant(1, 3))

    def test_compose_commutes_with_truncation(self):
        f = RationalSeries(tuple(Fraction(i + 1, 3) for i in range(8)))
        g = RationalSeries((Fraction(0),) + tuple(Fraction(1, i + 2) for i in range(7)))
        full = compose(f, g)
        small = compose(
            RationalSeries(f.coeffs[:5]), RationalSeries(g.coeffs[:5])
        )
        assert full.coeffs[:5] == small.coeffs


class TestMatchingSeries:
    def test_pair_blocks(self):
        e = egf_matchings(2, 6)
        assert e.coeffs[0] == 1
        assert e.coeffs[1] == 0
        assert e.coeffs[2] == Fraction(1, 2)
        assert e.coeffs[4] == Fraction(3, 24)
        assert e.coeffs[6] == Fraction(15, 720)

    def test_triple_blocks(self):
        e = egf_matchings(3, 3)
        assert e.coeffs[3] == Fraction(1, 6)


class TestRootedTreeSeries:
    def test_small_counts(self):
        assert rooted_tree_count(1, 3) == 1
        assert rooted_tree_count(3, 3) == 3
        assert rooted_tree_count(4, 3) == 0
        assert rooted_tree_count(5, 3) == 75

    def test_closed_form_odd_counts(self):
        # t_{2k+1} = 1*3*...*(2k-1) * (2k+1)^k
        for k in range(1, 5):
            n = 2 * k + 1
            expected = 1
            for odd in range(1, 2 * k, 2):
                expected *= odd
            expected *= n**k
            assert rooted_tree_count(n, 3) == expected

    @pytest.mark.parametrize("series,first", [(egf_rooted_trees, 3), (egf_matchings, 2)])
    @pytest.mark.parametrize("order", [-1, -5])
    def test_negative_order_rejected(self, series, first, order):
        assert outcome(series, first, order) == (
            ValidationError, f"series order must be non-negative, got {order}"
        )

    def test_rooted_equals_n_times_unrooted_brute_force(self):
        for r in (3, 4):
            for n in range(1, 10):
                brute = sum(1 for _ in enumerate_spanning_trees(n, r))
                assert rooted_tree_count(n, r) == n * brute


class TestFunctionalEquation:
    def test_r2(self):
        # T = x * e^T: t_n = n^(n-1) rooted labelled trees
        assert verify_functional_equation(2, 15).ok

    def test_r3(self):
        assert verify_functional_equation(3, 9).ok

    def test_r4(self):
        assert verify_functional_equation(4, 10).ok

    def test_tiny_order(self):
        assert verify_functional_equation(3, 2).ok

    def test_brute_force_counts(self):
        counts = [rooted_tree_count(0, 3)] + [
            (n * sum(1 for _ in enumerate_spanning_trees(n, 3))) for n in range(1, 10)
        ]
        assert verify_functional_equation(3, 9, tree_counts=counts).ok

    def test_reports_first_mismatch(self):
        counts = [0, 1, 0, 3, 0, 76, 0, 5145, 0, 688905]
        report = verify_functional_equation(3, 9, tree_counts=counts)
        assert not report.ok
        assert report.first_mismatch == 5
        assert report.lhs == Fraction(76, factorial(5))
        assert report.rhs == Fraction(75, factorial(5))

    def test_too_few_tree_counts_rejected(self):
        assert outcome(verify_functional_equation, 3, 9, [0] * 5) == (
            ValidationError, "not enough tree counts for the requested order"
        )


class TestLagrange:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (1, Fraction(3, 2)),
            (2, Fraction(25, 8)),
            (3, Fraction(343, 48)),
            (4, Fraction(2187, 128)),
        ],
    )
    def test_values(self, k, expected):
        assert lagrange_coefficient(3, k) == expected

    def test_closed_form(self):
        for r in range(2, 6):
            b = r - 1
            for q in range(1, 5):
                n = b * q + 1
                expected = Fraction(n**q, factorial(b) ** q * factorial(q))
                assert lagrange_coefficient(r, q) == expected, (r, q)

    def test_unsupported_uniformity(self):
        with pytest.raises(ValidationError):
            lagrange_coefficient(1, 1)
        with pytest.raises(ValidationError):
            lagrange_coefficient(3, 0)


class TestRecurrenceOracle:
    @pytest.mark.parametrize(
        "r,top", [(2, 29), (3, 9), (4, 10), (3, 61), (4, 61), (5, 41), (6, 41)]
    )
    def test_matches_formula(self, r, top):
        for n in range(top + 1):
            assert count_rooted_trees_recursive(n, r) == rooted_tree_count(n, r), n

    def test_negative_size_rejected(self):
        assert outcome(count_rooted_trees_recursive, -1, 3) == (
            ValidationError, "need n >= 0 and r >= 2"
        )
