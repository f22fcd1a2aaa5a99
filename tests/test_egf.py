from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees.core import ValidationError, enumerate_spanning_trees
from hypertrees.egf import (
    _compose_matchings,
    compose,
    count_rooted_trees_recursive,
    egf_matchings,
    egf_rooted_trees,
    lagrange_coefficient,
    rooted_tree_count,
    verify_functional_equation,
)

import reference
from conftest import outcome

# a series is the tuple of its counts: c_n is the coefficient of x^n / n!


class TestCompose:
    def test_identity_substitution(self):
        f = (1, 1, 0)
        assert compose(f, (0, 1, 0)) == f

    def test_exp_like_in_x_squared(self):
        # e^x has every count 1 and x^2 / 2 is one pair, so e^(x^2 / 2)
        # counts perfect matchings: (n - 1)!! at even n
        assert compose((1,) * 7, (0, 0, 1, 0, 0, 0, 0)) == (1, 0, 1, 0, 3, 0, 15)

    def test_nonzero_constant_term_rejected(self):
        assert outcome(compose, (1, 0, 0, 0), (1, 0, 0, 0)) == (
            ValidationError, "composition needs a zero constant term"
        )

    def test_compose_commutes_with_truncation(self):
        f = tuple(i + 1 for i in range(8))
        g = (0,) + tuple(3 * i - 7 for i in range(7))
        assert compose(f, g)[:5] == compose(f[:5], g[:5])

    @pytest.mark.parametrize("f,g", [((), (0,)), ((1,), ())], ids=["f", "g"])
    def test_empty_series_rejected(self, f, g):
        assert outcome(compose, f, g) == (
            ValidationError, "series needs at least the constant term"
        )

    @pytest.mark.parametrize(
        "f,g",
        [((1, Fraction(1, 2)), (0, 1)), ((1, 1), (0, 1.0)), ((1, True), (0, 1))],
        ids=["fraction", "float", "bool"],
    )
    def test_non_integer_entry_rejected(self, f, g):
        assert outcome(compose, f, g) == (
            ValidationError, "series coefficients must be integer counts"
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=11),
        st.lists(st.integers(-50, 50), max_size=10),
    )
    def test_matches_rational_horner(self, f, g_tail):
        g = [0] + g_tail
        rational = reference.compose(
            [Fraction(c, factorial(i)) for i, c in enumerate(f)],
            [Fraction(c, factorial(i)) for i, c in enumerate(g)],
        )
        assert compose(f, g) == tuple(factorial(n) * c for n, c in enumerate(rational))


class TestMatchingSeries:
    def test_pair_blocks(self):
        assert egf_matchings(2, 6) == (1, 0, 1, 0, 3, 0, 15)

    def test_triple_blocks(self):
        assert egf_matchings(3, 3)[3] == 1


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
        need = {egf_rooted_trees: "r >= 2", egf_matchings: "b >= 1"}[series]
        assert outcome(series, first, order) == (ValidationError, f"need {need} and order >= 0")

    @pytest.mark.parametrize("r", [1, 0, -3])
    def test_uniformity_checked_at_size_zero(self, r):
        assert outcome(rooted_tree_count, 0, r) == (ValidationError, "need n >= 0 and r >= 2")
        assert outcome(egf_rooted_trees, r, 0) == (ValidationError, "need r >= 2 and order >= 0")

    def test_rooted_tree_count_takes_n_from_zero(self):
        assert rooted_tree_count(0, 3) == rooted_tree_count(0, 2) == 0
        assert outcome(rooted_tree_count, -1, 3) == (ValidationError, "need n >= 0 and r >= 2")

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

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_order_100(self, r):
        assert verify_functional_equation(r, 100).ok

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_recurrence_equals_composition(self, r):
        # E(T) by the exponential recurrence, as the check builds it, and by composition
        trees = egf_rooted_trees(r, 100)
        assert _compose_matchings(trees, r - 1) == compose(egf_matchings(r - 1, 100), trees)

    def test_nonzero_constant_tree_count_rejected(self):
        assert outcome(verify_functional_equation, 3, 2, [1, 1, 0]) == (
            ValidationError, "composition needs a zero constant term"
        )

    def test_non_integer_tree_count_rejected(self):
        assert outcome(verify_functional_equation, 3, 2, [0, 1, Fraction(1, 2)]) == (
            ValidationError, "series coefficients must be integer counts"
        )

    def test_bool_tree_count_rejected(self):
        # True == 1 would otherwise let [0, True, 0] pass as the counts 0, 1, 0
        assert outcome(verify_functional_equation, 3, 2, [0, True, 0]) == (
            ValidationError, "series coefficients must be integer counts"
        )

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
