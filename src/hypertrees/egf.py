"""Exact exponential generating functions for trees and matchings.

The rooted-tree series T(x) = sum t_n x^n / n! satisfies the functional
equation T = x * E(T), where E is the exponential generating function of
block matchings (blocks of size r-1): removing the root of a rooted tree
leaves a forest of rooted subtrees whose roots are grouped into blocks of
size r-1.  All arithmetic is over exact rationals on truncated series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from .core import (
    ValidationError,
    count_matchings_formula,
    count_spanning_trees_formula,
)


@dataclass(frozen=True)
class RationalSeries:
    """Truncated power series with exact rational coefficients c_0..c_N."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValidationError("series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        n = min(self.order, other.order)
        return RationalSeries(
            tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1]))
        )

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return RationalSeries(tuple(out))

    def __pow__(self, e: int) -> "RationalSeries":
        if e < 0:
            raise ValidationError("negative series power")
        result = constant(1, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self) -> "RationalSeries":
        """Multiply by x at the same truncation order."""
        return RationalSeries((Fraction(0),) + self.coeffs[:-1])


def constant(c: int | Fraction, order: int) -> RationalSeries:
    return RationalSeries((Fraction(c),) + (Fraction(0),) * order)


def compose(f: RationalSeries, g: RationalSeries) -> RationalSeries:
    """f(g(x)) up to the shared truncation order; g must have no constant term."""
    if g.coeffs[0] != 0:
        raise ValidationError("composition needs a zero constant term")
    n = min(f.order, g.order)
    acc = constant(f.coeffs[n], n)
    for c in reversed(f.coeffs[:n]):
        acc = acc * g + constant(c, n)
    return acc


def egf_matchings(b: int, order: int) -> RationalSeries:
    """EGF of partitions into size-b blocks: coefficient of x^n is count/n!."""
    return RationalSeries(
        tuple(
            Fraction(count_matchings_formula(i, b), factorial(i))
            for i in range(order + 1)
        )
    )


def rooted_tree_count(n: int, r: int) -> int:
    """Number of rooted spanning trees on n labeled vertices."""
    if n == 0:
        return 0
    return n * count_spanning_trees_formula(n, r)


def egf_rooted_trees(r: int, order: int) -> RationalSeries:
    return RationalSeries(
        tuple(
            Fraction(rooted_tree_count(i, r), factorial(i)) for i in range(order + 1)
        )
    )


@dataclass(frozen=True)
class FunctionalEquationReport:
    ok: bool
    first_mismatch: int | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None


def verify_functional_equation(
    r: int, order: int, tree_counts: Sequence[int] | None = None
) -> FunctionalEquationReport:
    """Check T = x * E(T) coefficientwise through the given order.

    ``tree_counts`` may supply independently computed values of t_0..t_N
    (e.g. from brute-force enumeration); by default the closed form is used.
    """
    if r < 3 or order < 1:
        raise ValidationError("need r >= 3 and order >= 1")
    if tree_counts is None:
        lhs = egf_rooted_trees(r, order)
    else:
        if len(tree_counts) < order + 1:
            raise ValidationError("not enough tree counts for the requested order")
        lhs = RationalSeries(
            tuple(Fraction(tree_counts[i], factorial(i)) for i in range(order + 1))
        )
    rhs = compose(egf_matchings(r - 1, order), lhs).shift()
    for i in range(order + 1):
        if lhs.coeffs[i] != rhs.coeffs[i]:
            return FunctionalEquationReport(False, i, lhs.coeffs[i], rhs.coeffs[i])
    return FunctionalEquationReport(True)


def lagrange_coefficient(r: int, k: int) -> Fraction:
    """[y^{2k}] E(y)^{2k+1} for pair matchings, read off the series power.

    By Lagrange inversion this coefficient, divided by 2k+1, gives the
    rooted-tree series coefficient of x^{2k+1}.  Its closed form is
    ((2k+1)/2)^k / k!; the CLI's ``egf`` verify suite compares the two.
    """
    if r != 3:
        raise ValidationError("the closed form is available only for r = 3")
    if k < 1:
        raise ValidationError("need k >= 1")
    return (egf_matchings(2, 2 * k) ** (2 * k + 1)).coeffs[2 * k]


# ---------------------------------------------------------------------------
# independent recurrence oracle: build a rooted tree by picking a root,
# partitioning the rest, recursing, and grouping the subtree roots


def _integer_partitions(m: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if m == 0:
        yield ()
        return
    if max_part is None:
        max_part = m
    for p in range(min(m, max_part), 0, -1):
        for rest in _integer_partitions(m - p, p):
            yield (p,) + rest


def count_rooted_trees_recursive(n: int, r: int) -> int:
    """Rooted-tree count via the root-decomposition recurrence.

    Pick a root (n ways), partition the other n-1 vertices into q nonempty
    blocks with q divisible by r-1, choose a rooted tree on each block, and
    group the q subtree roots into blocks of size r-1.  Deliberately avoids
    series arithmetic so it can serve as a second oracle.
    """
    if n < 0 or r < 3:
        raise ValidationError("need n >= 0 and r >= 3")
    b = r - 1

    @lru_cache(maxsize=None)
    def trees(j: int) -> int:
        if j == 0:
            return 0
        if j == 1:
            return 1
        return j * forest(j - 1)

    @lru_cache(maxsize=None)
    def forest(m: int) -> int:
        total = 0
        for sizes in _integer_partitions(m):
            q = len(sizes)
            if q == 0 or q % b != 0:
                continue
            ways = factorial(m)
            for s in sizes:
                ways //= factorial(s)
            mult = 1
            prev, run = None, 0
            for s in sizes + (0,):
                if s == prev:
                    run += 1
                else:
                    mult *= factorial(run)
                    prev, run = s, 1
            ways //= mult
            prod = 1
            for s in sizes:
                prod *= trees(s)
                if prod == 0:
                    break
            total += ways * prod * count_matchings_formula(q, b)
        return total

    return trees(n)
