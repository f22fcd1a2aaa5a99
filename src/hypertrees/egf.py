"""Exact exponential generating functions for trees and matchings.

The rooted-tree series T(x) = sum t_n x^n / n! satisfies the functional
equation T = x * E(T), where E is the exponential generating function of
block matchings (blocks of size r-1): removing the root of a rooted tree
leaves a forest of rooted subtrees whose roots are grouped into blocks of
size r-1, singletons at r = 2.  Series are truncated, with exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

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


def _egf(counts: Sequence[int]) -> RationalSeries:
    """The series whose coefficient of x^i is counts[i] / i!."""
    return RationalSeries(tuple(Fraction(c, factorial(i)) for i, c in enumerate(counts)))


def _exponents(order: int) -> range:
    """The exponents 0..order of a series truncated at ``order``."""
    if order < 0:
        raise ValidationError(f"series order must be non-negative, got {order}")
    return range(order + 1)


def egf_matchings(b: int, order: int) -> RationalSeries:
    """EGF of partitions into size-b blocks: coefficient of x^n is count/n!."""
    return _egf([count_matchings_formula(i, b) for i in _exponents(order)])


def rooted_tree_count(n: int, r: int) -> int:
    """Number of rooted spanning trees on n labeled vertices."""
    if n == 0:
        return 0
    return n * count_spanning_trees_formula(n, r)


def egf_rooted_trees(r: int, order: int) -> RationalSeries:
    return _egf([rooted_tree_count(i, r) for i in _exponents(order)])


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
    if r < 2 or order < 1:
        raise ValidationError("need r >= 2 and order >= 1")
    if tree_counts is None:
        lhs = egf_rooted_trees(r, order)
    else:
        if len(tree_counts) < order + 1:
            raise ValidationError("not enough tree counts for the requested order")
        lhs = _egf(tree_counts[: order + 1])
    rhs = compose(egf_matchings(r - 1, order), lhs).shift()
    for i in range(order + 1):
        if lhs.coeffs[i] != rhs.coeffs[i]:
            return FunctionalEquationReport(False, i, lhs.coeffs[i], rhs.coeffs[i])
    return FunctionalEquationReport(True)


def lagrange_coefficient(r: int, q: int) -> Fraction:
    """[y^(n-1)] E(y)^n with b = r-1 and n = bq + 1, read off the series power.

    By Lagrange inversion this coefficient, divided by n, gives the rooted-tree
    series coefficient of x^n.  E(y) = exp(y^b / b!), so its closed form is
    n^q / (b!^q q!); the CLI's ``egf`` verify suite compares the two at r = 3.
    """
    if r < 2 or q < 1:
        raise ValidationError("need r >= 2 and q >= 1")
    n = (r - 1) * q + 1
    return (egf_matchings(r - 1, n - 1) ** n).coeffs[n - 1]


# ---------------------------------------------------------------------------
# independent recurrence oracle: split off the part holding the smallest label


def count_rooted_trees_recursive(n: int, r: int) -> int:
    """Rooted-tree count by splitting off the part with the smallest label.

    trees[j] = j * forest[j-1]: a root over a forest on the other j-1
    vertices.  sets[q][j] = sum_u C(j-1,u-1) trees[u] sets[q-1][j-u] counts
    sets of q rooted trees, and forest[j] = sum_s C(j-1,s-1) sets[r-1][s]
    forest[j-s] counts sets of bundles, a bundle being the r-1 subtrees under
    one root hyperedge (Moon, *Counting Labelled Trees*, 1970).  Binomials
    only: no closed form and no series arithmetic, so it is a second oracle.
    """
    if n < 0 or r < 2:
        raise ValidationError("need n >= 0 and r >= 2")
    trees = [0] * (n + 1)
    sets = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(r - 1)]
    forest = [1] + [0] * n
    for j in range(1, n + 1):
        trees[j] = j * forest[j - 1]
        for q in range(1, r):
            sets[q][j] = sum(
                comb(j - 1, u - 1) * trees[u] * sets[q - 1][j - u] for u in range(1, j + 1)
            )
        forest[j] = sum(
            comb(j - 1, s - 1) * sets[r - 1][s] * forest[j - s] for s in range(1, j + 1)
        )
    return trees[n]
