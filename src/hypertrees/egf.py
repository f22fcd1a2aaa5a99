"""Exact exponential generating functions for trees and matchings.

The rooted-tree series T(x) = sum t_n x^n / n! satisfies the functional
equation T = x * E(T), where E is the exponential generating function of
block matchings (blocks of size r-1): removing the root of a rooted tree
leaves a forest of rooted subtrees whose roots are grouped into blocks of
size r-1, singletons at r = 2.  A series truncated at order N is the tuple of
its integer counts c_0..c_N, c_n being the coefficient of x^n / n!, so the
labelled product and composition stay in the integers (Bergeron, Labelle
and Leroux, *Combinatorial Species and Tree-like Structures*, 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, factorial
from typing import Sequence

from .core import ValidationError, _check_sizes
from .core import count_matchings_formula, count_spanning_trees_formula

Series = tuple[int, ...]


def _product(a: Sequence[int], b: Sequence[int]) -> Series:
    """Labelled product to the shorter order: c_n = sum C(n,i) a_i b_(n-i)."""
    nonzero = [(i, x) for i, x in enumerate(a) if x]
    return tuple(
        sum(comb(n, i) * x * b[n - i] for i, x in nonzero if i <= n)
        for n in range(min(len(a), len(b)))
    )


def _check_series(*series: Sequence[int]) -> None:
    """Refuse an empty series or a coefficient that is not an int count; the
    last series, the inner one of a composition, needs a zero constant term."""
    for s in series:
        if not s:
            raise ValidationError("series needs at least the constant term")
        if not all(type(c) is int for c in s):  # bool is refused
            raise ValidationError("series coefficients must be integer counts")
    if series[-1][0] != 0:
        raise ValidationError("composition needs a zero constant term")


def compose(f: Sequence[int], g: Sequence[int]) -> Series:
    """f(g(x)) to the shorter order, as sum_j f_j g^j / j!; g(0) must be 0.

    g^j / j! counts sets of j g-structures, and a set of j-1 and one more is
    j times such a set, so each division is exact."""
    _check_series(f, g)
    n = min(len(f), len(g))
    power = (1,) + (0,) * (n - 1)  # g^0 / 0!
    total = [f[0]] + [0] * (n - 1)
    for j in range(1, n):
        power = tuple(c // j for c in _product(power, g))
        total = [t + f[j] * c for t, c in zip(total, power)]
    return tuple(total)


def _compose_matchings(g: Sequence[int], b: int) -> Series:
    """``compose(egf_matchings(b, N), g)`` to g's order N, without the powers of g.

    The matching series is exp(y^b / b!), so E(g) = exp(a) with a = g^b / b!, and
    c = exp(a) has c' = a'c: c_n = sum_k C(n-1, k-1) a_k c_(n-k), c_0 = 1."""
    _check_series(g)
    a = (1,) + (0,) * (len(g) - 1)
    for j in range(1, b + 1):  # g^j / j!, exact as in ``compose``
        a = tuple(c // j for c in _product(a, g))
    terms = [(k, x) for k, x in enumerate(a) if x]  # a_0 = 0
    c = [1]
    for n in range(1, len(g)):
        c.append(sum(comb(n - 1, k - 1) * x * c[n - k] for k, x in terms if k <= n))
    return tuple(c)


def egf_matchings(b: int, order: int) -> Series:
    """Counts of partitions of 0..order points into size-b blocks."""
    _check_sizes(b=(b, 1), order=(order, 0))
    return tuple(count_matchings_formula(i, b) for i in range(order + 1))


def rooted_tree_count(n: int, r: int) -> int:
    """Number of rooted spanning trees on n labeled vertices."""
    _check_sizes(n=(n, 0), r=(r, 2))
    return n and n * count_spanning_trees_formula(n, r)


def egf_rooted_trees(r: int, order: int) -> Series:
    _check_sizes(r=(r, 2), order=(order, 0))
    return tuple(rooted_tree_count(i, r) for i in range(order + 1))


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

    In counts it reads t_n = n [E(T)]_(n-1), a mismatch reporting both sides
    divided by n!.  ``tree_counts`` may supply independently computed values
    of t_0..t_N (e.g. from brute-force enumeration); by default the closed
    form is used.
    """
    _check_sizes(r=(r, 2), order=(order, 1))
    if tree_counts is None:
        trees = egf_rooted_trees(r, order)
    else:
        if len(tree_counts) < order + 1:
            raise ValidationError("not enough tree counts for the requested order")
        trees = tuple(tree_counts[: order + 1])
    blocks = _compose_matchings(trees, r - 1)
    for n, t in enumerate(trees):
        rooted = n * blocks[n - 1] if n else 0
        if t != rooted:
            return FunctionalEquationReport(
                False, n, Fraction(t, factorial(n)), Fraction(rooted, factorial(n))
            )
    return FunctionalEquationReport(True)


def lagrange_coefficient(r: int, q: int) -> Fraction:
    """[y^(n-1)] E(y)^n with b = r-1 and n = bq + 1, read off the series power.

    By Lagrange inversion this coefficient, divided by n, gives the rooted-tree
    series coefficient of x^n.  E(y) = exp(y^b / b!), so its closed form is
    n^q / (b!^q q!); ``verify.check_egf`` compares the two at r = 3.
    """
    _check_sizes(r=(r, 2), q=(q, 1))
    n = (r - 1) * q + 1
    power = reduce(_product, [egf_matchings(r - 1, n - 1)] * n)
    return Fraction(power[n - 1], factorial(n - 1))


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
    _check_sizes(n=(n, 0), r=(r, 2))
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
