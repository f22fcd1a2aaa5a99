"""Cross-theorem verification suites.  A check takes the sizes it runs at and
yields ``(ok, text)`` per check; ``SUITES`` maps each suite name to its check and
default sizes, in ``verify --suite all`` order."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterable, Iterator

from . import bijection, core, egf, parking, prufer, shi


def check_counts(sizes: Iterable[tuple[int, int]]) -> Iterator[tuple[bool, str]]:
    for n, r in sizes:
        formula = core.count_spanning_trees_formula(n, r)
        brute = sum(1 for _ in core.enumerate_spanning_trees(n, r))
        yield formula == brute, f"counts r={r} n={n} brute={brute} formula={formula}"


def check_fibers(sizes: Iterable[tuple[int, int]]) -> Iterator[tuple[bool, str]]:
    for n, r in sizes:
        fibers: dict[core.Matching, int] = {}
        per_edge_ok = True
        for t in core.enumerate_spanning_trees(n, r):
            m = core.extract_matching(t)
            fibers[m] = fibers.get(m, 0) + 1
            per_edge_ok &= all(sum(set(b) <= set(e) for b in m.blocks) == 1 for e in t.edges)
        expected = prufer.count_trees_for_matching(n, r)
        sizes_ok = set(fibers.values()) == {expected}
        total_ok = len(fibers) == core.count_matchings_formula(n - 1, r - 1)
        yield (
            per_edge_ok and sizes_ok and total_ok,
            f"fibers n={n} r={r} matchings={len(fibers)} size={expected}",
        )


def check_prufer(sizes: Iterable[tuple[int, int]]) -> Iterator[tuple[bool, str]]:
    for n, r in sizes:
        k = core.tree_size(n, r)
        total = failures = 0
        for m in core.enumerate_matchings(n - 1, r - 1):
            for entries in product(range(1, n + 1), repeat=k - 1):
                total += 1
                code = prufer.PruferCode(n, entries)
                t = prufer.decode(code, m, r)
                if prufer.encode(t, m) != code or core.extract_matching(t) != m:
                    failures += 1
        yield failures == 0, f"prufer-roundtrip n={n} r={r} codes={total} failures={failures}"


def check_bijection(sizes: Iterable[tuple[int, int]]) -> Iterator[tuple[bool, str]]:
    for k, r in sizes:
        funcs = list(parking.enumerate_parking(k, r))  # distinct: so are trees that round-trip
        ok = len(funcs) == parking.count_parking(k, r) and all(
            bijection.tree_to_parking(bijection.parking_to_tree(a, r)) == a for a in funcs)
        yield ok, f"bijection k={k} r={r} functions={len(funcs)}"


def check_parking(sizes: Iterable[int]) -> Iterator[tuple[bool, str]]:
    for k in sizes:
        agree = all(
            parking.simulate_parking(a) == parking.is_r_parking(a, 1)
            for a in product(range(k), repeat=k)
        )
        yield agree, f"parking-simulation k={k}"


def check_egf(sizes: tuple[Iterable, Iterable, Iterable]) -> Iterator[tuple[bool, str]]:
    equations, recurrence_ns, lagrange_qs = sizes  # (r, order) pairs, then n and q at r = 3
    for r, order in equations:
        report = egf.verify_functional_equation(r, order)
        yield report.ok, f"egf-functional-equation r={r} order={order}"
    for n in recurrence_ns:
        match = egf.rooted_tree_count(n, 3) == egf.count_rooted_trees_recursive(n, 3)
        yield match, f"egf-recurrence r=3 n={n}"
    for q in lagrange_qs:  # n^q / (b!^q q!) with b = r - 1 = 2, n = bq + 1
        value = egf.lagrange_coefficient(3, q)
        closed_form = Fraction((2 * q + 1) ** q, factorial(2) ** q * factorial(q))
        yield value == closed_form, f"egf-lagrange k={q} value={value}"


def check_shi(sizes: Iterable[tuple[int, int]]) -> Iterator[tuple[bool, str]]:
    """Streams the regions: each witness, and each label an r-parking function that is
    prime (sorted, b_i <= r*i - 1 for i >= 1) exactly when its region is bounded, weakly
    decreasing exactly when it is dominant (every c >= 0), and read back from its tree.
    Distinct, the labels are then every r-parking function, on as many distinct trees."""
    for k, r in sizes:
        hyperplanes = shi.build_arrangement(k, r)
        n_parking = parking.count_parking(k, r)
        n_trees = prufer.count_trees_for_matching(r * k + 1, r + 1)
        labels: set[tuple[int, ...]] = set()
        n_regions = n_bounded = 0
        ok = True
        for reg in shi.iter_regions(k, r, cap=n_parking):
            a = shi.label(reg)
            labels.add(a)
            n_regions += 1
            n_bounded += reg.bounded
            ok = ok and (
                shi.witness_satisfies(reg, hyperplanes)
                and parking.is_r_parking(a, r)
                and reg.bounded == all(x < r * i for i, x in enumerate(sorted(a)) if i)
                and all(c >= 0 for c in reg.intervals) == all(x >= y for x, y in zip(a, a[1:]))
                and bijection.tree_to_parking(bijection.parking_to_tree(a, r)) == a
            )
        yield (  # |chi(1)| = (rk-1)^(k-1) bounded regions; the one region of R^0 is bounded
            ok and n_bounded == (r * k - 1) ** max(k - 1, 0)
            and len(labels) == n_regions == n_parking == n_trees,
            f"shi-triangle k={k} r={r} regions={n_regions} parking={n_parking} trees={n_trees}",
        )


SUITES = {
    # r = 3 stops at n = 10 and r = 4 at n = 12: the next n's search exceeds core.DEFAULT_CAP
    "counts": (check_counts, [(n, r) for r, top in ((3, 10), (4, 12)) for n in range(1, top + 1)]),
    "fibers": (check_fibers, ((5, 3), (7, 3), (7, 4))),
    "prufer": (check_prufer, ((5, 3), (7, 3), (7, 4))),
    "bijection": (check_bijection, ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))),
    "parking": (check_parking, range(1, 7)),
    "egf": (check_egf, (((3, 9), (4, 10)), range(1, 10), range(1, 5))),
    "shi": (check_shi, ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (5, 1), (3, 3))),
}
