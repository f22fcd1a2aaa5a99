"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact: all quantities are integers or exact
rationals.

The sizes (7,4) and (10,4) stand in for the infeasible (9,4): 4-uniform
spanning trees need n == 1 (mod 3), so n=9 admits none, and brute force at
the feasible sizes is what arbitrates the per-matching count n^(k-1)
against the competing (rk+1)^(k-1) (which would give 90 at k=2 instead of
the actual 70).
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import factorial
from pathlib import Path

from hypertrees import (
    build_arrangement,
    count_matchings_formula,
    count_parking,
    count_spanning_trees_formula,
    count_trees_for_matching,
    decode,
    encode,
    enumerate_matchings,
    enumerate_parking,
    enumerate_spanning_trees,
    extract_matching,
    format_matching,
    is_r_parking,
    lagrange_coefficient,
    parking_to_tree,
    parse_tree,
    regions,
    rooted_tree_count,
    simulate_parking,
    tree_to_parking,
    verify_functional_equation,
    witness_satisfies,
)
from hypertrees.bijection import consecutive_matching
from hypertrees.prufer import PruferCode


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def _brute_count(n: int, r: int) -> int:
    return sum(1 for _ in enumerate_spanning_trees(n, r))


def test_criterion_1_counting_r3():
    start = time.monotonic()
    results = {n: (_brute_count(n, 3), count_spanning_trees_formula(n, 3)) for n in (3, 5, 7)}
    elapsed = time.monotonic() - start
    ok = (
        results[3] == (1, 1)
        and results[5] == (15, 15)
        and results[7] == (735, 735)
        and elapsed < 60.0
    )
    _report(1, ok, f"r=3 brute/formula {results} in {elapsed:.2f}s")


def test_criterion_2_counting_r4():
    # n=9 is infeasible (9 != 1 mod 3): both counts are 0 and agree.  The
    # feasible size n=7 (k=2) arbitrates the count: brute force matches
    # rPM * n^(k-1) = 10*7 = 70 and rules out rPM * (rk+1)^(k-1) = 10*9 = 90.
    at_9 = (_brute_count(9, 4), count_spanning_trees_formula(9, 4))
    brute_7 = _brute_count(7, 4)
    formula_7 = count_matchings_formula(6, 3) * 7 ** (2 - 1)
    rejected = count_matchings_formula(6, 3) * 9 ** (2 - 1)
    brute_10 = _brute_count(10, 4)
    formula_10 = count_spanning_trees_formula(10, 4)
    ok = (
        at_9 == (0, 0)
        and brute_7 == formula_7 == 70
        and brute_7 != rejected == 90
        and brute_10 == formula_10 == 28000
    )
    _report(
        2,
        ok,
        f"r=4: n=9 {at_9}, n=7 brute={brute_7} formula={formula_7} "
        f"(rejects {rejected}), n=10 brute={brute_10} formula={formula_10}",
    )


def test_criterion_3_matching_extraction():
    fig1 = format_matching(extract_matching(parse_tree("1,2,3;3,4,7;3,5,6", 7, 3)))
    fig1_ok = fig1 == "1,2|3,4|5,6"
    fibers_ok = True
    detail = []
    for n, r in ((5, 3), (7, 3), (7, 4)):
        fibers = {}
        for t in enumerate_spanning_trees(n, r):
            m = extract_matching(t)  # raises if invalid
            fibers[m] = fibers.get(m, 0) + 1
        k = (n - 1) // (r - 1)
        expected = n ** (k - 1)
        fibers_ok &= set(fibers.values()) == {expected}
        fibers_ok &= len(fibers) == count_matchings_formula(n - 1, r - 1)
        detail.append(f"({n},{r}): {len(fibers)} fibers of size {expected}")
    _report(3, fig1_ok and fibers_ok, f"fig1={fig1}; " + "; ".join(detail))


def test_criterion_4_prufer_round_trips():
    failures = 0
    total = 0
    for n, r in ((5, 3), (7, 3), (7, 4)):
        k = (n - 1) // (r - 1)
        for m in enumerate_matchings(n - 1, r - 1):
            for entries in product(range(1, n + 1), repeat=k - 1):
                total += 1
                code = PruferCode(n, entries)
                t = decode(code, m, r)
                if encode(t, m) != code:
                    failures += 1
        for t in enumerate_spanning_trees(n, r):
            m = extract_matching(t)
            total += 1
            if decode(encode(t, m), m, r) != t:
                failures += 1
    _report(4, failures == 0, f"{total} round trips, {failures} failures")


def test_criterion_5_bijection():
    worked = tree_to_parking(parse_tree("3,4,7;5,6,7;1,2,3", 7, 3))
    ok = worked == (1, 0, 0)
    detail = [f"worked-example={worked}"]
    for k, r in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        funcs = list(enumerate_parking(k, r))
        round_ok = all(tree_to_parking(parking_to_tree(a, r)) == a for a in funcs)
        trees = {parking_to_tree(a, r) for a in funcs}
        count_ok = len(trees) == len(funcs) == (r * k + 1) ** (k - 1)
        ok &= round_ok and count_ok
        detail.append(f"({k},{r})={len(funcs)}")
    _report(5, ok, " ".join(detail))


def test_criterion_6_parking_characterizations():
    agree = all(
        simulate_parking(a) == is_r_parking(a, 1)
        for k in range(1, 7)
        for a in product(range(k), repeat=k)
    )
    counts_ok = all(
        sum(1 for _ in enumerate_parking(k, r)) == count_parking(k, r)
        for k, r in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))
    )
    _report(6, agree and counts_ok, f"simulation-agreement={agree} counts={counts_ok}")


def test_criterion_7_egf():
    brute_t3 = [0] + [n * _brute_count(n, 3) for n in range(1, 10)]
    brute_t4 = [0] + [n * _brute_count(n, 4) for n in range(1, 11)]
    assert brute_t3[1] == 1  # t_1 = 1: single rooted vertex
    r3 = verify_functional_equation(3, 9, tree_counts=brute_t3)
    r4 = verify_functional_equation(4, 10, tree_counts=brute_t4)
    lagrange_ok = all(
        lagrange_coefficient(3, k) == Fraction(2 * k + 1, 2) ** k / factorial(k)
        for k in range(1, 5)
    )
    _report(7, r3.ok and r4.ok and lagrange_ok,
            f"r=3 order 9: {r3.ok}; r=4 order 10: {r4.ok}; lagrange k<=4: {lagrange_ok}")


def test_criterion_8_shi_regions():
    ok = True
    detail = []
    start = time.monotonic()
    for (k, r), expected in zip(
        ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (5, 1), (3, 3)),
        (3, 16, 5, 49, 7, 729, 1296, 100),
    ):
        regs = regions(k, r)
        hps = build_arrangement(k, r)
        witnesses_ok = all(witness_satisfies(reg, hps) for reg in regs)
        counts_ok = (
            len(regs)
            == count_parking(k, r)
            == count_trees_for_matching(r * k + 1, r + 1)
            == expected
        )
        ok &= witnesses_ok and counts_ok
        detail.append(f"({k},{r})={len(regs)}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _report(8, ok, " ".join(detail) + f" in {elapsed:.2f}s")


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "hypertrees.cli", "verify", "--suite", "all", "--max-n", "9"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (
        first.returncode == second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    _report(9, ok, f"verify output {len(first.stdout)} bytes, byte-identical={first.stdout == second.stdout}")
