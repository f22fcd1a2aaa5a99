"""Command-line interface: one binary, one subcommand per operation family.

Exit codes: 0 success, 2 usage error, 3 invalid input, 4 resource cap
exceeded, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import bijection, core, egf, parking, prufer, shi

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_CAP = 4
EXIT_VERIFY = 5


def _tree_json(t: core.HyperTree) -> dict:
    return {"n": t.n, "r": t.r, "edges": [list(e) for e in t.edges]}


def _emit_tree(t: core.HyperTree, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_tree_json(t)))
    else:
        print(core.format_tree(t))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_count(args) -> int:
    method = args.method
    parts = []
    formula = brute = None
    if method in ("formula", "both"):
        formula = core.count_spanning_trees_formula(args.n, args.r)
        parts.append(f"formula={formula}")
    if method in ("brute", "both"):
        brute = sum(1 for _ in core.enumerate_spanning_trees(args.n, args.r, cap=args.cap))
        parts.append(f"brute={brute}")
    if method == "both":
        parts.append(f"agree={'true' if formula == brute else 'false'}")
    if args.json:
        print(json.dumps({"n": args.n, "r": args.r, "formula": formula, "brute": brute}))
    else:
        print(" ".join(parts))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for t in core.enumerate_spanning_trees(args.n, args.r, cap=args.cap):
        _emit_tree(t, args.json)
    return EXIT_OK


def _cmd_matching_extract(args) -> int:
    t = core.parse_tree(args.tree, args.n, args.r)
    m = core.extract_matching(t)
    if args.json:
        print(json.dumps([list(b) for b in m.blocks]))
    else:
        print(core.format_matching(m))
    return EXIT_OK


def _cmd_matching_count(args) -> int:
    print(core.count_matchings_formula(args.m, args.b))
    return EXIT_OK


def _cmd_prufer_encode(args) -> int:
    t = core.parse_tree(args.tree, args.n, args.r)
    m = core.parse_matching(args.matching)
    code = prufer.encode(t, m)
    if args.json:
        print(json.dumps(list(code.entries)))
    else:
        print(prufer.format_code(code))
    return EXIT_OK


def _cmd_prufer_decode(args) -> int:
    m = core.parse_matching(args.matching)
    code = prufer.parse_code(args.code, args.n)
    _emit_tree(prufer.decode(code, m, args.r), args.json)
    return EXIT_OK


def _cmd_park_check(args) -> int:
    a = parking.parse_sequence(args.seq)
    ok = parking.is_r_parking(a, args.r)
    print(json.dumps(ok) if args.json else ("true" if ok else "false"))
    return EXIT_OK


def _cmd_park_simulate(args) -> int:
    a = parking.parse_sequence(args.seq)
    ok = parking.simulate_parking(a)
    print(json.dumps(ok) if args.json else ("true" if ok else "false"))
    return EXIT_OK


def _cmd_park_count(args) -> int:
    print(parking.count_parking(args.k, args.r))
    return EXIT_OK


def _cmd_park_enumerate(args) -> int:
    seqs = parking.enumerate_parking(args.k, args.r, cap=args.cap)
    if args.json:
        print(json.dumps([list(a) for a in seqs]))
    else:
        for a in seqs:
            print(parking.format_sequence(a))
    return EXIT_OK


def _cmd_bij_to_park(args) -> int:
    t = core.parse_tree(args.tree, args.n, args.r + 1)
    a = bijection.tree_to_parking(t)
    if args.json:
        print(json.dumps(list(a)))
    else:
        print(parking.format_sequence(a))
    return EXIT_OK


def _cmd_bij_to_tree(args) -> int:
    a = parking.parse_sequence(args.seq)
    _emit_tree(bijection.parking_to_tree(a, args.r), args.json)
    return EXIT_OK


def _cmd_egf(args) -> int:
    # checked before any row is printed, so invalid arguments print nothing
    report = egf.verify_functional_equation(args.r, args.order) if args.verify else None
    series = egf.egf_rooted_trees(args.r, args.order)
    rows = []
    for i, c in enumerate(series.coeffs):
        t_n = egf.rooted_tree_count(i, args.r)
        rows.append({"n": i, "coefficient": f"{c.numerator}/{c.denominator}", "t": t_n})
        if not args.json:
            print(f"{i}: {c.numerator}/{c.denominator} t={t_n}")
    if args.json:
        print(json.dumps(rows))
    if report is not None:
        if report.ok:
            print(f"functional-equation r={args.r} order={args.order}: ok")
        else:
            print(
                f"functional-equation r={args.r} order={args.order}: "
                f"mismatch at {report.first_mismatch}: {report.lhs} != {report.rhs}"
            )
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_shi_regions(args) -> int:
    regs = shi.regions(args.k, args.r, cap=args.cap)
    rows = [
        (
            "".join("+" if s > 0 else "-" for s in reg.signs),
            [f"{x.numerator}/{x.denominator}" for x in reg.witness],
        )
        for reg in (regs if args.witnesses else ())
    ]
    if args.json:
        payload = {"k": args.k, "r": args.r, "count": len(regs)}
        if args.witnesses:
            payload["regions"] = [{"signs": signs, "witness": point} for signs, point in rows]
        print(json.dumps(payload))
        return EXIT_OK
    print(len(regs))
    for signs, point in rows:
        print(f"{signs} {' '.join(point)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cross-theorem verification suites


def _feasible_sizes(max_n: int, r: int) -> list[int]:
    return [n for n in range(1, max_n + 1) if (n - 1) % (r - 1) == 0]


def _check_counts(max_n: int, cap: int, lines: list[tuple[bool, str]]) -> None:
    for r in (3, 4):
        for n in range(1, max_n + 1):
            formula = core.count_spanning_trees_formula(n, r)
            brute = sum(1 for _ in core.enumerate_spanning_trees(n, r, cap=cap))
            lines.append(
                (formula == brute, f"counts r={r} n={n} brute={brute} formula={formula}")
            )


def _check_fibers(max_n: int, cap: int, lines: list[tuple[bool, str]]) -> None:
    for n, r in ((5, 3), (7, 3), (7, 4)):
        if n > max_n:
            continue
        fibers: dict[core.Matching, int] = {}
        per_edge_ok = True
        for t in core.enumerate_spanning_trees(n, r, cap=cap):
            m = core.extract_matching(t)
            fibers[m] = fibers.get(m, 0) + 1
            for e in t.edges:
                if sum(1 for b in m.blocks if set(b) <= set(e)) != 1:
                    per_edge_ok = False
        expected = prufer.count_trees_for_matching(n, r)
        sizes_ok = set(fibers.values()) == {expected}
        total_ok = len(fibers) == core.count_matchings_formula(n - 1, r - 1)
        lines.append(
            (
                per_edge_ok and sizes_ok and total_ok,
                f"fibers n={n} r={r} matchings={len(fibers)} size={expected}",
            )
        )


def _check_prufer(max_n: int, cap: int, lines: list[tuple[bool, str]]) -> None:
    from itertools import product

    for n, r in ((5, 3), (7, 3), (7, 4)):
        if n > max_n:
            continue
        k = (n - 1) // (r - 1)
        failures = 0
        total = 0
        for m in core.enumerate_matchings(n - 1, r - 1, cap=cap):
            for entries in product(range(1, n + 1), repeat=k - 1):
                total += 1
                code = prufer.PruferCode(n, entries)
                t = prufer.decode(code, m, r)
                if prufer.encode(t, m) != code or core.extract_matching(t) != m:
                    failures += 1
        lines.append(
            (failures == 0, f"prufer-roundtrip n={n} r={r} codes={total} failures={failures}")
        )


def _check_bijection(lines: list[tuple[bool, str]]) -> None:
    for k, r in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        funcs = list(parking.enumerate_parking(k, r))
        round_ok = all(
            bijection.tree_to_parking(bijection.parking_to_tree(a, r)) == a
            for a in funcs
        )
        trees = {bijection.parking_to_tree(a, r) for a in funcs}
        count_ok = len(funcs) == len(trees) == parking.count_parking(k, r)
        lines.append(
            (round_ok and count_ok, f"bijection k={k} r={r} functions={len(funcs)}")
        )


def _check_parking(lines: list[tuple[bool, str]]) -> None:
    from itertools import product

    for k in range(1, 7):
        agree = all(
            parking.simulate_parking(a) == parking.is_r_parking(a, 1)
            for a in product(range(k), repeat=k)
        )
        lines.append((agree, f"parking-simulation k={k}"))


def _check_egf(lines: list[tuple[bool, str]]) -> None:
    for r, order in ((3, 9), (4, 10)):
        report = egf.verify_functional_equation(r, order)
        lines.append((report.ok, f"egf-functional-equation r={r} order={order}"))
    for n in range(1, 10):
        match = egf.rooted_tree_count(n, 3) == egf.count_rooted_trees_recursive(n, 3)
        lines.append((match, f"egf-recurrence r=3 n={n}"))
    for k in range(1, 5):
        value = egf.lagrange_coefficient(3, k)
        lines.append((True, f"egf-lagrange k={k} value={value}"))


def _check_shi(cap: int, lines: list[tuple[bool, str]]) -> None:
    for k, r in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (5, 1), (3, 3)):
        report = shi.verify_triangle(k, r, cap=cap)
        lines.append(
            (
                report.ok,
                f"shi-triangle k={k} r={r} "
                f"regions={report.regions} parking={report.parking} trees={report.trees}",
            )
        )


_SUITES: dict[str, Callable[..., None]] = {
    "counts": lambda max_n, cap, lines: _check_counts(max_n, cap, lines),
    "fibers": lambda max_n, cap, lines: _check_fibers(max_n, cap, lines),
    "prufer": lambda max_n, cap, lines: _check_prufer(max_n, cap, lines),
    "bijection": lambda max_n, cap, lines: _check_bijection(lines),
    "parking": lambda max_n, cap, lines: _check_parking(lines),
    "egf": lambda max_n, cap, lines: _check_egf(lines),
    "shi": lambda max_n, cap, lines: _check_shi(cap, lines),
}


def _cmd_verify(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    lines: list[tuple[bool, str]] = []
    for name in suites:
        _SUITES[name](args.max_n, args.cap, lines)
    failures = 0
    for ok, text in lines:
        print(f"{'PASS' if ok else 'FAIL'} {text}")
        failures += 0 if ok else 1
    print(f"total={len(lines)} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertrees",
        description="Spanning trees of complete uniform hypergraphs and friends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        p.add_argument("--cap", type=int, default=core.DEFAULT_CAP,
                       help="enumeration search cap")
        return p

    p = add("count", _cmd_count, help="count spanning trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--method", choices=("formula", "brute", "both"), default="formula")

    p = add("enumerate", _cmd_enumerate, help="list all spanning trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    matching = sub.add_parser("matching", help="block matchings")
    msub = matching.add_subparsers(dest="subcommand", required=True)

    def madd(name, handler, **kwargs):
        p = msub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--json", action="store_true")
        p.add_argument("--cap", type=int, default=core.DEFAULT_CAP)
        return p

    p = madd("extract", _cmd_matching_extract, help="matching a tree arises from")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tree", required=True)

    p = madd("count", _cmd_matching_count, help="count block matchings")
    p.add_argument("--m", type=int, required=True, help="ground-set size")
    p.add_argument("--b", type=int, required=True, help="block size")

    pr = sub.add_parser("prufer", help="tree codes relative to a matching")
    prsub = pr.add_subparsers(dest="subcommand", required=True)

    def padd(name, handler, **kwargs):
        p = prsub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--json", action="store_true")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--matching", required=True)
        return p

    p = padd("encode", _cmd_prufer_encode, help="tree to code")
    p.add_argument("--tree", required=True)

    p = padd("decode", _cmd_prufer_decode, help="code to tree")
    p.add_argument("--code", required=True)

    pk = sub.add_parser("park", help="r-parking functions")
    pksub = pk.add_subparsers(dest="subcommand", required=True)

    def kadd(name, handler, **kwargs):
        p = pksub.add_parser(name, **kwargs)
        p.set_defaults(func=handler)
        p.add_argument("--json", action="store_true")
        p.add_argument("--cap", type=int, default=core.DEFAULT_CAP)
        return p

    p = kadd("check", _cmd_park_check, help="sorted-rearrangement test")
    p.add_argument("--seq", required=True)
    p.add_argument("--r", type=int, required=True)

    p = kadd("simulate", _cmd_park_simulate, help="car-parking simulation (r=1)")
    p.add_argument("--seq", required=True)

    p = kadd("count", _cmd_park_count, help="closed-form count")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = kadd("enumerate", _cmd_park_enumerate, help="list all parking functions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    bij = sub.add_parser("bij", help="tree/parking bijection")
    bsub = bij.add_subparsers(dest="subcommand", required=True)

    p = bsub.add_parser("to-park", help="tree to parking function")
    p.set_defaults(func=_cmd_bij_to_park)
    p.add_argument("--json", action="store_true")
    p.add_argument("--tree", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="parking parameter; uniformity is r+1")

    p = bsub.add_parser("to-tree", help="parking function to tree")
    p.set_defaults(func=_cmd_bij_to_tree)
    p.add_argument("--json", action="store_true")
    p.add_argument("--seq", required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("egf", _cmd_egf, help="rooted-tree series coefficients")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--verify", action="store_true",
                   help="also check the functional equation")

    sh = sub.add_parser("shi", help="extended Shi arrangement")
    shsub = sh.add_subparsers(dest="subcommand", required=True)
    p = shsub.add_parser("regions", help="count regions, optionally with witnesses")
    p.set_defaults(func=_cmd_shi_regions)
    p.add_argument("--json", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--witnesses", action="store_true")
    p.add_argument("--cap", type=int, default=shi.DEFAULT_REGION_CAP)

    p = add("verify", _cmd_verify, help="cross-theorem verification suites")
    p.add_argument("--suite", choices=["all", *_SUITES], default="all")
    p.add_argument("--max-n", type=int, default=9, dest="max_n")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except core.ResourceCapError as exc:
        print(f"error: resource-cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (core.ValidationError, ValueError) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
