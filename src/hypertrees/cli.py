"""Command-line interface: one binary, one subcommand per operation family.

Every subcommand is one row of ``_COMMANDS``: its path (``"egf"``,
``"prufer decode"``), its help, its handler and its arguments.  An argument
is the name of a shared argument in ``_ARGS`` or a ``(name, add_argument
kwargs)`` pair of its own.  A handler takes the parsed arguments and returns
an iterable of what it prints; ``main`` prints each value as it comes, a
string as it is and any other value through ``_render`` as text or, with
``--json``, as JSON.  Handlers are lazy, so ``enumerate`` streams one line
per tree and ``verify`` prints each check as it runs.

Exit codes: 0 success, 1 internal error (a defect in the library, not in the
input), 2 usage error, 3 invalid input, 4 resource cap exceeded, 5
verification failure.  A reader that closes stdout early (``| head -1``) ends
the run with exit 0 and nothing on stderr: the rest of the output is dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import factorial
from typing import Iterator, Sequence

from . import bijection, core, egf, parking, prufer, shi, verify

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_CAP = 4
EXIT_VERIFY = 5


class _VerificationFailed(Exception):
    """A check failed after its report was printed; ``main`` exits 5."""


def _render(value, as_json: bool) -> str:
    if isinstance(value, core.HyperTree):
        if as_json:
            return json.dumps({"n": value.n, "r": value.r, "edges": value.edges})
        return core.format_tree(value)
    if isinstance(value, core.Matching):
        return json.dumps(value.blocks) if as_json else core.format_matching(value)
    if isinstance(value, prufer.PruferCode):
        return json.dumps(value.entries) if as_json else prufer.format_code(value)
    if as_json or isinstance(value, bool):
        return json.dumps(value)
    return parking.format_sequence(value) if isinstance(value, tuple) else str(value)


# ---------------------------------------------------------------------------
# handlers whose text and JSON shapes differ


def _cmd_count(args) -> Iterator[str]:
    formula = brute = None
    if args.method != "brute":
        formula = core.count_spanning_trees_formula(args.n, args.r)
    if args.method != "formula":
        brute = sum(1 for _ in core.enumerate_spanning_trees(args.n, args.r, cap=args.cap))
    if args.json:
        yield json.dumps({"n": args.n, "r": args.r, "formula": formula, "brute": brute})
        return
    counts = {"formula": formula, "brute": brute}
    if args.method == "both":
        counts["agree"] = _render(formula == brute, False)
    yield " ".join(f"{name}={value}" for name, value in counts.items() if value is not None)


def _cmd_park_enumerate(args):
    seqs = parking.enumerate_parking(args.k, args.r, cap=args.cap)
    return [list(seqs)] if args.json else seqs


def _cmd_egf(args) -> Iterator[str]:
    # checked before any row is printed, so invalid arguments print nothing
    report = egf.verify_functional_equation(args.r, args.order) if args.verify else None
    rows = []
    for i, t in enumerate(egf.egf_rooted_trees(args.r, args.order)):
        c = Fraction(t, factorial(i))
        rows.append({"n": i, "coefficient": f"{c.numerator}/{c.denominator}", "t": t})
    verdict = report and (
        "ok" if report.ok
        else f"mismatch at {report.first_mismatch}: {report.lhs} != {report.rhs}"
    )
    if args.json:  # with --verify, one object holding the rows and the verdict
        yield json.dumps({"rows": rows, "functional_equation": verdict} if report else rows)
    else:
        yield from (f"{row['n']}: {row['coefficient']} t={row['t']}" for row in rows)
        if report:
            yield f"functional-equation r={args.r} order={args.order}: {verdict}"
    if report and not report.ok:
        raise _VerificationFailed


def _cmd_shi_regions(args) -> list[str]:
    found = shi.iter_regions(args.k, args.r, cap=args.cap)
    rows = [
        (
            "".join("+" if s > 0 else "-" for s in reg.signs),
            [f"{x.numerator}/{x.denominator}" for x in reg.witness],
        )
        for reg in (found if args.witnesses else ())
    ]
    count = len(rows) + sum(1 for _ in found)  # without --witnesses, no region is kept
    if args.json:
        payload = {"k": args.k, "r": args.r, "count": count}
        if args.witnesses:
            payload["regions"] = [{"signs": signs, "witness": point} for signs, point in rows]
        return [json.dumps(payload)]
    return [str(count), *(f"{signs} {' '.join(point)}" for signs, point in rows)]


def _cmd_verify(args) -> Iterator[str]:
    total = failures = 0
    for name in verify.SUITES if args.suite == "all" else [args.suite]:
        check, sizes = verify.SUITES[name]
        if name in ("counts", "fibers", "prufer"):  # (n, r) sizes, bounded by --max-n
            sizes = [(n, r) for n, r in sizes if n <= args.max_n]
        for ok, text in check(sizes):
            total += 1
            failures += not ok
            yield f"{'PASS' if ok else 'FAIL'} {text}"
    yield f"total={total} failures={failures}"
    if failures:
        raise _VerificationFailed


# ---------------------------------------------------------------------------
# the command table


_ARGS = {
    "json": dict(action="store_true", help="emit JSON output"),
    "cap": dict(type=int, default=core.DEFAULT_CAP, help="enumeration search cap"),
    **dict.fromkeys(("n", "r", "k"), dict(type=int, required=True)),
    **dict.fromkeys(("tree", "matching", "code", "seq"), dict(required=True)),
}

_GROUPS = {
    "matching": "block matchings",
    "prufer": "tree codes relative to a matching",
    "park": "r-parking functions",
    "bij": "tree/parking bijection",
    "shi": "extended Shi arrangement",
}

# The order of the rows, and of the arguments in a row, is the order of --help
# and of the usage lines.
_COMMANDS = (
    ("count", "count spanning trees", _cmd_count,
     ("json", "cap", "n", "r",
      ("method", dict(choices=("formula", "brute", "both"), default="formula")))),
    ("enumerate", "list all spanning trees",
     lambda a: core.enumerate_spanning_trees(a.n, a.r, cap=a.cap),
     ("json", "cap", "n", "r")),
    ("matching extract", "matching a tree arises from",
     lambda a: [core.extract_matching(core.parse_tree(a.tree, a.n, a.r))],
     ("json", "n", "r", "tree")),
    ("matching count", "count block matchings",
     lambda a: [core.count_matchings_formula(a.m, a.b)],
     ("json", ("m", dict(type=int, required=True, help="ground-set size")),
      ("b", dict(type=int, required=True, help="block size")))),
    ("prufer encode", "tree to code",
     lambda a: [prufer.encode(core.parse_tree(a.tree, a.n, a.r),
                              core.parse_matching(a.matching, a.r - 1))],
     ("json", "n", "r", "matching", "tree")),
    ("prufer decode", "code to tree",
     lambda a: [prufer.decode(prufer.parse_code(a.code, a.n),
                              core.parse_matching(a.matching, a.r - 1), a.r)],
     ("json", "n", "r", "matching", "code")),
    ("park check", "sorted-rearrangement test",
     lambda a: [parking.is_r_parking(parking.parse_sequence(a.seq), a.r)],
     ("json", "seq", "r")),
    ("park simulate", "car-parking simulation (r=1)",
     lambda a: [parking.simulate_parking(parking.parse_sequence(a.seq))],
     ("json", "seq")),
    ("park count", "closed-form count",
     lambda a: [parking.count_parking(a.k, a.r)],
     ("json", "k", "r")),
    ("park enumerate", "list all parking functions", _cmd_park_enumerate,
     ("json", "cap", "k", "r")),
    ("bij to-park", "tree to parking function",
     lambda a: [bijection.tree_to_parking(core.parse_tree(a.tree, a.n, a.r + 1))],
     ("json", "tree", "n",
      ("r", dict(type=int, required=True, help="parking parameter; uniformity is r+1")))),
    ("bij to-tree", "parking function to tree",
     lambda a: [bijection.parking_to_tree(parking.parse_sequence(a.seq), a.r)],
     ("json", "seq", "r")),
    ("egf", "rooted-tree series coefficients", _cmd_egf,
     ("json", "r", ("order", dict(type=int, default=12)),
      ("verify", dict(action="store_true", help="also check the functional equation")))),
    ("shi regions", "count regions, optionally with witnesses", _cmd_shi_regions,
     ("json", "k", "r", ("witnesses", dict(action="store_true")),
      ("cap", dict(type=int, default=shi.DEFAULT_REGION_CAP, help="region cap")))),
    ("verify", "cross-theorem verification suites", _cmd_verify,
     (("suite", dict(choices=["all", *verify.SUITES], default="all")),
      ("max-n", dict(type=int, default=9)))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertrees",
        description="Spanning trees of complete uniform hypergraphs and friends.",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, handler, arguments in _COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            p = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = p.add_subparsers(dest="subcommand", required=True)
        p = subparsers[group].add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        for arg in arguments:
            arg_name, kwargs = (arg, _ARGS[arg]) if isinstance(arg, str) else arg
            p.add_argument(f"--{arg_name}", **kwargs)
    return parser


def _attach_text_values(argv: Sequence[str]) -> list[str]:
    """Write ``--seq -1,0`` as ``--seq=-1,0``.  Argparse takes a separate
    value that starts with "-" for an option, so the library never sees it;
    no option here starts with a digit, so "-" then a digit is a value."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_text_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:  # exact answers may have more digits than int -> str allows
        sys.set_int_max_str_digits(0)
    try:
        for value in args.func(args):
            # only commands with --json yield values that are not strings
            print(value if isinstance(value, str) else _render(value, args.json))
        sys.stdout.flush()  # a closed pipe shows here, not at the interpreter's exit
    except BrokenPipeError:  # the reader has all it wants; fd 1 to devnull, so exit flushes no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except _VerificationFailed:
        return EXIT_VERIFY
    except core.ResourceCapError as exc:
        print(f"error: resource-cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except core.ValidationError as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except core.InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
