import hashlib
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from io import StringIO
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertrees import cli, core, egf, parking, shi, verify
from hypertrees.cli import main
from hypertrees.core import parse_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "3", "--n", "7", "--method", "both")
        assert code == 0
        assert out == "formula=735 brute=735 agree=true\n"

    def test_formula_only(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "4", "--n", "7")
        assert code == 0
        assert out == "formula=70\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--r", "3", "--n", "5", "--method", "both", "--json")
        assert json.loads(out) == {"n": 5, "r": 3, "formula": 15, "brute": 15}
        assert code == 0


class TestBigIntegers:
    # both answers have more digits than the interpreter's default int -> str
    # limit (4300); Decimal parses them without that limit
    def test_text_and_json(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "count", "--n", "4001", "--r", "3")
        assert (code, err) == (0, "")
        assert out.startswith("formula=") and len(out) > 4300
        assert int(Decimal(out[len("formula="):])) == core.count_spanning_trees_formula(4001, 3)
        code, out, err = run(capsys, "park", "count", "--k", "3000", "--r", "2", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out, parse_int=Decimal) == parking.count_parking(3000, 2)
        assert sys.get_int_max_str_digits() == limit


class TestEnumerate:
    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--r", "3")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 15
        assert lines[0] == "1,2,3;1,4,5"

    def test_json_round_trips_through_parser(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "5", "--r", "3", "--json")
        for line in out.splitlines():
            obj = json.loads(line)
            text = ";".join(",".join(map(str, e)) for e in obj["edges"])
            t = parse_tree(text, obj["n"], obj["r"])
            assert t.edges == tuple(tuple(e) for e in obj["edges"])

    @pytest.mark.parametrize("n,r,first", [
        (10, 4, b"1,2,3,4;1,5,6,7;1,8,9,10\n"),  # 28,000 lines, far past a pipe buffer
        (5, 3, b""),  # 15 lines, still in stdout's buffer when the run ends
    ], ids=["28000-lines", "15-lines"])
    def test_closed_pipe_exits_0_quietly(self, n, r, first):
        # the reader takes the first line, or none, and closes; stdout block-buffered
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        cmd = [sys.executable, "-m", "hypertrees.cli", "enumerate", "--n", str(n), "--r", str(r)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**env, "PYTHONPATH": path}) as proc:
            line = proc.stdout.readline() if first else b""
            proc.stdout.close()
            err = proc.stderr.read()
        assert (line, proc.returncode, err) == (first, 0, b"")


class TestMatching:
    def test_extract(self, capsys):
        code, out, _ = run(
            capsys, "matching", "extract", "--n", "7", "--r", "3",
            "--tree", "1,2,3;3,4,7;3,5,6",
        )
        assert code == 0 and out == "1,2|3,4|5,6\n"

    def test_count(self, capsys):
        code, out, _ = run(capsys, "matching", "count", "--m", "6", "--b", "3")
        assert code == 0 and out == "10\n"


class TestPrufer:
    def test_decode_example(self, capsys):
        code, out, _ = run(
            capsys, "prufer", "decode", "--n", "9", "--r", "3",
            "--matching", "1,2|3,4|5,6|7,8", "--code", "3,3,4",
        )
        assert code == 0 and out == "1,2,3;3,4,9;3,5,6;4,7,8\n"

    def test_encode_inverts(self, capsys):
        code, out, _ = run(
            capsys, "prufer", "encode", "--n", "9", "--r", "3",
            "--matching", "1,2|3,4|5,6|7,8", "--tree", "1,2,3;3,4,9;3,5,6;4,7,8",
        )
        assert code == 0 and out == "3,3,4\n"

    def test_mismatch_is_invalid_input(self, capsys):
        code, _, err = run(
            capsys, "prufer", "encode", "--n", "5", "--r", "3",
            "--matching", "1,3|2,4", "--tree", "1,2,5;3,4,5",
        )
        assert code == 3 and "invalid-input" in err

    @pytest.mark.parametrize(
        "command", ["decode --code 3,3,4", "encode --tree 1,2,3;3,4,9;3,5,6;4,7,8"],
        ids=["decode", "encode"],
    )
    def test_block_size_comes_from_r(self, capsys, command):
        # blocks are read at size r - 1 = 2, so the first block is the wrong one
        argv = f"prufer {command} --n 9 --r 3 --matching 1,2,3|4,5,6|7,8".split()
        assert run(capsys, *argv) == (
            3, "", "error: invalid-input: block (1, 2, 3) has size 3, expected 2\n"
        )


def _printed(capsys, *argv) -> str:
    """The one line a successful command prints, without its newline."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    return out.removesuffix("\n")


@pytest.mark.parametrize("n,r", [(5, 3), (7, 4), (1, 2), (1, 3), (1, 4)])
def test_cli_reads_back_what_it_prints(capsys, n, r):
    # matching extract -> prufer encode -> prufer decode through printed text
    size = ["--n", str(n), "--r", str(r)]
    for t in core.enumerate_spanning_trees(n, r):
        tree = core.format_tree(t)
        matching = _printed(capsys, "matching", "extract", *size, "--tree", tree)
        code = _printed(capsys, "prufer", "encode", *size, "--matching", matching, "--tree", tree)
        decoded = _printed(capsys, "prufer", "decode", *size, "--matching", matching, "--code", code)
        assert decoded == tree


class TestPark:
    def test_check(self, capsys):
        assert run(capsys, "park", "check", "--seq", "1,0,0", "--r", "2")[1] == "true\n"
        assert run(capsys, "park", "check", "--seq", "0,3", "--r", "2")[1] == "false\n"

    def test_simulate(self, capsys):
        assert run(capsys, "park", "simulate", "--seq", "2,0,1")[1] == "true\n"
        assert run(capsys, "park", "simulate", "--seq", "1,1,1")[1] == "false\n"

    def test_count(self, capsys):
        assert run(capsys, "park", "count", "--k", "3", "--r", "2")[1] == "49\n"

    def test_enumerate_json(self, capsys):
        _, out, _ = run(capsys, "park", "enumerate", "--k", "2", "--r", "2", "--json")
        assert json.loads(out) == [[0, 0], [0, 1], [0, 2], [1, 0], [2, 0]]


class TestBij:
    def test_to_park(self, capsys):
        code, out, _ = run(
            capsys, "bij", "to-park", "--tree", "3,4,7;5,6,7;1,2,3", "--n", "7", "--r", "2"
        )
        assert code == 0 and out == "1,0,0\n"

    def test_to_tree(self, capsys):
        code, out, _ = run(capsys, "bij", "to-tree", "--seq", "1,0,0", "--r", "2")
        assert code == 0 and out == "1,2,3;3,4,7;5,6,7\n"


class TestEgf:
    def test_coefficients_and_verify(self, capsys):
        code, out, _ = run(capsys, "egf", "--r", "3", "--order", "5", "--verify")
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "3: 1/2 t=3"
        assert lines[5] == "5: 5/8 t=75"
        assert lines[-1] == "functional-equation r=3 order=5: ok"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_invalid_verify_prints_no_rows(self, capsys, json_flag):
        code, out, err = run(capsys, "egf", "--r", "3", "--order", "0", "--verify", *json_flag)
        assert code == 3 and out == ""
        assert "invalid-input" in err

    @pytest.mark.parametrize("order", ["-1", "-5"])
    def test_negative_order_is_named(self, capsys, order):
        code, out, err = run(capsys, "egf", "--r", "3", "--order", order)
        assert (code, out) == (3, "")
        assert err == "error: invalid-input: need r >= 2 and order >= 0\n"

    def test_verify_mismatch_exits_5(self, capsys, monkeypatch):
        report = egf.FunctionalEquationReport(False, 5, Fraction(19, 30), Fraction(5, 8))
        monkeypatch.setattr(egf, "verify_functional_equation", lambda r, order: report)
        code, out, _ = run(capsys, "egf", "--r", "3", "--order", "5", "--verify")
        assert code == 5
        assert out.splitlines()[-1] == "functional-equation r=3 order=5: mismatch at 5: 19/30 != 5/8"

    def test_json_verify_is_one_object(self, capsys):
        code, out, _ = run(capsys, "egf", "--r", "3", "--order", "5", "--json", "--verify")
        doc = json.loads(out)
        assert code == 0 and doc["functional_equation"] == "ok"
        assert doc["rows"][5] == {"n": 5, "coefficient": "5/8", "t": 75}

    def test_json_verify_mismatch_exits_5(self, capsys, monkeypatch):
        report = egf.FunctionalEquationReport(False, 5, Fraction(19, 30), Fraction(5, 8))
        monkeypatch.setattr(egf, "verify_functional_equation", lambda r, order: report)
        code, out, _ = run(capsys, "egf", "--r", "3", "--order", "5", "--json", "--verify")
        assert code == 5
        assert json.loads(out)["functional_equation"] == "mismatch at 5: 19/30 != 5/8"


class TestShi:
    def test_regions_count(self, capsys):
        code, out, _ = run(capsys, "shi", "regions", "--k", "3", "--r", "2")
        assert code == 0 and out == "49\n"

    def test_witness_lines(self, capsys):
        _, out, _ = run(capsys, "shi", "regions", "--k", "2", "--r", "1", "--witnesses")
        lines = out.splitlines()
        assert lines[0] == "3"
        assert len(lines) == 4
        for line in lines[1:]:
            signs, *point = line.split()
            assert set(signs) <= {"+", "-"} and len(point) == 2


class TestErrorsAndDeterminism:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_malformed_payload(self, capsys):
        code, _, err = run(capsys, "matching", "extract", "--n", "7", "--r", "3", "--tree", "1,2")
        assert code == 3 and "invalid-input" in err

    @pytest.mark.parametrize(
        "command,message",
        [
            ("park check --seq -1,0 --r 1", "negative entry -1"),
            ("park check --se -1,0 --r 1", "negative entry -1"),
            ("park simulate --seq -1,0", "negative entry -1"),
            ("bij to-tree --seq -1,0 --r 1", "negative entry -1"),
            ("prufer decode --n 9 --r 3 --matching 1,2|3,4|5,6|7,8 --code -3,3,4",
             "code entry -3 outside [1, 9]"),
        ],
        ids=["park-check", "park-check-abbreviated", "park-simulate", "bij-to-tree",
             "prufer-decode"],
    )
    def test_value_starting_with_dash_reaches_the_library(self, capsys, command, message):
        # argparse alone takes "-1,0" for an option and exits 2
        code, out, err = run(capsys, *command.split())
        assert (code, out, err) == (3, "", f"error: invalid-input: {message}\n")

    def test_missing_value_is_still_a_usage_error(self, capsys):
        assert run(capsys, "park", "check", "--seq", "--r", "1")[0] == 2

    def test_dash_letter_is_a_usage_error(self, capsys):
        # only "-" then a digit is taken for a value
        assert run(capsys, "park", "check", "--seq", "-x", "--r", "1")[0] == 2

    def test_help_after_a_flag_still_prints_help(self, capsys):
        code, out, _ = run(capsys, "count", "--json", "-h")
        assert code == 0 and out.startswith("usage: hypertrees count")

    def test_resource_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "count", "--n", "13", "--r", "3", "--method", "brute", "--cap", "10")
        assert code == 4 and "resource-cap" in err

    @pytest.mark.parametrize(
        "command,message",
        [
            ("shi regions --k 46 --r 1", "region count 47^45 exceeds cap 50000"),
            ("park enumerate --k 300000 --r 1", "search space 300000^300000 exceeds cap 100000000"),
            ("enumerate --n 200001 --r 3",
             "search space C(C(200001,3),100000) exceeds cap 100000000"),
        ],
    )
    def test_huge_search_refuses_before_it_starts(self, capsys, command, message):
        # the count is compared with the cap by its form, without building it
        assert run(capsys, *command.split()) == (4, "", f"error: resource-cap: {message}\n")

    def test_verify_single_suite_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "shi")
        code2, out2, _ = run(capsys, "verify", "--suite", "shi")
        assert code1 == code2 == 0
        assert out1 == out2
        assert all(line.startswith("PASS") for line in out1.splitlines()[:-1])


class TestVerifyStreaming:
    def test_lines_before_an_error_stay_printed(self, capsys, monkeypatch):
        def suite(_sizes):
            yield True, "x"
            raise core.ResourceCapError("cap reached")

        monkeypatch.setitem(verify.SUITES, "counts", (suite, verify.SUITES["counts"][1]))
        code, out, err = run(capsys, "verify", "--suite", "counts")
        assert (code, out) == (4, "PASS x\n")
        assert "resource-cap" in err

    def test_wrong_lagrange_coefficient_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(egf, "lagrange_coefficient", lambda r, k: Fraction(0))
        code, out, _ = run(capsys, "verify", "--suite", "egf")
        assert code == 5
        assert "FAIL egf-lagrange k=1 value=0" in out.splitlines()
        assert out.endswith("total=15 failures=4\n")

    def test_witness_outside_its_region_fails_the_row(self, capsys, monkeypatch):
        # x = 0 lies on every hyperplane x_i - x_j = 0, so each row's first
        # region fails its witness check while every count stays right
        found = shi.iter_regions

        def iter_regions(k, r, cap):
            first, *rest = found(k, r, cap)
            return [replace(first, witness=(Fraction(0),) * k), *rest]

        monkeypatch.setattr(shi, "iter_regions", iter_regions)
        code, out, _ = run(capsys, "verify", "--suite", "shi")
        assert code == 5
        assert "FAIL shi-triangle k=4 r=2 regions=729 parking=729 trees=729" in out.splitlines()
        assert out.endswith("total=8 failures=8\n")

    @pytest.mark.parametrize("field", ["intervals", "bounded"])
    def test_region_fields_that_disagree_fail_the_row(self, capsys, monkeypatch, field):
        # the first region takes the second's intervals, and so its label, or
        # flips its bounded flag: every count stays right, so each row fails
        # with its text unchanged
        _, passing, _ = run(capsys, "verify", "--suite", "shi")
        found = shi.iter_regions

        def iter_regions(k, r, cap):
            first, second, *rest = found(k, r, cap)
            changed = {"intervals": second.intervals, "bounded": not first.bounded}[field]
            return [replace(first, **{field: changed}), second, *rest]

        monkeypatch.setattr(shi, "iter_regions", iter_regions)
        code, out, _ = run(capsys, "verify", "--suite", "shi")
        assert code == 5
        rows = passing.splitlines()[:-1]
        assert out.splitlines() == [f"FAIL{row[4:]}" for row in rows] + ["total=8 failures=8"]
        assert all(row.startswith("PASS shi-triangle") for row in rows)

    def test_mirrored_labelling_fails_every_row(self, capsys, monkeypatch):
        # c > 0 adding to label j keeps the labels distinct r-parking functions
        # and their trees distinct, but the dominant chamber then carries
        # weakly increasing labels: each row fails with its text unchanged
        _, passing, _ = run(capsys, "verify", "--suite", "shi")

        def mirrored(region):
            label = [0] * len(region.witness)
            for (i, j), c in zip(combinations(range(len(label)), 2), region.intervals):
                label[j if c > 0 else i] += abs(c)
            return tuple(label)

        monkeypatch.setattr(shi, "label", mirrored)
        code, out, _ = run(capsys, "verify", "--suite", "shi")
        assert code == 5
        rows = passing.splitlines()[:-1]
        assert out.splitlines() == [f"FAIL{row[4:]}" for row in rows] + ["total=8 failures=8"]

    def test_counts_stop_where_the_cap_refuses(self, capsys):
        # r=3, n=11 searches C(165,5) > core.DEFAULT_CAP edge sets, so the r=3
        # sizes end at n=10 and the suite still reaches its total line
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-n", "11")
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "total=21 failures=0"
        assert "PASS counts r=3 n=10 brute=0 formula=0" in lines
        assert not any(line.startswith("PASS counts r=3 n=11") for line in lines)
        assert "PASS counts r=4 n=11 brute=0 formula=0" in lines

    def test_counts_sizes_are_fixed_past_the_cap(self, capsys):
        # r=4, n=13 searches C(715,4) > core.DEFAULT_CAP edge sets: a larger
        # --max-n adds no row past n=10 for r=3 and n=12 for r=4
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-n", "30")
        lines = out.splitlines()
        assert (code, len(lines), lines[-1]) == (0, 23, "total=22 failures=0")
        assert sum(line.startswith("PASS counts r=3 ") for line in lines) == 10
        assert lines[-2] == "PASS counts r=4 n=12 brute=0 formula=0"


# (exit code, sha256 of stdout) of every subcommand in text and JSON mode and of
# the usage (2), invalid-input (3) and resource-cap (4) exits, all taken before
# the CLI became table-driven, except the `count --r 2` and `count --r 1` rows,
# set when uniformity 2 joined the domain, the `shi regions --k 0` and
# `--k -1` rows, set when the Shi side took k = 0, the `matching extract
# --n 1` rows, set when the tree side took k = 0, and the `prufer encode
# --n 1` and `prufer decode --n 1` rows, set when `--matching` took its block
# size from `--r`, the `egf --order 0` rows at `--r 1` and `--r 0`, set
# when the rooted-tree series checked r at n = 0, and the `egf --r 4 --order 7
# --json --verify` row, set when `--json --verify` became one JSON object
# holding the rows and the functional-equation verdict, and the `enumerate
# --n 10 --r 4` row (28,000 trees), taken from the union-find enumerator
# before the search passed component labels down instead, and the `verify
# --suite fibers` and `--suite prufer` rows at `--max-n 5`, set to cover the
# rows each suite skips when n > max-n.
EMPTY = hashlib.sha256(b"").hexdigest()
T7 = "'1,2,3;3,4,7;3,5,6'"
T9 = "'1,2,3;3,4,9;3,5,6;4,7,8'"
M9 = "'1,2|3,4|5,6|7,8'"
GOLDEN = [
    ("count --r 3 --n 7 --method both",
     0, "a0bb5cdf2e1e1a71d5fcb3db649719106d00b0b9a258f6a6264cc4169ff50eea"),
    ("count --r 3 --n 7 --method both --json",
     0, "4ec6ef6ccea850e19ff7b0395b0d1abdc40d0ad019cb8516190b05b7f22a84f6"),
    ("count --r 4 --n 7", 0, "5ee87a96d7a538c192eefbd47587273305973c1745d7cc1ec32a46b8b3b36a04"),
    ("count --r 4 --n 7 --json",
     0, "67388af28a90cc476f2e48c526dc7ca9e22e95651120cfad765ddd0ede707f95"),
    ("count --r 2 --n 3", 0, "d352a76a4f63d312ea4ea90acadc731fe2af5a87f06fd04ee01a34e453be9a41"),
    ("count --r 3 --n 6 --method brute",
     0, "09b5796880ecb5ed7e2451bedc3eef42f6ac3d61fc25b5aefe8004d20b40d8ea"),
    ("count --r 3 --n 6 --method brute --json",
     0, "42b53c63d899535cd8e698c2842f2a058adc8d1c2226b41d29601f858e31d7ce"),
    ("enumerate --n 5 --r 3",
     0, "7219dbbb1e3df8eaf0e1a912047314d50737e678a4eaac627610bb6b8ad1efec"),
    ("enumerate --n 7 --r 3",
     0, "a4460c205ca139051a20457402d2ca3e05530398128054c13b6ddac262c7e5f2"),
    ("enumerate --n 7 --r 4 --json",
     0, "e8e5920f7eb267d6dee91aa03f08c66eb058eb1b9dd599ff731da9e712a6195c"),
    ("enumerate --n 10 --r 4",
     0, "d9667e8d4240fdc408d08ce16e2b33bd8e60768679c8ef03c81fdd5ec35a1a52"),
    ("enumerate --n 4 --r 3", 0, EMPTY),
    (f"matching extract --n 7 --r 3 --tree {T7}",
     0, "f96527dea06e17973b755456245c3b0f4031266bbf57855236c40a97c721762f"),
    (f"matching extract --n 7 --r 3 --tree {T7} --json",
     0, "e9fa093a1a1570046d661b1ac69f1e1fd9520f1c906865b0d87c58af8faa1ac6"),
    ("matching extract --n 1 --r 3 --tree ''",
     0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("matching extract --n 1 --r 3 --tree '' --json",
     0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("prufer encode --n 1 --r 3 --matching '' --tree ''",
     0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("prufer encode --n 1 --r 3 --matching '' --tree '' --json",
     0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("prufer decode --n 1 --r 3 --matching '' --code ''",
     0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("prufer decode --n 1 --r 3 --matching '' --code '' --json",
     0, "0bc9ac974b9403936ff15d570771072739730124485c5872117ad2b0ac65a98a"),
    ("matching count --m 6 --b 3",
     0, "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469"),
    ("matching count --m 6 --b 3 --json",
     0, "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469"),
    (f"prufer encode --n 9 --r 3 --matching {M9} --tree {T9}",
     0, "7f1a85ee543f033d5105a9a38aff5c6b2722595572dc81c56ee4058ea01d5d83"),
    (f"prufer encode --n 9 --r 3 --matching {M9} --tree {T9} --json",
     0, "1b54ff72c3886d74abfadcb78b796d01b7e55879be4bdecbe3512e008c0ac6ab"),
    (f"prufer decode --n 9 --r 3 --matching {M9} --code 3,3,4",
     0, "a22308f95bbf3ec692f82151c062a37cfa16cf5b993789c898518394d4af4385"),
    (f"prufer decode --n 9 --r 3 --matching {M9} --code 3,3,4 --json",
     0, "6787925fcdffc92a8066b13e2623edef942199de33eea96fe7271befee400faa"),
    ("park check --seq 1,0,0 --r 2",
     0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("park check --seq 0,3 --r 2 --json",
     0, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("park simulate --seq 2,0,1",
     0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("park simulate --seq 1,1,1 --json",
     0, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("park count --k 3 --r 2",
     0, "6169555d9248be7e184f52250129b0d66c9932af74f4ac7bc716c20013fca362"),
    ("park count --k 3 --r 2 --json",
     0, "6169555d9248be7e184f52250129b0d66c9932af74f4ac7bc716c20013fca362"),
    ("park enumerate --k 3 --r 1",
     0, "c544d153fd911a8f873281ab7c7ab3f6a25af7293fb80b761c627345e81ed7d2"),
    ("park enumerate --k 3 --r 1 --json",
     0, "23981ec920c47b4bb49e68c417508db86b9ad9b53d7027c2092f39a0ed3ed96e"),
    ("bij to-park --tree '3,4,7;5,6,7;1,2,3' --n 7 --r 2",
     0, "fde3a3425e008682da9a7108c0dcceea77890f09ce90700541448052977ea2e3"),
    ("bij to-park --tree '3,4,7;5,6,7;1,2,3' --n 7 --r 2 --json",
     0, "412f417b2a373564cada186331da5a4094712c469101b847a012d5f80f74449b"),
    ("bij to-tree --seq 1,0,0 --r 2",
     0, "72314e8026dbb1ae26edd39e8693ec627e5d706eaa0fa5054dea0dde4e203ffb"),
    ("bij to-tree --seq 1,0,0 --r 2 --json",
     0, "615c78f7e136d681c6bbd5664bbfe5605b8a430cdbbd510cb668465ac458cd79"),
    ("egf --r 3 --order 9 --verify",
     0, "3f4706f68ad0229427d7e78368f01fd90d3152d3ce14d409e1bd2d7e8feaa772"),
    ("egf --r 4 --order 7 --json",
     0, "a1bcdfecaa46b95da5b4f3daadb3ebfd5b55a24cdb58e681a480589f06014c26"),
    ("egf --r 4 --order 7 --json --verify",
     0, "da8e0d02db15f3643bfa0838d83fba2d4171b13321d6ef4e0af8f8f7f4349870"),
    ("shi regions --k 3 --r 2",
     0, "6169555d9248be7e184f52250129b0d66c9932af74f4ac7bc716c20013fca362"),
    ("shi regions --k 3 --r 2 --witnesses",
     0, "57298ed2a688d47b7f2e3acac6c0b9d937226fb73685246663fe887d4aada217"),
    ("shi regions --k 3 --r 2 --json",
     0, "947920c82b72c4ef8cce6202b72d0db496f88a53a3619c3bb359be6d552045f7"),
    ("shi regions --k 2 --r 2 --witnesses --json",
     0, "b4a2bebe77ae4d5708ff92018046c87db9af9a54a188b92330402ed7a48b8efe"),
    ("shi regions --k 0 --r 1",
     0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("verify --suite all --max-n 9",
     0, "9b394e14701694efb2b362c711184ff48d69eed624a54eabf012c49c029c48e0"),
    ("verify --suite parking --max-n 5",
     0, "b431448a08f2b8adcc1152eb3c643d5dff97a245e7b39393235b75a3d33d1465"),
    ("verify --suite fibers --max-n 5",
     0, "f40f2686a677343a6ba855aa92ecc039ec6160a7a0da936db8b519644b985bca"),
    ("verify --suite prufer --max-n 5",
     0, "d57ac196c53bf3a1dbabea7eab1f2f38f60dd5c49b470e7675d884f41a481204"),
    ("", 2, EMPTY),
    ("frobnicate", 2, EMPTY),
    ("count --r 3", 2, EMPTY),
    ("verify --suite bogus", 2, EMPTY),
    ("prufer", 2, EMPTY),
    ("matching extract --n 7 --r 3 --tree 1,2", 3, EMPTY),
    ("count --r 1 --n 3", 3, EMPTY),
    (f"prufer decode --n 9 --r 3 --matching {M9} --code 3,a", 3, EMPTY),
    ("prufer encode --n 5 --r 3 --matching '1,3|2,4' --tree '1,2,5;3,4,5'", 3, EMPTY),
    ("park check --seq x --r 1", 3, EMPTY),
    ("park enumerate --k 2 --r 0", 3, EMPTY),
    ("egf --r 3 --order 0 --verify", 3, EMPTY),
    ("egf --r 3 --order 0 --verify --json", 3, EMPTY),
    ("egf --r 1 --order 0", 3, EMPTY),
    ("egf --r 0 --order 0 --json", 3, EMPTY),
    ("shi regions --k -1 --r 1", 3, EMPTY),
    ("matching extract --n 7 --r 3 --tree '1,x;2'", 3, EMPTY),
    ("bij to-tree --seq 3,3 --r 1", 3, EMPTY),
    ("count --n 13 --r 3 --method brute --cap 10", 4, EMPTY),
    ("enumerate --n 9 --r 3 --cap 100", 4, EMPTY),
    ("enumerate --n 9 --r 3 --cap 100 --json", 4, EMPTY),
    ("park enumerate --k 8 --r 3 --cap 100", 4, EMPTY),
    ("shi regions --k 4 --r 2 --cap 50", 4, EMPTY),
]


@pytest.mark.parametrize("command,exit_code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, command, exit_code, digest):
    code, out, _ = run(capsys, *shlex.split(command))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


@pytest.mark.parametrize("command", [g[0] for g in GOLDEN if "--json" in g[0]])
def test_json_output_lines_are_json(capsys, command):
    _, out, _ = run(capsys, *shlex.split(command))
    for line in out.splitlines():
        json.loads(line)


# texts that no parser here takes as written, and a few that it does
MALFORMED = (
    "", " ", "x", "-", "--", ",", ";", "|", "1,,2", "1;;2", "1||2", "1,2,",
    "-1", "1.5", "1e3", "0x10", "nan", "\u0661\u0662", "9" * 40, "1,2,3", "1,x;2",
    "1,2,3;3,4,7;3,5,6", "1,2|3,4", "1,2|2,3", "2,2,2", "0,0",
)
ERROR_KIND = {3: "invalid-input", 4: "resource-cap"}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_command_answers_or_refuses(data):
    # any argv a row takes, with options dropped at random, ends in an answer
    # or a documented exit; --cap is always passed so no draw searches long
    path, _, _, arguments = data.draw(
        st.sampled_from([row for row in cli._COMMANDS if row[0] != "verify"])
    )
    rng = data.draw(st.randoms(use_true_random=True))
    argv = path.split()
    for arg in arguments:
        name, kwargs = (arg, cli._ARGS[arg]) if isinstance(arg, str) else arg
        if name == "cap":
            argv += ["--cap", str(data.draw(st.integers(0, 10**4)))]
        elif rng.random() < 0.25:  # dropped
            continue
        elif kwargs.get("action") == "store_true":
            argv.append(f"--{name}")
        elif "choices" in kwargs:
            argv += [f"--{name}", data.draw(st.sampled_from(kwargs["choices"]))]
        elif kwargs.get("type") is int:
            argv += [f"--{name}", str(data.draw(st.integers(-2, 9)))]
        else:
            argv += [f"--{name}", data.draw(st.sampled_from(MALFORMED))]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4, 5}, argv
    if code in ERROR_KIND:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {ERROR_KIND[code]}: "), argv
