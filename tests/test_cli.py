import json

import pytest

from hypertrees.cli import main
from hypertrees.core import parse_matching, parse_tree


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

    def test_resource_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "count", "--n", "13", "--r", "3", "--method", "brute", "--cap", "10")
        assert code == 4 and "resource-cap" in err

    def test_verify_single_suite_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "shi")
        code2, out2, _ = run(capsys, "verify", "--suite", "shi")
        assert code1 == code2 == 0
        assert out1 == out2
        assert all(line.startswith("PASS") for line in out1.splitlines()[:-1])
