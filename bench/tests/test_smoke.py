"""Smoke test of the benchmark at tiny sizes, so the harness cannot rot.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads_and_metrics_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_spec()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks_and_reports_every_metric(name, trace):
    metrics, info, checks = run.measure(name, seed=3, seconds=0.05, trace=trace, scale="tiny")
    assert checks.attempted > 0
    assert checks.failed == 0, checks.errors
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: unit for m, (_, unit) in metrics.items()} == {w["name"]: w["unit"] for w in wanted}
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())
    assert info["items_per_pass"] > 0


def test_trace_counts_repeat_exactly():
    ht = run.import_library()
    workload = workloads.build("oracle-sweep", ht, 0, "tiny")
    tracer = Tracer(run.PACKAGE, run.TRACED, run.ITEMS_OF_RESULT, run.SCANNED)
    tracer.install()
    try:
        passes = [run.run_passes(workload, 0, workloads.Recorder(), tracer)[0] for _ in range(2)]
    finally:
        tracer.uninstall()
    first, second = (p.layers for p in passes)
    counts = [m for m, unit, _ in run.per_layer_spec() if unit != "s" and m in first]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["parking.enumerate_parking.yield_ratio"] == 49 / 125  # (rk+1)^(k-1) of (r(k-1)+1)^k, k=3, r=2
    assert first["core.enumerate_spanning_trees.items"] == 70
    assert not hasattr(ht.prufer.extract_matching, "__wrapped__")


def test_tracer_self_time_excludes_wrapped_children(monkeypatch):
    pkg, a, b = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))

    def inner():
        time.sleep(0.05)

    def gen():
        time.sleep(0.03)
        yield 1
        time.sleep(0.03)
        yield 2

    def outer():
        time.sleep(0.01)
        b.inner()
        return list(b.gen())

    a.inner, a.gen = inner, gen
    b.inner, b.gen, b.outer = inner, gen, outer  # as ``from .a import inner, gen`` binds them
    for module in (pkg, a, b):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer("fakepkg", {"a": ("inner", "gen"), "b": ("outer",)})
    tracer.install()
    try:
        assert b.outer() == [1, 2]
    finally:
        tracer.uninstall()
    assert b.inner is inner and a.gen is gen
    inner_s, gen_s, outer_s = (tracer.totals(k) for k in ("a.inner", "a.gen", "b.outer"))
    assert (inner_s.calls, gen_s.calls, gen_s.items, outer_s.calls) == (1, 1, 2, 1)
    assert inner_s.self_s >= 0.05 and gen_s.self_s >= 0.06
    assert 0.01 <= outer_s.self_s < 0.05


def test_latency_of_an_op_is_its_median_over_passes():
    ops = [i * 1e-5 for i in range(100)]
    stalled = list(ops)
    stalled[3] = 1.0  # another process held the CPU during one op of one pass
    passes = [run.Pass(1.0, 100, 100, 1.0, None, array("d", lat)) for lat in (ops, stalled, ops)]
    p50, tail, percentile = run.latency_stats(passes)
    assert (p50, tail, percentile) == pytest.approx((0.49, 0.89, 90.0))


def test_times_are_scaled_by_the_reference_loop(monkeypatch):
    monkeypatch.setattr(run, "time_reference", lambda: 4 * run.REFERENCE_S)  # a slow machine
    metrics, info, _ = run.measure("large-k-roundtrip", seed=3, seconds=0.05, trace=False,
                                   scale="tiny")
    assert info["reference_ms"] == pytest.approx(4e3 * run.REFERENCE_S)
    assert metrics["items_per_s"][0] == pytest.approx(4 * info["unscaled_items_per_s"], rel=1e-3)


def test_seed_alone_fixes_the_large_k_inputs():
    sizes = workloads.SIZES["large-k-roundtrip"]["full"]
    one = workloads.digest(workloads.generate_large_k(11, sizes))
    assert one == workloads.digest(workloads.generate_large_k(11, sizes))
    assert one != workloads.digest(workloads.generate_large_k(12, sizes))


def test_generated_inputs_are_valid():
    for case in workloads.generate_large_k(5, workloads.SIZES["large-k-roundtrip"]["tiny"]):
        if case[0] == "code":
            _, _, r, blocks, entries = case
            flat = sorted(v for b in blocks for v in b)
            assert flat == list(range(1, len(flat) + 1))
            assert all(len(b) == r - 1 for b in blocks) and len(entries) == len(blocks) - 1
            assert all(1 <= s <= len(flat) + 1 for s in entries)
        else:
            _, _, r, a = case
            assert workloads.is_r_parking_ref(a, r)


def test_wrong_or_raising_library_call_counts_as_failed_check():
    ht = run.import_library()
    workload = workloads.build("oracle-sweep", ht, 0, "tiny")
    ht.bijection.tree_to_parking = lambda t: ()  # a wrong answer for each of 49 inputs
    ht.egf.verify_functional_equation = None  # raises, which ends its section only
    rec = workloads.Recorder()
    workload.run(rec)
    assert rec.failed == 49 + 1
    assert rec.attempted > 70  # the tree checks still ran
    run.import_library()  # leave an unpatched package for later tests


def test_checks_hold_under_python_O():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import run, workloads\n"
        "ht = run.import_library()\n"
        "w = workloads.build('oracle-sweep', ht, 0, 'tiny')\n"
        "ht.prufer.decode = lambda c, m, r: None\n"
        "rec = workloads.Recorder(); w.run(rec); print(rec.failed)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code, str(BENCH), str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60, check=True)
    assert int(out.stdout) > 0


def test_refuses_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "shi-regions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
