"""Benchmark of the ``hypertrees`` library, run from the root of a checkout.

    python3 bench/run.py --workload oracle-sweep --seed 1 --seconds 35 --trace 0

Imports the library from the checkout's ``src/`` (refusing with exit code 2
when it is missing), runs whole passes of the workload until ``--seconds``
have elapsed, setting up afresh and timing a reference loop between the sections of
each pass, so that ``setup_s`` and the reference see the same machine as
the passes, scales every time to a nominal machine by the reference, checks
every output, and prints a readable summary followed, on the last line, by one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate, and the metrics are the per-layer
ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer
from workloads import Recorder

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "hypertrees"

# The speed of a single-threaded loop on a shared host drifts by up to a
# third over seconds to minutes, as other work comes and goes.  So every
# time of an untraced run is scaled to a nominal machine: a fixed reference
# loop is timed after each section of a pass, and the run's times are
# multiplied by REFERENCE_S over the median of those timings.
REFERENCE_S = 0.1  # the reference loop's nominal time
REFERENCE_N = 60_000

# Units of the end-to-end metrics; their bounds are in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

TRACED = {
    "core": ("parse_tree", "format_tree", "is_spanning_tree", "extract_matching",
             "enumerate_spanning_trees", "enumerate_matchings"),
    "prufer": ("encode", "decode"),
    "parking": ("is_r_parking", "enumerate_parking"),
    "bijection": ("parking_to_tree", "tree_to_parking"),
    "egf": ("compose", "verify_functional_equation", "count_rooted_trees_recursive"),
    "shi": ("regions", "witness_satisfies"),
    "cli": ("main",),
}
ITEMS_OF_RESULT = {"shi.regions": len}
# enumerate_parking scans {0..r(k-1)}^k to yield the r-parking functions
SCANNED = {"parking.enumerate_parking": lambda k, r, *_a, **_kw: (r * (k - 1) + 1) ** k}
ITEMS = ("core.enumerate_spanning_trees", "core.enumerate_matchings",
         "parking.enumerate_parking", "shi.regions")
SIZE_LABELS = ("k64", "k256")
SPLIT = ("core.parse_tree", "core.format_tree", "core.is_spanning_tree",
         "core.extract_matching", "prufer.encode", "prufer.decode",
         "parking.is_r_parking", "bijection.parking_to_tree", "bijection.tree_to_parking")


def per_layer_metrics() -> list[tuple[str, str, str, object]]:
    """(name, unit, better, value) of every per-layer metric, in report order.

    ``value(tracer, rec)`` reads the metric from one traced pass; it is None
    for ``trace.overhead_ratio``, which compares passes."""
    out = []
    for module, names in TRACED.items():
        for name in names:
            key = f"{module}.{name}"
            out += [
                (f"{key}.self_s", "s", "lower", lambda t, _, key=key: t.totals(key).self_s),
                (f"{key}.calls", "count", "lower", lambda t, _, key=key: t.totals(key).calls),
            ]
            if key in ITEMS:
                out.append((f"{key}.items", "count", "higher",
                            lambda t, _, key=key: t.totals(key).items))
            if key in SCANNED:
                out.append((f"{key}.yield_ratio", "ratio", "higher",
                            lambda t, _, key=key: yield_ratio(t.totals(key))))
            if key == "cli.main":
                out.append(("cli.main.stdout_bytes", "bytes", "lower",
                            lambda _, rec: rec.counters["cli.main.stdout_bytes"]))
            if key in SPLIT:
                out += [(f"{key}.{label}.self_s", "s", "lower",
                         lambda t, _, key=key, label=label: t.totals(key, label).self_s)
                        for label in SIZE_LABELS]
    out.append(("trace.overhead_ratio", "ratio", "lower", None))
    return out


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, as in BENCHMARK.json."""
    return [(name, unit, better) for name, unit, better, _ in per_layer_metrics()]


def yield_ratio(stat) -> float:
    return stat.items / stat.scanned if stat.scanned else 0.0


def import_library():
    """Import the package afresh, as a new process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ht = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return ht


def reference_work() -> int:
    """Fixed pure-Python work of the kinds the library does (tuples, dicts,
    sorting, integer arithmetic), touching nothing of the library."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_N):
        key, step = (i * 7919) % 1009, i % 37
        counts[key] = counts.get(key, 0) + step
        if i % 50 == 0:
            total += sum(sorted(counts.values())[:5])
    return total


def time_reference() -> float:
    """Seconds one reference loop takes now.  It makes no cycles, so the
    garbage collector, whose cost depends on the workload's heap, is off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Pass:
    wall: float  # the sections' time, without the set-ups between them
    items: int
    ops: int
    # the process's peak after this pass; later passes can raise it only by
    # heap fragmentation, so the first pass's value is the one reported
    peak_rss_mb: float
    layers: dict[str, float] | None
    latencies: array  # seconds per op, in the order the ops ran


def layer_metrics(tracer: Tracer, rec: Recorder) -> dict[str, float]:
    return {name: value(tracer, rec)
            for name, _unit, _better, value in per_layer_metrics() if value is not None}


def set_up(name: str, seed: int, scale: str, checks: Recorder):
    """Import the package afresh, build the workload's inputs from the seed
    and run a tiny warm-up pass.  Returns (seconds taken, workload)."""
    t0 = perf_counter()
    ht = import_library()
    workload = workloads.build(name, ht, seed, scale)
    warm = Recorder()
    workloads.build(name, ht, seed, "tiny").run(warm)
    elapsed = perf_counter() - t0
    merge(checks, warm)
    return elapsed, workload


def run_passes(workload, budget: float, checks: Recorder,
               tracer: Tracer | None = None, between=None) -> list[Pass]:
    """Whole passes until ``budget`` seconds have elapsed; at least one.
    Checks are merged into ``checks``.
    ``between()``, if given, runs after each section of a pass, outside the
    pass's wall time."""
    passes: list[Pass] = []
    start = perf_counter()
    while not passes or perf_counter() - start < budget:
        gc.collect()
        rec = Recorder(tracer)
        if tracer is not None:
            tracer.reset()
        workload.run(rec, between)
        layers = layer_metrics(tracer, rec) if tracer is not None else None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(Pass(sum(rec.section_s), rec.items, len(rec.latencies), peak_rss_mb, layers,
                           array("d", rec.latencies)))
        merge(checks, rec)
    return passes


def latency_stats(passes: list[Pass]) -> tuple[float, float, float]:
    """Median and tail op latency in ms, and the tail's percentile.

    Every pass runs the same ops in the same order, so an op's latency is its
    median over the passes: a stall that another process causes in a
    minority of passes does not count, the op's own cost (garbage collection
    included) repeats in every pass and does.  The tail is the highest
    percentile of these with at least ten ops beyond it, but never below
    the median.
    """
    samples = sorted(map(statistics.median, zip(*(p.latencies for p in passes))))
    total = len(samples)
    if not total:  # every op raised; the failed checks already say so
        return 0.0, 0.0, 0.0
    beyond = min(10, total // 2)
    p50 = samples[(total - 1) // 2]
    return p50 * 1e3, samples[total - 1 - beyond] * 1e3, 100.0 * (1 - beyond / total)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Set up, run and check one workload.  Returns (metrics, info, checks)
    where metrics maps name to (value, unit) and checks is a Recorder
    holding every check made."""
    checks = Recorder()
    setup_s, workload = set_up(name, seed, scale, checks)
    setups = [setup_s]
    references = [time_reference()]

    def another_setup():
        # Spread over the whole run, the set-ups and reference timings meet
        # the same drift in machine speed as the passes; the workload built
        # here is dropped.
        setups.append(set_up(name, seed, scale, checks)[0])
        gc.collect()  # the set-up's garbage is not the next section's
        references.append(time_reference())

    untraced: list[Pass] = []
    traced: list[Pass] = []
    if not trace:
        untraced = run_passes(workload, seconds, checks, between=another_setup)
    else:
        # alternate untraced and traced passes, so drift in machine speed
        # does not enter trace.overhead_ratio
        tracer = Tracer(PACKAGE, TRACED, ITEMS_OF_RESULT, SCANNED)
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            if len(untraced) > len(traced):
                tracer.install()
                try:
                    traced += run_passes(workload, 0, checks, tracer)
                finally:
                    tracer.uninstall()
            else:
                untraced += run_passes(workload, 0, checks)

    info = {
        "workload": name, "seed": seed, "inputs_digest": workload.inputs_digest,
        "op": workload.op,
        "items_per_pass": untraced[0].items, "ops_per_pass": untraced[0].ops,
        "passes": len(untraced), "traced_passes": len(traced), "setups": len(setups),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.platform()}",
    }
    if not trace:
        p50, tail, percentile = latency_stats(untraced)
        reference_s = statistics.median(references)
        factor = REFERENCE_S / reference_s
        items_per_s = sum(p.items for p in untraced) / sum(p.wall for p in untraced)
        info.update(tail_percentile=round(percentile, 4), latency_samples=untraced[0].ops,
                    reference_ms=round(reference_s * 1e3, 3),
                    unscaled_items_per_s=round(items_per_s, 3),
                    pass_walls_s=[round(p.wall, 3) for p in untraced])
        metrics = {
            "setup_s": statistics.median(setups) * factor,
            "items_per_s": items_per_s / factor,
            "op_p50_ms": p50 * factor,
            "op_tail_ms": tail * factor,
            "peak_rss_mb": untraced[0].peak_rss_mb,
        }
        units = END_TO_END
    else:
        first = traced[0].layers
        metrics = {}
        for metric, unit, _better in per_layer_spec():
            if metric not in first:
                continue
            if unit == "s":
                metrics[metric] = statistics.median(p.layers[metric] for p in traced)
            else:
                metrics[metric] = first[metric]
                checks.check(all(p.layers[metric] == first[metric] for p in traced),
                             f"{metric} differs between traced passes")
        metrics["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                           / statistics.median(p.wall for p in untraced))
        units = {metric: unit for metric, unit, _better in per_layer_spec()}
    return {m: (v, units[m]) for m, v in metrics.items()}, info, checks


def merge(into: Recorder, rec: Recorder) -> None:
    into.attempted += rec.attempted
    into.failed += rec.failed
    into.errors += rec.errors[: max(0, 5 - len(into.errors))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} source under {src}", file=sys.stderr)
        return 2
    # Never read or write cached bytecode, so every set-up compiles the
    # source and leftover __pycache__ directories cannot change setup_s.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(ROOT / ".bench_build" / "no-bytecode")
    sys.path.insert(0, str(src))

    metrics, info, checks = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(" ".join(f"{k}={v}" for k, v in info.items() if k != "op"))
    print(f"op: {info['op']}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:48} {value:.6g} {unit}")
    fail_ratio = checks.failed / checks.attempted
    print(f"{'fail_ratio':48} {fail_ratio:.6g} ratio ({checks.failed}/{checks.attempted} checks)")
    for error in checks.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
