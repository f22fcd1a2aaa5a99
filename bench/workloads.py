"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

A workload is built from the imported ``hypertrees`` package, a seed and a
scale (``"full"`` for measurement, ``"tiny"`` for warm-up and the smoke
test).  ``run(rec)`` performs one pass: a fixed list of operations on the
public API, each timed on its own, each output compared explicitly.  The
checks are plain comparisons fed to ``Recorder.check``, never ``assert``,
so they still hold under ``python -O``.

Inputs that are random are generated here with ``random.Random(seed)``
and plain tuples; the library receives only the finished inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import Counter
from time import perf_counter

# Sizes per workload and scale.  The tiny scale keeps the size labels of the
# full one, so a tiny traced pass reports the same metric names.
SIZES = {
    "oracle-sweep": {
        "full": {"enumerate": (10, 4), "parking": (5, 2), "matchings": (12, 2),
                 "series_order": 50, "recursion_n": 33},
        "tiny": {"enumerate": (7, 4), "parking": (3, 2), "matchings": (6, 2),
                 "series_order": 8, "recursion_n": 8},
    },
    # (label, k, codes, parking functions) per size
    "large-k-roundtrip": {
        "full": (("k64", 64, 96, 96), ("k256", 256, 4, 4)),
        "tiny": (("k64", 4, 2, 2), ("k256", 8, 1, 1)),
    },
    "shi-regions": {
        "full": ((4, 2), (5, 1), (3, 3)),
        "tiny": ((2, 1), (3, 1), (2, 2)),
    },
}

CODE_RS = (3, 4)  # uniformities of the block-matching/code inputs
PARKING_RS = (1, 2)  # parameters of the r-parking inputs
SERIES_RS = (3, 4)  # functional-equation checks
RECURSION_R = 3  # recursion-oracle checks


class Recorder:
    """One pass's section times, per-op latencies, checks, item count and counters."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.section_s: list[float] = []
        self.latencies: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counters: Counter = Counter()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def label(self, name: str | None) -> None:
        """Attribute the traced calls that follow to a size label."""
        if self.tracer is not None:
            self.tracer.label = name


def is_r_parking_ref(a, r: int) -> bool:
    """The sorted-rearrangement bound, written here independently of the library."""
    return all(x <= r * i for i, x in enumerate(sorted(a)))


def random_parking(rng: random.Random, k: int, r: int) -> tuple[int, ...]:
    """A uniform random r-parking function of length k.

    Cyclic lemma: of the rk+1 rotations of a sequence over Z_(rk+1), exactly
    one is an r-parking function, so rotating a uniform sequence into place
    gives (rk+1)^(k-1) equally likely outcomes.  A sequence is r-parking iff
    the walk P(v) = sum over u <= v of (r * #{x = u} - 1) stays >= 0 for
    v < rk; the walk ends at -1, so the rotation that starts just after the
    walk's first minimum is the r-parking one.  Found in one scan, its cost
    does not depend on the seed.
    """
    size = r * k + 1
    a = [rng.randrange(size) for _ in range(k)]
    counts = [0] * size
    for x in a:
        counts[x] += 1
    low = walk = start = 0
    for v, c in enumerate(counts):
        walk += r * c - 1
        if walk < low:
            low, start = walk, v + 1
    return tuple((x - start) % size for x in a)


def random_matching(rng: random.Random, k: int, block: int) -> tuple[tuple[int, ...], ...]:
    """A uniform random partition of {1..block*k} into k blocks of size ``block``."""
    verts = list(range(1, block * k + 1))
    rng.shuffle(verts)
    return tuple(tuple(verts[i * block:(i + 1) * block]) for i in range(k))


def generate_large_k(seed: int, sizes) -> list[tuple]:
    """Seeded inputs: ("code", label, r, blocks, entries) and ("parking", label, r, a)."""
    rng = random.Random(seed)
    cases = []
    for label, k, n_codes, n_parking in sizes:
        for i in range(n_codes):
            r = CODE_RS[i % len(CODE_RS)]
            n = (r - 1) * k + 1
            blocks = random_matching(rng, k, r - 1)
            entries = tuple(rng.randint(1, n) for _ in range(k - 1))
            cases.append(("code", label, r, blocks, entries))
        for i in range(n_parking):
            r = PARKING_RS[i % len(PARKING_RS)]
            cases.append(("parking", label, r, random_parking(rng, k, r)))
    return cases


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Workload:
    """One pass is ``run``; ``sections`` are guarded so a raising call fails
    its checks without ending the run.  ``op`` says what one latency sample is."""

    name = ""
    op = ""

    def __init__(self, ht, seed: int, scale: str):
        self.ht = ht
        self.sizes = SIZES[self.name][scale]
        self.inputs_digest = digest(self.sizes)

    def sections(self):
        raise NotImplementedError

    def run(self, rec: Recorder, after_section=None) -> None:
        for section in self.sections():
            t0 = perf_counter()
            try:
                section(rec)
            except Exception as exc:  # a raising library call is a failed check
                rec.check(False, f"{self.name}/{section.__name__} raised {exc!r}")
            rec.section_s.append(perf_counter() - t0)
            if after_section is not None:
                after_section()
        rec.label(None)


class OracleSweep(Workload):
    """Many small calls across every module (k <= 5)."""

    name = "oracle-sweep"
    op = ("one tree's checks and code round trip, one parking function's round trip "
          "(without the enumerator's next()) or one matching's next(); the series "
          "checks are items but not ops, so the latencies describe the small calls alone")

    def sections(self):
        return (self.trees, self.parking, self.matchings, self.series)

    def trees(self, rec: Recorder) -> None:
        core, prufer = self.ht.core, self.ht.prufer
        n, r = self.sizes["enumerate"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.ht.cli.main(["enumerate", "--n", str(n), "--r", str(r)])
        text = out.getvalue()
        rec.counters["cli.main.stdout_bytes"] += len(text.encode())
        rec.check(status == 0, f"enumerate --n {n} --r {r} exited {status}")
        lines = text.splitlines()
        fibers: Counter = Counter()
        for line in lines:
            t0 = perf_counter()
            t = core.parse_tree(line, n, r)
            rec.check(core.is_spanning_tree(t), f"not a spanning tree: {line}")
            m = core.extract_matching(t)
            back = prufer.decode(prufer.encode(t, m), m, r)
            rec.check(back == t and core.format_tree(back) == line,
                      f"code round trip changed {line}")
            fibers[m] += 1
            rec.latencies.append(perf_counter() - t0)
        rec.items += len(lines)
        fiber_size = prufer.count_trees_for_matching(n, r)
        rec.check(all(c == fiber_size for c in fibers.values()),
                  f"a fiber differs from n^(k-1) = {fiber_size}")
        rec.check(len(fibers) == core.count_matchings_formula(n - 1, r - 1),
                  "number of fibers differs from the matching count")
        rec.check(len(lines) == core.count_spanning_trees_formula(n, r),
                  f"{len(lines)} trees differs from the closed form")

    def parking(self, rec: Recorder) -> None:
        parking, bij = self.ht.parking, self.ht.bijection
        k, r = self.sizes["parking"]
        count = 0
        # The op is the round trip; the enumerator's next(), whose cost is
        # set by how many rejected tuples it scans, counts in items_per_s.
        for a in parking.enumerate_parking(k, r):
            t0 = perf_counter()
            rec.check(is_r_parking_ref(a, r), f"{a} is not {r}-parking")
            rec.check(bij.tree_to_parking(bij.parking_to_tree(a, r)) == a,
                      f"bijection round trip changed {a}")
            rec.latencies.append(perf_counter() - t0)
            count += 1
        rec.items += count
        rec.check(count == parking.count_parking(k, r),
                  f"{count} parking functions differs from (rk+1)^(k-1)")

    def matchings(self, rec: Recorder) -> None:
        core = self.ht.core
        m, b = self.sizes["matchings"]
        seen = set()
        gen = core.enumerate_matchings(m, b)
        while True:
            t0 = perf_counter()
            matching = next(gen, None)
            if matching is None:
                break
            seen.add(matching.blocks)
            rec.latencies.append(perf_counter() - t0)
            rec.items += 1
        rec.check(len(seen) == core.count_matchings_formula(m, b),
                  f"{len(seen)} distinct matchings differs from the product formula")

    def series(self, rec: Recorder) -> None:
        """Items, but not ops: each check costs as much as thousands of
        small calls, so it would stand in for the latency tail."""
        egf = self.ht.egf
        order = self.sizes["series_order"]
        for r in SERIES_RS:
            report = egf.verify_functional_equation(r, order)
            rec.check(report.ok, f"T = x E(T) fails for r={r} at {report.first_mismatch}")
            rec.items += 1
        for n in range(1, self.sizes["recursion_n"] + 1):
            got = egf.count_rooted_trees_recursive(n, RECURSION_R)
            rec.check(got == egf.rooted_tree_count(n, RECURSION_R),
                      f"recursion oracle differs at n={n}")
            rec.items += 1


class LargeKRoundtrip(Workload):
    """Few calls at k = 64 and k = 256, whose cost is set by the asymptotics."""

    name = "large-k-roundtrip"
    op = "one input's round trip"

    def __init__(self, ht, seed: int, scale: str):
        super().__init__(ht, seed, scale)
        raw = generate_large_k(seed, self.sizes)
        self.inputs_digest = digest(raw)
        core, prufer = ht.core, ht.prufer
        self.cases = []
        for case in raw:
            if case[0] == "code":
                _, label, r, blocks, entries = case
                matching = core.Matching(r - 1, blocks)
                code = prufer.PruferCode(matching.m + 1, entries)
                self.cases.append(("code", label, r, matching, code))
            else:
                self.cases.append(case)

    def sections(self):
        return (self.roundtrips,)

    def roundtrips(self, rec: Recorder) -> None:
        core, prufer, bij = self.ht.core, self.ht.prufer, self.ht.bijection
        for kind, label, r, *data in self.cases:
            rec.label(label)
            t0 = perf_counter()
            if kind == "code":
                matching, code = data
                text = core.format_tree(prufer.decode(code, matching, r))
                back = prufer.encode(core.parse_tree(text, code.n, r), matching)
                rec.check(back == code, f"{label} r={r} code round trip changed the code")
            else:
                (a,) = data
                back = bij.tree_to_parking(bij.parking_to_tree(a, r))
                rec.check(back == a, f"{label} r={r} parking round trip changed {a}")
            rec.latencies.append(perf_counter() - t0)
            rec.items += 1


class ShiRegions(Workload):
    """Region enumeration with witnesses: the only workload that reaches Shi feasibility."""

    name = "shi-regions"
    op = ("one region, timed as its arrangement's time over its region count: "
          "op_p50_ms and op_tail_ms are per-arrangement means per region, "
          "not percentiles of a per-region distribution")

    def sections(self):
        return tuple(self.arrangement(m, r) for m, r in self.sizes)

    def arrangement(self, m: int, r: int):
        """One section per arrangement, one op per region: ``shi.regions``
        returns a whole arrangement at once, so each region's latency is its
        arrangement's time shared equally among its regions, and every
        percentile is one arrangement's mean time per region."""
        shi, parking = self.ht.shi, self.ht.parking

        def section(rec: Recorder) -> None:
            t0 = perf_counter()
            hyperplanes = shi.build_arrangement(m, r)
            found = shi.regions(m, r)
            rec.check(len(found) == parking.count_parking(m, r),
                      f"(m,r)=({m},{r}): {len(found)} regions differs from (rm+1)^(m-1)")
            rec.check(len({reg.signs for reg in found}) == len(found),
                      f"(m,r)=({m},{r}): repeated sign vector")
            for reg in found:
                rec.check(shi.witness_satisfies(reg, hyperplanes),
                          f"(m,r)=({m},{r}): witness outside region {reg.signs}")
            per_region = (perf_counter() - t0) / max(1, len(found))
            rec.latencies.extend([per_region] * max(1, len(found)))
            rec.items += len(found)

        section.__name__ = f"arrangement_{m}_{r}"
        return section


WORKLOADS = {w.name: w for w in (OracleSweep, LargeKRoundtrip, ShiRegions)}


def build(name: str, ht, seed: int, scale: str = "full") -> Workload:
    return WORKLOADS[name](ht, seed, scale)
