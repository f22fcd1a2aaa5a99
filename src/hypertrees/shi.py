"""The r-extended Shi arrangement and exact region counting.

The arrangement in m coordinates consists of the hyperplanes
x_i - x_j = c for 1 <= i < j <= m and c in {-r+1,..,r}.  Regions are the
connected components of the complement; each is identified by a strict
sign vector over the hyperplane list.

Every hyperplane bounds a coordinate difference, so a region is one open
interval of x_i - x_j per pair: (r, oo), (r-1, r), .., (-oo, -r+1).  The
search picks an interval per pair, depth first, and keeps the strict bounds
picked on its path in a difference-bound matrix (DBM) closed under shortest
paths, which shows at once which intervals are consistent with them: every
kept branch is a region, and a rational witness is read off its closed bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf, lcm
from numbers import Rational
from typing import Iterator

from .core import ResourceCapError, ValidationError, _check_labels
from .parking import _check_domain

DEFAULT_REGION_CAP = 500_000

# d[a][b] is the tightest strict bound x_a - x_b < d[a][b] (inf: none)
Bounds = list[list[float]]


@dataclass(frozen=True)
class Hyperplane:
    """The hyperplane x_i - x_j = c with i < j."""

    i: int
    j: int
    c: int


@dataclass(frozen=True)
class Region:
    """An open region: one sign per hyperplane (+1 above, -1 below) plus a
    rational interior point witnessing strict feasibility.

    ``regions`` also fills ``intervals``, the index c of the interval
    (c, c+1) holding x_i - x_j for each pair i < j in order (-r <= c <= r),
    and ``bounded``, True when every entry of the closed DBM is finite.  A
    Region built by hand carries the defaults; ``witness_satisfies`` reads
    neither field.
    """

    signs: tuple[int, ...]
    witness: tuple[Fraction, ...]
    intervals: tuple[int, ...] = ()
    bounded: bool = False


def build_arrangement(m: int, r: int) -> tuple[Hyperplane, ...]:
    """All C(m,2) * 2r hyperplanes, ordered by (i, j, c)."""
    _check_domain(m, r)
    return tuple(
        Hyperplane(i, j, c)
        for i, j in combinations(range(1, m + 1), 2)
        for c in range(-r + 1, r + 1)
    )


def _tighten(d: Bounds, i: int, j: int, upper: float, lower: float) -> Bounds:
    """Closed copy of ``d`` with x_i - x_j < upper and x_j - x_i < lower added.

    The caller has checked consistency, so each new edge a -> b shortens
    paths only by routing x -> a -> b -> y: O(m^2) per edge.  The copy is
    shallow: row x is replaced by a new list when the edge can reach it
    (d[x][a] + w < oo) and shared with ``d`` otherwise, and no row is ever
    changed in place, so ``d`` and every DBM sharing its rows stay as they
    were.
    """
    d = d[:]
    for a, b, w in ((i, j, upper), (j, i, lower)):
        if w < d[a][b]:
            out_b = d[b]
            for x, row in enumerate(d):
                x_to_b = row[a] + w
                if x_to_b < inf:
                    d[x] = [
                        x_to_b + b_to_y if x_to_b + b_to_y < v else v
                        for v, b_to_y in zip(row, out_b)
                    ]
    return d


def _intervals(d: Bounds, i: int, j: int, r: int) -> range:
    """The interval indices c, top down, whose interval (c, c+1) meets
    -d[j][i] < x_i - x_j < d[i][j]; interval r is (r, oo) and -r is (-oo, -r+1)."""
    top = min(r, max(d[i][j] - 1, -r))
    bottom = max(-r, min(-d[j][i], r))
    return range(top, bottom - 1, -1)


def _witness(d: Bounds, coords: dict[int, Fraction]) -> tuple[Fraction, ...]:
    """Pin x_m = 0, then place x_1, x_2, .. in turn at the midpoint of the
    interval the closed bounds leave open given the coordinates placed so
    far, or one step past its finite end when the other end is open.

    Every point is scaled by S = 2^(m-1), so a bound d becomes S*d and the
    point p_v = S*x_v is an integer: the ends p_a -/+ S*d of x_v's interval
    are multiples of 2^(m-v), even for v <= m-1, so their midpoint is exact.
    Only the returned coordinates are Fractions, taken from ``coords``
    (p -> p/S, one immutable Fraction per value, shared by every call
    with the same m) and added to it when missing.
    """
    m = len(d)
    scale = 1 << max(m - 1, 0)
    point = [0] * m
    for v in range(m - 1):
        row, lo, hi = d[v], -inf, inf
        for a in (*range(v), m - 1):
            x, y = point[a] - scale * d[a][v], point[a] + scale * row[a]
            lo, hi = x if x > lo else lo, y if y < hi else hi  # max(), min(): 1.7x the time
        if lo > -inf and hi < inf:
            point[v] = (lo + hi) // 2
        else:
            point[v] = lo + scale if lo > -inf else hi - scale
    for p in point:
        if p not in coords:
            coords[p] = Fraction(p, scale)
    return tuple(map(coords.__getitem__, point))


def iter_regions(m: int, r: int, cap: int = DEFAULT_REGION_CAP) -> Iterator[Region]:
    """The regions of ``regions``, in its order, one at a time: only the DBMs
    on the current search path and their siblings are held, so memory stays
    flat in the region count.  The arguments are checked at the call and the
    cap as the search reaches it, so a refused stream may already have
    yielded regions."""
    _check_domain(m, r)
    _check_labels((cap,), None, None, "cap")
    return _search(m, r, cap)


def _search(m: int, r: int, cap: int) -> Iterator[Region]:
    """``iter_regions`` after its checks.  A branch (signs, cs, d) holds its
    sign prefix, its interval index per pair so far and its closed DBM; the
    branches wait on a stack, since C(m,2) nested generators pass Python's
    recursion limit at m = 46, before the default cap refuses the search."""
    # interval c of a pair: its signs, and its bounds on x_i - x_j and x_j - x_i
    blocks = {c: tuple(1 if h <= c else -1 for h in range(-r + 1, r + 1))
              for c in range(-r, r + 1)}
    ends = {c: (c + 1 if c < r else inf, -c if c > -r else inf) for c in range(-r, r + 1)}
    pairs = tuple(combinations(range(m), 2))
    if not pairs:  # m = 0, 1: the whole space, with x_m = 0
        yield Region((), (Fraction(0),) * m, (), True)
        return
    coords: dict[int, Fraction] = {}
    tried = 0
    stack = [((), (), [[0 if a == b else inf for b in range(m)] for a in range(m)])]
    while stack:
        signs, cs, d = stack.pop()
        tried += 2 * r + 1
        if tried > cap:
            # counted one at a time, the choices stop at the first past the cap
            raise ResourceCapError(f"region search tried {max(cap, 0) + 1} intervals, cap {cap}")
        i, j = pairs[len(cs)]
        if len(cs) + 1 < len(pairs):  # popped last, the top interval is entered first
            stack += [(signs + blocks[c], cs + (c,), _tighten(d, i, j, *ends[c]))
                      for c in reversed(_intervals(d, i, j, r))]
        else:  # the last pair: each interval left is a region
            for c in _intervals(d, i, j, r):
                e = _tighten(d, i, j, *ends[c])
                yield Region(signs + blocks[c], _witness(e, coords), cs + (c,),
                             all(inf not in row for row in e))


def regions(m: int, r: int, cap: int = DEFAULT_REGION_CAP) -> list[Region]:
    """All regions of the arrangement, with witnesses, in sign-vector order.

    Depth first, each pair i < j in turn keeps, from the top one down, the
    intervals that meet the interval the closed bounds imply for x_i - x_j
    (``_intervals``), and searches each to the last pair before the next.
    Interval (c, c+1) gives +1 to each hyperplane constant <= c, so the
    top-down order lists sign vectors with +1 before -1.  ``cap`` bounds the
    number of interval choices tried, counting all 2r+1 of a branch as it is
    entered, a total that does not depend on the search order.
    """
    return list(iter_regions(m, r, cap))


def witness_satisfies(region: Region, hyperplanes: tuple[Hyperplane, ...]) -> bool:
    """Strict check of a region's witness against its full sign vector, in
    integers: x_i - x_j > c as D*x_i - D*x_j > D*c, D a common denominator."""
    if len(region.signs) != len(hyperplanes):
        raise ValidationError("sign vector length does not match arrangement")
    w = region.witness
    m = max([h.j for h in hyperplanes], default=min(len(w), 1))  # m = 0, 1: no hyperplane
    if len(w) != m:
        side = "fewer" if len(w) < m else "more"
        raise ValidationError(f"witness has {side} coordinates than the arrangement")
    if not set(region.signs) <= {1, -1} or not set(map(type, region.signs)) <= {int}:
        raise ValidationError("signs must be +1 or -1")
    if not all([type(x) is Fraction or isinstance(x, Rational) for x in w]):
        raise ValidationError("witness entries must be rational")
    den = lcm(*[x.denominator for x in w])
    scaled = [x.numerator * (den // x.denominator) for x in w]
    for s, h in zip(region.signs, hyperplanes):
        diff, c = scaled[h.i - 1] - scaled[h.j - 1], h.c * den
        if not (diff > c if s == 1 else diff < c):
            return False
    return True
