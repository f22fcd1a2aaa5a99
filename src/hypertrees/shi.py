"""The r-extended Shi arrangement and exact region counting.

The arrangement in m coordinates consists of the hyperplanes
x_i - x_j = c for 1 <= i < j <= m and c in {-r+1,..,r}.  Regions are the
connected components of the complement.

Every hyperplane bounds a coordinate difference, so a region is one open
interval of x_i - x_j per pair: (r, oo), (r-1, r), .., (-oo, -r+1).  The
search picks an interval per pair, depth first, and keeps the strict bounds
picked on its path in a difference-bound matrix (DBM) closed under shortest
paths, which shows at once which intervals are consistent with them: every
kept branch is a region, and a rational witness is read off its closed bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import inf, lcm
from numbers import Rational
from typing import Iterator

from .core import ValidationError, _check_labels, _check_power, _check_sizes

DEFAULT_REGION_CAP = 50_000

# d[a][b] is the tightest strict bound x_a - x_b < d[a][b] (inf: none)
Bounds = list[list[float]]


@dataclass(frozen=True)
class Hyperplane:
    """The hyperplane x_i - x_j = c with 1 <= i < j."""

    i: int
    j: int
    c: int

    def __post_init__(self) -> None:
        _check_labels((self.i, self.j, self.c), None, None, "hyperplane field")
        if not 1 <= self.i < self.j:
            raise ValidationError(f"need 1 <= i < j, got i = {self.i}, j = {self.j}")


@dataclass(frozen=True)
class Region:
    """An open region: the index c of the interval (c, c+1) holding x_i - x_j for each
    pair i < j in order (-r <= c <= r), a rational point strictly inside, and ``bounded``,
    True when every entry of the closed DBM is finite.  ``signs`` (+1 above, -1 below each
    hyperplane) is derived once: interval c lies above constant h exactly when h <= c."""

    r: int
    intervals: tuple[int, ...]
    witness: tuple[Fraction, ...]
    bounded: bool
    signs: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        r = self.r
        _check_sizes(r=(r, 1))
        _check_labels(self.intervals, -r, r, "interval")
        hs = range(-r + 1, r + 1)
        signs = tuple([1 if h <= c else -1 for c in self.intervals for h in hs])
        object.__setattr__(self, "signs", signs)


def build_arrangement(m: int, r: int) -> tuple[Hyperplane, ...]:
    """All C(m,2) * 2r hyperplanes, ordered by (i, j, c)."""
    _check_sizes(k=(m, 0), r=(r, 1))
    return tuple(
        Hyperplane(i, j, c)
        for i, j in combinations(range(1, m + 1), 2)
        for c in range(-r + 1, r + 1)
    )


def _tighten(d: Bounds, i: int, j: int, upper: float, lower: float) -> Bounds:
    """Closed ``d`` with x_i - x_j < upper and x_j - x_i < lower added.

    A new edge a -> b of weight w (consistent: the caller checked) shortens paths only
    via x -> a -> b -> y, so row x changes exactly when d[x][a] + w < d[x][b] (else each
    such path costs >= d[x][b] + d[b][y] >= d[x][y]).  Only those rows are rebuilt, O(m)
    each, and the rest are shared with ``d``; the row list is copied once if a bound is
    tighter, else ``d`` comes back as is.  No row or list is changed in place, so sharing is safe.
    """
    out = d[:] if upper < d[i][j] or lower < d[j][i] else d
    for a, b, w in ((i, j, upper), (j, i, lower)):
        if w < out[a][b]:
            out_b = out[b]
            for x, row in enumerate(out):
                x_to_b = row[a] + w
                if x_to_b < row[b]:
                    out[x] = [
                        x_to_b + b_to_y if x_to_b + b_to_y < v else v
                        for v, b_to_y in zip(row, out_b)
                    ]
    return out


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
    """The regions of ``regions``, in its order, one at a time, holding only the
    DBMs on the search path and their siblings.  The arguments and the cap are
    checked at the call, so a stream yields every region or none."""
    _check_sizes(k=(m, 0), r=(r, 1))
    _check_labels((cap,), None, None, "cap")
    _check_power(r * m + 1, max(m - 1, 0), cap, "region count")
    return _search(m, r)


def _search(m: int, r: int) -> Iterator[Region]:
    """``iter_regions`` after its checks.  A branch (cs, d), its intervals so far
    and closed DBM, is a region once every pair has one; a stack holds them, as
    C(m,2) nested generators pass the recursion limit at m = 46."""
    # interval c of a pair: its bounds on x_i - x_j and x_j - x_i
    ends = {c: (c + 1 if c < r else inf, -c if c > -r else inf) for c in range(-r, r + 1)}
    pairs = tuple(combinations(range(m), 2))
    coords: dict[int, Fraction] = {}
    stack = [((), [[0 if a == b else inf for b in range(m)] for a in range(m)])]
    while stack:
        cs, d = stack.pop()
        if len(cs) == len(pairs):
            yield Region(r, cs, _witness(d, coords), inf not in chain.from_iterable(d))
        else:  # popped last, the top interval is entered first
            i, j = pairs[len(cs)]
            stack += [(cs + (c,), _tighten(d, i, j, *ends[c]))
                      for c in reversed(_intervals(d, i, j, r))]


def regions(m: int, r: int, cap: int = DEFAULT_REGION_CAP) -> list[Region]:
    """All regions of the arrangement, with witnesses, in sign-vector order.

    Depth first, each pair i < j in turn keeps, from the top one down, the
    intervals that meet the interval the closed bounds imply for x_i - x_j
    (``_intervals``), and searches each to the last pair before the next.
    Interval (c, c+1) gives +1 to each hyperplane constant <= c, so the
    top-down order lists sign vectors with +1 before -1.  ``cap`` bounds the
    region count (rm+1)^(m-1), checked before the search starts.
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
    if not all([type(x) is Fraction or isinstance(x, Rational) for x in w]):
        raise ValidationError("witness entries must be rational")
    den = lcm(*[x.denominator for x in w])
    scaled = [x.numerator * (den // x.denominator) for x in w]
    for s, h in zip(region.signs, hyperplanes):
        diff, c = scaled[h.i - 1] - scaled[h.j - 1], h.c * den
        if not (diff > c if s == 1 else diff < c):
            return False
    return True
