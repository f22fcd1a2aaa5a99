"""The r-extended Shi arrangement and exact region counting.

The arrangement in m coordinates consists of the hyperplanes
x_i - x_j = c for 1 <= i < j <= m and c in {-r+1,..,r}.  Regions are the
connected components of the complement; each is identified by a strict
sign vector over the hyperplane list.

Every hyperplane bounds a coordinate difference, so a region is one open
interval of x_i - x_j per pair: (r, oo), (r-1, r), .., (-oo, -r+1).  The
search picks an interval per pair and keeps the strict bounds picked so far
in a difference-bound matrix (DBM) closed under shortest paths, which shows
at once whether a new interval is consistent with them: every kept branch
is a region.  A rational witness is read off the closed bounds with the
last coordinate pinned to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import inf

from .core import ResourceCapError, ValidationError
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
    rational interior point witnessing strict feasibility."""

    signs: tuple[int, ...]
    witness: tuple[Fraction, ...]


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
    paths only by routing x -> a -> b -> y: O(m^2) per edge.
    """
    d = [row[:] for row in d]
    for a, b, w in ((i, j, upper), (j, i, lower)):
        if w < d[a][b]:
            out_b = d[b][:]
            for row, x_to_b in [(row, row[a] + w) for row in d if row[a] < inf]:
                for y, b_to_y in enumerate(out_b):
                    if x_to_b + b_to_y < row[y]:
                        row[y] = x_to_b + b_to_y
    return d


def _witness(d: Bounds) -> tuple[Fraction, ...]:
    """Pin x_m = 0, then place x_1, x_2, .. in turn at the midpoint of the
    interval the closed bounds leave open given the coordinates placed so
    far, or one step past its finite end when the other end is open."""
    m = len(d)
    point = [Fraction(0)] * m
    for v in range(m - 1):
        placed = (*range(v), m - 1)
        lo = max(point[a] - d[a][v] for a in placed)
        hi = min(point[a] + d[v][a] for a in placed)
        if lo > -inf and hi < inf:
            point[v] = (lo + hi) / 2
        else:
            point[v] = lo + 1 if lo > -inf else hi - 1
    return tuple(point)


def regions(m: int, r: int, cap: int = DEFAULT_REGION_CAP) -> list[Region]:
    """All regions of the arrangement, with witnesses, in sign-vector order.

    Each pair i < j in turn tries its 2r+1 intervals from the top one down
    and keeps those that meet the interval the closed bounds imply for
    x_i - x_j.  Interval (c, c+1) gives +1 to each hyperplane constant <= c,
    so the top-down order lists sign vectors with +1 before -1.  ``cap``
    bounds the number of interval choices tried.
    """
    _check_domain(m, r)
    blocks = {
        c: tuple(1 if h <= c else -1 for h in range(-r + 1, r + 1))
        for c in range(-r, r + 1)
    }
    start = [[0 if a == b else inf for b in range(m)] for a in range(m)]
    partial: list[tuple[tuple[int, ...], Bounds]] = [((), start)]
    tried = 0
    for i, j in combinations(range(m), 2):
        nxt = []
        for signs, d in partial:
            for c in range(r, -r - 1, -1):
                tried += 1
                if tried > cap:
                    raise ResourceCapError(
                        f"region search tried {tried} intervals, cap {cap}"
                    )
                lo = c if c > -r else -inf
                hi = c + 1 if c < r else inf
                if max(lo, -d[j][i]) < min(hi, d[i][j]):
                    nxt.append((signs + blocks[c], _tighten(d, i, j, hi, -lo)))
        partial = nxt
    return [Region(signs, _witness(d)) for signs, d in partial]


def witness_satisfies(region: Region, hyperplanes: tuple[Hyperplane, ...]) -> bool:
    """Strict check of a region's witness against its full sign vector."""
    if len(region.signs) != len(hyperplanes):
        raise ValidationError("sign vector length does not match arrangement")
    w = region.witness
    try:
        for s, h in zip(region.signs, hyperplanes):
            if s * (w[h.i - 1] - w[h.j - 1] - h.c) <= 0:
                w[max(g.j for g in hyperplanes) - 1]  # a short witness is refused, not answered
                return False
    except IndexError:
        raise ValidationError("witness has fewer coordinates than the arrangement") from None
    return True

