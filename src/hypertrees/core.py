"""Spanning trees of complete uniform hypergraphs and block perfect matchings.

A set of k r-element hyperedges on the vertex set {1,..,n} is a spanning
hypertree when the bipartite vertex/hyperedge incidence graph is a tree in
the ordinary graph sense.  Counting incidence arcs two ways forces
n = (r-1)k + 1, so trees exist only when n == 1 (mod r-1).

Deleting from each hyperedge its vertex nearest the top vertex n turns every
spanning tree into a partition of {1,..,n-1} into blocks of size r-1 (a
"block matching").  The number of such partitions times n^(k-1) gives the
total tree count; this module provides both closed forms together with
brute-force enumerators that serve as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

DEFAULT_CAP = 10**8


class ValidationError(ValueError):
    """Malformed domain object or out-of-contract argument."""


class ResourceCapError(RuntimeError):
    """An exhaustive enumeration would exceed its configured search cap."""


class MatchingMismatchError(ValidationError):
    """The given tree does not arise from the given matching."""


class InternalError(RuntimeError):
    """A result broke the library's own postcondition: a defect in the library, not in the input."""


def _check_edge(edge: Sequence[int], n: int, r: int) -> None:
    if len(edge) != r:
        raise ValidationError(f"hyperedge {edge} has size {len(edge)}, expected {r}")
    if len(set(edge)) != len(edge):
        raise ValidationError(f"hyperedge {edge} repeats a vertex")
    for v in edge:
        if not 1 <= v <= n:
            raise ValidationError(f"vertex {v} outside [1, {n}]")


@dataclass(frozen=True)
class HyperTree:
    """A candidate spanning tree: r-element hyperedges on {1,..,n}.

    Stored canonically: each hyperedge sorted ascending, hyperedges sorted
    lexicographically.  Construction validates well-formedness only; the
    tree property itself is checked by :func:`is_spanning_tree`.
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        tree_size(self.n, self.r)  # refuses n < 1 and r < 2
        canon = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        for e in canon:
            _check_edge(e, self.n, self.r)
        if len(set(canon)) != len(canon):
            raise ValidationError("duplicate hyperedge")
        object.__setattr__(self, "edges", canon)


@dataclass(frozen=True)
class Matching:
    """A partition of {1,..,m} into blocks of equal size.

    Blocks are stored sorted by their minimum element; this ordering doubles
    as the fixed total order used by the code/decode machinery.
    """

    block_size: int
    blocks: tuple[tuple[int, ...], ...]
    index: dict[int, int] = field(init=False, compare=False, repr=False)  # vertex -> block position

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValidationError("block size must be positive")
        canon = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        index: dict[int, int] = {}
        for i, b in enumerate(canon):
            if len(b) != self.block_size:
                raise ValidationError(f"block {b} has size {len(b)}, expected {self.block_size}")
            for v in b:
                if v in index:
                    raise ValidationError(f"block {b} overlaps another block")
                index[v] = i
        m = self.block_size * len(canon)
        if index.keys() != set(range(1, m + 1)):
            raise ValidationError(f"blocks do not cover [1, {m}]")
        object.__setattr__(self, "blocks", canon)
        object.__setattr__(self, "index", index)

    @property
    def m(self) -> int:
        return self.block_size * len(self.blocks)


# ---------------------------------------------------------------------------
# text formats: "1,2,3;3,4,7;3,5,6" for trees, "1,2|3,4" for matchings


def _int_groups(text: str, sep: str, what: str) -> tuple[tuple[int, ...], ...]:
    """Split ``text`` on ``sep`` into comma-separated integer groups, skipping empty parts."""
    try:
        return tuple(tuple(int(x) for x in part.split(",")) for part in text.split(sep) if part)
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from None


def parse_tree(text: str, n: int, r: int) -> HyperTree:
    return HyperTree(n, r, _int_groups(text, ";", "tree"))


def format_tree(t: HyperTree) -> str:
    return ";".join(",".join(map(str, e)) for e in t.edges)


def parse_matching(text: str, b: int) -> Matching:
    return Matching(b, _int_groups(text, "|", "matching"))


def format_matching(m: Matching) -> str:
    return "|".join(",".join(map(str, b)) for b in m.blocks)


# ---------------------------------------------------------------------------
# the spanning-tree predicate and brute-force enumeration


def _walk(t: HyperTree) -> tuple[list[int], list[int]]:
    """``(parent, dist)`` of a breadth-first search from the top vertex n;
    refuses anything but a spanning tree.

    ``parent[j]`` is the vertex of ``t.edges[j]`` nearest n and ``dist[v]``
    the hyperedge distance of v from n.
    """
    n, edges = t.n, t.edges
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for j, e in enumerate(edges):
        for v in e:
            incident[v].append(j)
    parent = [0] * len(edges)
    dist = [-1] * (n + 1)
    dist[n] = 0
    queue = [n]
    for u in queue:  # grows while it is read
        for j in incident[u]:
            if not parent[j]:
                parent[j] = u
                for v in edges[j]:
                    if v != u:
                        if dist[v] >= 0:  # reached a second time: a cycle
                            raise ValidationError("input is not a spanning tree")
                        dist[v] = dist[u] + 1
                        queue.append(v)
    if len(queue) < n:  # some vertex unreached: disconnected
        raise ValidationError("input is not a spanning tree")
    return parent, dist


def is_spanning_tree(t: HyperTree) -> bool:
    """True iff the vertex/hyperedge incidence graph of t is a spanning tree.

    One breadth-first search from n enters each hyperedge through the first
    of its vertices reached and leaves through all the others, so it crosses
    every arc of each hyperedge it enters.  If no vertex is reached a second
    time, the arcs crossed form a tree.  A search that reaches all n vertices
    enters every hyperedge (each holds a vertex), so that tree is the whole
    incidence graph.  The single vertex with no edges counts as one.
    """
    try:
        _walk(t)
    except ValidationError:
        return False
    return True


def tree_size(n: int, r: int) -> int | None:
    """Number of hyperedges k of any spanning tree on n vertices, or None."""
    if n < 1:
        raise ValidationError("vertex count must be positive")
    if r < 2:
        raise ValidationError("uniformity must be at least 2")
    if (n - 1) % (r - 1) != 0:
        return None
    return (n - 1) // (r - 1)


def enumerate_spanning_trees(
    n: int, r: int, cap: int = DEFAULT_CAP
) -> Iterator[HyperTree]:
    """Yield every spanning tree on {1,..,n}, lexicographic by edge set.

    Backtracks over lexicographically increasing edge sequences, pruning any
    prefix whose incidence graph already contains a cycle; a full selection
    of k acyclic hyperedges is connected automatically by the arc count.
    Refuses up front when the unpruned search space C(C(n,r), k) exceeds
    ``cap``.
    """
    k = tree_size(n, r)
    if k is None:
        return
    n_edges = math.comb(n, r)
    if math.comb(n_edges, k) > cap:
        raise ResourceCapError(
            f"search space C({n_edges},{k}) exceeds cap {cap}"
        )
    all_edges = list(combinations(range(1, n + 1), r))
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    chosen: list[tuple[int, ...]] = []

    def extend(start: int) -> Iterator[HyperTree]:
        if len(chosen) == k:
            yield HyperTree(n, r, tuple(chosen))
            return
        for idx in range(start, len(all_edges)):
            edge = all_edges[idx]
            roots = []
            for v in edge:
                rv = find(v)
                if rv in roots:
                    break
                roots.append(rv)
            else:
                base = roots[0]
                for rv in roots[1:]:
                    parent[rv] = base
                chosen.append(edge)
                yield from extend(idx + 1)
                chosen.pop()
                for rv in roots[1:]:
                    parent[rv] = rv

    yield from extend(0)


# ---------------------------------------------------------------------------
# closed-form counts


def count_matchings_formula(m: int, b: int) -> int:
    """Number of partitions of {1,..,m} into blocks of size b.

    Repeatedly fix the smallest unplaced element and choose its b-1
    partners: the product of C(j*b - 1, b - 1) over j = 1 .. m/b.
    Zero when b does not divide m; one when m = 0 or b = 1.
    """
    if b < 1:
        raise ValidationError("block size must be positive")
    if m < 0:
        raise ValidationError("negative ground-set size")
    if m % b != 0:
        return 0
    out = 1
    for j in range(1, m // b + 1):
        out *= math.comb(j * b - 1, b - 1)
    return out


def count_spanning_trees_formula(n: int, r: int) -> int:
    """Closed-form count of spanning trees on n vertices: rPM * n^(k-1).

    rPM is the block-matching count on n-1 vertices with blocks of size r-1
    (1 at r = 2: Cayley's n^(n-2)); 0 when n != 1 (mod r-1), 1 when n = 1.
    """
    k = tree_size(n, r)
    if k is None:
        return 0
    return count_matchings_formula(n - 1, r - 1) * n**k // n  # n^(k-1), 1 at k = 0


def enumerate_matchings(m: int, b: int) -> Iterator[Matching]:
    """Yield all partitions of {1,..,m} into size-b blocks, canonical order.

    Empty stream when b does not divide m; refuses more than ``DEFAULT_CAP``.
    """
    total = count_matchings_formula(m, b)
    if m % b != 0:
        return
    if total > DEFAULT_CAP:
        raise ResourceCapError(f"{total} matchings exceed cap {DEFAULT_CAP}")
    blocks: list[tuple[int, ...]] = []

    def rec(remaining: list[int]) -> Iterator[Matching]:
        if not remaining:
            yield Matching(b, tuple(blocks))
            return
        first, rest = remaining[0], remaining[1:]
        for partners in combinations(rest, b - 1):
            blocks.append((first,) + partners)
            yield from rec([v for v in rest if v not in partners])
            blocks.pop()

    yield from rec(list(range(1, m + 1)))


# ---------------------------------------------------------------------------
# matching extraction


def _edge_blocks(t: HyperTree) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each hyperedge's block (itself minus its parent vertex) and parent vertex."""
    parent = _walk(t)[0]
    return [tuple([v for v in e if v != p]) for e, p in zip(t.edges, parent)], parent


def extract_matching(t: HyperTree) -> Matching:
    """The unique block matching on {1,..,n-1} a spanning tree arises from.

    Each hyperedge minus its vertex nearest n, found by one breadth-first
    search from n, is a block: iterative deletion from n finds the same
    blocks, since a hyperedge first loses its vertex nearest n.
    """
    return Matching(t.r - 1, tuple(_edge_blocks(t)[0]))

