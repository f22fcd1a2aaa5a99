"""Test-only reference: the per-edge hyperedge checks, the block-by-block
matching checks, the per-edge tree format, the union-find spanning-tree
predicate, the per-entry sorted parking bound, the quadratic-and-worse Prufer
codes and tree/parking bijection, and series composition over rational
coefficients, kept as first written so the library versions can be compared
with them output for output.

Each function follows the paper's description step by step: matching
extraction by iterative deletion, a fresh leaf scan per encoding step, the
excluded-block set rebuilt from the whole code suffix per decoding step, and
a full breadth-first search per attached block.  Only the public types of
the library and its parking predicate are used; the spanning-tree predicate
is the union-find below.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from math import inf
from typing import Iterable, Sequence

from hypertrees.core import (
    HyperTree,
    Matching,
    MatchingMismatchError,
    ValidationError,
)
from hypertrees.parking import is_r_parking
from hypertrees.prufer import PruferCode


def hypertree_refusal(n: int, r: int, edges: Iterable[Iterable]) -> str | None:
    """The message with which ``HyperTree(n, r, edges)`` refuses, or None, for
    valid sizes n >= 1, r >= 2 and groups of labels that sort: each hyperedge
    in canonical order checked in turn for its size, a repeated vertex and
    each vertex's type and range, then the edge set for a repeated hyperedge."""
    canon = tuple(sorted(tuple(sorted(e)) for e in edges))
    for e in canon:
        if len(e) != r:
            return f"hyperedge {e} has size {len(e)}, expected {r}"
        if len(set(e)) != len(e):
            return f"hyperedge {e} repeats a vertex"
        for v in e:
            if type(v) is not int:
                return f"vertex {v!r} is not an integer"
            if not 1 <= v <= n:
                return f"vertex {v} outside [1, {n}]"
    if len(set(canon)) != len(canon):
        return "duplicate hyperedge"
    return None


def matching_refusal(b: int, blocks: Iterable[Iterable]) -> str | None:
    """The message with which ``Matching(b, blocks)`` refuses, or None, for a
    valid block size b >= 1 and groups of labels that sort: each block in
    canonical order checked for its size, then every member for its type,
    then the sorted members against 1, 2, .., m for m = b * (block count)."""
    canon = tuple(sorted(tuple(sorted(g)) for g in blocks))
    for g in canon:
        if len(g) != b:
            return f"block {g} has size {len(g)}, expected {b}"
    members = [v for g in canon for v in g]
    for v in members:
        if type(v) is not int:
            return f"block member {v!r} is not an integer"
    m = b * len(canon)
    if sorted(members) != list(range(1, m + 1)):
        return f"blocks do not partition [1, {m}]"
    return None


def format_tree(t: HyperTree) -> str:
    """Each hyperedge joined on its own, then the hyperedges."""
    return ";".join([",".join(map(str, e)) for e in t.edges])


def fits(a: Sequence[int], r: int) -> bool:
    """The sorted bound b_i <= r*(i-1) for the sorted b, entry by entry."""
    return all(x <= r * i for i, x in enumerate(sorted(a)))


def is_spanning_tree(t: HyperTree) -> bool:
    """True iff the vertex/hyperedge incidence graph of t is a spanning tree.

    The incidence graph has n + k nodes and r*k arcs, so it is a tree
    exactly when r*k = n + k - 1 and it is acyclic; acyclicity is detected
    by union-find on vertices (a cycle appears exactly when some hyperedge
    touches two vertices already connected).  The single vertex with no
    edges counts as a tree.
    """
    k = len(t.edges)
    if t.r * k != t.n + k - 1:
        return False
    parent = list(range(t.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in t.edges:
        it = iter(edge)
        a = find(next(it))
        for v in it:
            b = find(v)
            if a == b:
                return False
            parent[b] = a
    return True


def extract_matching(t: HyperTree) -> Matching:
    """Iterative deletion: remove n, take every hyperedge reduced to r-1
    vertices as a block, delete its vertices, repeat."""
    if not is_spanning_tree(t):
        raise ValidationError("input is not a spanning tree")
    deleted = {t.n}
    remaining = [set(e) for e in t.edges]
    blocks: list[tuple[int, ...]] = []
    while remaining:
        produced = []
        keep = []
        for e in remaining:
            reduced = e - deleted
            if len(reduced) == t.r - 1:
                produced.append(reduced)
            elif len(reduced) == t.r:
                keep.append(e)
            else:
                raise AssertionError("hyperedge lost two vertices in one round")
        if not produced:
            raise AssertionError("no hyperedge reduced; impossible on a valid tree")
        for block in produced:
            blocks.append(tuple(sorted(block)))
            deleted |= block
        remaining = keep
    return Matching(t.r - 1, tuple(blocks))


def _block_of(m: Matching, v: int) -> tuple[int, ...]:
    for b in m.blocks:
        if v in b:
            return b
    raise ValidationError(f"vertex {v} not covered by matching")


def encode(t: HyperTree, m: Matching) -> PruferCode:
    """Strip the leaf hyperedge with the smallest block k-1 times, recording
    its connection point."""
    if extract_matching(t) != m:
        raise MatchingMismatchError("tree does not arise from this matching")
    edges = [set(e) for e in t.edges]
    degree = Counter(v for e in edges for v in e)
    alive = list(m.blocks)
    entries = []
    for _ in range(len(t.edges) - 1):
        for block in alive:
            if all(degree[v] == 1 for v in block):
                blockset = set(block)
                (edge,) = [e for e in edges if blockset <= e]
                break
        else:
            raise AssertionError("no leaf hyperedge; impossible on a valid tree")
        (s,) = edge - blockset
        entries.append(s)
        edges.remove(edge)
        for v in edge:
            degree[v] -= 1
        alive.remove(block)
    return PruferCode(t.n, tuple(entries))


def decode(code: PruferCode, m: Matching, r: int) -> HyperTree:
    """At step i join the smallest unfinished block holding no s_j, j >= i,
    to s_i; the last block joins n."""
    if m.block_size != r - 1:
        raise ValidationError(f"matching block size {m.block_size} != r-1 = {r - 1}")
    n = m.m + 1
    if code.n != n:
        raise ValidationError(f"code is over [{code.n}], matching needs [{n}]")
    k = len(m.blocks)
    if len(code.entries) != k - 1:
        raise ValidationError(f"code length {len(code.entries)} != k-1 = {k - 1}")
    entries = code.entries
    unfinished = list(m.blocks)
    edges = []
    for i, s in enumerate(entries):
        excluded = {_block_of(m, sj) for sj in entries[i:] if sj != n}
        block = next(b for b in unfinished if b not in excluded)
        edges.append(block + (s,))
        unfinished.remove(block)
    (last,) = unfinished
    edges.append(last + (n,))
    tree = HyperTree(n, r, tuple(edges))
    if not is_spanning_tree(tree):
        raise AssertionError("decoded hyperedges do not form a spanning tree")
    return tree


def bfs_vertices(root: int, edges: Iterable[tuple[int, ...]]) -> list[int]:
    """Vertices reachable from root, sorted by hyperedge distance then label."""
    adj = defaultdict(set)
    for e in edges:
        for v in e:
            adj[v].update(e)
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return sorted(dist, key=lambda v: (dist[v], v))


def tree_to_parking(t: HyperTree) -> tuple[int, ...]:
    """a_i is the rank of block i's hyperedge among block + {x}, x outside
    the block in BFS order."""
    r = t.r - 1
    m = extract_matching(t)
    k = len(m.blocks)
    consecutive = tuple(tuple(range(i * r + 1, (i + 1) * r + 1)) for i in range(k))
    if m.blocks != consecutive:
        raise MatchingMismatchError("tree does not arise from the consecutive matching")
    order = bfs_vertices(t.n, t.edges)
    rank = {v: i for i, v in enumerate(order)}
    out = []
    for block in map(set, consecutive):
        candidates = [e for e in t.edges if block <= set(e)]
        # for r = 1 both hyperedges at a non-root vertex contain its block;
        # the one toward the root has the outside vertex of smaller rank
        edge = min(candidates, key=lambda e: rank[(set(e) - block).pop()])
        (x,) = set(edge) - block
        outside = sorted((v for v in range(1, t.n + 1) if v not in block), key=rank.__getitem__)
        out.append(outside.index(x))
    return tuple(out)


def parking_to_tree(a: Sequence[int], r: int) -> HyperTree:
    """Attach blocks in order of (value, index); block i joins the vertex at
    BFS rank a_i of the partial tree, searched afresh each time."""
    if not is_r_parking(a, r):
        raise ValidationError(f"{tuple(a)} is not an r-parking function for r = {r}")
    k = len(a)
    n = r * k + 1
    edges: list[tuple[int, ...]] = []
    for i in sorted(range(k), key=lambda i: (a[i], i)):
        ranks = bfs_vertices(n, edges)
        block = tuple(range(r * i + 1, r * (i + 1) + 1))
        edges.append(block + (ranks[a[i]],))
    return HyperTree(n, r + 1, tuple(edges))


def compose(f: Sequence[Fraction], g: Sequence[Fraction]) -> list[Fraction]:
    """f(g(x)) on ordinary rational coefficients, to the shorter order, by
    Horner's rule: acc <- acc * g + f_j from the top coefficient down."""
    if g[0] != 0:
        raise ValidationError("composition needs a zero constant term")
    n = min(len(f), len(g))
    acc = [Fraction(f[n - 1])] + [Fraction(0)] * (n - 1)
    for c in reversed(f[: n - 1]):
        acc = [sum(acc[i] * g[k - i] for i in range(k + 1)) for k in range(n)]
        acc[0] += c
    return acc


def shi_witness(d: list[list[float]]) -> tuple[Fraction, ...]:
    """Pin x_m = 0, then place x_1, x_2, .. in turn at the midpoint of the
    interval the closed bounds ``d`` leave open given the coordinates placed
    so far, or one step past its finite end when the other end is open."""
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
