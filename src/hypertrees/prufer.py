"""Prufer-style codes for hypertrees relative to a fixed block matching.

Every spanning tree on n = (r-1)k + 1 vertices arises from exactly one
block matching of {1,..,n-1}; for a fixed matching the trees in its fiber
correspond bijectively to length-(k-1) sequences over {1,..,n}.  Encoding
repeatedly strips the leaf hyperedge with the smallest matched block and
records its connection point; decoding rebuilds the hyperedges from the
recorded connection points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    HyperTree,
    Matching,
    MatchingMismatchError,
    ValidationError,
    _int_groups,
    extract_matching,
    is_spanning_tree,
)


@dataclass(frozen=True)
class PruferCode:
    """A sequence of k-1 vertex labels in {1,..,n} encoding a tree."""

    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("vertex count must be positive")
        for s in self.entries:
            if not 1 <= s <= self.n:
                raise ValidationError(f"code entry {s} outside [1, {self.n}]")
        object.__setattr__(self, "entries", tuple(self.entries))


def parse_code(text: str, n: int) -> PruferCode:
    return PruferCode(n, tuple(x for (x,) in _int_groups(text, ",", "code")))


def format_code(c: PruferCode) -> str:
    return ",".join(map(str, c.entries))


def encode(t: HyperTree, m: Matching) -> PruferCode:
    """Code of a spanning tree relative to the matching it arises from.

    Iterates k-1 times: among the current leaf hyperedges (those containing
    a whole block of m all of whose vertices have degree 1), take the one
    with the smallest block; record its connection point, the unique vertex
    outside the block; remove the hyperedge.
    """
    if extract_matching(t) != m:
        raise MatchingMismatchError("tree does not arise from this matching")
    edges = [set(e) for e in t.edges]
    degree = Counter(v for e in edges for v in e)
    alive = list(m.blocks)  # ordered by minimum element
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
    """Rebuild the spanning tree encoded by ``code`` relative to ``m``.

    At step i the block b_i is the smallest unfinished block that does not
    contain any later connection point s_j (j >= i); the hyperedge
    b_i + {s_i} is added and b_i marked finished.  Exactly one block
    survives the k-1 steps and joins vertex n in the final hyperedge.
    """
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
        excluded = {m.block_of(sj) for sj in entries[i:] if sj != n}
        block = next(b for b in unfinished if b not in excluded)
        edges.append(block + (s,))
        unfinished.remove(block)
    # a counting argument guarantees the loop never runs dry: at step i there
    # are k-i+1 unfinished blocks but at most k-i excluded ones
    (last,) = unfinished
    edges.append(last + (n,))
    tree = HyperTree(n, r, tuple(edges))
    assert is_spanning_tree(tree)
    return tree


def count_trees_for_matching(n: int, r: int) -> int:
    """Number of spanning trees arising from any one fixed matching: n^(k-1)."""
    if n == 1:
        return 1
    if n < 1 or r < 2 or (n - 1) % (r - 1) != 0:
        raise ValidationError(f"no spanning trees on {n} vertices for r = {r}")
    k = (n - 1) // (r - 1)
    return n ** (k - 1)
