"""Prufer-style codes for hypertrees relative to a fixed block matching.

Every spanning tree on n = (r-1)k + 1 vertices arises from exactly one
block matching of {1,..,n-1}; for a fixed matching the trees in its fiber
correspond bijectively to length-(k-1) sequences over {1,..,n}.  Encoding
repeatedly strips the leaf hyperedge with the smallest matched block and
records its connection point; decoding rebuilds the hyperedges from the
recorded connection points.

Both run in O(rk + k log k), as in the classic Prufer scheme (Caminiti et
al., "On coding labeled trees", TCS 2007): a count per block says when it is
eligible, and one heap yields the smallest eligible block at each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .core import (
    HyperTree,
    InternalError,
    Matching,
    MatchingMismatchError,
    ValidationError,
    _check_labels,
    _check_sizes,
    _edge_blocks,
    _int_groups,
    extract_matching,  # noqa: F401  (unused here, but importable from this module)
    is_spanning_tree,
    tree_size,
)


@dataclass(frozen=True)
class PruferCode:
    """A sequence of k-1 vertex labels in {1,..,n} encoding a tree."""

    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_sizes(n=(self.n, 1))
        object.__setattr__(self, "entries", tuple(self.entries))  # read a one-shot iterable once
        _check_labels(self.entries, 1, self.n, "code entry")


def parse_code(text: str, n: int) -> PruferCode:
    return PruferCode(n, tuple(x for (x,) in _int_groups(text, ",", "code")))


def format_code(c: PruferCode) -> str:
    return ",".join(map(str, c.entries))


def encode(t: HyperTree, m: Matching) -> PruferCode:
    """Code of a spanning tree relative to the matching it arises from.

    Iterates k-1 times: among the current leaf hyperedges (those containing
    a whole block of m all of whose vertices have degree 1), take the one
    with the smallest block; record its connection point, the unique vertex
    outside the block; remove the hyperedge.  The connection point is the
    parent vertex, and a block is a leaf once no remaining hyperedge hangs on it.
    """
    blocks, parent = _edge_blocks(t)
    if m.block_size != t.r - 1 or sorted(blocks) != list(m.blocks):
        raise MatchingMismatchError("tree does not arise from this matching")
    n, k, index = t.n, len(blocks), m.index
    conn = [0] * k  # connection point of each block's hyperedge
    below = [0] * k  # remaining hyperedges whose parent vertex is in the block
    for b, p in zip(blocks, parent):
        conn[index[b[0]]] = p
        if p != n:
            below[index[p]] += 1
    leaves = [i for i in range(k) if not below[i]]  # ascending, so a heap
    entries = []
    for _ in range(k - 1):
        s = conn[heappop(leaves)]
        entries.append(s)
        if s != n:
            j = index[s]
            below[j] -= 1
            if not below[j]:
                heappush(leaves, j)
    return PruferCode(n, tuple(entries))


def decode(code: PruferCode, m: Matching, r: int) -> HyperTree:
    """Rebuild the spanning tree encoded by ``code`` relative to ``m``.

    At step i the block b_i is the smallest unfinished block that does not
    contain any later connection point s_j (j >= i); the hyperedge
    b_i + {s_i} is added and b_i marked finished.  Exactly one block
    survives the k-1 steps and joins vertex n in the final hyperedge; the
    empty matching takes the empty code and gives the one-vertex tree.
    """
    _check_labels((r,), None, None, "size")
    if m.block_size != r - 1:
        raise ValidationError(f"matching block size {m.block_size} != r-1 = {r - 1}")
    n = m.m + 1
    if code.n != n:
        raise ValidationError(f"code is over [{code.n}], matching needs [{n}]")
    k = len(m.blocks)
    if len(code.entries) != max(k - 1, 0):
        want = f"k-1 = {k - 1}" if k else "0 for the empty matching"
        raise ValidationError(f"code length {len(code.entries)} != {want}")
    later = [0] * k  # connection points s_j, j >= i, inside each block
    for s in code.entries:
        if s != n:
            later[m.index[s]] += 1
    ready = [i for i in range(k) if not later[i]]  # ascending, so a heap
    edges = []
    for s in code.entries:
        edges.append(m.blocks[heappop(ready)] + (s,))
        if s != n:
            j = m.index[s]
            later[j] -= 1
            if not later[j]:
                heappush(ready, j)
    for i in ready:  # one block left, none at k = 0
        edges.append(m.blocks[i] + (n,))
    tree = HyperTree(n, r, tuple(edges))
    if not is_spanning_tree(tree):
        raise InternalError("decoded hyperedges do not form a spanning tree")
    return tree


def count_trees_for_matching(n: int, r: int) -> int:
    """Number of spanning trees arising from any one fixed matching: n^(k-1)."""
    k = tree_size(n, r)
    if k is None:
        raise ValidationError(f"no spanning trees on {n} vertices for r = {r}")
    return n ** (k - 1) if k else 1
