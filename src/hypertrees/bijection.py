"""BFS-order bijection between hypertrees and r-parking functions.

Spanning trees of uniformity r+1 on n = r*k + 1 vertices that arise from
the consecutive matching {1..r | r+1..2r | ...} correspond bijectively to
r-parking functions of length k.  The forward map reads, for each block,
the BFS rank of its connection vertex among all candidate connection
vertices; the inverse attaches blocks to the growing tree in weakly
increasing order of their values.

The forward map reads each block's connection vertex off one breadth-first
search from n.  A pendant hyperedge changes no existing distance, so the
inverse builds the BFS order level by level: the complete levels sorted in
one list, the level below them unsorted.  Values come in weakly increasing
order, so once one points into that level, every later block joins it or a
deeper level and it gains no more vertices: it is complete, and it is sorted
once, by label.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    HyperTree,
    Matching,
    MatchingMismatchError,
    ValidationError,
    _check_sizes,
    _walk,
)
from .parking import is_r_parking


def consecutive_matching(k: int, block_size: int) -> Matching:
    """The matching {1..b | b+1..2b | ...} with k blocks of size b."""
    _check_sizes(k=(k, 0), block_size=(block_size, 1))
    blocks = tuple(
        tuple(range(i * block_size + 1, (i + 1) * block_size + 1)) for i in range(k)
    )
    return Matching(block_size, blocks)


def tree_to_parking(t: HyperTree) -> tuple[int, ...]:
    """Parking function of a tree arising from the consecutive matching.

    For block i the candidate hyperedges are block + {x} over all x outside
    the block, ordered by BFS rank of x; the value a_i is the 0-based rank
    of the unique tree hyperedge among them.  That x is the block's parent
    vertex, which ranks before every block vertex (for r = 1 as well).
    The one-vertex tree maps to the empty function.
    """
    parent, dist = _walk(t)
    rank = {v: i for i, v in enumerate(sorted(range(1, t.n + 1), key=dist.__getitem__))}
    out = [0] * len(parent)
    for e, p in zip(t.edges, parent):
        low = e[1] if e[0] == p else e[0]  # the block's minimum, as e is sorted
        # blocks of size r partition {1..rk}: consecutive iff every minimum is 1 mod r
        i, offset = divmod(low - 1, t.r - 1)
        if offset:
            raise MatchingMismatchError("tree does not arise from the consecutive matching")
        out[i] = rank[p]
    return tuple(out)


def parking_to_tree(a: Sequence[int], r: int) -> HyperTree:
    """Tree of uniformity r+1 mapping to the r-parking function ``a``.

    Blocks are attached in weakly increasing order of their values (ties by
    block index); block i with value b joins the vertex at BFS rank b of the
    partial tree built so far, where the root n has rank 0.  The parking
    bound guarantees that rank already exists.
    """
    if not is_r_parking(a, r):
        raise ValidationError(f"{tuple(a)} is not an r-parking function for r = {r}")
    n = r * len(a) + 1
    ranked = [n]  # the complete BFS levels, in (distance, label) order
    below: list[int] = []  # the level below them, unsorted
    edges: list[tuple[int, ...]] = []
    for i in sorted(range(len(a)), key=a.__getitem__):
        if a[i] >= len(ranked):  # the first value past the complete levels:
            ranked += sorted(below)  # no later block joins above that level, so it is complete
            below = []
        block = tuple(range(r * i + 1, r * (i + 1) + 1))
        edges.append(block + (ranked[a[i]],))
        below += block
    return HyperTree(n, r + 1, tuple(edges))
