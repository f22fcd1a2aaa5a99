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
from itertools import accumulate, chain, combinations
from operator import mul
from typing import Iterable, Iterator, Sequence

DEFAULT_CAP = 10**8


class ValidationError(ValueError):
    """Malformed domain object or out-of-contract argument."""


class ResourceCapError(RuntimeError):
    """An exhaustive enumeration would exceed its configured search cap."""


class MatchingMismatchError(ValidationError):
    """The given tree does not arise from the given matching."""


class InternalError(RuntimeError):
    """A result broke the library's own postcondition: a defect in the library, not in the input."""


def _check_labels(values: Iterable, lo: int | None, hi: int | None, what: str) -> None:
    """Refuse a value whose type is not exactly int (bool, float, Fraction, str
    and None are refused) or that lies outside [lo, hi]: ``lo`` None checks the
    type only, and ``hi`` None takes lo = 0 ("negative entry -1").  Sizes with a
    lower bound go through ``_check_sizes``."""
    for v in values:
        if type(v) is not int:
            raise ValidationError(f"{what} {v!r} is not an integer")
        if lo is not None and (v < lo or hi is not None and v > hi):
            if hi is None:
                raise ValidationError(f"negative {what} {v}")
            raise ValidationError(f"{what} {v} outside [{lo}, {hi}]")


def _check_sizes(**bounds: tuple[int, int]) -> None:
    """Refuse sizes ``name=(value, lo)``: a non-int first, as ``_check_labels`` does, then,
    all types checked, a value below its lo, naming every bound ("need n >= 1 and r >= 2")."""
    for v, lo in bounds.values():
        if type(v) is not int or v < lo:
            _check_labels([value for value, _ in bounds.values()], None, None, "size")
            need = " and ".join(f"{name} >= {low}" for name, (_, low) in bounds.items())
            raise ValidationError(f"need {need}")


def _check_cap(bounds: Iterable[int], cap: int, what: str) -> None:
    """Refuse a count above ``cap`` by its form ``what`` ("region count 47^45"),
    never by its digits.  ``bounds`` holds lower bounds of the count, such as its
    partial products, and ends at the count; none is read past the first above the cap."""
    if any(p > cap for p in bounds):
        raise ResourceCapError(f"{what} exceeds cap {cap}")


def _check_power(base: int, exp: int, cap: int, what: str) -> None:
    """``_check_cap`` for the count base^exp, named "{what} {base}^{exp}"."""
    _check_cap((base**e for e in range(exp + 1)), cap, f"{what} {base}^{exp}")


def _canonical(groups: Iterable, what: str) -> tuple[tuple[int, ...], ...]:
    """Each group sorted, then the groups sorted; refuses groups and labels that do not sort."""
    try:
        groups = tuple(groups)  # a tuple comes back as itself; a generator is read once
        return tuple(sorted(map(tuple, map(sorted, groups))))
    except TypeError:  # a group (or ``groups``) that is not iterable, or a str or None among ints
        for g in groups if isinstance(groups, tuple) else (groups,):
            if not isinstance(g, Iterable):
                raise ValidationError(f"expected groups of {what} labels, got {g!r}") from None
        _check_labels([v for g in groups for v in g], None, None, what)
        raise ValidationError(f"{what} labels are not all integers") from None  # a one-shot group


@dataclass(frozen=True)
class HyperTree:
    """A candidate spanning tree: r-element hyperedges on {1,..,n}.

    Stored canonically: each hyperedge sorted ascending, hyperedges sorted
    lexicographically.  Construction validates well-formedness only; the
    tree property itself is checked by :func:`is_spanning_tree`.  The tree is
    immutable, so the first call that needs its walk from n stores it.
    """

    n: int
    r: int
    edges: tuple[tuple[int, ...], ...]
    _walked: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, init=False, compare=False, repr=False
    )  # ``_walk``'s (parent, dist), once a walk has succeeded

    def __post_init__(self) -> None:
        n, r = self.n, self.r
        tree_size(n, r)  # refuses n < 1 and r < 2
        canon = _canonical(self.edges, "vertex")
        for e in canon:
            if len(e) != r:
                raise ValidationError(f"hyperedge {e} has size {len(e)}, expected {r}")
            _check_labels(e, None, None, "vertex")  # ahead of repeats: 2.0 is not taken for 2
            if len(set(e)) != len(e):
                raise ValidationError(f"hyperedge {e} repeats a vertex")
            if e[0] < 1 or e[-1] > n:  # e is sorted ints, r >= 2 of them
                _check_labels(e, 1, n, "vertex")
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
        _check_sizes(block_size=(self.block_size, 1))
        canon = _canonical(self.blocks, "block member")
        for b in canon:
            if len(b) != self.block_size:
                raise ValidationError(f"block {b} has size {len(b)}, expected {self.block_size}")
        _check_labels(chain.from_iterable(canon), None, None, "block member")
        index = {v: i for i, b in enumerate(canon) for v in b}
        m = self.block_size * len(canon)
        if index.keys() != set(range(1, m + 1)):  # m labels: a repeat leaves one uncovered
            raise ValidationError(f"blocks do not partition [1, {m}]")
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
        return tuple(tuple(map(int, part.split(","))) for part in text.split(sep) if part)
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from None


def parse_tree(text: str, n: int, r: int) -> HyperTree:
    return HyperTree(n, r, _int_groups(text, ";", "tree"))


def format_tree(t: HyperTree) -> str:
    # every hyperedge has t.r vertices, so one "%d" template formats them all
    edge = ",".join(["%d"] * t.r)
    return ";".join([edge] * len(t.edges)) % tuple(chain.from_iterable(t.edges))


def parse_matching(text: str, b: int) -> Matching:
    return Matching(b, _int_groups(text, "|", "matching"))


def format_matching(m: Matching) -> str:
    return "|".join(",".join(map(str, b)) for b in m.blocks)


# ---------------------------------------------------------------------------
# the spanning-tree predicate and brute-force enumeration


def _walk(t: HyperTree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(parent, dist)`` of a breadth-first search from the top vertex n;
    refuses anything but a spanning tree.  Made once per tree, stored on it.

    ``parent[j]`` is the vertex of ``t.edges[j]`` nearest n and ``dist[v]``
    the hyperedge distance of v from n.
    """
    if t._walked is not None:
        return t._walked
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
    object.__setattr__(t, "_walked", (tuple(parent), tuple(dist)))
    return t._walked


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
    _check_sizes(n=(n, 1), r=(r, 2))
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
    Refuses up front, at the first ``next()``, when the unpruned search space
    C(C(n,r), k) exceeds ``cap``.
    """
    k = tree_size(n, r)
    _check_labels((cap,), None, None, "cap")
    if k is None:
        return

    def bounds() -> Iterator[int]:
        # C(N, k) >= N = C(n, r) once k >= 1 (then n >= r): N's partial products come first,
        # so N is built only when none is above the cap; C(N-k+j, j), j = 0..k, rise to C(N, k)
        if k:
            yield from (math.comb(n - r + j, j) for j in range(r + 1))
        n_edges = math.comb(n, r)
        yield from (math.comb(n_edges - k + j, j) for j in range(k + 1))

    _check_cap(bounds(), cap, f"search space C(C({n},{r}),{k})")
    all_edges = list(combinations(range(1, n + 1), r))

    def extend(start: int, comp: Sequence[int], chosen: tuple) -> Iterator[HyperTree]:
        # comp[v]: a vertex of v's component in the forest ``chosen``
        if len(chosen) == k:
            yield HyperTree(n, r, chosen)
            return
        for idx in range(start, len(all_edges)):
            edge = all_edges[idx]
            labels = []
            for v in edge:
                if comp[v] in labels:
                    break
                labels.append(comp[v])
            else:
                merged = [edge[0] if c in labels else c for c in comp]
                yield from extend(idx + 1, merged, chosen + (edge,))

    yield from extend(0, range(n + 1), ())


# ---------------------------------------------------------------------------
# closed-form counts


def _matching_factors(m: int, b: int) -> Iterator[int]:
    """The factors C(j*b - 1, b - 1), j = 1 .. m/b, of the count of partitions of
    {1,..,m} into size-b blocks (fix the smallest unplaced element, choose its b-1
    partners), or one factor 0 when b does not divide m; m and b are checked at the call."""
    _check_sizes(m=(m, 0), b=(b, 1))
    if m % b != 0:
        return iter((0,))
    return (math.comb(j * b - 1, b - 1) for j in range(1, m // b + 1))


def count_matchings_formula(m: int, b: int) -> int:
    """Number of partitions of {1,..,m} into blocks of size b, the product of
    ``_matching_factors``: zero when b does not divide m, one when m = 0 or b = 1."""
    factors = list(_matching_factors(m, b))
    # multiply in pairwise rounds, so operands of equal size meet: one running
    # product would be quadratic in the digit count
    while len(factors) > 1:
        factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return math.prod(factors)


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
    """Yield all partitions of {1,..,m} into size-b blocks, canonical order, none when b
    does not divide m.  Arguments and cap (``DEFAULT_CAP``) are checked at the first ``next()``."""
    rising = accumulate(_matching_factors(m, b), mul, initial=1)
    if m % b != 0:
        return
    _check_cap(rising, DEFAULT_CAP, f"matching count of [{m}] in blocks of {b}")

    def rec(remaining: list[int], blocks: tuple) -> Iterator[Matching]:
        if not remaining:
            yield Matching(b, blocks)
            return
        first, rest = remaining[0], remaining[1:]
        for partners in combinations(rest, b - 1):
            yield from rec([v for v in rest if v not in partners], blocks + ((first,) + partners,))

    yield from rec(list(range(1, m + 1)), ())


# ---------------------------------------------------------------------------
# matching extraction


def _edge_blocks(t: HyperTree) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
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

