from functools import lru_cache
from itertools import combinations

import pytest

from hypertrees.core import HyperTree, ValidationError, is_spanning_tree


@lru_cache(maxsize=None)
def naive_spanning_trees(n: int, r: int) -> tuple[HyperTree, ...]:
    """Unpruned oracle: filter every k-subset of hyperedges directly."""
    if (n - 1) % (r - 1) != 0:
        return ()
    k = (n - 1) // (r - 1)
    out = []
    for subset in combinations(combinations(range(1, n + 1), r), k):
        t = HyperTree(n, r, subset)
        if is_spanning_tree(t):
            out.append(t)
    return tuple(out)


def outcome(f, *args):
    """f(*args), or the type and message of the ValidationError it raises."""
    try:
        return f(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="session")
def trees_7_3():
    return naive_spanning_trees(7, 3)
