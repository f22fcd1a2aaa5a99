"""r-parking functions: recognition, simulation, enumeration, counting."""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from .core import DEFAULT_CAP, _check_labels, _check_power, _check_sizes, _int_groups


def _fits(a: Sequence[int], r: int) -> bool:
    """The sorted bound on checked entries: b_i <= r*(i-1) for the sorted b."""
    return all(x <= r * i for i, x in enumerate(sorted(a)))


def is_r_parking(a: Sequence[int], r: int) -> bool:
    """True iff the sorted rearrangement b satisfies b_i <= r*(i-1) for all i."""
    _check_sizes(k=(len(a), 0), r=(r, 1))
    _check_labels(a, 0, None, "entry")
    return _fits(a, r)


def simulate_parking(a: Sequence[int]) -> bool:
    """Greedy car-parking simulation on slots 0..k-1 (the r=1 semantics).

    Car i drives to its preferred slot and, if occupied, keeps moving to
    higher slots; returns True iff every car finds a spot.  Agrees with
    is_r_parking(a, 1) on every input.
    """
    _check_labels(a, 0, None, "entry")
    k = len(a)
    occupied = [False] * k
    for pref in a:
        slot = pref
        while slot < k and occupied[slot]:
            slot += 1
        if slot >= k:
            return False
        occupied[slot] = True
    return True


def enumerate_parking(k: int, r: int, cap: int = DEFAULT_CAP) -> Iterator[tuple[int, ...]]:
    """All r-parking functions of length k in lexicographic order.

    Entries above r*(k-1) can never satisfy the sorted bound, so scanning
    {0,..,r*(k-1)}^k is exhaustive; for k = 0 the empty sequence, the one
    point of {0}^0, is the only one, as ``count_parking(0, r)`` says.  The
    arguments and the cap are checked at the first ``next()``.
    """
    _check_sizes(k=(k, 0), r=(r, 1))
    _check_labels((cap,), None, None, "cap")
    top = r * max(k - 1, 0)
    _check_power(top + 1, k, cap, "search space")
    for a in product(range(top + 1), repeat=k):
        if _fits(a, r):  # entries from ``range``: no check needed
            yield a


def count_parking(k: int, r: int) -> int:
    """Number of r-parking functions of length k: (r*k + 1)^(k-1)."""
    _check_sizes(k=(k, 0), r=(r, 1))
    if k == 0:
        return 1
    return (r * k + 1) ** (k - 1)


def parse_sequence(text: str) -> tuple[int, ...]:
    return tuple(x for (x,) in _int_groups(text, ",", "sequence"))


def format_sequence(a: Sequence[int]) -> str:
    return ",".join(map(str, a))
