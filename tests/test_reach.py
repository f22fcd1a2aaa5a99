"""The reach tier: each oracle at the largest size it checks.

Deselected by default; run with ``python -O -m pytest -m reach``.  Each
test states its time budget, about three times what it took under -O on
a 2-vCPU shared host with Python 3.11.7.
"""

import pytest

from hypertrees.parking import count_parking
from hypertrees.shi import build_arrangement, iter_regions, witness_satisfies

pytestmark = pytest.mark.reach


# time budgets: (5,3) 10 s, (6,2) 60 s; measured 3.1 s and 19.6 s
@pytest.mark.parametrize("m,r", [(5, 3), (6, 2)])
def test_shi_regions_streamed(m, r):
    # 798,280 and 4,484,635 interval choices; the stream holds one path of
    # the search, so memory stays flat over 65,536 and 371,293 regions
    hyperplanes = build_arrangement(m, r)
    count = bounded = 0
    for reg in iter_regions(m, r, cap=10**7):
        assert witness_satisfies(reg, hyperplanes)
        count += 1
        bounded += reg.bounded
    assert count == count_parking(m, r) == (r * m + 1) ** (m - 1)
    assert bounded == (r * m - 1) ** (m - 1)  # |chi(1)|
