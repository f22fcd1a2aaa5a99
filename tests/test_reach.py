"""The reach tier: each oracle at the largest size it checks.

Deselected by default; run with ``python -O -m pytest -m reach``.  Each
test states its time budget, about three times what it took under -O on
a 2-vCPU shared host with Python 3.11.7.
"""

import pytest

from hypertrees.parking import count_parking
from hypertrees.shi import build_arrangement, iter_regions, witness_satisfies

pytestmark = pytest.mark.reach


# time budgets: (5,3) 10 s, (6,2) 60 s, (7,1) 30 s; measured 2.5 s, 16.2 s and 12.2 s
@pytest.mark.parametrize("m,r", [(5, 3), (6, 2), (7, 1)])
def test_shi_regions_streamed(m, r):
    # 65,536, 371,293 and 262,144 regions, within the cap of 10^7; the stream holds
    # one path of the search, so memory stays flat as they are counted
    hyperplanes = build_arrangement(m, r)
    count = bounded = 0
    for reg in iter_regions(m, r, cap=10**7):
        assert witness_satisfies(reg, hyperplanes)
        count += 1
        bounded += reg.bounded
    assert count == count_parking(m, r) == (r * m + 1) ** (m - 1)
    assert bounded == (r * m - 1) ** (m - 1)  # |chi(1)|
