"""The reach tier: each oracle at the largest size it checks.

Deselected by default; run with ``python -O -m pytest -m reach``.  Each
test states its time budget, about three times what it took under -O on
a 2-vCPU shared host with Python 3.11.7.
"""

import pytest

from hypertrees import verify

pytestmark = pytest.mark.reach


# time budgets: (5,3) 20 s, (6,2) 90 s, (7,1) 60 s; measured 5.8 s, 29.4 s and 22.0 s, at a peak
# RSS of 23, 69 and 48 MB: the check keeps every label of a row
@pytest.mark.parametrize("m,r", [(5, 3), (6, 2), (7, 1)])
def test_shi_triangle_streamed(m, r):
    # 65,536, 371,293 and 262,144 regions: the verify shi check streams them, keeping
    # only their labels, and checks each witness, label, bounded flag and tree
    [(ok, text)] = verify.check_shi([(m, r)])
    assert ok, text
