"""Golden digests of `mms_two_value` on profiles outside its closed-form paths.

Each case is one (alpha, beta) profile.  It walks n = 1..5 and every h + l <=
16 and compares the SHA-256 of the lines ``h,l,alpha,beta,n,share,class``
(values as `repr`, the share's class by name) with
`fixtures/golden_shares.json`.  The profiles are the ones the integer binary
search does not cover: non-dyadic floats, integers where beta does not divide
alpha, int alpha with float beta (and the reverse), and `Fraction`s.  There a
share's last bit and its class follow from the convention, k highs worth
``k * alpha`` and then the lows added one at a time, so a switch to the
left-fold convention of the lift's proxy search fails here.  The grid is
large because the two conventions differ on few cases: on four non-dyadic
profiles, in repr on 14 of 1,092 cases with h + l <= 12 and n = 2..4.

Re-record the fixture, only when a change is meant to alter outputs, with
`PYTHONPATH=src python tests/test_golden_shares.py --record`.
"""
import math
from fractions import Fraction

import pytest

from fairstream.metrics import mms_two_value
from golden import FIXTURES, expected, record, sha256

FIXTURE = FIXTURES / "golden_shares.json"

MAX_GOODS = 16
NS = range(1, 6)

CASES = {
    "float-0.7-0.1": (0.7, 0.1),
    "float-2.5-0.3": (2.5, 0.3),
    "sqrt-2": (2, math.sqrt(2)),
    "sqrt-3": (3, math.sqrt(3)),
    "sqrt-5": (5, math.sqrt(5)),
    "sqrt-10": (10, math.sqrt(10)),
    "int-7-3": (7, 3),
    "int-5-2": (5, 2),
    "mixed-4-2.0": (4, 2.0),
    "mixed-2.5-1": (2.5, 1),
    "fraction-5/2-2/3": (Fraction(5, 2), Fraction(2, 3)),
}


def share_lines(alpha, beta) -> bytes:
    lines = []
    for n in NS:
        for h in range(MAX_GOODS + 1):
            for l in range(MAX_GOODS + 1 - h):
                mu = mms_two_value(h, l, alpha, beta, n)
                lines.append(f"{h},{l},{alpha!r},{beta!r},{n},{mu!r},{mu.__class__.__name__}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_shares_match_golden_digests(case):
    assert sha256(share_lines(*CASES[case])) == expected(FIXTURE)[case]


if __name__ == "__main__":
    record(FIXTURE, CASES, lambda case, tmp_dir: sha256(share_lines(*CASES[case])))
