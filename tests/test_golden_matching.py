"""Golden digests of priority-matching trace CSVs.

Each case runs `PriorityMatching` over three seeded `random_two_value`
streams (flag densities 0.2, 0.5 and 0.8) and compares the SHA-256 of their
trace CSVs -- choice, round, ranking and committed round plan per step --
with `fixtures/golden_matching.json`.  The grid covers both solvers' sides of
every size the rule is run at, m divisible and not divisible by n (partial
final rounds), and the default, float, alpha == beta and (0, 0) profiles, so
a solver change that alters a single tie-break fails here.

Re-record the fixture, only when a change is meant to alter outputs, with
`PYTHONPATH=src python tests/test_golden_matching.py --record`.
"""
import hashlib

import pytest

from fairstream.driver import run_online, trace_csv_rows
from fairstream.generators import random_two_value
from fairstream.matching import PriorityMatching
from golden import FIXTURES, expected, record

FIXTURE = FIXTURES / "golden_matching.json"

SIZES = (2, 3, 4, 6, 7, 8, 12, 16)
PROFILES = {
    "default": None,
    "float": ((2.5, 1.0), (5.0, 1.5), (1.75, 0.25)),
    "flat": ((3, 3), (4, 1), (2, 2)),  # alpha == beta agents see every good high
    "zero": ((0, 0), (3, 1), (2, 0)),
}
SEEDS = ((11, 0.2), (12, 0.5), (13, 0.8))  # (seed, probability of a high flag)


def lengths(n):
    """One m divisible by n and one that leaves a partial final round."""
    return (3 * n, 3 * n + max(1, n // 2))


CASES = {f"n{n}-{prof}-m{m}": (n, m, prof)
         for n in SIZES for prof in PROFILES for m in lengths(n)}


def digest(n, m, prof):
    h = hashlib.sha256()
    for seed, bias in SEEDS:
        inst = random_two_value(n, m, seed, bias=bias, profiles=PROFILES[prof],
                                foresight=n - 1)
        rows = trace_csv_rows(run_online(PriorityMatching(), inst),
                              PriorityMatching.trace_columns)
        h.update("\n".join(rows).encode() + b"\n\n")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_priority_matching_traces_match_golden_digests(case):
    assert digest(*CASES[case]) == expected(FIXTURE)[case]


if __name__ == "__main__":
    record(FIXTURE, CASES, lambda case, _: digest(*CASES[case]))
