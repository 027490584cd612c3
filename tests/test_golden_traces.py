"""Golden digests of deferred-priority and baseline trace CSVs.

Each case runs one rule over one seeded stream and compares the SHA-256 of
its trace CSV with `fixtures/golden_traces.json`.  Deferred-priority rows
carry the phase and the full H, L and chi vectors after every step, so a
change to `dp_step` that moves one counter fails here, not only one that
moves a recipient.  Every row's `as_high` column is read from the ledger
(`AllocationState.high_received`), so the baselines' cases pin the ledger's
high/low view on both flavours.

The grid:

* deferred priority at n = 2, 7, 32, 128 with flag densities 0.1, 0.3 and
  0.8, on the default profile pool and on a mixed pool holding (0, 0), a
  flat (3, 3), a zero-low (4, 0), an integer (6, 2) and a float (2.5, 1.0)
  agent;
* round-robin and greedy-welfare on the same two pools, and on float and
  integer-valued interval streams (where a value can equal alpha).

Re-record the fixture, only when a change is meant to alter outputs, with
`PYTHONPATH=src python tests/test_golden_traces.py --record`.
"""
import random

import pytest

from fairstream.baselines import GreedyWelfare, RoundRobin
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import run_online, trace_csv_rows
from fairstream.generators import interval_random, random_two_value
from fairstream.model import AgentProfile, Flavor, GoodEvent, Instance
from golden import FIXTURES, expected, record, sha256

FIXTURE = FIXTURES / "golden_traces.json"

PROFILES = {
    "default": None,
    "mixed": ((0, 0), (3, 3), (4, 0), (6, 2), (2.5, 1.0)),
}
BIASES = (0.1, 0.3, 0.8)
RULES = {"deferred-priority": DeferredPriority, "round-robin": RoundRobin,
         "greedy-welfare": GreedyWelfare}


def interval_integer(n, m, seed):
    """Interval stream with integer values in [1, alpha_i]: about one value
    in alpha_i equals alpha_i, so the ledger's `v == alpha` test is hit."""
    rng = random.Random(seed)
    agents = [AgentProfile(rng.randint(2, 6), 1) for _ in range(n)]
    goods = [GoodEvent(t, values=[rng.randint(1, a.alpha) for a in agents])
             for t in range(1, m + 1)]
    return Instance(agents=agents, goods=goods, flavor=Flavor.INTERVAL)


def two_value(n, prof, bias):
    return lambda: random_two_value(n, 10 * n + 7, 1000 * n + int(bias * 10), bias=bias,
                                    profiles=PROFILES[prof])


CASES = {f"deferred-priority-n{n}-{prof}-b{bias}": ("deferred-priority", two_value(n, prof, bias))
         for n in (2, 7, 32, 128) for prof in PROFILES for bias in BIASES}
for _rule in ("round-robin", "greedy-welfare"):
    for _n in (2, 7, 32):
        for _prof in PROFILES:
            CASES[f"{_rule}-n{_n}-{_prof}"] = (_rule, two_value(_n, _prof, 0.3))
    for _n in (3, 7):
        CASES[f"{_rule}-n{_n}-interval-float"] = (
            _rule, lambda n=_n: interval_random(n, 10 * n, 50 + n))
        CASES[f"{_rule}-n{_n}-interval-int"] = (
            _rule, lambda n=_n: interval_integer(n, 10 * n, 60 + n))


def digest(rule, make_instance):
    alg = RULES[rule]()
    rows = trace_csv_rows(run_online(alg, make_instance()), alg.trace_columns)
    return sha256("\n".join(rows).encode())


@pytest.mark.parametrize("case", sorted(CASES))
def test_traces_match_golden_digests(case):
    assert digest(*CASES[case]) == expected(FIXTURE)[case]


if __name__ == "__main__":
    record(FIXTURE, CASES, lambda case, _: digest(*CASES[case]))
