"""Auditors that read the ledger's per-viewer maxima against per-pair oracles.

`PriorityMatchingAuditor`, `NaiveMatchingAuditor` and `check_asymptotics`
test each viewer once, against its largest removable value over the other
agents (`PairwiseTracker.maxima`), and scan the other agents only for a
viewer whose maximum fails.  The functions below are the per-pair loops
they replaced: every ordered pair (i, j) at every step.  Both must report
the same `Violation` records in the same order.

The golden verdict fixture pins these auditors on integer instances only,
so the corpus here is float-valued: priority and naive matching on 2-value
streams with float profiles and on threshold proxies of interval streams,
with two recipients swapped (inside a round or far apart) or the second half
of the stream hoarded by agent 1, which breaks the checks.
"""
import dataclasses
import random
from collections import Counter

import pytest

from fairstream.driver import Trace, Violation, audit_trace, replay_states, run_online
from fairstream.generators import interval_random, random_two_value
from fairstream.matching import (NaiveMatching, NaiveMatchingAuditor, PriorityMatching,
                                 PriorityMatchingAuditor, check_asymptotics)
from fairstream.reduction import threshold_round

FLOAT_PROFILES = ((2.5, 1), (5, 1.5), (2.5, 2.5), (1.5, 0), (0.3, 0.1), (0.7, 0.1), (7.1, 0.3))
CORPUS_SEEDS = range(12)
STEP_CHECKS = ("ef2", "half-ef1-recovery", "ef1-round")


def per_pair_round_checks(trace):
    """Priority matching's per-step EF2 and half-EF1 checks and its round
    EF1 check over every ordered pair; returns (violations, the steps where
    half-EF1 failed)."""
    n = trace.instance.n
    out, half_failures, deadline = [], [], None
    for state, _ in replay_states(trace):
        tr = state.pairwise()
        t = state.t
        half_ok = True
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                if not tr.is_efk(i, j, 2):
                    out.append(Violation("ef2", t, i, f"vs agent {j}"))
                if not tr.is_efk(i, j, 1, 1, 2):
                    half_ok = False
        if not half_ok:
            half_failures.append(t)
            if deadline is None:
                deadline = -(-t // n) * n
            elif t >= deadline:
                out.append(Violation("half-ef1-recovery", t, None,
                                     "failed after recovery deadline"))
        if t % n == 0:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j and not tr.is_efk(i, j, 1):
                        out.append(Violation("ef1-round", t, i, f"vs agent {j}"))
    return out, half_failures


def per_pair_alternation_checks(trace):
    """The two-agent rule's EF2 check at every step and EF1 at even steps."""
    out = []
    for state, _ in replay_states(trace):
        tr = state.pairwise()
        t = state.t
        for i, j in ((1, 2), (2, 1)):
            if not tr.is_efk(i, j, 2):
                out.append(Violation("ef2", t, i, f"vs agent {j}"))
        if t % 2 == 0:
            for i, j in ((1, 2), (2, 1)):
                if not tr.is_efk(i, j, 1):
                    out.append(Violation("ef1-even", t, i, f"vs agent {j}"))
    return out


def per_pair_asymptotics(trace, lam, naive=False):
    """`check_asymptotics` with its EF and EF1 floors checked on every pair;
    returns (t_star, violations)."""
    inst = trace.instance
    n = inst.n
    t_star = None
    prop_den = lam + 1 if naive else lam + 2
    violations = []
    for state, _ in replay_states(trace):
        tr = state.pairwise()
        t = state.t
        if t_star is None and all(tr.val[i][i] >= lam * inst.agents[i - 1].alpha
                                  for i in range(1, n + 1)):
            t_star = t
        if t_star is None:
            continue
        for i in range(1, n + 1):
            own = tr.val[i][i]
            if prop_den * n * own < lam * tr.seen_total[i]:
                violations.append(Violation("prop-floor", t, i, f"v={own}"))
            for j in range(1, n + 1):
                if i == j:
                    continue
                if (lam + 2) * own < lam * tr.val[i][j]:
                    violations.append(Violation("ef-floor", t, i, f"vs agent {j}"))
                if not tr.is_efk(i, j, 1, lam, lam + 1):
                    violations.append(Violation("ef1-floor", t, i, f"vs agent {j}"))
    return t_star, violations


def _float_stream(n, seed):
    return random_two_value(n, 6 * n + 1, seed, bias=0.4, profiles=FLOAT_PROFILES,
                            foresight=n - 1)


def _proxy_stream(n, seed):
    return threshold_round(interval_random(n, 6 * n + 1, seed, foresight=n - 1)).proxy


def _variants(trace, n, seed):
    """The trace with two recipients swapped inside a round and far apart,
    and with its second half hoarded by agent 1."""
    rng = random.Random(seed)
    steps = trace.steps
    out = []
    for how in ("round", "far"):
        while True:
            a = rng.randrange(len(steps))
            if how == "round":
                b = rng.randrange(a - a % n, min(a - a % n + n, len(steps)))
            else:
                b = rng.randrange(len(steps))
                if abs(a - b) < n:
                    continue
            if steps[a].agent != steps[b].agent:
                break
        swapped = list(steps)
        swapped[a] = dataclasses.replace(steps[a], agent=steps[b].agent)
        swapped[b] = dataclasses.replace(steps[b], agent=steps[a].agent)
        out.append(Trace(trace.instance, swapped))
    half = len(steps) // 2
    out.append(Trace(trace.instance, steps[:half] + [
        dataclasses.replace(s, agent=1) for s in steps[half:]]))
    return out


def _corpus(make, ns, rule):
    for n in ns:
        for seed in CORPUS_SEEDS:
            trace = run_online(rule(), make(n, seed))
            yield trace, n
            yield from ((v, n) for v in _variants(trace, n, seed))


@pytest.mark.parametrize("make", [_float_stream, _proxy_stream], ids=["float", "proxy"])
def test_priority_auditor_matches_per_pair_loops(make):
    seen = Counter()
    for trace, n in _corpus(make, (2, 3, 4, 5), PriorityMatching):
        aud = PriorityMatchingAuditor(trace.instance, exchange=True)
        got = audit_trace(trace, aud)
        want, half_failures = per_pair_round_checks(trace)
        assert [v for v in got if v.check in STEP_CHECKS] == want
        assert aud.half_ef1_failures == half_failures
        seen.update(v.check for v in want)
        seen["half-ef1"] += bool(half_failures)
        for lam in (1, 2):
            res = check_asymptotics(trace, lam)
            assert (res.t_star, res.violations) == per_pair_asymptotics(trace, lam)
            seen.update(v.check for v in res.violations)
    # the corpus breaks every check the maxima serve
    for check in ("ef2", "ef1-round", "half-ef1", "ef-floor", "ef1-floor"):
        assert seen[check] > 0, (check, seen)


@pytest.mark.parametrize("make", [_float_stream, _proxy_stream], ids=["float", "proxy"])
def test_naive_auditor_matches_per_pair_loops(make):
    seen = Counter()
    for trace, _ in _corpus(lambda n, seed: make(2, seed), (2,), NaiveMatching):
        got = audit_trace(trace, NaiveMatchingAuditor(trace.instance))
        want = per_pair_alternation_checks(trace)
        assert [v for v in got if v.check in ("ef2", "ef1-even")] == want
        seen.update(v.check for v in want)
        for lam in (1, 2):
            res = check_asymptotics(trace, lam, naive=True)
            assert (res.t_star, res.violations) == per_pair_asymptotics(trace, lam, naive=True)
    assert seen["ef2"] > 0 and seen["ef1-even"] > 0, seen
