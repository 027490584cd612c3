"""Acceptance suite: one test per guarantee, exact arithmetic throughout.

Each test prints a single pass/fail line (run with `pytest -s` or via the
`fairstream verify` subcommand to see them all).  Corpora are seeded and
fixed; every bound is checked at its stated tolerance: exact rational
comparison on integer-valued instances, 1e-9 relative tolerance where the
threshold reduction introduces irrational values.
"""
import random
import time
from fractions import Fraction

import pytest

from fairstream.adversaries import (ef1_adversary, lows_then_highs, mms_adversary,
                                    worst_step_share_ratio)
from fairstream.baselines import GreedyWelfare, RoundRobin
from fairstream.deferred_priority import DeferredPriority, DeferredPriorityAuditor
from fairstream.driver import run_online
from fairstream.generators import interval_random, random_two_value
from fairstream.matching import (NaiveMatching, NaiveMatchingAuditor, PriorityMatching,
                                 PriorityMatchingAuditor)
from fairstream.metrics import mms_exhaustive, mms_two_value
from fairstream.reduction import lift_guarantee, threshold_round
from oracles import per_pair_asymptotics, sandwich_holds

CORPUS_NS = (2, 3, 4, 5, 6)
CORPUS_SEEDS = 1000
CORPUS_M = 200


def _corpus(n):
    for i in range(CORPUS_SEEDS):
        yield random_two_value(n, CORPUS_M, seed=n * 100_000 + i, bias=0.3)


def _report(num, ok, detail):
    print(f"\n[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}")


@pytest.fixture(scope="module")
def structural_pass():
    """One audited run of the deferred-priority corpus (no share checks)."""
    violations = []
    t0 = time.time()
    for n in CORPUS_NS:
        for inst in _corpus(n):
            aud = DeferredPriorityAuditor(inst)
            run_online(DeferredPriority(), inst, auditors=[aud])
            violations.extend(aud.finish())
    return violations, time.time() - t0


def test_criterion_01_structural_guarantees(structural_pass):
    violations, elapsed = structural_pass
    structural = [v for v in violations
                  if v.check in ("one-of-first-n", "high-frequency",
                                 "first-high-by-n-seen", "overall-frequency",
                                 "phase-length", "H-positive")]
    ok = not structural and elapsed < 60.0
    _report(1, ok, f"{CORPUS_SEEDS} streams per n in {CORPUS_NS}, m={CORPUS_M}; "
                   f"{len(structural)} violations; {elapsed:.1f}s (< 60s)")
    assert ok, (structural[:5], elapsed)


def test_criterion_02_level_sets(structural_pass):
    violations, _ = structural_pass
    bad = [v for v in violations if v.check == "level-sets"]
    _report(2, not bad, f"sorted-H condition at every step end; {len(bad)} violations")
    assert not bad, bad[:5]


def test_criterion_03_share_floors():
    bad = []
    for n in CORPUS_NS:
        for inst in _corpus(n):
            aud = DeferredPriorityAuditor(inst, share_bounds=True)
            run_online(DeferredPriority(), inst, auditors=[aud])
            bad.extend(v for v in aud.finish() if v.check.startswith(("mms-", "prop-")))
    _report(3, not bad, "per-type floors 1/2, 1/3, 1/(2n-1) and the 1/4 "
                        f"proportionality clause; {len(bad)} violations")
    assert not bad, bad[:5]


def test_criterion_04_adversary_meets_algorithm_floor():
    t0 = time.time()
    ok = True
    details = []
    for n in (2, 3, 4, 5):
        trace = mms_adversary(DeferredPriority(), n)
        bound = Fraction(1, 2 * n - 1)
        lowest = min(min(r) for r in trace.reports)
        ok = ok and trace.witness.ratio == bound and lowest == bound
        details.append(f"n={n}: witness {trace.witness.ratio} at t={trace.witness.step}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report(4, ok, "; ".join(details) + f"; {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_05_ef1_impossibility():
    results = []
    ok = True
    for alg_cls in (DeferredPriority, RoundRobin, GreedyWelfare):
        trace = ef1_adversary(alg_cls())
        good = trace.witness.ratio <= Fraction(1, 2) and trace.witness.step <= 5
        ok = ok and good
        results.append(f"{alg_cls.name}: {trace.witness.ratio} at t={trace.witness.step}")
    _report(5, ok, "; ".join(results))
    assert ok


def test_criterion_06_naive_matching_even_steps():
    bad = []
    for i in range(CORPUS_SEEDS):
        inst = random_two_value(2, CORPUS_M, seed=7_000_000 + i, bias=0.35, foresight=1)
        aud = NaiveMatchingAuditor(inst)
        run_online(NaiveMatching(), inst, auditors=[aud])
        bad.extend(aud.finish())
    _report(6, not bad, f"{CORPUS_SEEDS} two-agent streams, m={CORPUS_M}: exact EF1 at "
                        f"even steps, EF2 always, alternation invariant; "
                        f"{len(bad)} violations")
    assert not bad, bad[:5]


def test_criterion_07_priority_matching_rounds():
    bad = []
    triggered = 0
    for n in CORPUS_NS:
        for i in range(CORPUS_SEEDS):
            inst = random_two_value(n, 50 * n, seed=8_000_000 + n * 10_000 + i,
                                    bias=0.35, foresight=n - 1)
            aud = PriorityMatchingAuditor(inst)
            run_online(PriorityMatching(), inst, auditors=[aud])
            bad.extend(aud.finish())
            triggered += bool(aud.half_ef1_failures)
    _report(7, not bad, f"{CORPUS_SEEDS} streams per n in {CORPUS_NS}, m=50n: EF1 at "
                        f"multiples of n, EF2 always, acyclic boundary graphs, "
                        f"n*v >= share at boundaries; half-EF1 recovery triggered on "
                        f"{triggered} streams; {len(bad)} violations")
    assert not bad, bad[:5]


def test_criterion_08_full_lookahead_floor():
    ok = True
    details = []
    for n in CORPUS_NS:
        algs = [DeferredPriority(), RoundRobin(), GreedyWelfare(), PriorityMatching()]
        if n == 2:
            algs.append(NaiveMatching())
        worst = {}
        for alg in algs:
            ratio = worst_step_share_ratio(alg, lows_then_highs(n, alpha=n))
            worst[alg.name] = ratio
            ok = ok and ratio <= Fraction(1, n)
        details.append(f"n={n}: max over rules {max(worst.values())} <= 1/{n}")
    _report(8, ok, "; ".join(details))
    assert ok


def test_criterion_09_share_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    for alpha, beta in ((5, 1), (2, 1), (1, 0), (1, 1)):
        for n in (1, 2, 3, 4):
            for total in range(13):
                for h in range(total + 1):
                    l = total - h
                    a = mms_two_value(h, l, alpha, beta, n)
                    b = mms_exhaustive([alpha] * h + [beta] * l, n)
                    mismatches += a != b
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(9, ok, f"all (h,l,n,alpha,beta) with h+l<=12, n<=4: {mismatches} "
                   f"mismatches; {elapsed:.2f}s (< 30s)")
    assert ok


def test_criterion_10_reduction_transfer():
    failures = []
    for seed in range(200):
        rng = random.Random(90_000 + seed)
        n = 2 + seed % 3
        m = 6 + seed % 7
        alphas = [rng.uniform(2.0, 25.0) for _ in range(n)]
        inst = interval_random(n, m, seed=90_000 + seed, alphas=alphas,
                               foresight=n - 1)
        pair = threshold_round(inst)
        for agent in range(1, n + 1):
            subset = [i for i in range(1, m + 1) if rng.random() < 0.5]
            if not sandwich_holds(pair, agent, subset):
                failures.append(f"sandwich seed={seed} agent={agent}")
        alg = DeferredPriority() if seed % 2 == 0 else PriorityMatching()
        trace = run_online(alg, pair.proxy)
        try:
            rows = lift_guarantee(pair, trace)  # transfer + share domination checks
        except AssertionError as e:
            failures.append(f"lift seed={seed}: {e}")
            continue
        a_star = pair.a_star
        for row in rows:
            if seed % 2 == 0:
                if "mms" in row.original and \
                        float(row.original["mms"]) < (1 / (2 * n - 1)) / a_star - 1e-9:
                    failures.append(f"floor seed={seed} t={row.t}")
            else:
                if float(row.original["ef2"]) < 1 / a_star - 1e-9:
                    failures.append(f"ef2 floor seed={seed} t={row.t}")
                if row.t % n == 0 and float(row.original["ef1"]) < 1 / a_star - 1e-9:
                    failures.append(f"ef1 floor seed={seed} t={row.t}")
    _report(10, not failures, "200 interval instances (n<=4, m<=12, alpha<=25): "
                              "sandwich, share domination, transfer floors; "
                              f"{len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_11_long_run_floors():
    failures = []
    unreached = 0
    for i in range(50):
        inst = random_two_value(2, 2000, seed=60_000 + i, bias=0.4, foresight=1)
        trace = run_online(NaiveMatching(), inst)
        for lam in (1, 2, 4):
            t_star, violations = per_pair_asymptotics(trace, lam, naive=True)
            if t_star is None:
                unreached += 1
            failures.extend(violations)
    for i in range(50):
        inst = random_two_value(3, 2000, seed=61_000 + i, bias=0.4, foresight=2)
        trace = run_online(PriorityMatching(), inst)
        for lam in (1, 2, 4):
            t_star, violations = per_pair_asymptotics(trace, lam)
            if t_star is None:
                unreached += 1
            failures.extend(violations)
    ok = not failures and unreached == 0
    _report(11, ok, "100 streams of m=2000, lam in {1,2,4}: floors lam/(lam+2)-EF, "
                    f"lam/(lam+1)-EF1, prop; {len(failures)} violations, "
                    f"{unreached} premises unreached")
    assert ok, (failures[:5], unreached)
