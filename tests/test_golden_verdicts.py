"""Golden auditor verdicts on faulty traces and golden adversary outputs.

The other tests assert that correct runs report no violation, which a check
that silently stopped firing would still pass.  Here each audited rule runs
over seeded `random_two_value` streams, two recipients of the trace are
swapped -- inside one block of n consecutive steps, a round of the matching
rules ("round"), or between steps at least n apart ("far") -- and the
(check, t) sequence its auditor reports on the faulty trace is compared with
`fixtures/golden_verdicts.json`:

* priority matching: `PriorityMatchingAuditor(exchange=True)`;
* naive matching: `NaiveMatchingAuditor`;
* deferred priority: `DeferredPriorityAuditor(share_bounds=True, strict=True)`;
* the long-run floors, `oracles.per_pair_asymptotics` (lam = 1, 2), on the
  clean and swapped matching traces, and on traces whose second half all
  goes to agent 1 ("hoard"), which break them.

The replay checkers that perfbench's replay audit calls
(`check_round_guarantees`, `check_structural_guarantees` and
`check_level_set_condition`) are checked on swapped, hoarded and, for
deferred priority, tampered-H traces against their slices of a fresh
default audit.

The adversary cases store the SHA-256 of `ef1_adversary`/`mms_adversary`
runs (choices, per-step ratios, witness, notes) against the no-lookahead
rules for n = 2..5, and `worst_step_share_ratio` on `lows_then_highs`.

Re-record the fixture, only when a change is meant to alter outputs, with
`PYTHONPATH=src python tests/test_golden_verdicts.py --record`.
"""
import dataclasses
import random
from collections import Counter

import pytest

from fairstream.adversaries import ef1_adversary, mms_adversary, worst_step_share_ratio
from fairstream.baselines import GreedyWelfare, RoundRobin
from fairstream.deferred_priority import (DeferredPriority, DeferredPriorityAuditor,
                                          check_level_set_condition,
                                          check_structural_guarantees)
from fairstream.driver import Trace, audit_trace, run_online
from fairstream.generators import lows_then_highs, random_two_value
from fairstream.matching import (NaiveMatching, NaiveMatchingAuditor, PriorityMatching,
                                 PriorityMatchingAuditor, check_round_guarantees)
from golden import FIXTURES, expected, record, sha256
from oracles import per_pair_asymptotics

FIXTURE = FIXTURES / "golden_verdicts.json"

SEEDS = (1, 2, 3, 4, 5, 6)
SWAPS = ("round", "far")
NO_LOOKAHEAD = (DeferredPriority, RoundRobin, GreedyWelfare)
# the checks of a default deferred-priority audit other than `level-sets`
STRUCTURAL = ("one-of-first-n", "high-frequency", "first-high-by-n-seen",
              "overall-frequency", "phase-length", "H-positive")


def swapped(trace, n, how, seed):
    """The trace with the recipients of two steps exchanged (extras kept)."""
    rng = random.Random(f"{how}:{seed}")
    steps = trace.steps
    while True:
        a = rng.randrange(len(steps))
        if how == "round":
            start = a - a % n
            b = rng.randrange(start, min(start + n, len(steps)))
        else:
            b = rng.randrange(len(steps))
            if abs(a - b) < n:
                continue
        if steps[a].agent != steps[b].agent:
            break
    out = list(steps)
    out[a] = dataclasses.replace(steps[a], agent=steps[b].agent)
    out[b] = dataclasses.replace(steps[b], agent=steps[a].agent)
    return Trace(trace.instance, out)


def _run(rule, n, seed):
    if rule == "priority":
        inst = random_two_value(n, 6 * n + 1, seed, bias=0.4, foresight=n - 1)
        return run_online(PriorityMatching(), inst)
    if rule == "naive":
        return run_online(NaiveMatching(), random_two_value(2, 20, seed, bias=0.4, foresight=1))
    return run_online(DeferredPriority(), random_two_value(n, 8 * n, seed, bias=0.35))


def _audit(rule, trace):
    if rule == "priority":
        auditor = PriorityMatchingAuditor(trace.instance, exchange=True)
    elif rule == "naive":
        auditor = NaiveMatchingAuditor(trace.instance)
    else:
        auditor = DeferredPriorityAuditor(trace.instance, share_bounds=True, strict=True)
    return audit_trace(trace, auditor)


def _summary(violations):
    seq = " ".join(f"{v.check}@{v.t}" for v in violations)
    by_check = Counter(v.check for v in violations)
    return {"count": len(violations), "by_check": dict(sorted(by_check.items())),
            "sha256": sha256(seq.encode())}


def verdict(rule, n, how, seed):
    return _summary(_audit(rule, swapped(_run(rule, n, seed), n, how, seed)))


def hoarded(trace):
    """The trace with every step of its second half given to agent 1."""
    half = len(trace.steps) // 2
    return Trace(trace.instance, trace.steps[:half] + [
        dataclasses.replace(s, agent=1) for s in trace.steps[half:]])


def asymptotics(rule, n, how, seed):
    trace = _run(rule, n, seed)
    if how == "hoard":
        trace = hoarded(trace)
    elif how != "clean":
        trace = swapped(trace, n, how, seed)
    out = {}
    for lam in (1, 2):
        t_star, violations = per_pair_asymptotics(trace, lam, naive=rule == "naive")
        out[f"lam{lam}"] = {"t_star": t_star, **_summary(violations)}
    return out


def _adversary_text(adv):
    w = adv.witness
    reports = ";".join(",".join(str(r) for r in rep) for rep in adv.reports)
    notes = ",".join(f"{k}={v}" for k, v in sorted(adv.notes.items()))
    return (f"{adv.kind}|{adv.choices}|{reports}|{w.step},{w.agent},{w.metric},"
            f"{w.ratio},{w.bound}|{notes}")


def adversary(kind, alg, n):
    rule = next(cls for cls in NO_LOOKAHEAD if cls.name == alg)
    adv = ef1_adversary(rule()) if kind == "ef1" else mms_adversary(rule(), n)
    return sha256(_adversary_text(adv).encode())


def known(alg, n):
    rule = next(cls for cls in NO_LOOKAHEAD + (PriorityMatching,) if cls.name == alg)
    return str(worst_step_share_ratio(rule(), lows_then_highs(n, alpha=n)))


CASES = {}
for _n in (2, 3, 4, 5):
    for _how in SWAPS:
        for _seed in SEEDS:
            CASES[f"verdict-priority-n{_n}-{_how}-s{_seed}"] = (verdict, "priority", _n, _how, _seed)
            CASES[f"verdict-deferred-n{_n}-{_how}-s{_seed}"] = (verdict, "deferred", _n, _how, _seed)
    for _how in ("clean", "hoard") + SWAPS:
        CASES[f"asymptotics-priority-n{_n}-{_how}"] = (asymptotics, "priority", _n, _how, 1)
    for _cls in NO_LOOKAHEAD:
        CASES[f"adversary-mms-{_cls.name}-n{_n}"] = (adversary, "mms", _cls.name, _n)
    for _cls in NO_LOOKAHEAD + (PriorityMatching,):
        CASES[f"known-{_cls.name}-n{_n}"] = (known, _cls.name, _n)
for _how in SWAPS:
    for _seed in SEEDS:
        CASES[f"verdict-naive-{_how}-s{_seed}"] = (verdict, "naive", 2, _how, _seed)
for _how in ("clean", "hoard") + SWAPS:
    for _seed in SEEDS[:3]:
        CASES[f"asymptotics-naive-{_how}-s{_seed}"] = (asymptotics, "naive", 2, _how, _seed)
for _cls in NO_LOOKAHEAD:
    CASES[f"adversary-ef1-{_cls.name}"] = (adversary, "ef1", _cls.name, 2)


def compute(case):
    fn, *args = CASES[case]
    return fn(*args)


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdicts_and_adversaries_match_golden(case):
    assert compute(case) == expected(FIXTURE)[case]


def test_faulty_traces_trip_every_auditor():
    """The fixture is not a record of silence: each auditor reports violations."""
    golden = expected(FIXTURE)
    for rule in ("priority", "deferred", "naive"):
        assert sum(v["count"] for k, v in golden.items()
                   if k.startswith(f"verdict-{rule}-")) > 0, rule
    for rule in ("priority", "naive"):
        assert any(res["count"] for k, v in golden.items()
                   if k.startswith(f"asymptotics-{rule}-") for res in v.values()), rule



def tampered_h(trace, seed):
    """The deferred-priority trace with the recorded H vector of one step
    set to all ones (sorted, it breaks the level sets) and of a later step
    given a zero (it breaks H-positivity too)."""
    rng = random.Random(f"H:{seed}")
    steps = list(trace.steps)
    n = trace.instance.n
    a = rng.randrange(len(steps) // 2)
    b = rng.randrange(len(steps) // 2, len(steps))
    steps[a] = dataclasses.replace(steps[a], extras={**steps[a].extras, "H": (1,) * n})
    steps[b] = dataclasses.replace(steps[b], extras={**steps[b].extras,
                                                     "H": (0,) + steps[b].extras["H"][1:]})
    return Trace(trace.instance, steps)


def _replay_cases():
    for n in (2, 3, 4):
        for seed in SEEDS[:3]:
            for rule in ("priority", "deferred"):
                trace = _run(rule, n, seed)
                yield rule, hoarded(trace)
                for how in SWAPS:
                    yield rule, swapped(trace, n, how, seed)
                if rule == "deferred":
                    yield rule, tampered_h(trace, seed)


def test_replay_checkers_are_slices_of_the_default_audit():
    """Each replay checker returns its slice of a fresh default audit, in
    order; the two deferred-priority checkers split that audit between them;
    and each reports something on some faulty trace."""
    found = Counter()
    for rule, trace in _replay_cases():
        if rule == "priority":
            got = check_round_guarantees(trace)
            assert got == audit_trace(trace, PriorityMatchingAuditor(trace.instance))
            found["round"] += len(got)
            continue
        audit = audit_trace(trace, DeferredPriorityAuditor(trace.instance))
        structural = check_structural_guarantees(trace)
        level_sets = check_level_set_condition(trace)
        assert structural == [v for v in audit if v.check in STRUCTURAL]
        assert level_sets == [v for v in audit if v.check == "level-sets"]
        assert len(structural) + len(level_sets) == len(audit)
        found["structural"] += len(structural)
        found["level-sets"] += len(level_sets)
    assert all(found[k] for k in ("round", "structural", "level-sets")), found

if __name__ == "__main__":
    record(FIXTURE, CASES, lambda case, _: compute(case), indent=1)
