"""Maximin shares in the run's ledger, and the share floors certified
before the oracle.

`AllocationState.maximin_shares` warm-starts each agent's binary search from
its last share; it must equal the cold `mms_two_value` at every step, however
far apart the reads are.  The auditors' mms-type1..3 and mms-round checks
ask the oracle only when c * n * v falls short of the value seen; the
reference checks below ask it, or take the paper's closed form, every
time, and both must report the same `Violation` records in the same order.  The deferred-priority auditor reads the value
seen from the ledger, so its prop-quarter records are compared with a
reference that adds the value up itself.
"""
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairstream.deferred_priority as dp_module
import fairstream.matching as matching_module
import fairstream.metrics as metrics_module
from fairstream.deferred_priority import DeferredPriority, DeferredPriorityAuditor
from fairstream.driver import Trace, Violation, audit_trace, replay_states, run_online
from fairstream.generators import interval_random, random_two_value
from fairstream.matching import PriorityMatching, PriorityMatchingAuditor
from fairstream.metrics import _floor_certified, _mms_two_value_fast, mms_two_value
from fairstream.model import (AgentProfile, AgentType, AllocationState, GoodEvent, Instance,
                              value)

# (profile, largest n): the enumerating solver (beta does not divide alpha,
# or float values) is kept to small n
PROFILES = [((5, 1), 8), ((2, 1), 8), ((1, 1), 8), ((1, 0), 8), ((0, 0), 4), ((3, 2), 3),
            ((2.5, 1.0), 3), ((4, 0), 8), ((2.5, 0.0), 8)]


class ShareReader:
    """Observer that reads every agent's ledger share every `every` steps
    and compares it with the cold oracle."""

    def __init__(self, instance, every):
        self.instance = instance
        self.every = every
        self.reads = 0

    def observe(self, state, good, agent, extras):
        if state.t % self.every:
            return
        for i, (prof, got) in enumerate(zip(self.instance.agents, state.maximin_shares()), 1):
            h = state.high_seen[i - 1]
            want = mms_two_value(h, state.t - h, prof.alpha, prof.beta, state.n)
            assert got == want and type(got) is type(want), (state.t, i, got, want)
            self.reads += 1


@pytest.mark.parametrize("profile, n_max", PROFILES)
@pytest.mark.parametrize("every", [1, 7, 40])
def test_ledger_share_equals_oracle(profile, n_max, every):
    for n in sorted({1, 2, n_max}):
        for seed in range(3):
            m = 150 if n_max > 3 else 40
            inst = random_two_value(n, m, seed, bias=0.2 + 0.2 * seed, profiles=[profile] * n)
            reader = ShareReader(inst, every)
            run_online(DeferredPriority(), inst, auditors=[reader])
            assert reader.reads == n * (m // every)


# one instance per row: every profile kind the ledger answers on its own
# path, mixed in one run
SHARE_GRID = [
    [(5, 1), (6, 3), (4, 4), (3, 1)],                               # beta | alpha
    [(3, 2), (5, 3), (7, 2)],                                       # beta does not divide alpha
    [(0.7, 0.1), (2.5, 0.3), (1.1, 1.1)],                           # non-dyadic floats, flat
    [(Fraction(7, 3), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2)), (2, 1)],
    [(0, 0), (4, 0), (2.5, 0.0), (5, 1), (0.0, 0.0)],               # alpha = 0, beta = 0
    [(5, 1), (3, 2), (0.7, 0.1), (Fraction(5, 2), 1), (1, 1), (2, 0)],
]


@pytest.mark.parametrize("profiles", SHARE_GRID)
@pytest.mark.parametrize("every", [1, 3, 11])
def test_ledger_shares_equal_the_oracle_on_a_profile_grid(profiles, every):
    """`maximin_shares()` returns a new list whose every entry equals the cold
    `mms_two_value` in value and type, read at every step or every k steps,
    so that a warm start may jump several goods."""
    n = len(profiles)
    for seed in range(3):
        inst = random_two_value(n, 60, seed, bias=0.25 + 0.15 * seed, profiles=profiles)
        state = AllocationState(inst)
        rng = random.Random(seed)
        last = None
        for g in inst.goods:
            state.assign(g, rng.choice([1, 2, rng.randrange(1, n + 1)]))
            if state.t % every:
                continue
            got = state.maximin_shares()
            assert got is not last and len(got) == n
            for i, (prof, mu) in enumerate(zip(inst.agents, got), 1):
                h = state.high_seen[i - 1]
                want = mms_two_value(h, state.t - h, prof.alpha, prof.beta, n)
                assert mu == want and type(mu) is type(want), (seed, state.t, i, mu, want)
            last = got


def test_ledger_share_on_mixed_profiles_and_repeated_reads():
    inst = random_two_value(8, 200, 11, profiles=[p for p, _ in PROFILES[:5]] + [(6, 3)] * 3)
    state = AllocationState(inst)
    rng = random.Random(5)
    for g in inst.goods:
        state.assign(g, rng.randrange(1, 9))
        if rng.random() < 0.3:
            for i in rng.sample(range(1, 9), 3):
                h = state.high_seen[i - 1]
                prof = inst.agents[i - 1]
                want = mms_two_value(h, state.t - h, prof.alpha, prof.beta, 8)
                assert state.maximin_shares()[i - 1] == want
                assert state.maximin_shares()[i - 1] == want  # a second read at the same t


@pytest.mark.parametrize("profile", [(1, 0), (4, 0), (0, 0), (2.5, 0.0), (0.0, 0.0)])
def test_zero_value_shares_skip_the_oracle(profile, monkeypatch):
    """alpha = 0 gives share 0 and beta = 0 gives alpha * floor(h / n),
    answered by the ledger itself with the oracle's value and type."""
    inst = random_two_value(5, 80, 3, profiles=[profile] * 5)
    trace = run_online(DeferredPriority(), inst)
    want = [mms_two_value(s.high_seen[0], s.t - s.high_seen[0], *profile, 5)
            for s, _ in replay_states(trace)]
    oracle = CountingOracle()
    monkeypatch.setattr(metrics_module, "mms_two_value", oracle)
    got = [s.maximin_shares()[0] for s, _ in replay_states(trace)]
    assert got == want and [type(x) for x in got] == [type(x) for x in want]
    assert oracle.calls == 0


def test_ledger_share_needs_a_two_value_instance():
    state = AllocationState(interval_random(2, 4, 0))
    with pytest.raises(ValueError, match="2-value"):
        state.maximin_shares()


@given(st.integers(0, 40), st.integers(0, 40), st.sampled_from([(5, 1), (2, 1), (1, 1), (6, 2)]),
       st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_fast_search_on_any_range_holding_the_share(h, l, pair, n, data):
    alpha, beta = pair
    mu = _mms_two_value_fast(h, l, alpha, beta, n)
    assert mu == mms_two_value(h, l, alpha, beta, n)
    lo = data.draw(st.integers(0, mu))
    hi = data.draw(st.integers(mu, (h * alpha + l * beta) // n))
    assert _mms_two_value_fast(h, l, alpha, beta, n, lo, hi) == mu


# ---------------------------------------------------------------------------
# certified floors
# ---------------------------------------------------------------------------


class CountingOracle:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return mms_two_value(*args)


@pytest.fixture
def counted(monkeypatch):
    """Count the auditors' oracle calls."""
    oracle = CountingOracle()
    monkeypatch.setattr(dp_module, "mms_two_value", oracle)
    monkeypatch.setattr(matching_module, "mms_two_value", oracle)
    return oracle


def reference_shares(trace):
    """mms-type1..3 over every step and agent of types 1 to 3, and
    prop-quarter over type-1 agents.  A type-1 share is asked of the oracle
    every time; a flat agent's is alpha * floor(t / n) and a zero-low
    agent's alpha * floor(h / n), the paper's closed forms.  The value seen
    is folded left in arrival order, as a run adds it up; `sum` would round
    differently on Python 3.12+."""
    inst, n = trace.instance, trace.instance.n
    factor = {AgentType.TYPE1: 2 * n - 1, AgentType.TYPE2: 2, AgentType.TYPE3: 3}
    seen = [0] * n
    out = []
    for state, step in replay_states(trace):
        good = inst.goods[step.t - 1]
        for i, prof in enumerate(inst.agents, 1):
            seen[i - 1] += value(prof, good, i)
            kind = prof.kind
            if kind == AgentType.TYPE0:
                continue
            hr, gr = state.high_received[i - 1], state.goods_received[i - 1]
            own = hr * prof.alpha + (gr - hr) * prof.beta
            hs = state.high_seen[i - 1]
            if kind == AgentType.TYPE1:
                mu = mms_two_value(hs, state.t - hs, prof.alpha, prof.beta, n)
            elif kind == AgentType.TYPE2:
                mu = prof.alpha * (state.t // n)
            else:
                mu = prof.alpha * (hs // n)
            if factor[kind] * own < mu:
                out.append(Violation(f"mms-type{kind.value}", state.t, i, f"v={own}, mu={mu}"))
            if kind == AgentType.TYPE1 and hr >= 1 and 4 * n * own < seen[i - 1]:
                out.append(Violation("prop-quarter", state.t, i,
                                     f"v={own}, seen={seen[i - 1]}"))
    return out


def reference_round(trace):
    """mms-round at every round boundary, asking the oracle every time."""
    inst, n = trace.instance, trace.instance.n
    out = []
    for state, _ in replay_states(trace):
        if state.t % n:
            continue
        own = state.pairwise().val
        for i, prof in enumerate(inst.agents, 1):
            hs = state.high_seen[i - 1]
            mu = mms_two_value(hs, state.t - hs, prof.alpha, prof.beta, n)
            if n * own[i][i] < mu:
                out.append(Violation("mms-round", state.t, i, f"mu={mu}"))
    return out


def hoard(trace, keeper, seed):
    """Give most goods to `keeper`, leaving a random few where they were."""
    rng = random.Random(seed)
    steps = [s if rng.random() < 0.2 else dataclasses.replace(s, agent=keeper)
             for s in trace.steps]
    return Trace(trace.instance, steps)


FLOOR_PROFILES = [None, [(5, 1), (2, 1)], [(2.5, 1.0), (7.5, 0.5)], [(6, 1), (6, 1)]]
# non-dyadic floats, a flat agent and a zero low value
SHARE_PROFILES = FLOOR_PROFILES + [[(0.7, 0.1), (2.5, 0.3), (1.1, 1.1), (0.3, 0.0)]]


@pytest.mark.parametrize("profiles", SHARE_PROFILES)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_type1_floor_guard_keeps_every_verdict(profiles, n, counted):
    """The auditor's mms-type1..3 and prop-quarter records, detail text
    included, equal the reference's, which asks the oracle or takes the
    closed form every time and folds the value seen itself; the auditor
    reads the value seen from the ledger.  Every floor check of an agent of
    type 1 to 3 either asks the oracle or is settled by the bound."""
    found = {"mms-type1": 0, "mms-type2": 0, "mms-type3": 0, "prop-quarter": 0}
    for seed in range(4):
        inst = random_two_value(n, 60, seed, profiles=profiles)
        trace = run_online(DeferredPriority(), inst)
        for tr in (trace, hoard(trace, 1 + seed % n, seed)):
            want = reference_shares(tr)
            counted.calls = 0
            auditor = DeferredPriorityAuditor(inst, share_bounds=True)
            got = [v for v in audit_trace(tr, auditor) if v.check in found]
            assert got == want
            floored = sum(p.kind != AgentType.TYPE0 for p in inst.agents)
            assert counted.calls + auditor.oracle_skips == floored * len(tr.steps)
            for v in want:
                found[v.check] += 1
    assert found["mms-type1"] and found["prop-quarter"], \
        f"the hoarded traces should break both type-1 floors: {found}"


@pytest.mark.parametrize("profiles", FLOOR_PROFILES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_floor_guard_keeps_every_verdict(profiles, n, counted):
    found = 0
    for seed in range(4):
        inst = random_two_value(n, 12 * n, seed, profiles=profiles, foresight=n - 1)
        trace = run_online(PriorityMatching(), inst)
        for tr in (trace, hoard(trace, 1 + seed % n, seed)):
            want = reference_round(tr)
            counted.calls = 0
            auditor = PriorityMatchingAuditor(inst)
            got = [v for v in audit_trace(tr, auditor) if v.check == "mms-round"]
            assert got == want
            assert counted.calls + auditor.oracle_skips == n * (len(tr.steps) // n)
            found += len(want)
    assert found, "the hoarded traces should break some round floor"


def test_type1_floor_consults_the_oracle_below_the_bound(counted):
    """Two (5, 1)-agents, eight universally low goods; agent 1 keeps only
    the first (c = 3).  Up to t = 6 the bound 3 * 2 * 1 >= t settles it
    (t = 6 with equality), at t = 7 the oracle is asked and passes
    (3 * 1 >= mu = 3), at t = 8 it fails."""
    inst = Instance([AgentProfile(5, 1)] * 2, [GoodEvent(t, high=(False, False))
                                               for t in range(1, 9)])
    steps = [dataclasses.replace(s, agent=1 if s.t == 1 else 2)
             for s in run_online(DeferredPriority(), inst).steps]
    trace = Trace(inst, steps)
    auditor = DeferredPriorityAuditor(trace.instance, share_bounds=True)
    violations = [v for v in audit_trace(trace, auditor) if v.check == "mms-type1"]
    assert violations == [Violation("mms-type1", 8, 1, "v=1, mu=4")]
    # agent 1 is asked at t = 7 and 8, agent 2 (holding nothing) at t = 1
    assert counted.calls == 3 and auditor.oracle_skips == 2 * 8 - 3


@pytest.mark.parametrize("profile, high, asked, violations", [
    # flat (2, 2), c = 2: up to t = 4 the bound 2 * 2 * 2 >= 2t settles it,
    # from t = 5 the oracle is asked; mu = 2 * floor(t / 2) passes at t = 5
    ((2, 2), False, 5, [Violation("mms-type2", 6, 1, "v=2, mu=6"),
                        Violation("mms-type2", 7, 1, "v=2, mu=6"),
                        Violation("mms-type2", 8, 1, "v=2, mu=8")]),
    # zero-low (3, 0) on high goods, c = 3: up to t = 6 the bound
    # 3 * 2 * 3 >= 3t settles it, then mu = 3 * floor(t / 2) passes at t = 7
    ((3, 0), True, 3, [Violation("mms-type3", 8, 1, "v=3, mu=12")]),
], ids=["flat", "zero-low"])
def test_flat_and_zero_low_floors_consult_the_oracle_below_the_bound(
        profile, high, asked, violations, counted):
    """Two agents of one profile, eight goods; agent 1 keeps only the first.
    The oracle is asked exactly when c * n * v is below the value seen: for
    agent 1 once that bound fails, for agent 2 (holding nothing) at t = 1."""
    inst = Instance([AgentProfile(*profile)] * 2, [GoodEvent(t, high=(high, high))
                                                   for t in range(1, 9)])
    steps = [dataclasses.replace(s, agent=1 if s.t == 1 else 2)
             for s in run_online(DeferredPriority(), inst).steps]
    trace = Trace(inst, steps)
    auditor = DeferredPriorityAuditor(trace.instance, share_bounds=True)
    assert [v for v in audit_trace(trace, auditor) if v.check.startswith("mms-")] == violations
    assert counted.calls == asked and auditor.oracle_skips == 2 * 8 - asked


def test_round_floor_consults_the_oracle_below_the_bound(counted):
    """n = 2, c = 2, one high and one low good for both agents: the agent
    holding the low good has 2 * 2 * 1 < 6, so the oracle is asked and
    passes (2 * 1 >= mu = 1); the other is settled by 2 * 2 * 5 >= 6."""
    agents = [AgentProfile(5, 1)] * 2
    goods = [GoodEvent(1, high=(True, True)), GoodEvent(2, high=(False, False))]
    inst = Instance(agents, goods, foresight=1)
    trace = run_online(PriorityMatching(), inst)
    auditor = PriorityMatchingAuditor(inst)
    assert [v for v in audit_trace(trace, auditor) if v.check == "mms-round"] == []
    assert counted.calls == 1 and auditor.oracle_skips == 1



def floor_skips(trace):
    """How many share-floor checks of agents of types 1 to 3 over the run
    `_floor_certified(c * n * v, seen)` settles, with seen read from the
    ledger, as the auditor reads it."""
    inst, n = trace.instance, trace.instance.n
    factor = {AgentType.TYPE1: 2 * n - 1, AgentType.TYPE2: 2, AgentType.TYPE3: 3}
    skips = 0
    for state, _ in replay_states(trace):
        seen = state.pairwise().seen_total
        for i, p in enumerate(inst.agents, 1):
            if p.kind in factor:
                hr, gr = state.high_received[i - 1], state.goods_received[i - 1]
                own = hr * p.alpha + (gr - hr) * p.beta
                skips += _floor_certified(factor[p.kind] * n * own, seen[i])
    return skips


@pytest.mark.parametrize("profiles, exact", [
    ([(5, 1), (2, 1), (3, 2), (4, 0)], True),
    ([(2.5, 1.0), (0.7, 0.1), (1.1, 1.1)], False),
    # int alpha, float beta: own value and value seen stay ints up to the first low
    ([(5, 1.5), (3, 0.5), (4, 2.0)], False),
    ([(Fraction(5, 2), Fraction(2, 3)), (5, 1), (Fraction(3), Fraction(3))], True),
], ids=["int", "float", "mixed", "fraction"])
def test_share_floor_decides_exactness_once_per_agent(profiles, exact, counted):
    """The auditor compares c * n * v with the value seen by a plain >= for
    an agent whose alpha and beta are both exact, decided once per run.  It
    settles exactly the checks that `_floor_certified` settles, asks the
    oracle for the others, and records what a reference auditor that calls
    `_floor_certified` for every agent records, in order."""
    for n in (2, 3):
        for seed in range(3):
            inst = random_two_value(n, 40, seed, profiles=profiles)
            floored = sum(p.kind != AgentType.TYPE0 for p in inst.agents)
            trace = run_online(DeferredPriority(), inst)
            for tr in (trace, hoard(trace, 1 + seed % n, seed)):
                counted.calls = 0
                auditor = DeferredPriorityAuditor(inst, share_bounds=True)
                assert [v[4] for v in auditor._views] == [exact] * n
                got = audit_trace(tr, auditor)
                skips = floor_skips(tr)
                assert auditor.oracle_skips == skips
                assert counted.calls == floored * len(tr.steps) - skips
                reference = DeferredPriorityAuditor(inst, share_bounds=True)
                reference._views = [v[:4] + (False,) for v in reference._views]
                assert got == audit_trace(tr, reference)
