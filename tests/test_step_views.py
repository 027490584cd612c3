"""The loops that read every agent's view of a good at once.

`dp_step`, `AllocationState.high_seen` and `PairwiseTracker.observe` each
read per-agent flags derived once per run (alpha == beta, alpha > 0) instead
of asking `sees_high` or `value` once per agent; `plan_round` and
`aux_weight_matrix` build a round's high masks with `sees_high` inlined.
Each is compared here with
the direct oracles on mixed profiles: flat, (0, 0), beta = 0, float and
integer 2-value agents, and float and integer-valued interval streams,
where a value can equal alpha.  `dp_step_reference` is the per-agent loop
that `dp_step` replaced, kept as its oracle.  `high_seen`, counted when it
is read, is compared with a recount under each read pattern.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.deferred_priority import PriorityState, dp_step
from fairstream.matching import _high_masks, aux_weight_matrix
from fairstream.metrics import PairwiseTracker
from fairstream.model import (AgentProfile, AllocationState, Flavor, GoodEvent, Instance,
                              sees_high, value)
from oracles import bundles

TWO_VALUE_PROFILES = [(5, 1), (6, 2), (2, 1), (3, 3), (1, 1), (0, 0), (4, 0), (1, 0),
                      (2.5, 0.0), (2.5, 1.0), (3.0, 3.0), (0.0, 0.0)]
INTERVAL_ALPHAS = [1, 2, 5, 1.0, 2.5, 7.25]


def dp_step_reference(ps, g, agents):
    """`dp_step` as one `sees_high`-style test per agent and good."""
    n = ps.n
    H, L, chi = ps.H, ps.L, ps.chi
    ps.t += 1
    mask = g.high
    hi_members = []
    lo_members = []
    for i in range(n):
        prof = agents[i]
        flat = prof.alpha == prof.beta
        is_high = mask[i] or flat
        if is_high and prof.alpha > 0:
            H[i] -= 1
        else:
            L[i] -= 1
        if not chi[i]:
            if is_high:
                hi_members.append(i)
            if flat or not mask[i]:
                lo_members.append(i)
    if hi_members:
        ps.high += 1
        j = min(hi_members, key=lambda i: (H[i], i))
        H[j] += 3 * n - 2
        chi[j] = 1
    else:
        if not lo_members:
            raise RuntimeError("no eligible recipient: phase accounting is broken")
        ps.low += 1
        j = min(lo_members, key=lambda i: (L[i], i))
        L[j] = 2 * n + ps.t
        if ps.phase == 0:
            chi[j] = 1
    if (ps.phase == 0 and ps.low + ps.high == n) or \
       (ps.phase > 0 and max(ps.low, ps.high) == n):
        ps.phase += 1
        ps.low = 0
        ps.high = 0
        for i in range(n):
            L[i] = 2 * n - 1
            chi[i] = 0
    return j + 1


@st.composite
def two_value_runs(draw, max_n=7, max_m=40):
    """A 2-value instance over mixed profiles and a recipient per good."""
    n = draw(st.integers(1, max_n))
    profiles = draw(st.lists(st.sampled_from(TWO_VALUE_PROFILES), min_size=n, max_size=n))
    m = draw(st.integers(0, max_m))
    flags = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                          min_size=m, max_size=m))
    inst = Instance(agents=[AgentProfile(a, b) for a, b in profiles],
                    goods=[GoodEvent(t, high=f) for t, f in enumerate(flags, 1)])
    return inst, draw(st.lists(st.integers(1, n), min_size=m, max_size=m))


@st.composite
def interval_runs(draw, max_n=5, max_m=20):
    """An interval instance, float or integer valued, where some values
    equal alpha, and a recipient per good."""
    n = draw(st.integers(1, max_n))
    alphas = draw(st.lists(st.sampled_from(INTERVAL_ALPHAS), min_size=n, max_size=n))
    m = draw(st.integers(0, max_m))

    def entry(a):
        if isinstance(a, int):
            return st.integers(1, a)
        return st.one_of(st.just(a), st.just(1.0), st.floats(1.0, a))

    goods = [GoodEvent(t, values=[draw(entry(a)) for a in alphas]) for t in range(1, m + 1)]
    inst = Instance(agents=[AgentProfile(a, 1) for a in alphas], goods=goods,
                    flavor=Flavor.INTERVAL)
    return inst, draw(st.lists(st.integers(1, n), min_size=m, max_size=m))


def runs():
    return st.one_of(two_value_runs(), interval_runs())


@given(two_value_runs(max_n=9, max_m=60))
@settings(max_examples=300, deadline=None)
def test_dp_step_matches_the_per_agent_loop(run):
    inst, _ = run
    got, want = PriorityState.fresh(inst.n), PriorityState.fresh(inst.n)
    for g in inst.goods:
        j = dp_step(got, g, inst.agents)
        assert j == dp_step_reference(want, g, inst.agents)
        assert (got.H, got.L, got.chi, got.phase, got.low, got.high, got.t) == \
            (want.H, want.L, want.chi, want.phase, want.low, want.high, want.t)


def test_dp_step_keeps_its_vectors_and_derives_views_once():
    agents = [AgentProfile(3, 3), AgentProfile(0, 0), AgentProfile(5, 1)]
    ps = PriorityState.fresh(3)
    H, L, chi = ps.H, ps.L, ps.chi
    for t in range(1, 8):
        dp_step(ps, GoodEvent(t, high=[False, False, t % 2 == 0]), agents)
    assert ps.H is H and ps.L is L and ps.chi is chi  # updated in place
    assert ps.views == [(True, True), (True, False), (False, True)]


@given(runs())
@settings(max_examples=300, deadline=None)
def test_ledger_high_counts_match_a_sees_high_recount(run):
    inst, recipients = run
    state = AllocationState(inst)
    for g, a in zip(inst.goods, recipients):
        state.assign(g, a)
        seen = state.goods_seen
        assert state.high_seen == [sum(sees_high(p, e, i) for e in seen)
                                   for i, p in enumerate(inst.agents, 1)]
        assert state.high_received == [
            sum(sees_high(p, seen[idx - 1], i) for idx in bundles(state)[i - 1])
            for i, p in enumerate(inst.agents, 1)]


def _recount(inst, t):
    """Every agent's `sees_high` count over the first t goods."""
    return [sum(sees_high(p, e, i) for e in inst.goods[:t]) for i, p in enumerate(inst.agents, 1)]


@given(runs(), st.sampled_from([None, 1, 2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_high_seen_matches_a_recount_under_every_read_pattern(run, every):
    """`high_seen` counts the goods since its last read when it is read.
    Whether it is never read before t = m (`every` None), read every k-th
    step or read every step, each read equals a direct recount of the log,
    a second read at the same step counts nothing again, and every read
    returns the same list."""
    inst, recipients = run
    state = AllocationState(inst)
    first = state.high_seen
    for t, (g, a) in enumerate(zip(inst.goods, recipients), 1):
        state.assign(g, a)
        if every is not None and t % every == 0:
            assert state.high_seen == _recount(inst, t)
    assert state.high_seen == state.high_seen == _recount(inst, inst.m)
    assert state.high_seen is first


def test_a_bare_run_never_counts_high_goods_seen(monkeypatch):
    """Nothing in a bare `run_online` of deferred priority or priority
    matching reads `high_seen`, so the counting pass never runs.  The
    deferred-priority auditor reads it once per step and counts one good
    each time."""
    from fairstream.deferred_priority import DeferredPriority, DeferredPriorityAuditor
    from fairstream.driver import run_online
    from fairstream.generators import random_two_value
    from fairstream.matching import PriorityMatching

    counted = []
    read = AllocationState.high_seen.fget

    def counting(state):
        counted.append(state.t - state._hs_t)
        return read(state)

    monkeypatch.setattr(AllocationState, "high_seen", property(counting))
    profiles = [(5, 1), (3, 3), (4, 0), (0, 0), (6, 2)]
    dp = random_two_value(10, 100, seed=1, profiles=profiles)
    pm = random_two_value(4, 40, seed=1, profiles=profiles, foresight=3)
    run_online(DeferredPriority(), dp)
    run_online(PriorityMatching(), pm)
    assert counted == []
    run_online(DeferredPriority(), dp, auditors=[DeferredPriorityAuditor(dp)])
    assert sum(counted) == dp.m and set(counted) == {1}


@given(runs())
@settings(max_examples=300, deadline=None)
def test_tracker_tallies_match_direct_sums(run):
    inst, recipients = run
    n = inst.n
    tracker = PairwiseTracker(inst)
    bundles = [[] for _ in range(n + 1)]
    for t, (g, a) in enumerate(zip(inst.goods, recipients), 1):
        tracker.observe(g, a)
        bundles[a].append(g)
        for i, prof in enumerate(inst.agents, 1):
            seen = sum(value(prof, e, i) for e in inst.goods[:t])
            assert tracker.seen_total[i] == seen and type(tracker.seen_total[i]) is type(seen)
            for j in range(1, n + 1):
                vals = [value(prof, e, i) for e in bundles[j]]
                total = sum(vals)
                assert tracker.val[i][j] == total and type(tracker.val[i][j]) is type(total)
                if tracker.two_value:
                    high = sum(v == prof.alpha and prof.alpha > 0 for v in vals)
                    assert tracker.high_cnt[i][j] == high
                else:
                    top = sorted(vals, reverse=True) + [0, 0]
                    assert tracker.top2[i][j] == (top[0], top[1])
        assert tracker.size[1:] == [len(b) for b in bundles[1:]]


@given(runs(), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_round_masks_match_sees_high(run, width):
    inst, _ = run
    n, agents = inst.n, inst.agents
    pi = list(range(n, 0, -1))
    for start in range(0, len(inst.goods), width):
        goods = inst.goods[start:start + width]
        masks = [sum(1 << c for c, g in enumerate(goods) if sees_high(p, g, a))
                 for a, p in enumerate(agents, 1)]
        assert _high_masks(agents, goods) == masks
        weights = aux_weight_matrix(pi, agents, goods)
        for a, (row, mask) in enumerate(zip(weights, masks), 1):
            factor = (2 * n + 1) ** (n - pi[a - 1]) * (2 * n) ** (pi[a - 1] - 1)
            assert row == [2 * factor if mask >> c & 1 else factor for c in range(len(goods))]
