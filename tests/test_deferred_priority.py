import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.deferred_priority import (DeferredPriority, DeferredPriorityAuditor,
                                          PriorityState, check_level_set_condition,
                                          check_structural_guarantees, dp_step)
from fairstream.driver import run_online
from fairstream.generators import random_two_value
from fairstream.model import AgentProfile, GoodEvent, Instance
from oracles import check_level_sets, check_share_bounds, level_sets


def _profiles(*pairs):
    return [AgentProfile(a, b) for a, b in pairs]


def test_initialization():
    ps = PriorityState.fresh(3)
    assert ps.H == [3, 3, 3] and ps.L == [5, 5, 5]
    assert ps.chi == [0, 0, 0] and (ps.phase, ps.low, ps.high) == (0, 0, 0)


def test_step_universal_high_pair():
    agents = _profiles((5, 1), (5, 1))
    ps = PriorityState.fresh(2)
    j = dp_step(ps, GoodEvent(1, high=[True, True]), agents)
    assert j == 1  # tie on H broken lexicographically
    assert ps.H == [5, 1] and ps.chi == [1, 0] and ps.high == 1
    j = dp_step(ps, GoodEvent(2, high=[True, True]), agents)
    assert j == 2
    assert ps.H == [4, 4]
    assert ps.phase == 1 and ps.low == 0 and ps.high == 0  # phase 0 closed
    assert ps.chi == [0, 0] and ps.L == [3, 3]


def test_step_universal_low():
    agents = _profiles((5, 1), (5, 1))
    ps = PriorityState.fresh(2)
    j = dp_step(ps, GoodEvent(1, high=[False, False]), agents)
    assert j == 1
    assert ps.L == [5, 2]  # winner pushed to 2n + t
    assert ps.chi == [1, 0]  # phase 0 receipt deactivates


def test_inactive_high_seer_leaves_good_to_low_side():
    # after agent 1 takes the opener, a good only it values highly must be
    # allocated as low-valued to agent 2
    agents = _profiles((5, 1), (5, 1))
    inst = Instance(agents=agents,
                    goods=[GoodEvent(1, high=[False, False]),
                           GoodEvent(2, high=[True, False])])
    trace = run_online(DeferredPriority(), inst)
    assert trace.choices == [1, 2]
    assert trace.steps[1].as_high is False


def test_flat_agents_always_compete_for_highs():
    # an alpha == beta agent joins the high side on every good
    agents = _profiles((1, 1), (5, 1))
    inst = Instance(agents=agents, goods=[GoodEvent(1, high=[False, False])])
    trace = run_online(DeferredPriority(), inst)
    assert trace.steps[0].as_high is True
    assert trace.choices == [1]


def test_check_level_sets_unit():
    assert check_level_sets(PriorityState.fresh(4))
    bad = PriorityState.fresh(2)
    bad.H = [1, 1]
    assert not check_level_sets(bad)
    assert level_sets([1, 1], 2) == {0: [], 1: [1, 2], 2: []}


def test_all_low_stream_gives_one_each_by_n():
    for n in (2, 3, 5):
        inst = Instance(agents=_profiles(*[(5, 1)] * n),
                        goods=[GoodEvent(t, high=[False] * n) for t in range(1, n + 1)])
        trace = run_online(DeferredPriority(), inst)
        assert sorted(trace.choices) == list(range(1, n + 1))
        assert not check_structural_guarantees(trace)


def test_short_stream_degrades_gracefully():
    inst = Instance(agents=_profiles((5, 1), (5, 1), (5, 1)),
                    goods=[GoodEvent(1, high=[True, True, True])])
    trace = run_online(DeferredPriority(), inst)
    assert not check_structural_guarantees(trace)


def test_two_goods_in_phase_after_zero():
    # by t = n + (2n - 1) every agent holds at least 2 goods
    for n in (2, 3, 4):
        m = n + (2 * n - 1)
        inst = random_two_value(n, m, seed=3, bias=0.4, profiles=[(5, 1)] * n)
        trace = run_online(DeferredPriority(), inst)
        assert not check_structural_guarantees(trace)
        counts = [0] * n
        for step in trace.steps:
            counts[step.agent - 1] += 1
        assert min(counts) >= 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_streams_satisfy_all_audits(n):
    for seed in range(40):
        inst = random_two_value(n, 80, seed, bias=0.3)
        aud = DeferredPriorityAuditor(inst, share_bounds=True, strict=True)
        run_online(DeferredPriority(), inst, auditors=[aud])
        assert aud.finish() == []


@given(st.integers(2, 5), st.integers(0, 60), st.integers(0, 10 ** 6),
       st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_property_invariants_on_random_streams(n, m, seed, bias):
    inst = random_two_value(n, m, seed, bias=bias)
    trace = run_online(DeferredPriority(), inst)
    assert not check_structural_guarantees(trace)
    assert not check_level_set_condition(trace)
    assert not check_share_bounds(trace)


def test_trace_csv_columns():
    from fairstream.driver import trace_csv_rows

    inst = random_two_value(2, 4, seed=0)
    trace = run_online(DeferredPriority(), inst)
    rows = list(trace_csv_rows(trace, DeferredPriority.trace_columns))
    assert rows[0] == "t,good,allocated_to,as_high,phase,H,L,chi"
    assert len(rows) == 5
