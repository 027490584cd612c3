import json
from fractions import Fraction
from pathlib import Path

import pytest

import fairstream.matching as matching_module
import fairstream.metrics as metrics_module
from fairstream.driver import audit_trace, run_online, trace_csv_rows
from fairstream.generators import random_two_value
from fairstream.matching import (CONTESTED_I, CONTESTED_II, Commitment, NaiveMatching,
                                 NaiveMatchingAuditor, PATTERN_TABLE, PriorityMatching,
                                 PriorityMatchingAuditor, RoundPlan, aux_weight_matrix,
                                 check_round_guarantees, naive_step, plan_round,
                                 priority_round_plan)
from fairstream.model import AgentProfile, AllocationState, GoodEvent, Instance
from oracles import pattern_table_json, per_pair_asymptotics

FIXTURE = Path(__file__).parent / "fixtures" / "pattern_table.json"


# ---------------------------------------------------------------------------
# the pattern table
# ---------------------------------------------------------------------------

def test_pattern_table_shape():
    assert len(PATTERN_TABLE) == 16
    contested = [v for v in PATTERN_TABLE.values() if v in (CONTESTED_I, CONTESTED_II)]
    assert len(contested) == 2
    assert PATTERN_TABLE[(False, True, False, True)] == CONTESTED_I
    assert PATTERN_TABLE[(True, False, True, False)] == CONTESTED_II


def test_pattern_table_fixed_entries():
    assert PATTERN_TABLE[(False, False, False, False)] == "g"
    assert PATTERN_TABLE[(True, True, False, False)] == "g"
    assert PATTERN_TABLE[(False, False, True, True)] == "g'"
    assert PATTERN_TABLE[(True, True, True, True)] == "g"
    assert PATTERN_TABLE[(False, True, False, False)] == "g'"


def test_fixed_patterns_weakly_prefer_assigned_good():
    for key, entry in PATTERN_TABLE.items():
        if entry in (CONTESTED_I, CONTESTED_II):
            continue
        v1g, v1gp, v2g, v2gp = key
        if entry == "g":  # agent 1 takes g, agent 2 takes g'
            assert int(v1g) >= int(v1gp)
            assert int(v2gp) >= int(v2g)
        else:
            assert int(v1gp) >= int(v1g)
            assert int(v2g) >= int(v2gp)


def test_pattern_table_json_fixture_in_sync():
    assert json.loads(FIXTURE.read_text()) == pattern_table_json()


# ---------------------------------------------------------------------------
# the two-agent rule
# ---------------------------------------------------------------------------

def _g(idx, m1, m2):
    return GoodEvent(idx, high=[m1, m2])


def test_naive_step_contested_flow():
    # both agents see g low and g' high; with ctr starting at 0 agent 1 is
    # committed the high good and agent 2 takes the low one now
    agent, ctr, pend = naive_step(0, None, 1, _g(1, False, False), [_g(2, True, True)])
    assert (agent, ctr) == (2, 1)
    assert pend == Commitment(2, 1)
    agent, ctr, pend = naive_step(ctr, pend, 2, _g(2, True, True), [])
    assert (agent, ctr, pend) == (1, 1, None)


def test_naive_step_contested_alternates():
    agent, ctr, pend = naive_step(1, None, 1, _g(1, True, True), [_g(2, False, False)])
    # ctr flips back to 0 so agent 2 wins this contested high
    assert (agent, ctr) == (2, 0)
    assert pend == Commitment(2, 1)


def test_naive_step_fixed_patterns():
    agent, _, pend = naive_step(0, None, 1, _g(1, False, False), [_g(2, True, False)])
    assert agent == 2 and pend == Commitment(2, 1)  # (b a; b b): a1 <- g'
    agent, _, pend = naive_step(0, None, 1, _g(1, False, False), [_g(2, False, False)])
    assert agent == 1 and pend == Commitment(2, 2)  # all low: a1 <- g


def test_naive_step_commitment_required_on_even():
    with pytest.raises(RuntimeError):
        naive_step(0, None, 2, _g(2, False, False), [])


def test_naive_step_odd_tail_goes_to_disadvantaged():
    agent, _, _ = naive_step(0, None, 3, _g(3, True, True), [])
    assert agent == 1
    agent, _, _ = naive_step(1, None, 3, _g(3, True, True), [])
    assert agent == 2


@pytest.mark.parametrize("m", [1, 2, 3, 40, 41])
def test_naive_guarantees_on_random_streams(m):
    for seed in range(30):
        inst = random_two_value(2, m, seed, bias=0.45, foresight=1)
        trace = run_online(NaiveMatching(), inst)
        assert audit_trace(trace, NaiveMatchingAuditor(inst)) == []


def test_naive_rejects_bad_config():
    inst = random_two_value(3, 4, 0, foresight=1)
    with pytest.raises(ValueError):
        run_online(NaiveMatching(), inst)
    inst = random_two_value(2, 4, 0, foresight=0)
    with pytest.raises(ValueError):
        run_online(NaiveMatching(), inst)


# ---------------------------------------------------------------------------
# priority matching
# ---------------------------------------------------------------------------

def paper_weights(pi, agents, goods):
    """The paper's rational weights: the integer ones over (2n)^(n-1)."""
    scale = (2 * len(agents)) ** (len(agents) - 1)
    return [[Fraction(w, scale) for w in row]
            for row in aux_weight_matrix(pi, agents, goods)]


def test_round_plan_documented_example():
    inst = Instance(agents=[AgentProfile(5, 1), AgentProfile(3, 1)],
                    goods=[GoodEvent(1, high=[True, False]),
                           GoodEvent(2, high=[False, True])],
                    foresight=1)
    state = AllocationState(inst)
    plan = priority_round_plan(state, inst.goods)
    assert plan.pi == (1, 2)
    assert plan.assignment == {1: 1, 2: 2}
    W = paper_weights(plan.pi, inst.agents, inst.goods)
    assert W[0] == [Fraction(5, 2), Fraction(5, 4)]
    assert W[1] == [Fraction(1), Fraction(2)]


def test_reversed_ordering_changes_exponents():
    agents = [AgentProfile(5, 1), AgentProfile(3, 1)]
    goods = [GoodEvent(1, high=[True, True])]
    W = paper_weights((2, 1), agents, goods)
    # agent 2 is first in the ordering, so its weights carry the n-1 exponent
    assert W[1][0] == 2 * Fraction(5, 4)
    assert W[0][0] == 2 * Fraction(1)


def test_plan_round_indifferent_ties_lexicographic():
    agents = [AgentProfile(1, 1), AgentProfile(1, 1)]
    goods = [GoodEvent(1, high=[False, False]), GoodEvent(2, high=[False, False])]
    from fairstream.metrics import EnvyGraph

    plan = plan_round(EnvyGraph(2), agents, goods, 1)
    assert plan.assignment == {1: 1, 2: 2}


def test_plan_lookup_rejects_unknown_good():
    plan = RoundPlan(1, (1,), {1: 1})
    with pytest.raises(RuntimeError):
        plan.agent_for(9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_priority_guarantees_on_random_streams(n):
    for seed in range(25):
        inst = random_two_value(n, 8 * n + (seed % n), seed, bias=0.35, foresight=n - 1)
        trace = run_online(PriorityMatching(), inst)
        assert audit_trace(trace, PriorityMatchingAuditor(inst, exchange=True)) == []


def test_priority_requires_window():
    inst = random_two_value(4, 12, 0, foresight=2)
    with pytest.raises(ValueError):
        run_online(PriorityMatching(), inst)


def test_priority_last_partial_round():
    n = 3
    inst = random_two_value(n, 7, seed=9, bias=0.5, foresight=n - 1)
    trace = run_online(PriorityMatching(), inst)
    last_round_agents = [s.agent for s in trace.steps if s.t > 6]
    assert len(last_round_agents) == 1  # only one good in the final round
    assert check_round_guarantees(trace) == []


def test_priority_internal_graph_matches_reference_plan():
    n = 4
    inst = random_two_value(n, 6 * n, seed=2, bias=0.4, foresight=n - 1)
    trace = run_online(PriorityMatching(), inst)
    state = AllocationState(inst)
    for step in trace.steps:
        t = step.t
        if (t - 1) % n == 0:
            goods = inst.goods[t - 1: t - 1 + n]
            ref = priority_round_plan(state, goods)
            committed = dict(
                (int(pair.split(":")[0]), int(pair.split(":")[1]))
                for pair in step.extras["committed"].split(";"))
            assert committed == ref.assignment
            assert tuple(step.extras["pi"]) == ref.pi
        state.assign(inst.goods[t - 1], step.agent)


@pytest.mark.parametrize("n, m", [(3, 30), (4, 22)])
def test_audited_round_sorts_each_boundary_graph_once(n, m, monkeypatch):
    """At a round boundary the auditor and the rule planning the next round
    sort the same envy graph, and Kahn's pass runs once for both: one pass
    per planned round plus the auditor's pass after a last full round."""
    passes, sorts = [], []
    kahn, topo_sort = metrics_module._kahn, matching_module.topo_sort
    monkeypatch.setattr(metrics_module, "_kahn", lambda g: passes.append(g) or kahn(g))
    monkeypatch.setattr(matching_module, "topo_sort", lambda g: sorts.append(g) or topo_sort(g))
    inst = random_two_value(n, m, seed=4, bias=0.4, foresight=n - 1)
    auditor = PriorityMatchingAuditor(inst)
    run_online(PriorityMatching(), inst, auditors=[auditor])
    assert auditor.finish() == []
    planned, boundaries = -(-m // n), m // n
    assert len(sorts) == planned + boundaries
    assert len(passes) == planned + (m % n == 0)
    assert len({id(g) for g in passes}) == len(passes)


def test_matching_trace_csv_columns():
    inst = random_two_value(2, 4, seed=0, foresight=1)
    rows = list(trace_csv_rows(run_online(PriorityMatching(), inst),
                               PriorityMatching.trace_columns))
    assert rows[0] == "t,good,allocated_to,as_high,round,pi,committed"


# ---------------------------------------------------------------------------
# long-run floors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [1, 2])
def test_asymptotics_on_long_streams(lam):
    inst = random_two_value(2, 600, seed=4, bias=0.4, foresight=1)
    trace = run_online(NaiveMatching(), inst)
    t_star, violations = per_pair_asymptotics(trace, lam, naive=True)
    assert t_star is not None
    assert violations == []
    inst = random_two_value(3, 600, seed=4, bias=0.4, foresight=2)
    trace = run_online(PriorityMatching(), inst)
    t_star, violations = per_pair_asymptotics(trace, lam)
    assert t_star is not None
    assert violations == []


def test_asymptotics_reports_unreached_premise():
    inst = random_two_value(2, 4, seed=0, bias=0.0, foresight=1,
                            profiles=[(90, 1), (90, 1)])
    trace = run_online(NaiveMatching(), inst)
    assert per_pair_asymptotics(trace, 1, naive=True) == (None, [])
