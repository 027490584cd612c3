from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.adversaries import (_AdaptiveRun, ef1_adversary, lows_then_highs,
                                    mms_adversary, worst_step_share_ratio)
from fairstream.baselines import GreedyWelfare, RoundRobin
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import replay_states, run_online
from fairstream.generators import random_two_value
from fairstream.matching import NaiveMatching, PriorityMatching
from fairstream.model import AgentProfile, OnlineAlgorithm
from oracles import check_sqrt_gap, sqrt_gap


class _AlwaysFirst(OnlineAlgorithm):
    name = "always-first"

    def start(self, n, agents, foresight):
        pass

    def choose(self, state, good, window):
        return 1


class _SeededPolicy(OnlineAlgorithm):
    """Deterministic but arbitrary-looking rule: hashes the history."""

    name = "seeded-policy"

    def __init__(self, salt):
        self.salt = salt

    def start(self, n, agents, foresight):
        self.n = n
        self.h = self.salt

    def choose(self, state, good, window):
        self.h = (self.h * 1103515245 + sum(good.high) * 12345 + state.t) % (2 ** 31)
        return self.h % self.n + 1


def test_ef1_adversary_vs_always_first():
    trace = ef1_adversary(_AlwaysFirst())
    assert trace.witness.step == 2
    assert trace.witness.agent == 2
    assert trace.witness.ratio == 0


def test_ef1_adversary_vs_deferred_priority():
    trace = ef1_adversary(DeferredPriority())
    assert trace.witness.ratio == Fraction(1, 2)
    assert trace.witness.step == 4


def test_ef1_adversary_vs_round_robin():
    trace = ef1_adversary(RoundRobin())
    assert trace.witness.ratio == Fraction(2, 5)
    assert trace.witness.step <= 5


def test_ef1_adversary_vs_greedy():
    trace = ef1_adversary(GreedyWelfare())
    assert trace.witness.step == 2
    assert trace.witness.ratio == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mms_adversary_meets_deferred_priority_floor_exactly(n):
    trace = mms_adversary(DeferredPriority(), n)
    bound = Fraction(1, 2 * n - 1)
    assert trace.witness.ratio == bound
    assert trace.witness.step == 3 * n - 2
    # the rule never dips below its floor along the adversarial stream
    assert min(min(r) for r in trace.reports) == bound


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("alg_cls", [RoundRobin, GreedyWelfare])
def test_mms_adversary_universality_baselines(n, alg_cls):
    trace = mms_adversary(alg_cls(), n)
    assert trace.witness.ratio <= Fraction(1, 2 * n - 1)
    assert trace.witness.step <= 3 * n - 1


@given(st.integers(0, 10 ** 9), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_mms_adversary_defeats_arbitrary_policies(salt, n):
    trace = mms_adversary(_SeededPolicy(salt), n)
    assert trace.witness.ratio <= Fraction(1, 2 * n - 1)
    assert trace.witness.step <= 3 * n - 1


@given(st.integers(0, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_ef1_adversary_defeats_arbitrary_policies(salt):
    trace = ef1_adversary(_SeededPolicy(salt))
    assert trace.witness.ratio <= Fraction(1, 2)
    assert trace.witness.step <= 5


def test_adversaries_reject_lookahead_rules():
    with pytest.raises(ValueError):
        ef1_adversary(NaiveMatching())
    with pytest.raises(ValueError):
        mms_adversary(PriorityMatching(), 3)


class _FloatChoice(_AlwaysFirst):
    name = "float-choice"

    def choose(self, state, good, window):
        return 1.0


@pytest.mark.parametrize("adversary", [ef1_adversary, lambda alg: mms_adversary(alg, 3)],
                         ids=["ef1", "mms"])
def test_adversaries_reject_a_non_integer_choice_as_run_online_does(adversary):
    """A choice in range but not an int is refused before it reaches the
    ledger, with `run_online`'s message."""
    inst = random_two_value(2, 1, 0)
    with pytest.raises(RuntimeError, match=r"^float-choice returned invalid agent 1\.0$"):
        run_online(_FloatChoice(), inst)
    with pytest.raises(RuntimeError, match=r"^float-choice returned invalid agent 1\.0$"):
        adversary(_FloatChoice())


class _BoolChoice(_AlwaysFirst):
    name = "bool-choice"

    def choose(self, state, good, window):
        return True


@pytest.mark.parametrize("adversary", [ef1_adversary, lambda alg: mms_adversary(alg, 3)],
                         ids=["ef1", "mms"])
def test_adversaries_reject_a_bool_choice_as_run_online_does(adversary):
    """`True` is an int to `isinstance` and equals agent 1, but it is not an
    agent index: it is refused, not run as agent 1 and printed as `True`."""
    inst = random_two_value(2, 3, 0)
    with pytest.raises(RuntimeError, match=r"^bool-choice returned invalid agent True$"):
        run_online(_BoolChoice(), inst)
    with pytest.raises(RuntimeError, match=r"^bool-choice returned invalid agent True$"):
        adversary(_BoolChoice())


def test_emitted_instance_replays_to_same_witness():
    trace = mms_adversary(DeferredPriority(), 3)
    replay = run_online(DeferredPriority(), trace.instance)
    assert replay.choices == trace.choices


def test_adversary_goods_are_valid_two_value_events():
    trace = mms_adversary(RoundRobin(), 4)
    for g in trace.instance.goods:
        assert g.high is not None and len(g.high) == 4


def test_adaptive_run_rejects_a_malformed_good_and_keeps_its_state():
    run = _AdaptiveRun("ef1", RoundRobin(), [AgentProfile(2, 1)] * 2, Fraction(1, 2), "ef1")
    run.emit([True, False])
    with pytest.raises(ValueError, match="expected 2 entries"):
        run.emit([True])
    assert len(run.instance.goods) == run.state.t == len(run.choices) == 1
    run.emit([False, True])
    assert run.choices == [1, 2]


def _fraction_ratios(state, metric):
    """The adversaries' per-agent ratios as they were once built, with their
    own clamped `Fraction`s."""
    tr = state.pairwise()
    if metric == "mms":
        return tuple(Fraction(1) if mu == 0 else min(Fraction(1), Fraction(tr.val[i][i], mu))
                     for i, mu in enumerate(state.maximin_shares(), 1))
    d1 = tr.maxima()[0][1]
    return tuple(min(Fraction(1), Fraction(tr.val[i][i], d1[i])) if d1[i] > 0 else Fraction(1)
                 for i in range(1, state.n + 1))


@pytest.mark.parametrize("alg_cls", [DeferredPriority, RoundRobin, GreedyWelfare, _AlwaysFirst])
@pytest.mark.parametrize("make", [ef1_adversary, lambda alg: mms_adversary(alg, 3),
                                  lambda alg: mms_adversary(alg, 4)],
                         ids=["ef1", "mms-3", "mms-4"])
def test_adversary_ratios_equal_their_fraction_form(alg_cls, make):
    trace = make(alg_cls())
    metric = trace.witness.metric
    replay = run_online(alg_cls(), trace.instance)
    assert replay.choices == trace.choices
    for (state, _), got in zip(replay_states(replay), trace.reports):
        want = _fraction_ratios(state, metric)
        assert got == want
        assert all(type(r) is Fraction for r in got)


def _worst_fraction_ratio(alg, instance):
    worst = Fraction(1)
    for state, _ in replay_states(run_online(alg, instance)):
        val = state.pairwise().val
        for i, mu in enumerate(state.maximin_shares(), 1):
            if mu > 0:
                worst = min(worst, min(Fraction(1), Fraction(val[i][i], mu)))
    return worst


@pytest.mark.parametrize("seed", range(4))
def test_worst_step_share_ratio_equals_its_fraction_form(seed):
    inst = random_two_value(3, 12, seed)
    for alg_cls in (DeferredPriority, RoundRobin, GreedyWelfare):
        got = worst_step_share_ratio(alg_cls(), inst)
        assert got == _worst_fraction_ratio(alg_cls(), inst)
        assert type(got) is Fraction


def test_worst_step_share_ratio_on_float_values_is_a_float():
    inst = random_two_value(3, 12, 0, profiles=[(2.5, 0.5)])
    got = worst_step_share_ratio(RoundRobin(), inst)
    assert type(got) is float
    want = min(min(1.0, state.pairwise().val[i][i] / mu)
               for state, _ in replay_states(run_online(RoundRobin(), inst))
               for i, mu in enumerate(state.maximin_shares(), 1) if mu > 0)
    assert got == want < 1


# ---------------------------------------------------------------------------
# the fixed full-lookahead hard instance
# ---------------------------------------------------------------------------

def test_lows_then_highs_structure():
    inst = lows_then_highs(3, alpha=4)
    assert inst.m == 5
    assert all(not any(g.high) for g in inst.goods[:3])
    assert all(all(g.high) for g in inst.goods[3:])
    assert all(a.alpha == 4 and a.beta == 1 for a in inst.agents)
    with pytest.raises(ValueError):
        lows_then_highs(4, alpha=3)


def test_lows_then_highs_degenerate_two_agents():
    inst = lows_then_highs(2, alpha=2)
    ratio = worst_step_share_ratio(RoundRobin(), inst)
    assert ratio <= Fraction(1, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_lookahead_cannot_beat_one_over_n(n):
    inst = lows_then_highs(n, alpha=n)
    for alg_cls in (DeferredPriority, RoundRobin, GreedyWelfare, PriorityMatching):
        ratio = worst_step_share_ratio(alg_cls(), inst)
        assert ratio <= Fraction(1, n), alg_cls.name
    assert worst_step_share_ratio(PriorityMatching(), inst) == Fraction(1, n)


# ---------------------------------------------------------------------------
# the square-root form of the bound
# ---------------------------------------------------------------------------

def test_sqrt_gap_values():
    exact, loose, gap = sqrt_gap(10)
    assert exact == Fraction(1, 19)
    assert loose == pytest.approx(1 / (440 ** 0.5))
    assert float(exact) > loose
    # small n: both quantities defined, no asymptotic claim
    exact2, loose2, _ = sqrt_gap(2)
    assert float(exact2) > 0 and loose2 > 0


def test_sqrt_gap_chain():
    assert check_sqrt_gap((10, 100, 1000))
