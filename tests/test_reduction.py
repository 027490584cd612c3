import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream import reduction
from fairstream.baselines import GreedyWelfare, RoundRobin
from fairstream.cli import ALGORITHMS
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import Trace, replay_states, run_online
from fairstream.generators import interval_random
from fairstream.matching import PriorityMatching
from fairstream.metrics import REL_TOL, _geq, _ratio, mms_exhaustive, mms_share, mms_two_value
from fairstream.model import AgentProfile, Flavor, GoodEvent, Instance, value
from fairstream.reduction import (LiftedStep, ThresholdProxy, lift_guarantee, sidecar,
                                  threshold_round)
from oracles import proxy_value, sandwich_holds


def _interval_instance(alpha, values, foresight=0):
    agents = [AgentProfile(float(alpha), 1.0)]
    goods = [GoodEvent(i, values=[float(v)]) for i, v in enumerate(values, 1)]
    return Instance(agents=agents, goods=goods, flavor=Flavor.INTERVAL,
                    foresight=foresight)


def test_threshold_rule_at_alpha_nine():
    # the boundary value rounds down, and so does one within REL_TOL above it
    pair = threshold_round(_interval_instance(9, [4, 3, 2, 1, 9, 3 * (1 + 5e-10), 3 * (1 + 2e-9)]))
    got = [proxy_value(pair, 1, i) for i in range(1, 8)]
    assert got == [9.0, 3.0, 3.0, 3.0, 9.0, 3.0, 9.0]


def test_threshold_requires_interval_flavor_and_headroom():
    two_value = Instance(agents=[AgentProfile(5, 1)], goods=[GoodEvent(1, high=[True])])
    with pytest.raises(ValueError):
        threshold_round(two_value)
    flat = Instance(agents=[AgentProfile(1.0, 1.0)], goods=[],
                    flavor=Flavor.INTERVAL)
    with pytest.raises(ValueError):
        threshold_round(flat)


def test_out_of_range_values_rejected_at_construction():
    with pytest.raises(ValueError):
        _interval_instance(4, [5.0])
    with pytest.raises(ValueError):
        _interval_instance(4, [0.5])


def test_proxy_keeps_order_and_foresight():
    inst = interval_random(3, 9, seed=3, alphas=[4.0, 9.0, 16.0], foresight=2)
    pair = threshold_round(inst)
    assert pair.proxy.foresight == 2
    assert pair.proxy.flavor is Flavor.TWO_VALUE
    assert [g.index for g in pair.proxy.goods] == [g.index for g in inst.goods]
    assert pair.thresholds == [2.0, 3.0, 4.0]
    assert pair.a_star == 4.0 and pair.alpha_max == 16.0
    meta = sidecar(pair)
    assert meta["a_star"] == 4.0 and len(meta["thresholds"]) == 3


@given(st.integers(0, 10 ** 6), st.integers(1, 10), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_sandwich_on_random_subsets(seed, m, n):
    inst = interval_random(n, m, seed)
    pair = threshold_round(inst)
    rng = random.Random(seed)
    for agent in range(1, n + 1):
        subset = [i for i in range(1, m + 1) if rng.random() < 0.5]
        assert sandwich_holds(pair, agent, subset)


def test_fixed_point_of_rounding_keeps_ratios_equal():
    # values already in {sqrt(alpha), alpha}: the proxy changes nothing
    alpha, root = 9.0, 3.0
    rng = random.Random(7)
    values = [[alpha if rng.random() < 0.5 else root for _ in range(2)]
              for _ in range(8)]
    inst = Instance(agents=[AgentProfile(alpha, 1.0), AgentProfile(alpha, 1.0)],
                    goods=[GoodEvent(i, values=v) for i, v in enumerate(values, 1)],
                    flavor=Flavor.INTERVAL)
    pair = threshold_round(inst)
    for g, pg in zip(inst.goods, pair.proxy.goods):
        for i in (1, 2):
            assert value(pair.proxy.agents[i - 1], pg, i) == g.values[i - 1]
    trace = run_online(DeferredPriority(), pair.proxy)
    rows = lift_guarantee(pair, trace)
    for row in rows:
        for name, pr in row.proxy.items():
            assert float(row.original[name]) == pytest.approx(float(pr), abs=1e-12)


def test_lift_rejects_mismatched_trace():
    inst = interval_random(2, 6, seed=0)
    pair = threshold_round(inst)
    other = threshold_round(interval_random(2, 6, seed=1))
    trace = run_online(DeferredPriority(), other.proxy)
    with pytest.raises(ValueError):
        lift_guarantee(pair, trace)


@pytest.mark.parametrize("alg_cls", [DeferredPriority, PriorityMatching])
def test_lift_guarantee_end_to_end(alg_cls):
    for seed in range(6):
        n = 2 + seed % 3
        inst = interval_random(n, 10, seed, foresight=n - 1)
        pair = threshold_round(inst)
        trace = run_online(alg_cls(), pair.proxy)
        rows = lift_guarantee(pair, trace)  # raises on any transfer violation
        assert len(rows) == 10 * n


def test_lift_flags_a_transfer_without_the_sqrt_alpha_factor():
    """With every threshold set to 1.0 the check asks each original ratio
    to reach its proxy ratio, which rounding up to the proxy breaks."""
    for seed in range(10):
        pair = threshold_round(interval_random(3, 9, seed, foresight=2))
        tight = ThresholdProxy(pair.original, pair.proxy, [1.0] * 3)
        trace = run_online(DeferredPriority(), pair.proxy)
        with pytest.raises(AssertionError, match="transfer violated"):
            lift_guarantee(tight, trace)


def test_transferred_floors_from_documented_bounds():
    # the proxy floor divided by max_i sqrt(alpha_i) survives on the original
    for seed in range(4):
        n = 3
        inst = interval_random(n, 9, seed, foresight=n - 1)
        pair = threshold_round(inst)
        a_star = pair.a_star
        trace = run_online(DeferredPriority(), pair.proxy)
        for row in lift_guarantee(pair, trace):
            if "mms" in row.original:
                assert float(row.original["mms"]) >= (1 / (2 * n - 1)) / a_star - 1e-9
        trace = run_online(PriorityMatching(), pair.proxy)
        for row in lift_guarantee(pair, trace):
            assert float(row.original["ef2"]) >= 1 / a_star - 1e-9
            if row.t % n == 0:
                assert float(row.original["ef1"]) >= 1 / a_star - 1e-9


def test_lift_of_greedy_welfare_on_the_proxy_has_no_false_transfer_violation():
    """Bundles of at most k goods have k-removable value exactly 0 on the
    original interval values; a rounding residue there (full - top - second)
    once made the original EF2 ratio 0 and the transfer check fail (on 21 of
    the 80 runs at n = 2, 3)."""
    for n in (2, 3, 4):
        for seed in range(40):
            pair = threshold_round(interval_random(n, 3 * n, seed))
            lift_guarantee(pair, run_online(GreedyWelfare(), pair.proxy))


# ---------------------------------------------------------------------------
# the certified original share equals the searched one


def _searched_lift(pair, trace):
    """`lift_guarantee` with both shares searched by the exhaustive oracle on
    every prefix of at most 12 goods: the original one through `mms_share`,
    with no certificate, and the proxy one on the proxy values, where the lift
    runs the fold search.  The oracle for both skipped searches."""
    orig, prox = pair.original, pair.proxy
    n = orig.n
    out = []
    for (so, step), (sp, _) in zip(replay_states(Trace(orig, trace.steps)),
                                   replay_states(trace)):
        t = step.t
        tr_orig, tr_prox = so.pairwise(), sp.pairwise()
        for i in range(1, n + 1):
            scale = pair.thresholds[i - 1]
            po, oo = {}, {}
            for k, name in ((0, "ef"), (1, "ef1"), (2, "ef2")):
                po[name] = min((_ratio(tr_prox.val[i][i], tr_prox.removable_value(i, j, k))
                                for j in range(1, n + 1) if j != i), default=1.0)
                oo[name] = min((_ratio(tr_orig.val[i][i], tr_orig.removable_value(i, j, k))
                                for j in range(1, n + 1) if j != i), default=1.0)
            po["prop"] = _ratio(n * tr_prox.val[i][i], tr_prox.seen_total[i])
            oo["prop"] = _ratio(n * tr_orig.val[i][i], tr_orig.seen_total[i])
            mu_o = mms_share(so, i)
            if mu_o is not None:
                prof_p = prox.agents[i - 1]
                mu_p = mms_exhaustive([value(prof_p, g, i) for g in sp.goods_seen], n)
                h = sp.high_seen[i - 1]
                mu_p2 = mms_two_value(h, t - h, prof_p.alpha, prof_p.beta, n)
                if abs(mu_p - mu_p2) > REL_TOL * max(1.0, mu_p):
                    raise AssertionError(
                        f"proxy maximin oracles disagree at t={t}: {mu_p} vs {mu_p2}")
                if mu_o > mu_p * (1 + REL_TOL) + REL_TOL:
                    raise AssertionError(
                        f"original maximin share exceeds proxy at t={t}, agent {i}")
                po["mms"] = _ratio(tr_prox.val[i][i], mu_p)
                oo["mms"] = _ratio(tr_orig.val[i][i], mu_o)
            for name, pr in po.items():
                if not _geq(float(oo[name]), float(pr) / scale):
                    raise AssertionError(
                        f"transfer violated at t={t}, agent {i}, {name}: "
                        f"original {oo[name]} < proxy {pr} / sqrt(alpha)")
            out.append(LiftedStep(t, i, po, oo))
    return out


@pytest.fixture
def searched(monkeypatch):
    """The values of every original share that `lift_guarantee` searched:
    the lift's only `mms_exhaustive` calls, as its proxy share comes from the
    fold search."""
    calls = []

    def counting(values, n):
        calls.append(values)
        return mms_exhaustive(values, n)

    monkeypatch.setattr(reduction, "mms_exhaustive", counting)
    return calls


def _assert_certified_equals_searched(pair, rule_cls):
    trace = run_online(rule_cls(), pair.proxy)
    got, want = lift_guarantee(pair, trace), _searched_lift(pair, trace)
    assert repr(got) == repr(want)
    for g, w in zip(got, want):
        for side in ("proxy", "original"):
            gd, wd = getattr(g, side), getattr(w, side)
            assert list(gd) == list(wd)
            for name, v in gd.items():
                assert v == wd[name] and type(v) is type(wd[name]), (g.t, g.agent, name)
    return got


def _int_valued(n, m, rng):
    """Integer interval values with alpha in {4, 9, 16, 25}: each value is 1,
    sqrt(alpha), alpha or uniform in [1, alpha], in equal parts."""
    alphas = [rng.choice((4, 9, 16, 25)) for _ in range(n)]
    picks = [(1, math.isqrt(a), a) for a in alphas]
    goods = [GoodEvent(t, values=[rng.choice(p + (rng.randint(1, a),))
                                  for p, a in zip(picks, alphas)])
             for t in range(1, m + 1)]
    return Instance([AgentProfile(a, 1) for a in alphas], goods, Flavor.INTERVAL,
                    foresight=n - 1)


def _rules(n):
    return [cls for name, cls in sorted(ALGORITHMS.items())
            if n == 2 or name != "naive-matching"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certified_original_share_gives_the_searched_rows_on_float_values(n, searched):
    rows = 0
    for seed in range(4):
        for m in (n + 1, 8, 12):
            pair = threshold_round(interval_random(n, m, seed, foresight=n - 1))
            for rule_cls in _rules(n):
                rows += sum(r.t <= 12 for r in _assert_certified_equals_searched(pair, rule_cls))
    # both paths are taken, and the search still runs at the 12-good cap
    assert 0 < len(searched) < rows
    assert any(len(values) == 12 for values in searched)


def test_certified_original_share_gives_the_searched_rows_on_integer_values(searched):
    rng = random.Random(25)
    rows = 0
    for n in (2, 3, 4):
        for _ in range(6):
            pair = threshold_round(_int_valued(n, rng.randint(n, 12), rng))
            for rule_cls in _rules(n):
                rows += len(_assert_certified_equals_searched(pair, rule_cls))
    assert 0 < len(searched) < rows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_gives_the_searched_rows_with_one_agent_and_past_twelve_goods(n):
    """The lift's EFk ratios read the ledger's maxima only for a float own
    value and n > 1; with one agent, and past the 12 goods that carry a
    share, every row still equals the per-j scan's in value and class."""
    rng = random.Random(n)
    past = 0
    for seed in range(3):
        for inst in (interval_random(n, 16, seed, foresight=n - 1),
                     _int_valued(n, 15, rng)):
            pair = threshold_round(inst)
            for rule_cls in _rules(n):
                past += sum(r.t > 12 for r in _assert_certified_equals_searched(pair, rule_cls))
    assert past


def _two_agents(alpha, first):
    """Agent 1 values the goods `first`; agent 2 values every good at 1."""
    agents = [AgentProfile(alpha, 1), AgentProfile(alpha, 1)]
    goods = [GoodEvent(t, values=[v, 1]) for t, v in enumerate(first, 1)]
    return threshold_round(Instance(agents, goods, Flavor.INTERVAL))


@pytest.mark.parametrize("alpha, first, t, certified", [
    # round robin gives agent 1 the odd goods: n * own_o = seen_o exactly
    (4, [3, 3], 2, False),
    (4.0, [3.0, 3.0], 2, False),
    # n * own_o above seen_o by 3e-9, within REL_TOL * 6 of it, and by 3e-8
    (4.0, [3 * (1 + 1e-9), 3.0], 2, False),
    (4.0, [3 * (1 + 1e-8), 3.0], 2, True),
    # n * own_o = 16 > seen_o = 12, and n * mu_p = 2 * 6.0 = seen_o exactly
    (4, [4, 2, 4, 2], 4, False),
    (4.0, [4.0, 2.0, 4.0, 2.0], 4, False),
    (4, [4, 2, 4, 1], 4, True),
])
def test_share_certificate_is_strict_at_the_proportional_share(alpha, first, t, certified,
                                                               searched):
    _assert_certified_equals_searched(_two_agents(alpha, first), RoundRobin)
    # agent 1's values at step t; agent 2 values every good at 1
    assert (first[:t] not in searched) is certified


@pytest.mark.parametrize("seed", range(6))
def test_lift_flags_an_original_share_above_a_scaled_down_proxy_share(seed):
    """Dividing every proxy profile by 10 leaves every proxy ratio as it was
    but puts the proxy shares below the original ones.  The share check must
    flag agent 1 at t = 2 on every seed, also where agent 1's own bundle
    exceeds seen / n and so would certify its original share on its own."""
    pair = threshold_round(interval_random(2, 8, seed, foresight=1))
    proxy = Instance([AgentProfile(a.alpha / 10, a.beta / 10) for a in pair.proxy.agents],
                     pair.proxy.goods, Flavor.TWO_VALUE, foresight=pair.proxy.foresight)
    tampered = ThresholdProxy(pair.original, proxy, pair.thresholds)
    with pytest.raises(AssertionError, match="exceeds proxy at t=2, agent 1"):
        lift_guarantee(tampered, run_online(DeferredPriority(), proxy))
