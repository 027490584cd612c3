import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.baselines import GreedyWelfare
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import run_online
from fairstream.generators import interval_random
from fairstream.matching import PriorityMatching
from fairstream.model import AgentProfile, Flavor, GoodEvent, Instance, value
from fairstream.reduction import (ThresholdProxy, lift_guarantee, proxy_value,
                                  sandwich_holds, sidecar, threshold_round)


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
    these 80 runs).  n = 4 is left out: its exhaustive maximin shares take
    seconds."""
    for n in (2, 3):
        for seed in range(40):
            pair = threshold_round(interval_random(n, 3 * n, seed))
            lift_guarantee(pair, run_online(GreedyWelfare(), pair.proxy))
