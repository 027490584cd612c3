import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.generators import interval_random, random_two_value
from fairstream.metrics import (MMS_EXHAUSTIVE_MAX_GOODS, REL_TOL, CycleError, EnvyGraph,
                                PairwiseTracker, ReportBuilder, _capped_partitions, _gt,
                                _is_exact, _mms_two_value_cached, _partition_table,
                                _mms_two_value_folded, _ratio,
                                build_envy_graph, mms_exhaustive, mms_two_value,
                                report_csv_rows, topo_sort)
from fairstream.model import (AgentProfile, AllocationState, Flavor, GoodEvent,
                              Instance)
from fairstream.reduction import threshold_round
from oracles import (bundle_value, bundles, efk_ratio, efk_ratio_all, mms_report, own_value,
                     prop_ratio, removable_value, seen_value)


def _state(profiles, masks, owners):
    agents = [AgentProfile(a, b) for a, b in profiles]
    goods = [GoodEvent(i, high=m) for i, m in enumerate(masks, 1)]
    inst = Instance(agents=agents, goods=goods)
    st_ = AllocationState(inst)
    for g, o in zip(goods, owners):
        st_.assign(g, o)
    return st_, inst


def test_ef1_ratio_worked_example_one_high_in_singleton():
    # bundles {g1,g3,g4} vs {g2}; agent 2 values g4 high, the rest low
    st_, inst = _state([(5, 1), (5, 1)],
                       [(False, False), (False, False), (False, False), (False, True)],
                       [1, 2, 1, 1])
    assert bundles(st_) == [[1, 3, 4], [2]]
    assert efk_ratio(st_, 2, 1, 1) == Fraction(1, 2)


def test_ef1_ratio_worked_example_two_highs():
    # agent 1 values goods (1,5,1,1,5); bundles {g1,g4} vs {g2,g3,g5}
    st_, inst = _state([(5, 1), (5, 1)],
                       [(False, False), (True, False), (False, False), (False, False),
                        (True, False)],
                       [1, 2, 2, 1, 2])
    assert bundles(st_) == [[1, 4], [2, 3, 5]]
    assert efk_ratio(st_, 1, 2, 1) == Fraction(1, 3)


def test_efk_vacuous_and_validation():
    st_, inst = _state([(5, 1), (5, 1)], [(True, True)], [1])
    assert efk_ratio(st_, 1, 2, 0) == 1  # empty bundle: nothing to envy
    assert efk_ratio(st_, 2, 1, 1) == 1  # fully removable
    with pytest.raises(ValueError):
        efk_ratio(st_, 1, 2, 3)


def test_prop_ratio_examples():
    st_, inst = _state([(5, 1), (5, 1)],
                       [(False, False), (True, False), (False, False), (False, True),
                        (True, True)],
                       [1, 2, 2, 1, 1])
    # v_1(A_1) = 1+1+5 = 7, v_1(S) = 13 -> min(1, 14/13) = 1
    assert prop_ratio(st_, 1) == 1
    st_, inst = _state([(5, 1), (5, 1)], [g.high for g in inst.goods], [1, 2, 2, 1, 2])
    assert bundles(st_) == [[1, 4], [2, 3, 5]]
    # v_1(A_1) = 2, still 13 seen: 4/13
    assert prop_ratio(st_, 1) == Fraction(4, 13)
    empty, inst2 = _state([(5, 1)], [], [])
    assert prop_ratio(empty, 1) == 1


def test_prop_derived_example_six_of_thirteen():
    # agent 1 holds one high and one low (worth 6) out of 2 highs + 3 lows (13)
    st_, inst = _state([(5, 1), (5, 1)],
                       [(True, False), (True, False), (False, False), (False, False),
                        (False, False)],
                       [1, 2, 1, 2, 2])
    assert own_value(st_, 1) == 6 and seen_value(st_, 1) == 13
    assert prop_ratio(st_, 1) == Fraction(12, 13)


def test_mms_exhaustive_examples():
    assert mms_exhaustive([5, 5, 1, 1, 1], 2) == 6
    assert mms_exhaustive([1] * 7, 3) == 2
    assert mms_exhaustive([1, 1, 1, 4, 4], 3) == 3
    assert mms_exhaustive([3, 3, 2, 2, 2], 2) == 6  # LPT gives 5; each bundle needs 2 goods
    assert mms_exhaustive([3, 2], 3) == 0  # fewer goods than bundles
    assert mms_exhaustive([], 2) == 0
    with pytest.raises(ValueError):
        mms_exhaustive([1] * 13, 2)
    with pytest.raises(ValueError):
        mms_exhaustive([1], 0)


def test_mms_exhaustive_fractions_prune_without_integer_steps():
    # three bundles of two thirds each; an integer-step bound would cut them all
    mu = mms_exhaustive([Fraction(1, 3)] * 6, 3)
    assert mu == Fraction(2, 3) and type(mu) is Fraction
    assert mms_exhaustive([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 1], 2) == 1


def test_mms_exhaustive_finds_a_share_a_rounding_step_above_the_lpt_incumbent():
    # LPT gives {1, b, b} / {1, b}, minimum 1 + b; {1, 1} / {b, b, b} is 1e-12 better
    b = (1.0 + 1e-12) / 2
    vals = [1.0, 1.0, b, b, b]
    assert mms_exhaustive(vals, 2) == mms_brute_force(vals, 2) == b + b + b > 1.0 + b


def test_mms_exhaustive_keeps_a_fold_that_rounds_above_the_incumbent():
    # each share is a fold that rounds above the incumbent although the real
    # sums do not; a bound without the incumbent's REL_TOL margin cuts it and
    # returns the lower fold in the comment
    big = [5.764607523034232e+17, 1.1529215046068472e+18, 1.152921504606847e+18,
           5.764607523034236e+17]
    for vals, n, want in [
        ([2.1, 0.1, 0.9, 2.0, 1.2, 0.0, 1.3, 0.2], 2, 3.7000000000000006),  # 3.7
        ([1.2, 2.6, 1.0, 1.8, 2.3, 0.4, 2.4, 2.4], 2, 7.000000000000001),   # 7.0
        # a margin relative to the need and the remaining value, not to the
        # incumbent, is below one rounding of these sums
        (big + [142.0, 210.0, 128.0], 2, 1.729382256910271e+18),  # ...707e+18
    ]:
        assert mms_exhaustive(vals, n) == mms_brute_force(vals, n) == want


def test_mms_exhaustive_counts_two_goods_for_a_gap_equal_to_the_next_good():
    # LPT gives {0.6} / {0.3, 0.2}, minimum 0.5.  The search then reaches
    # bundles (0.6, 0.3) with 0.2 left: the gap 0.5 - 0.3 is 0.2 exactly, so
    # one good lifts the bundle only to 0.5, it needs two, and the count alone
    # cuts.  A gap d >= v counts two on floats with no margin; the integer
    # case needs d // v + 1 = 2 goods at sums (10, 11), incumbent 11, 1 and 1 left.
    for vals, n, want in [([0.6, 0.3, 0.2], 2, 0.5),
                          ([6, 4, 4, 4, 3, 1, 1], 2, 11),
                          ([6.0, 4.0, 4.0, 4.0, 3.0, 1.0, 1.0], 2, 11.0)]:
        got = mms_exhaustive(vals, n)
        assert got == mms_brute_force(vals, n) == want and type(got) is type(want)


def _fold_grid_profiles():
    """Proxy profiles (alpha uniform in [2, 25], beta = sqrt(alpha)), integer
    alphas with sqrt(alpha) (an integer float for squares), `Fraction`s, an
    integer pair where beta does not divide alpha, and beta = 0."""
    rng = random.Random(18)
    alphas = [rng.uniform(2, 25) for _ in range(60)] + [4, 9, 16, 25, 7, 12]
    return [(a, math.sqrt(a)) for a in alphas] + [
        (Fraction(7, 2), Fraction(3, 2)), (Fraction(10, 3), Fraction(1, 3)), (7, 3),
        (5.5, 0), (5, 0)]


def test_fold_share_equals_the_exhaustive_oracle_on_a_profile_grid():
    """The fold search is `mms_exhaustive` on the same values in value, repr
    and type, on every h + l <= 12 and n <= 5.  The grid tells the fold
    convention from `mms_two_value`'s k * alpha bases: they differ in the
    last bit on some float shares."""
    floats = product_differs = 0
    for alpha, beta in _fold_grid_profiles():
        for n in range(1, 6):
            for h in range(13):
                for l in range(13 - h):
                    want = mms_exhaustive([alpha] * h + [beta] * l, n)
                    got = _mms_two_value_folded(h, l, alpha, beta, n)
                    assert repr(got) == repr(want) and type(got) is type(want), \
                        (alpha, beta, h, l, n)
                    if type(want) is float:
                        floats += 1
                        product = float(mms_two_value(h, l, alpha, beta, n))
                        product_differs += repr(product) != repr(want)
    assert 0 < product_differs < floats
    # an int alpha with l = 0 gives an int share, with a float beta beside it
    assert repr(_mms_two_value_folded(4, 0, 9, 3.0, 2)) == "18"
    # where an int meets a Fraction, the share is a Fraction, whichever
    # bundle is the smallest (here one of lows alone)
    for got in (_mms_two_value_folded(3, 7, Fraction(5, 2), 1, 2),
                mms_exhaustive([Fraction(5, 2)] * 3 + [1] * 7, 2)):
        assert got == 7 and type(got) is Fraction


def test_split_search_table_holds_exactly_the_capped_splits():
    """Up to 12 highs `_split_share` walks `_partition_table`: what
    `_capped_partitions` yields, in its order, which is every weakly
    decreasing split of h highs into n parts of at most cap highs, once."""
    for n in range(1, 6):
        splits = list(itertools.combinations_with_replacement(range(12, -1, -1), n))
        for h in range(MMS_EXHAUSTIVE_MAX_GOODS + 1):
            for cap in range(h + 1):
                table = _partition_table(h, n, cap)
                assert table == tuple(_capped_partitions(h, n, cap))
                assert sorted(table) == sorted(d for d in splits if sum(d) == h and d[0] <= cap)


def test_mms_cache_keeps_integer_and_float_profiles_apart():
    for order in (((2, 1), (2.0, 1.0)), ((2.0, 1.0), (2, 1))):
        _mms_two_value_cached.cache_clear()
        for alpha, beta in order:
            mu = mms_two_value(4, 2, alpha, beta, 2)
            assert mu == 5 and type(mu) is type(alpha)
    _mms_two_value_cached.cache_clear()


def test_mms_two_value_examples():
    assert mms_two_value(2, 3, 5, 1, 2) == 6
    for n in (2, 3, 4, 5):
        assert mms_two_value(n - 1, n, n, 1, n) == n          # lows fill one bundle
        assert mms_two_value(0, 3 * n + 1, 1, 1, n) == 3      # floor(t/n) for flat agents
    assert mms_two_value(4, 0, 3, 0, 2) == 6                  # zero lows are worthless
    with pytest.raises(ValueError):
        mms_two_value(-1, 0, 5, 1, 2)
    with pytest.raises(ValueError):
        mms_two_value(1, 1, 1, 2, 2)


def test_mms_cache_is_bounded_and_recomputes_after_clear():
    from fairstream.metrics import MMS_CACHE_SIZE, _mms_two_value_cached

    assert _mms_two_value_cached.cache_info().maxsize == MMS_CACHE_SIZE
    cases = [(h, l, alpha, beta, n) for h in range(6) for l in range(6)
             for alpha, beta in ((5, 1), (3, 2), (2.5, 1.0), (4, 0), (0, 0))
             for n in (1, 2, 3)]
    before = [mms_two_value(*c) for c in cases]
    _mms_two_value_cached.cache_clear()
    for h in range(MMS_CACHE_SIZE + 100):
        mms_two_value(h, 0, 1, 0, 1)
    assert _mms_two_value_cached.cache_info().currsize == MMS_CACHE_SIZE
    assert [mms_two_value(*c) for c in cases] == before
    assert [mms_two_value(h, l, a, b, n) for h, l, a, b, n in cases if h + l <= 12] == \
        [mms_exhaustive([a] * h + [b] * l, n) for h, l, a, b, n in cases if h + l <= 12]
    _mms_two_value_cached.cache_clear()


def test_mms_two_value_concentration_beats_balance():
    # with beta=3 the best split packs both highs together
    assert mms_two_value(2, 3, 5, 3, 2) == 9


def test_mms_report_two_value_and_interval():
    st_, inst = _state([(5, 1), (5, 1)], [(True, False)], [1])
    mu, ratio = mms_report(st_, 1)
    assert mu == 0 and ratio == 1  # t < n: share is zero, trivially satisfied
    agents = [AgentProfile(4.0, 1.0)]
    goods = [GoodEvent(i, values=[1.5]) for i in range(1, 14)]
    inst2 = Instance(agents=agents, goods=goods, flavor=Flavor.INTERVAL)
    st2 = AllocationState(inst2)
    for g in goods:
        st2.assign(g, 1)
    assert mms_report(st2, 1) is None  # exhaustive oracle out of reach


def test_envy_graph_examples():
    st_, inst = _state([(5, 1), (5, 1)], [(False, True), (True, False)], [1, 2])
    g = build_envy_graph(st_)
    assert g.edges == {(1, 2): 4, (2, 1): 4}
    empty, inst2 = _state([(5, 1), (5, 1)], [], [])
    assert build_envy_graph(empty).edges == {}


def test_topo_sort_determinism_and_cycles():
    assert topo_sort(EnvyGraph(3)) == [1, 2, 3]
    g = EnvyGraph(2, {(2, 1): 3})
    pi = topo_sort(g)
    assert pi[1] == 1 and pi[0] == 2  # agent 2 first
    with pytest.raises(CycleError) as exc:
        topo_sort(EnvyGraph(2, {(1, 2): 1, (2, 1): 1}))
    assert sorted(exc.value.cycle) == [1, 2]


@pytest.mark.parametrize("n, edges, cycle", [
    (3, [(2, 3), (3, 2), (2, 1)], [2, 3]),                   # 1 is only fed by the cycle
    (5, [(4, 5), (5, 4), (4, 2), (2, 1), (3, 1)], [4, 5]),   # a chain hangs off it
    (4, [(1, 2), (2, 3), (3, 2), (3, 4)], [2, 3]),
])
def test_topo_sort_cycle_witness_skips_vertices_fed_by_a_cycle(n, edges, cycle):
    with pytest.raises(CycleError) as exc:
        topo_sort(EnvyGraph(n, {e: 1 for e in edges}))
    assert exc.value.cycle == cycle


def test_report_builder_csv_schema():
    st_, inst = _state([(5, 1), (5, 1)], [(True, False), (False, True)], [])
    builder = ReportBuilder(inst)
    reports = []
    for g, owner in zip(inst.goods, (1, 2)):
        st_.assign(g, owner)
        reports.append(builder.report(st_))
    rows = list(report_csv_rows(reports))
    assert rows[0] == "t,agent,ef,ef1,ef2,prop,mms_value,mms_ratio,envy_out_degree"
    assert len(rows) == 1 + 2 * 2  # header + steps * agents


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

pairs = st.sampled_from([(5, 1), (2, 1), (1, 1), (1, 0), (5, 2), (2, 2), (0, 0)])


@given(st.integers(0, 6), st.integers(0, 6), pairs, st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_mms_oracles_agree(h, l, pair, n):
    alpha, beta = pair
    vals = [alpha] * h + [beta] * l
    assert mms_two_value(h, l, alpha, beta, n) == mms_exhaustive(vals, n)


@given(st.integers(0, 10), st.integers(0, 10), pairs, st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_mms_monotone_in_bundle_count(h, l, pair, n):
    alpha, beta = pair
    assert mms_two_value(h, l, alpha, beta, n + 1) <= mms_two_value(h, l, alpha, beta, n)


def mms_brute_force(values, n):
    """Maximin share over every labelling of the goods with bundles, unpruned.

    Each bundle is summed in descending order of value, as `mms_exhaustive`
    sums it, so float results agree to the last bit.  The share is a float
    when a value is a float, else a `Fraction` when one is, else an int, as
    there.
    """
    vals = sorted(values, reverse=True)
    best = 0
    for labels in itertools.product(range(n), repeat=len(vals)):
        sums = [0] * n
        for v, b in zip(vals, labels):
            sums[b] += v
        if min(sums) > best:
            best = min(sums)
    if not all(_is_exact(v) for v in vals):
        return float(best)
    return Fraction(best) if any(isinstance(v, Fraction) for v in vals) else best


def mms_exhaustive_reference(values, n):
    """`mms_exhaustive` before its LPT incumbent, float bound, count bound and
    equal-value runs: the incumbent starts at 0 and only equal bundle sums are
    skipped.  On floats its lift cut keeps a REL_TOL margin of the incumbent,
    as a fold can round above the real sum of its goods.

    Its integer-step bound also runs on `Fraction`s, where it is wrong, so it
    is an oracle on floats and integers only.
    """
    vals = sorted(values, reverse=True)
    m = len(vals)
    if m < n or not vals:
        return 0 if all(_is_exact(v) for v in vals) else 0.0
    exact = all(_is_exact(v) for v in vals)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[i]
    sums = [0] * n
    best = 0

    def rec(idx):
        nonlocal best
        if idx == m:
            cur = min(sums)
            if cur > best:
                best = cur
            return
        rem = suffix[idx]
        lift = best - (min(sums) + rem)
        if lift >= 0 if exact else lift > 1e-9 * max(1.0, best):
            return
        if exact and sum(best + 1 - s for s in sums if s <= best) > rem:
            return
        seen = set()
        for b in range(n):
            s = sums[b]
            if s in seen:
                continue
            seen.add(s)
            sums[b] = s + vals[idx]
            rec(idx + 1)
            sums[b] = s

    rec(0)
    return best if exact else float(best)


@st.composite
def mms_cases(draw):
    """Up to 8 goods for 1 to 4 bundles: integers with zeros and repeats,
    `Fraction`s, proxy-shaped (alpha, sqrt(alpha)) floats, uniform floats or
    one-decimal floats, whose folds often round above their real sums."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["int", "fraction", "proxy", "float", "decimal"]))
    if kind == "int":
        entry = st.integers(0, 6)
    elif kind == "fraction":
        entry = st.fractions(0, 4, max_denominator=6)
    elif kind == "proxy":
        alpha = draw(st.floats(2.0, 25.0))
        entry = st.sampled_from([alpha, math.sqrt(alpha)])
    elif kind == "float":
        entry = st.floats(0.0, 25.0)
    else:
        entry = st.integers(0, 30).map(lambda k: k / 10)
    return draw(st.lists(entry, min_size=m, max_size=m)), n


@given(mms_cases())
@settings(max_examples=400, deadline=None)
def test_mms_exhaustive_equals_brute_force(case):
    values, n = case
    got, want = mms_exhaustive(values, n), mms_brute_force(values, n)
    assert got == want and type(got) is type(want)


def test_mms_exhaustive_equals_the_unpruned_search_on_long_prefixes():
    # 9 to 12 goods: beyond brute force, within the old search
    for seed in range(6):
        for n in (2, 3, 4):
            pair = threshold_round(interval_random(n, 12, seed, alphas=[25.0, 9.0, 4.5, 16.0][:n]))
            for i in range(n):
                prof = pair.proxy.agents[i]
                orig = [g.values[i] for g in pair.original.goods]
                prox = [prof.alpha if g.high[i] else prof.beta for g in pair.proxy.goods]
                for t in range(9, 13):
                    for vals in (orig[:t], prox[:t]):
                        got, want = mms_exhaustive(vals, n), mms_exhaustive_reference(vals, n)
                        assert got == want and type(got) is float
    # integers with zeros and repeats: gaps of several goods, d // v + 1 > 1
    rng = random.Random(0)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        vals = [rng.choice((0, 0, 1, 1, 2, 3, 5, 8, 13)) for _ in range(12)]
        for t in range(9, 13):
            got, want = mms_exhaustive(vals[:t], n), mms_exhaustive_reference(vals[:t], n)
            assert got == want and type(got) is int


float_pairs = st.sampled_from([(2.5, 1), (5, 1.5), (2.5, 2.5), (1.5, 0), (0.0, 0.0)])


@st.composite
def random_states(draw, wide=False, grid=True):
    """A random allocation state and its instance.

    By default: 2 to 4 agents with integer 2-value profiles.  With `wide`,
    also n = 1, float profiles and interval instances (integer- or
    float-valued).  Float values lie on a grid of quarters when `grid` is
    set, so every sum is exact in binary and functions that add the same
    values in different orders agree to the last bit; otherwise interval
    values are arbitrary floats.
    """
    n = draw(st.integers(1 if wide else 2, 4))
    m = draw(st.integers(0, 8))
    if wide and draw(st.booleans()):
        if draw(st.booleans()):
            alphas = [draw(st.integers(1, 6)) for _ in range(n)]
            entry = lambda a: st.integers(1, a)
        else:
            alphas = [draw(st.sampled_from([1.0, 3.5, 6.25])) for _ in range(n)]
            entry = ((lambda a: st.integers(4, int(4 * a)).map(lambda q: q / 4)) if grid
                     else (lambda a: st.floats(1.0, a)))
        agents = [AgentProfile(a, 1) for a in alphas]
        goods = [GoodEvent(i, values=[draw(entry(a)) for a in alphas])
                 for i in range(1, m + 1)]
        flavor = Flavor.INTERVAL
    else:
        pool = st.one_of(pairs, float_pairs) if wide else pairs
        agents = [AgentProfile(*draw(pool)) for _ in range(n)]
        goods = [GoodEvent(i, high=[draw(st.booleans()) for _ in range(n)])
                 for i in range(1, m + 1)]
        flavor = Flavor.TWO_VALUE
    owners = [draw(st.integers(1, n)) for _ in range(m)]
    inst = Instance(agents=agents, goods=goods, flavor=flavor)
    state = AllocationState(inst)
    for g, o in zip(goods, owners):
        state.assign(g, o)
    return state, inst


def _integer_valued(inst):
    nums = [x for a in inst.agents for x in (a.alpha, a.beta)]
    nums += [v for g in inst.goods if g.values is not None for v in g.values]
    return all(isinstance(x, int) for x in nums)


def _same(got, want, exact):
    """Equal and of the same type on integer-valued instances; equal as
    floats elsewhere."""
    if got is None or want is None:
        return got is want
    if exact:
        return type(got) is type(want) and got == want
    return float(got) == float(want)


def _report_of(state, inst):
    return ReportBuilder(inst).report(state), state.pairwise()


@given(random_states(wide=True))
@settings(max_examples=300, deadline=None)
def test_report_matches_direct_metrics(data):
    state, inst = data
    exact = _integer_valued(inst)
    rep, _ = _report_of(state, inst)
    edges = build_envy_graph(state).edges
    assert rep.t == state.t
    if state.n == 1:  # nothing to envy, on float instances too
        assert all(type(x) is Fraction and x == 1 for x in rep.ef + rep.ef1 + rep.ef2)
    for i in range(1, state.n + 1):
        mms = mms_report(state, i)
        want = {
            "ef": efk_ratio_all(state, i, 0),
            "ef1": efk_ratio_all(state, i, 1),
            "ef2": efk_ratio_all(state, i, 2),
            "prop": prop_ratio(state, i),
            "mms_value": None if mms is None else mms[0],
            "mms_ratio": None if mms is None else mms[1],
            "envy_out": sum(1 for (a, _) in edges if a == i),
        }
        for field, value in want.items():
            got = getattr(rep, field)[i - 1]
            assert _same(got, value, exact), (field, i, got, value)


@given(random_states(wide=True, grid=False))
@settings(max_examples=200, deadline=None)
def test_report_efk_equals_per_pair_minimum(data):
    """min over j of v_i(A_i)/d_j equals the ratio at the largest d_j, on
    arbitrary floats too (rounded division is monotone)."""
    state, inst = data
    exact = _integer_valued(inst)
    rep, tr = _report_of(state, inst)
    for i in range(1, state.n + 1):
        for k, got in enumerate((rep.ef[i - 1], rep.ef1[i - 1], rep.ef2[i - 1])):
            want = min((_ratio(tr.val[i][i], tr.removable_value(i, j, k))
                        for j in range(1, state.n + 1) if j != i), default=Fraction(1))
            assert _same(got, want, exact), (i, k, got, want)


@given(random_states())
@settings(max_examples=120, deadline=None)
def test_efk_monotone_in_k_and_implication_chain(data):
    state, inst = data
    n = state.n
    for i in range(1, n + 1):
        e0 = efk_ratio_all(state, i, 0)
        e1 = efk_ratio_all(state, i, 1)
        e2 = efk_ratio_all(state, i, 2)
        assert e0 <= e1 <= e2
        own = own_value(state, i)
        total = seen_value(state, i)
        # rho-envy-freeness forces rho-proportionality...
        assert n * own >= e0 * total
        # ...and rho-proportionality forces the same share of the maximin value
        pr = prop_ratio(state, i)
        rep = mms_report(state, i)
        assert own >= pr * rep[0]


@given(random_states(), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_ratios_invariant_under_scaling_one_agent(data, c):
    state, inst = data
    n = state.n
    scaled_agents = list(inst.agents)
    scaled_agents[0] = AgentProfile(inst.agents[0].alpha * c, inst.agents[0].beta * c)
    inst2 = Instance(agents=scaled_agents, goods=inst.goods)
    state2 = AllocationState(inst2)
    for g, owner in zip(state.goods_seen, state.recipients):
        state2.assign(g, owner)
    for k in (0, 1, 2):
        for j in range(2, n + 1):
            assert efk_ratio(state, 1, j, k) == efk_ratio(state2, 1, j, k)
    assert prop_ratio(state, 1) == prop_ratio(state2, 1)
    assert mms_report(state, 1)[1] == mms_report(state2, 1)[1]


@given(random_states(wide=True), st.data())
@settings(max_examples=120, deadline=None)
def test_pairwise_tracker_matches_direct_metrics(data, draws):
    """The run ledger, first read at any step and fed by `assign` after that,
    equals a tracker fed from step 1; both equal the direct functions."""
    state, inst = data
    first_read = draws.draw(st.integers(0, state.t))
    tracker = PairwiseTracker(inst)
    replay = AllocationState(inst)
    for g, owner in zip(state.goods_seen, state.recipients):
        if replay.t == first_read:
            replay.pairwise()
        tracker.observe(g, owner)
        replay.assign(g, owner)
    ledger = replay.pairwise()
    assert ledger is replay.pairwise()
    assert vars(ledger) == vars(tracker)
    for i in range(1, state.n + 1):
        assert tracker.seen_total[i] == seen_value(replay, i)
        for j in range(1, state.n + 1):
            assert tracker.val[i][j] == bundle_value(inst, i, bundles(replay)[j - 1])
            for k in (0, 1, 2):
                assert tracker.removable_value(i, j, k) == removable_value(replay, i, j, k)
    assert tracker.envy_graph().edges == build_envy_graph(replay).edges


def test_direct_removable_value_sums_in_the_ledger_order():
    """On arbitrary float interval values the direct function and the ledger
    agree to the last bit (and in type) for every (i, j, k): both fold the
    bundle in arrival order and then subtract its best goods."""
    for seed in range(200):
        inst = interval_random(3, 10, seed)
        rng = random.Random(seed)
        state = AllocationState(inst)
        for g in inst.goods:
            state.assign(g, rng.randint(1, 3))
        tr = state.pairwise()
        for i, j, k in itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2)):
            got, want = removable_value(state, i, j, k), tr.removable_value(i, j, k)
            assert got == want and type(got) is type(want), (seed, i, j, k, got, want)


def test_direct_removable_value_on_float_two_value_profiles_is_within_tolerance():
    """On float 2-value profiles the ledger subtracts drop_h * alpha (and
    drop_l * beta) in one step, the direct function the removed goods one at
    a time: they may differ in the last bit, never beyond REL_TOL.  The
    witness pins that divergence, so a change unifying the two is deliberate."""
    witness = None
    for seed in range(200):
        inst = random_two_value(3, 10, seed, profiles=[(0.7, 0.1), (2.5, 0.3), (1.1, 1.1)])
        rng = random.Random(seed)
        state = AllocationState(inst)
        for g in inst.goods:
            state.assign(g, rng.randint(1, 3))
        tr = state.pairwise()
        for i, j, k in itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2)):
            got, want = removable_value(state, i, j, k), tr.removable_value(i, j, k)
            assert abs(got - want) <= REL_TOL * max(1.0, abs(got), abs(want)), (seed, i, j, k)
            if (seed, i, j, k) == (0, 3, 2, 2):
                witness = (want, got)
    assert witness == (6.599999999999999, 6.6)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 4)])
def test_report_on_small_interval_bundles_equals_direct_ratios(n, m):
    """Agents 2..n get every good, at most two each, on arbitrary float
    values.  A bundle of at most k goods has k-removable value exactly 0 in
    the ledger too, not a rounding residue, so every EF2 ratio is 1 and agent
    1's EF/EF1/EF2 (an empty bundle: 0 or 1) equal the direct ratios."""
    for seed in range(200):
        inst = interval_random(n, m, seed)
        state = AllocationState(inst)
        for t, g in enumerate(inst.goods):
            state.assign(g, 2 + t % (n - 1))
        rep = ReportBuilder(inst).report(state)
        assert rep.ef2 == [1] * n, (seed, rep.ef2)
        for k, got in enumerate((rep.ef[0], rep.ef1[0], rep.ef2[0])):
            assert got == efk_ratio_all(state, 1, k), (seed, k, got)


def _assert_maxima_direct(tr):
    """The ledger's maxima equal a direct max over j, and its out-degrees a
    direct count of the j with `_gt`."""
    dmax, envy_out = tr.maxima()
    n = tr.n
    for i in range(1, n + 1):
        assert dmax[2][i] <= dmax[1][i] <= dmax[0][i], (i, [d[i] for d in dmax])
        others = [j for j in range(1, n + 1) if j != i]
        for k in (0, 1, 2):
            direct = max((tr.removable_value(i, j, k) for j in others), default=0)
            assert dmax[k][i] == direct, (i, k, dmax[k][i], direct)
        assert envy_out[i] == sum(_gt(tr.val[i][j], tr.val[i][i]) for j in others)


@given(random_states(wide=True, grid=False), st.data())
@settings(max_examples=300, deadline=None)
def test_ledger_maxima_equal_direct_max_and_count(data, draws):
    """First read at a random step, then kept current by every `assign`:
    on integer, float-profile and interval instances (arbitrary floats, so
    a removable value can go down by rounding)."""
    state, inst = data
    first_read = draws.draw(st.integers(0, state.t))
    replay = AllocationState(inst)
    for g, owner in zip(state.goods_seen, state.recipients):
        if replay.t == first_read:
            _assert_maxima_direct(replay.pairwise())
        replay.assign(g, owner)
        if replay.t > first_read:
            _assert_maxima_direct(replay.pairwise())
    _assert_maxima_direct(replay.pairwise())


@pytest.mark.parametrize("kind", ["int", "float", "interval"])
@pytest.mark.parametrize("n", [2, 4, 7])
def test_ledger_maxima_stay_ordered_and_exact_after_every_observe(kind, n):
    """Read from the first step on, the maxima keep d2 <= d1 <= d0 (removing
    goods never raises a value) and equal a fresh rescan after every good, on
    integer and non-dyadic float 2-value streams and on interval streams.
    `_update_maxima` skips a viewer whose column a is no argmax and worth at
    most d2, which is exact only while that chain holds."""
    for seed in range(3):
        if kind == "interval":
            inst = interval_random(n, 120, seed)
        else:
            pool = [(5, 1), (2, 1), (3, 2), (1, 1), (4, 0)] if kind == "int" else \
                [(0.7, 0.1), (2.5, 0.3), (1.1, 1.1), (0.3, 0.0), (3.3, 0.7)]
            inst = random_two_value(n, 120, seed, bias=0.4, profiles=pool)
        state = AllocationState(inst)
        _assert_maxima_direct(state.pairwise())
        rng = random.Random(seed)
        for g in inst.goods:
            # a few favourite owners, so that bundles grow unevenly
            state.assign(g, rng.choice([1, 1, 2, rng.randrange(1, n + 1)]))
            _assert_maxima_direct(state.pairwise())


def test_ledger_ef2_maximum_moves_below_the_ef1_maximum():
    """Three (5, 1)-agents.  Agent 2 holds two highs and three lows (d0 =
    13, d1 = 8, d2 = 3 for viewer 1); agent 3 then collects lows.  Its fifth
    low ties d2 = 3, and its sixth is worth 6 <= d1 in all but lifts its EF2
    value to 4 > d2: the new column moves d2 though it is no argmax and
    below d1."""
    inst = Instance(agents=[AgentProfile(5, 1)] * 3,
                    goods=[GoodEvent(t, high=(t <= 2,) * 3) for t in range(1, 12)])
    state = AllocationState(inst)
    _assert_maxima_direct(state.pairwise())
    for g in inst.goods:
        state.assign(g, 2 if g.index <= 5 else 3)
        _assert_maxima_direct(state.pairwise())
    dmax, _ = state.pairwise().maxima()
    assert [d[1] for d in dmax] == [13, 8, 4]


def test_ledger_maximum_rescans_when_its_argmax_drops_by_rounding():
    """Near 2**53 a float removable value can go down when a good arrives.
    At t = 5 agent 2's EF2 maximum, attained on agent 1's bundle, drops by
    rounding from 0.0 to -2.0 while agent 3's bundle stays at 0: the maximum
    must be rescanned over j, not overwritten with the new value."""
    big = 2.0 ** 53
    inst = Instance(agents=[AgentProfile(2.0 ** 55, 1.0)] * 3, flavor=Flavor.INTERVAL,
                    goods=[GoodEvent(t, values=v) for t, v in enumerate(
                        [(big + 2, 3 * big, big + 2), (3, 7, big + 2), (7, 3, 7),
                         (1, big + 2, 2), (3 * big, 2, 1.5 * big)], 1)])
    state = AllocationState(inst)
    _assert_maxima_direct(state.pairwise())
    for g, owner in zip(inst.goods, (1, 3, 2, 1, 1)):
        state.assign(g, owner)
        _assert_maxima_direct(state.pairwise())


def test_efk_holds_keeps_the_float_tolerance():
    """Agent 1 holds one good worth 0.3; agent 2's bundle minus its best is
    0.1 + 0.1 + 0.1, one rounding above 0.3.  Within 1e-9 that is EF1."""
    inst = Instance(agents=[AgentProfile(0.3, 0.1), AgentProfile(1, 1)],
                    goods=[GoodEvent(t, high=(t == 1 or t == 5, False)) for t in range(1, 6)])
    state = AllocationState(inst)
    for g, owner in zip(inst.goods, (1, 2, 2, 2, 2)):
        state.assign(g, owner)
    tr = state.pairwise()
    assert tr.removable_value(1, 2, 1) > tr.val[1][1]
    assert tr.is_efk(1, 2, 1) and tr.efk_holds(1, 1)
    assert tr.efk_failures(1) == []


def test_a_run_feeds_one_tracker_once_per_good(monkeypatch, tmp_path):
    """Bare deferred priority never builds the ledger; an audited
    priority-matching CLI run with per-step reports builds exactly one and
    feeds it once per good."""
    from fairstream.cli import main
    from fairstream.deferred_priority import DeferredPriority
    from fairstream.driver import run_online
    from fairstream.generators import random_two_value

    fed = []
    observe = PairwiseTracker.observe

    def counting(self, good, agent):
        fed.append(id(self))
        observe(self, good, agent)

    monkeypatch.setattr(PairwiseTracker, "observe", counting)
    run_online(DeferredPriority(), random_two_value(4, 50, seed=1))
    assert fed == []
    m = 31
    assert main(["run", "--alg", "priority-matching", "--gen", "random-2value", "--n", "3",
                 "--m", str(m), "--seed", "2", "--foresight", "2", "--granularity", "step",
                 "--assert-guarantees", "--report-out", str(tmp_path / "report.csv")]) == 0
    assert len(fed) == m and len(set(fed)) == 1
