import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.assignment import max_weight_assignment, priority_assignment
from fairstream.matching import aux_weight_matrix
from fairstream.model import AgentProfile, GoodEvent


def _exhaustive(weights, n_agents, n_goods):
    """Oracle: search every placement of the goods on distinct agents for the
    maximum weight, ties to the smallest per-agent good vector (unmatched
    agents sorting last)."""
    best_val = best_assign = best_key = None
    for agents in permutations(range(n_agents), n_goods):
        val = 0
        for g, a in enumerate(agents):
            val += weights[a][g]
        if best_val is not None and val < best_val:
            continue
        assign = [None] * n_agents
        for g, a in enumerate(agents):
            assign[a] = g
        key = tuple(n_goods if g is None else g for g in assign)
        if best_val is None or val > best_val or key < best_key:
            best_val, best_assign, best_key = val, assign, key
    return best_assign


def test_simple_square():
    w = [[3, 1], [1, 3]]
    assert max_weight_assignment(w) == [0, 1]
    w = [[1, 3], [3, 1]]
    assert max_weight_assignment(w) == [1, 0]


def test_all_indifferent_picks_lexicographically_smallest():
    w = [[1, 1, 1]] * 3
    assert max_weight_assignment(w) == [0, 1, 2]


def test_rectangular_leaves_someone_out():
    w = [[5], [7], [7]]
    # agents 2 and 3 tie on the single good; lex order leaves agent 2 matched
    assert max_weight_assignment(w) == [None, 0, None]


def test_more_goods_than_agents_rejected():
    with pytest.raises(ValueError):
        max_weight_assignment([[1, 2]])


def test_tie_resolution_prefers_small_goods_for_small_agents():
    w = [[2, 2], [2, 2]]
    assert max_weight_assignment(w) == [0, 1]


@st.composite
def weight_problems(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    num = st.integers(0, 12)
    rows = [[Fraction(draw(num), draw(st.integers(1, 4))) for _ in range(k)]
            for _ in range(n)]
    return rows, k


@given(weight_problems())
@settings(max_examples=120, deadline=None)
def test_fraction_weights_match_exhaustive(problem):
    rows, k = problem
    assert max_weight_assignment(rows) == _exhaustive(rows, len(rows), k)


def test_large_instance_matches_brute_force():
    n = 8
    w = [[(i * 7 + j * 3) % 11 for j in range(n)] for i in range(n)]
    result = max_weight_assignment(w)
    assert sorted(result) == list(range(n))
    assert result == _exhaustive(w, n, n)


# ---------------------------------------------------------------------------
# priority rounds: both solvers against the oracle on the rule's weights
# ---------------------------------------------------------------------------

def priority_weights(high, pi, k=None):
    """The rule's integer weights for masks `high` over k goods (n by
    default) and ranks `pi` (agent a, 0-based, has rank pi[a])."""
    n = len(high)
    agents = [AgentProfile(2, 1)] * n
    goods = [GoodEvent(c + 1, high=[bool(high[a] >> c & 1) for a in range(n)])
             for c in range(n if k is None else k)]
    return aux_weight_matrix(pi, agents, goods)


def rank_order(pi):
    return sorted(range(len(pi)), key=pi.__getitem__)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_priority_assignment_matches_exhaustive_on_every_mask(n):
    for pi in permutations(range(1, n + 1)):
        for bits in product((0, 1), repeat=n * n):
            high = [sum(bits[a * n + c] << c for c in range(n)) for a in range(n)]
            expected = _exhaustive(priority_weights(high, pi), n, n)
            assert priority_assignment(high, rank_order(pi)) == expected, (high, pi)


def test_priority_assignment_matches_weighted_solver_on_random_masks():
    rng = random.Random(20)
    for case in range(240):
        n = 4 + case % 9  # 4..12
        density = (0.0, 0.15, 0.5, 0.85, 1.0)[case % 5]
        full = (1 << n) - 1
        high = [sum(1 << c for c in range(n) if rng.random() < density)
                for _ in range(n)]
        for a in rng.sample(range(n), case % 3):
            high[a] = full  # agents who see every good high
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        expected = max_weight_assignment(priority_weights(high, pi))
        assert priority_assignment(high, rank_order(pi)) == expected, (high, pi)


def _partial_rounds(n, orders):
    """Every mask of every partial round (k < n goods) under each rank order."""
    for k in range(n):
        for pi in orders:
            for bits in product((0, 1), repeat=n * k):
                yield [sum(bits[a * k + c] << c for c in range(k)) for a in range(n)], pi, k


@pytest.mark.parametrize("n", [1, 2, 3])
def test_partial_round_matches_exhaustive_on_every_mask_and_order(n):
    for high, pi, k in _partial_rounds(n, list(permutations(range(1, n + 1)))):
        w = priority_weights(high, pi, k)
        assert max_weight_assignment(w) == _exhaustive(w, n, k), (high, pi)


def test_partial_round_matches_exhaustive_on_every_mask_at_n4():
    orders = [(1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2)]
    for high, pi, k in _partial_rounds(4, orders):
        w = priority_weights(high, pi, k)
        assert max_weight_assignment(w) == _exhaustive(w, 4, k), (high, pi)
