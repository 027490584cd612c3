import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.assignment import (_exhaustive, _lexicographic_hungarian,
                                   max_weight_assignment, priority_assignment)
from fairstream.matching import aux_weight_matrix
from fairstream.model import AgentProfile, GoodEvent


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
    assert max_weight_assignment(w, 1) == [None, 0, None]


def test_more_goods_than_agents_rejected():
    with pytest.raises(ValueError):
        max_weight_assignment([[1, 2]], 2)


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
def test_hungarian_path_matches_exhaustive(problem):
    rows, k = problem
    exhaustive = max_weight_assignment(rows, k)
    hungarian = _lexicographic_hungarian(rows, len(rows), k)
    assert exhaustive == hungarian


def test_large_instance_matches_brute_force():
    from fairstream.assignment import _exhaustive

    n = 8  # above the exhaustive cutoff inside max_weight_assignment
    w = [[(i * 7 + j * 3) % 11 for j in range(n)] for i in range(n)]
    result = max_weight_assignment(w)
    assert sorted(result) == list(range(n))
    assert result == _exhaustive(w, n, n)


# ---------------------------------------------------------------------------
# full priority rounds: the structural solver against the weighted solvers
# ---------------------------------------------------------------------------

def priority_weights(high, pi):
    """The rule's integer weights for masks `high` and ranks `pi` (agent a,
    0-based, has rank pi[a])."""
    n = len(high)
    agents = [AgentProfile(2, 1)] * n
    goods = [GoodEvent(c + 1, high=[bool(high[a] >> c & 1) for a in range(n)])
             for c in range(n)]
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
        n = 4 + case % 9  # 4..12, both sides of the exhaustive limit
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
