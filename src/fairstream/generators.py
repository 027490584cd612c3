"""Seeded instance generators.

All generators are deterministic functions of their parameters and seed, so a
regenerated instance is byte-identical when serialized.
"""
from __future__ import annotations

import random

from .model import AgentProfile, Flavor, GoodEvent, Instance

# mixed agent types: two two-distinct-value profiles, one flat, one zero-low
DEFAULT_PROFILE_POOL = ((5, 1), (2, 1), (1, 1), (1, 0))


def random_two_value(n: int, m: int, seed: int, bias: float = 0.3,
                     profiles=None, foresight: int = 0) -> Instance:
    """Random 2-value stream: each high/low flag drawn independently with
    probability `bias`.  Agent profiles are drawn from `profiles` (a pool of
    (alpha, beta) pairs) unless exactly n pairs are given."""
    rng = random.Random(seed)
    pool = [tuple(p) for p in (profiles or DEFAULT_PROFILE_POOL)]
    if len(pool) == n:
        chosen = pool
    else:
        chosen = [pool[rng.randrange(len(pool))] for _ in range(n)]
    agents = [AgentProfile(a, b) for a, b in chosen]
    goods = [GoodEvent(t, high=[rng.random() < bias for _ in range(n)])
             for t in range(1, m + 1)]
    return Instance(agents=agents, goods=goods, flavor=Flavor.TWO_VALUE,
                    foresight=foresight)


def staircase(n: int, alpha: int | None = None, foresight: int = 0) -> Instance:
    """The adversarial staircase: the r-th good is high-valued exactly for the
    first r-1 agents, so agent i sees n-i high goods among the first n."""
    if alpha is None:
        alpha = 2 * n * n + 2 * n
    agents = [AgentProfile(alpha, 1) for _ in range(n)]
    goods = [GoodEvent(r, high=[i < r for i in range(1, n + 1)])
             for r in range(1, n + 1)]
    return Instance(agents=agents, goods=goods, flavor=Flavor.TWO_VALUE,
                    foresight=foresight)


def lows_then_highs(n: int, alpha: int, foresight: int | None = None) -> Instance:
    """n universally low goods followed by n-1 universally high ones; with
    alpha >= n no allocation rule, however much lookahead, can keep every
    agent above 1/n of its maximin share at every step."""
    if not 1 <= n <= alpha:
        raise ValueError(f"need 1 <= n <= alpha, got n={n}, alpha={alpha}")
    if foresight is None:
        foresight = n - 1
    agents = [AgentProfile(alpha, 1) for _ in range(n)]
    goods = [GoodEvent(t, high=[False] * n) for t in range(1, n + 1)]
    goods += [GoodEvent(t, high=[True] * n) for t in range(n + 1, 2 * n)]
    return Instance(agents=agents, goods=goods, flavor=Flavor.TWO_VALUE,
                    foresight=foresight)


def interval_random(n: int, m: int, seed: int, alphas=None,
                    foresight: int = 0) -> Instance:
    """Interval-restricted stream: agent i's value for each good is uniform
    in [1, alpha_i].  `alphas`, when given, holds one alpha per agent."""
    rng = random.Random(seed)
    if alphas is None:
        alphas = [rng.uniform(2.0, 16.0) for _ in range(n)]
    elif len(alphas) != n:
        raise ValueError(f"need {n} alphas, one per agent, got {len(alphas)}")
    agents = [AgentProfile(float(a), 1.0) for a in alphas]
    goods = [GoodEvent(t, values=[rng.uniform(1.0, agents[i].alpha) for i in range(n)])
             for t in range(1, m + 1)]
    return Instance(agents=agents, goods=goods, flavor=Flavor.INTERVAL,
                    foresight=foresight)
