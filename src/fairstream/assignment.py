"""Deterministic assignment solvers with exact arithmetic.

Two solvers serve the priority-matching rule (`matching.plan_round`):

* `priority_assignment` solves a *full* round (as many goods as agents)
  from its structure: a greedy pass over the agents in rank order picks who
  gets a high-valued good, and unweighted augmenting and alternating paths
  build and then lexicographically minimise the matching.  No weight is
  ever formed.

* `max_weight_assignment` solves a *partial* final round (fewer goods than
  agents) from explicit int or Fraction weights by one exact Hungarian
  solve over the goods, whose integer costs carry the tie-break: each
  weight is scaled by B^n (B = goods + 1) and perturbed by the agents'
  good indices as base-B digits, which sum to less than one scaled unit.

Both return, among all maximum-weight assignments, the one whose per-agent
good vector (good index matched to agent 1, agent 2, ...) is
lexicographically smallest, with unmatched agents sorting last.
"""
from __future__ import annotations

import math


def max_weight_assignment(weights):
    """Assign every good (column) to a distinct agent (row), maximizing total
    weight.  The rows have one weight per good and there are no more goods
    than agents.  Returns a per-agent list of good columns (0-based) with
    None for unmatched agents: among the maximum-weight assignments, the one
    with the lexicographically smallest per-agent vector, unmatched agents
    sorting last.

    One exact Hungarian solve finds it.  Weights are ints or Fractions,
    scaled to integers by the lcm of their denominators.  With k goods, n
    agents and B = k + 1, read an assignment's per-agent vector, with k for
    an unmatched agent, as an n-digit base-B number: agent 1 is the leading
    digit and every digit is below B, so the number is below B^n, one unit
    of weight scaled by B^n.  Minimising weight * -B^n plus that number
    therefore maximises the weight first and then takes the smallest vector.
    The number is the constant sum_a k*B^(n-a) (every agent unmatched) plus
    (c - k)*B^(n-a) for each agent a given good c, so good c costs agent a
    (c - k)*B^(n-a) - w*B^n, shifted by one constant so that no cost is
    negative, and the solve runs over k goods, not n agents.
    """
    n = len(weights)
    k = len(weights[0]) if weights else 0
    if k > n:
        raise ValueError("more goods than agents in one round")
    if k == 0:
        return [None] * n
    scale = math.lcm(*{w.denominator for row in weights for w in row})
    rows = [[(w * scale).numerator for w in row] for row in weights]
    base = k + 1
    unit = base ** n
    shift = max(0, max(map(max, rows))) * unit + k * base ** (n - 1)
    cost = [[0] * (n + 1) for _ in range(k + 1)]  # 1-based: good c+1, agent a
    for a, row in enumerate(rows, 1):
        place = base ** (n - a)
        for c, w in enumerate(row):
            cost[c + 1][a] = shift + (c - k) * place - w * unit
    owner = _hungarian_min_cost(cost)
    return [owner[a] - 1 if owner[a] else None for a in range(1, n + 1)]


def _hungarian_min_cost(cost):
    """Exact min-cost assignment of every row to a distinct column
    (potentials method; rows <= columns, nonnegative costs, row and column 0
    unused).  Returns the row (0 for none) that each column is matched to.

    Row potentials start at 0 and only grow, column potentials start at 0
    and only fall, and a row's potential is bounded by its cost to a column
    no row holds yet, whose potential is still 0.  So every reduced cost is
    at most twice the largest cost, and one more than that is infinity.
    """
    rows, cols = len(cost) - 1, len(cost[0]) - 1
    big = 2 * max(map(max, cost)) + 1
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    p = [0] * (cols + 1)
    way = [0] * (cols + 1)
    for i in range(1, rows + 1):
        p[0] = i
        j0 = 0
        minv = [big] * (cols + 1)
        used = [False] * (cols + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row, ui = cost[i0], u[i0]
            delta = big
            j1 = -1
            for j in range(1, cols + 1):
                if used[j]:
                    continue
                cur = row[j] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(cols + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return p


def priority_assignment(high, order):
    """Lexicographically smallest maximum-weight perfect matching of a full
    priority round.

    `high[a]` is the bitmask of the goods (columns 0..n-1) that agent `a`
    (row 0..n-1) values high, and `order` lists the agents from the largest
    rank factor to the smallest.  Agent a weighs a good at f_a when it sees
    it low and 2*f_a when it sees it high, with f strictly decreasing along
    `order`.  Returns the per-agent list of good columns, as
    `max_weight_assignment` does on those weights.

    Why no weights are needed: every agent receives exactly one good, so a
    perfect matching M weighs sum_a f_a + sum_{a in H(M)} f_a, where H(M) is
    the set of agents M gives a good they see high.  H(M) is matchable into
    high goods, and any such matchable set H extends to a perfect matching
    whose high set contains H; so the optimum is the maximum-weight
    independent set of the transversal matroid on the agents' high edges,
    under weights f.  Greedy in decreasing weight -- keep an agent iff an
    augmenting path still matches every kept agent to a high good -- finds
    it (Edmonds 1971; Rado), and because the f_a are distinct that set H* is
    unique.  The maximum-weight matchings are therefore exactly the perfect
    matchings in which agents of H* take goods they see high and all others
    goods they see low.  One such matching is completed by augmenting paths;
    then agents are fixed in index order, each moved to the smallest good an
    alternating cycle through the agents not yet fixed can free for it.
    """
    n = len(high)
    full = (1 << n) - 1
    owner = [-1] * n  # good -> agent
    free = [full]     # goods no agent holds yet
    kept = [_augment(high, owner, free, a, [0]) for a in order]
    allowed = [0] * n
    for a, k in zip(order, kept):
        allowed[a] = high[a] if k else full & ~high[a]
    for a, k in zip(order, kept):
        if not k and not _augment(allowed, owner, free, a, [0]):
            raise RuntimeError("priority round has no perfect matching")
    match = [0] * n
    for g, a in enumerate(owner):
        match[a] = g
    for a in range(n - 1):
        cur = match[a]
        path = _freeing_path(allowed, owner, a, cur)
        if path is None:
            continue
        # path: goods c, r1, ..., cur; a takes c, each holder takes the next
        take = a
        for g in path:
            prev = owner[g]
            owner[g] = take
            match[take] = g
            take = prev
    return match


def _freeing_path(allowed, owner, a, cur):
    """The smallest good below `cur` that agent `a` may take and that an
    alternating path through agents a+1.. can free, as the list of goods
    (that good, ..., cur) along the path; None if there is none.

    Candidates are searched in increasing order from one shared `seen` set:
    a good explored from a smaller candidate without reaching `cur` cannot
    reach it from a larger one either.
    """
    smaller = allowed[a] & ((1 << cur) - 1)
    target = 1 << cur
    seen = 0
    parent = {}
    while smaller:
        low = smaller & -smaller
        smaller ^= low
        if seen & low:
            continue
        seen |= low
        queue = [low.bit_length() - 1]
        for r in queue:
            b = owner[r]
            if b <= a:  # fixed agents keep their goods
                continue
            nxt = allowed[b] & ~seen
            if nxt & target:
                path = [cur]
                while r != queue[0]:
                    path.append(r)
                    r = parent[r]
                path.append(r)
                path.reverse()
                return path
            seen |= nxt
            while nxt:
                bit = nxt & -nxt
                nxt ^= bit
                g = bit.bit_length() - 1
                parent[g] = r
                queue.append(g)
    return None


def _augment(adj, owner, free, a, seen):
    """Match agent `a` within the bitmask rows `adj` by an augmenting path
    (Kuhn), re-matching the holders along it and taking an unheld good as
    soon as one is in reach.  `free[0]` masks the unheld goods and `seen[0]`
    the held goods already tried in this search.  Returns False, changing
    nothing, if no path exists."""
    avail = adj[a] & free[0]
    if avail:
        low = avail & -avail
        free[0] ^= low
        owner[low.bit_length() - 1] = a
        return True
    cand = adj[a] & ~seen[0]
    while cand:
        low = cand & -cand
        seen[0] |= low
        g = low.bit_length() - 1
        if _augment(adj, owner, free, owner[g], seen):
            owner[g] = a
            return True
        cand = adj[a] & ~seen[0]
    return False
