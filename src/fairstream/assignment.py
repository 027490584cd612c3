"""Deterministic assignment solvers with exact arithmetic.

Two solvers serve the priority-matching rule (`matching.plan_round`):

* `priority_assignment` solves a *full* round (as many goods as agents)
  from its structure: a greedy pass over the agents in rank order picks who
  gets a high-valued good, and unweighted augmenting and alternating paths
  build and then lexicographically minimise the matching.  No weight is
  ever formed.

* `max_weight_assignment` solves a *partial* final round (fewer goods than
  agents) from explicit int or Fraction weights; no floats enter the
  optimization.  Small problems are solved by exhaustive permutation
  search; larger ones by an exact Hungarian method plus a
  fix-one-agent-at-a-time lexicographic refinement.

Both return, among all maximum-weight assignments, the one whose per-agent
good vector (good index matched to agent 1, agent 2, ...) is
lexicographically smallest, with unmatched agents sorting last.
"""
from __future__ import annotations

from itertools import permutations

EXHAUSTIVE_LIMIT = 7


def max_weight_assignment(weights, n_goods=None):
    """Assign every good (column) to a distinct agent (row), maximizing total
    weight.  Requires n_goods <= n_agents.  Returns a per-agent list of good
    columns (0-based) with None for unmatched agents."""
    n_agents = len(weights)
    if n_goods is None:
        n_goods = len(weights[0]) if weights else 0
    if n_goods > n_agents:
        raise ValueError("more goods than agents in one round")
    if n_goods == 0:
        return [None] * n_agents
    if n_agents <= EXHAUSTIVE_LIMIT:
        return _exhaustive(weights, n_agents, n_goods)
    return _lexicographic_hungarian(weights, n_agents, n_goods)


def _vector_key(assignment, n_goods):
    return tuple(n_goods if g is None else g for g in assignment)


def _exhaustive(weights, n_agents, n_goods):
    best_val = None
    best_assign = None
    best_key = None
    for agents in permutations(range(n_agents), n_goods):
        val = 0
        for g, a in enumerate(agents):
            val += weights[a][g]
        if best_val is not None and val < best_val:
            continue
        assign = [None] * n_agents
        for g, a in enumerate(agents):
            assign[a] = g
        key = _vector_key(assign, n_goods)
        if best_val is None or val > best_val or (val == best_val and key < best_key):
            best_val, best_assign, best_key = val, assign, key
    return best_assign


def _hungarian_value(weights, rows, cols):
    """Max total weight matching all of `cols` into distinct `rows` (exact)."""
    if not cols:
        return 0
    n = len(rows)
    # square min-cost matrix: real columns negated, dummy columns cost 0
    cost = []
    for r in rows:
        row = [-weights[r][c] for c in cols] + [0] * (n - len(cols))
        cost.append(row)
    return -_hungarian_min_cost(cost)


def _hungarian_min_cost(cost):
    """Exact min-cost square assignment (potentials method); returns the cost."""
    n = len(cost)
    big = sum(abs(c) for row in cost for c in row) + 1
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [big] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = big
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
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
    total = 0
    for j in range(1, n + 1):
        if p[j]:
            total += cost[p[j] - 1][j - 1]
    return total


def _lexicographic_hungarian(weights, n_agents, n_goods):
    rows = list(range(n_agents))
    cols = list(range(n_goods))
    target = _hungarian_value(weights, rows, cols)
    assign = [None] * n_agents
    for a in range(n_agents):
        rest_rows = [r for r in rows if r != a]
        fixed = None
        for g in sorted(cols) + [None]:
            if g is None:
                if len(cols) > len(rest_rows):
                    continue  # every good still needs a distinct agent
                sub = _hungarian_value(weights, rest_rows, cols)
                gain = 0
            else:
                rest_cols = [c for c in cols if c != g]
                if len(rest_cols) > len(rest_rows):
                    continue
                sub = _hungarian_value(weights, rest_rows, rest_cols)
                gain = weights[a][g]
            if gain + sub == target:
                fixed = g
                target -= gain
                break
        if fixed is not None:
            assign[a] = fixed
            cols.remove(fixed)
        rows.remove(a)
    return assign


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
