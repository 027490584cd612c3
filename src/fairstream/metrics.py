"""Exact fairness metrics: EF/EF1/EF2 ratios, proportionality, maximin shares.

Numeric policy.  `REL_TOL`, `_is_exact`, `_ratio`, `_gt`, `_geq` and
`_floor_certified` below are the one place that decides how values compare;
every other module takes them from here.  Values of class `int` (`bool`
included) and `Fraction` are exact: between two of them every comparison is
exact, and a ratio min(1, num/den) is a `Fraction`, or the shared `_ONE` at 1.
With a float involved, `_gt(a, b)` is a - b > REL_TOL * max(1, |a|, |b|) and
`_geq(a, b)` is a >= b - REL_TOL * max(1, |a|, |b|), with REL_TOL = 1e-9, and
a ratio is the float min(1.0, num/den).  Each exactness test checks
`x.__class__ is float` before `isinstance`, which takes the slow
`ABCMeta.__instancecheck__` path on a float.

A per-step `FairnessReport` keeps the ledger's numbers and gives its ratios
on demand; `report_csv_rows` writes a ratio of two integers as text straight
from their true division, with no `Fraction`.

Per-step reports use one identity: for a fixed agent i the numerator
v_i(A_i) is the same against every other agent j, so

    min_j min(1, v_i(A_i) / d_j) = min(1, v_i(A_i) / max_j d_j),

where a denominator d <= 0 counts as ratio 1.  It holds on floats too,
because correctly rounded division is monotone.  EF, EF1 and EF2 of agent i
are therefore one ratio each, taken against the largest k = 0, 1, 2
removable value over j.  The same holds for a check v_i(A_i) >= c * d_j: its
tolerance is monotone in the right-hand side, so it passes for every j iff
it passes for the largest d_j.

The run's `PairwiseTracker` keeps those largest values per viewer, with the
envy out-degree (`PairwiseTracker.maxima`).  They are built on the first
read and updated in O(n) per good after that, so a report and every
auditor's EFk check are O(n) per step; only a viewer whose maximum fails is
scanned over j for witnesses.

Two independent maximin-share oracles are provided:

* `mms_exhaustive` searches assignments of up to 12 goods to n parts by
  branch and bound, for arbitrary additive values: an LPT incumbent, bounds
  on what the remaining goods can lift in value and, as goods cannot be
  split, in count (the bin-covering bound of Labbe, Laporte and Martello),
  and symmetry breaks on equal bundle sums and runs of equal goods.  Each is
  exact on floats too, so a float share is one assignment's sum to the last
  bit;
* `mms_two_value` solves the two-distinct-values case exactly at any scale
  (a binary search on a closed feasibility test when the integer low value
  divides the high value), otherwise by `_split_share`, the split search
  that also gives the lift its proxy share.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .model import AllocationState, Flavor, Instance, value

REL_TOL = 1e-9

_ONE = Fraction(1)

_EXACT = (int, Fraction)


def _is_exact(x) -> bool:
    return x.__class__ is not float and isinstance(x, _EXACT)


def _ratio(num, den):
    """min(1, num/den), exact when both operands are exact.

    The exact path compares first and builds one `Fraction` only for a
    ratio below 1; a ratio of at least 1 is `_ONE`.
    """
    if num.__class__ is not float and den.__class__ is not float and \
            isinstance(num, _EXACT) and isinstance(den, _EXACT):  # _is_exact, inlined: hot
        if den <= 0:
            return _ONE
        return Fraction(num, den) if num < den else _ONE
    if den <= 0:
        return 1.0
    return min(1.0, num / den)


def _gt(a, b) -> bool:
    """a > b, beyond relative tolerance when floats are involved."""
    if a.__class__ is not float and b.__class__ is not float and \
            isinstance(a, _EXACT) and isinstance(b, _EXACT):  # _is_exact, inlined: hot
        return a > b
    return a - b > REL_TOL * max(1.0, abs(a), abs(b))


def _geq(lhs, rhs) -> bool:
    """lhs >= rhs, within relative tolerance when floats are involved.

    The float side is nondecreasing in rhs, so lhs passes against every
    right-hand side iff it passes against the largest one.
    """
    if lhs.__class__ is not float and rhs.__class__ is not float and \
            isinstance(lhs, _EXACT) and isinstance(rhs, _EXACT):  # _is_exact, inlined
        return lhs >= rhs
    return lhs >= rhs - REL_TOL * max(1.0, abs(lhs), abs(rhs))


def _floor_certified(lhs, seen) -> bool:
    """lhs >= seen for certain: exactly on exact values, beyond the REL_TOL
    margin on floats.

    A maximin share never exceeds the proportional share seen/n, so with
    lhs = c * n * v a floor check c * v >= mu holds without the oracle
    whenever this is true; the float margin absorbs the rounding of mu.
    """
    if lhs.__class__ is not float and seen.__class__ is not float and \
            isinstance(lhs, _EXACT) and isinstance(seen, _EXACT):  # _is_exact, inlined
        return lhs >= seen
    return _gt(lhs, seen)


# ---------------------------------------------------------------------------
# maximin-share oracles
# ---------------------------------------------------------------------------

MMS_EXHAUSTIVE_MAX_GOODS = 12


def _share_class(values):
    """The class of an exact maximin share of `values`: float when a value
    is not exact, else `Fraction` when one is a `Fraction`, else int."""
    if not all(map(_is_exact, values)):
        return float
    return int if all(isinstance(v, int) for v in values) else Fraction


def mms_exhaustive(values, n: int):
    """Exact maximin share by branch and bound over bundle assignments
    (<= 12 goods).

    Bundles may be empty, so the result is 0 whenever len(values) < n and all
    values are positive.  Goods are placed in descending order and every
    bundle sum is the left fold of its goods in that order, so a float share
    is the sum of one assignment to the last bit, whatever is pruned.

    * Incumbent: LPT (each good onto the first minimal bundle) builds the
      same folds, so the search starts from one of its own leaf values.
    * Bounds: every bundle at or below the incumbent must rise strictly
      above it, so a branch is cut when they cannot all rise.
      - Value: they need best + 1 - s each on integers and best - s on other
        values, more than the remaining goods are worth.  On floats the need
        must exceed the remaining value by REL_TOL * max(1, best): a fold of
        at most 12 goods rounds above their real sum by a relative 12 * 2**-53
        at most, and the computed need and remaining value (below 12 * best
        wherever a cut is made) err by a like amount, all far below the
        margin, so no branch that could win by a rounding error is cut.  The
        smallest bundle plus every remaining good is this bound on one bundle.
      - Goods (the bin-covering bound, as goods cannot be split): each needs
        one more good, and every remaining good is worth at most v, the next
        one.  A bundle with gap d = best - s needs d // v + 1 goods on
        integers and two when d >= v on other values; the branch is cut when
        they need more goods than remain.  On floats this needs no margin.
        Goods come in descending order, so a bundle with s > 0 holds a good
        worth at least v.  The gap is exact for s = 0 and s >= best / 2, and
        for 0 < s < best / 2 it exceeds best / 2 > v both computed and real.
        So d >= v computed means s + v <= best in real arithmetic, and as
        rounding is monotone and best is a float, s plus any one remaining
        good folds to at most best.
    * Symmetry: a good goes to one bundle of each distinct current sum, and
      a good equal to the previous one only to that good's bundle or a later
      one.  Swapping the goods of two bundle slots of equal sum, or two equal
      goods, leaves every fold unchanged, so no distinct leaf is lost.
    """
    vals = sorted(values, reverse=True)
    m = len(vals)
    if n < 1:
        raise ValueError("need n >= 1")
    if m > MMS_EXHAUSTIVE_MAX_GOODS:
        raise ValueError(f"exhaustive oracle capped at {MMS_EXHAUSTIVE_MAX_GOODS} goods")
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    cls = _share_class(vals)
    integral, exact = cls is int, cls is not float
    if m < n or not vals:
        return cls(0)

    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[i]
    # tie[i]: goods i and i + 1 are equal, so i + 1 goes to a bundle >= i's
    tie = [vals[i] == vals[i + 1] for i in range(m - 1)] + [False]
    sums = [0] * n
    for v in vals:  # LPT: each good onto the first minimal bundle
        sums[sums.index(min(sums))] += v
    best = max(0, min(sums))  # the integer 0 unless LPT beats it, as at a leaf
    sums = [0] * n

    def rec(idx, lo):
        nonlocal best
        low = min(sums)
        rem = suffix[idx]
        if not rem:  # a leaf, or only goods worth 0 left: no bundle can rise
            if low > best:
                best = low
            return
        v = vals[idx]  # the largest remaining good, so v > 0
        if low <= best:
            # each bundle at or below the incumbent must rise strictly above
            # it: by its gap d = best - s in value (d + 1 on integers), and by
            # one good, or by more when no remaining good covers d alone
            need = cnt = 0
            if integral:
                for s in sums:
                    if s <= best:
                        d = best - s
                        need += d + 1
                        cnt += d // v + 1
                cut = need > rem
            else:
                for s in sums:
                    if s <= best:
                        d = best - s
                        need += d
                        cnt += 2 if d >= v else 1
                # on floats beyond the REL_TOL margin of the incumbent
                cut = need >= rem if exact else need - rem > REL_TOL * max(1.0, best)
            if cut or cnt > m - idx:
                return
        run = tie[idx]
        for b in range(lo, n):
            s = sums[b]
            if sums.index(s, lo) < b:  # a bundle tried before has this sum
                continue
            sums[b] = s + v
            rec(idx + 1, b if run else 0)
            sums[b] = s

    rec(0, 0)
    return cls(best)


def _capped_partitions(total, parts, cap):
    """Weakly decreasing distributions of `total` over `parts` slots, each <= cap."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    lo = -(-total // parts)  # ceil: first part at least the average
    for first in range(min(cap, total), lo - 1, -1):
        for rest in _capped_partitions(total - first, parts - 1, first):
            yield (first,) + rest


# 128 (h, n, cap) keys kept.  A table has at most p(12) = 77 splits (the
# partitions of 12) of n entries each, so the cache holds at most 128 * 77
# tuples of n ints.  The interval-lift benchmark reads about 90 keys (n = 2, 3,
# 4), so they all stay.
@lru_cache(maxsize=128)
def _partition_table(h, n, cap):
    """`_capped_partitions(h, n, cap)` as a tuple, for h <= MMS_EXHAUSTIVE_MAX_GOODS."""
    return tuple(_capped_partitions(h, n, cap))


def _split_share(h, l, bases, beta, n, cap):
    """The first strictly largest minimum bundle (None if no split fits)
    over the weakly decreasing splits of h highs into n parts of at most
    `cap` highs: k highs start at `bases[k]`, then each low adds `beta` to
    the first minimum bundle.  As rounding is monotone no sum drops as a good
    is added, so this water-filling reaches the best minimum of each split.
    Up to 12 highs the splits come from a cached table (`_partition_table`);
    more are generated, so wide profiles hold no table."""
    best = None
    cap = min(cap, h)  # no split has more highs than there are
    for dist in (_partition_table(h, n, cap) if h <= MMS_EXHAUSTIVE_MAX_GOODS
                 else _capped_partitions(h, n, cap)):
        sums = [bases[k] for k in dist]
        for _ in range(l):
            j = sums.index(min(sums))
            sums[j] += beta
        cur = min(sums)
        if best is None or cur > best:
            best = cur
    return best


def _mms_two_value_folded(h, l, alpha, beta, n):
    """`mms_exhaustive([alpha] * h + [beta] * l, n)` for alpha >= beta >= 0, in
    value and class: `_split_share` with each bundle summed as in the oracle,
    the left fold of its highs, then its lows."""
    cls = _share_class((alpha,) * (h > 0) + (beta,) * (l > 0))
    if h + l < n:
        return cls(0)
    return cls(max(0, _split_share(h, l, list(accumulate([alpha] * h, initial=0)), beta, n, h)))


def _fast_ok(alpha, beta) -> bool:
    """True when `_mms_two_value_fast` applies: integer values, beta > 0
    and beta | alpha."""
    return isinstance(alpha, int) and isinstance(beta, int) and beta > 0 and alpha % beta == 0


def _mms_two_value_fast(h, l, alpha, beta, n, lo=0, hi=None):
    """Binary search on the answer for integer values with beta | alpha.

    With beta dividing alpha the per-bundle low-good requirement is a convex
    function of its high count, so spreading highs as evenly as possible
    (after capping useless surplus) minimizes total lows needed.

    The search runs over [lo, hi] (default [0, floor((h*alpha + l*beta)/n)]),
    with lo >= 0.  Feasibility is monotone in the answer, so any range known
    to hold the share gives the same result as the full one.
    """
    unit = alpha // beta
    if hi is None:
        hi = (h * alpha + l * beta) // n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        # feasible(mid), inlined: hot.  The highs, capped at ceil(mid / alpha)
        # per bundle and spread evenly, leave q or q + 1 per bundle; a bundle
        # of k highs needs max(0, ceil(mid / beta) - k * unit) lows.
        q, r = divmod(min(h, n * -(-mid // alpha)), n)
        need = -(-mid // beta) - q * unit
        if need <= 0 or (n - r) * need + (r * (need - unit) if need > unit else 0) <= l:
            lo = mid
        else:
            hi = mid - 1
    return lo


# Distinct (h, l, alpha, beta, n) arguments kept, so long-lived processes stay
# bounded.  A run's reports read the ledger's warm shares
# (`AllocationState.maximin_shares`), which come here only for values the fast
# search does not cover: one argument per agent and step for those agents.
# Typed, so an integer profile never gets the float share of an equal one.
MMS_CACHE_SIZE = 2 ** 16


@lru_cache(maxsize=MMS_CACHE_SIZE, typed=True)
def _mms_two_value_cached(h, l, alpha, beta, n):
    if alpha == 0:
        return 0
    if beta == 0:
        return alpha * (h // n)
    if _fast_ok(alpha, beta):
        return _mms_two_value_fast(h, l, alpha, beta, n)
    # k highs are worth k * alpha; no bundle needs more than ub // alpha + 1
    ub = (h * alpha + l * beta) / n
    cap = max(int(ub // alpha) + 1, -(-h // n))
    return _split_share(h, l, [k * alpha for k in range(h + 1)], beta, n, cap)


def mms_two_value(h: int, l: int, alpha, beta, n: int):
    """Exact maximin share of h goods worth `alpha` plus l goods worth `beta`
    split into n parts.  Requires alpha >= beta >= 0."""
    if h < 0 or l < 0:
        raise ValueError("counts must be nonnegative")
    if n < 1:
        raise ValueError("need n >= 1")
    if beta < 0 or alpha < beta:
        raise ValueError("need alpha >= beta >= 0")
    return _mms_two_value_cached(h, l, alpha, beta, n)


def mms_share(state: AllocationState, i: int):
    """Maximin share of agent i over the goods seen so far, or None.

    2-value instances read the run's ledger (`state.maximin_shares()`),
    which equals `mms_two_value` on (highs seen, lows seen) and warm-starts
    each agent's search from its last share.  Interval instances use the
    exhaustive oracle while t <= 12 and return None beyond that: the oracle
    is unavailable rather than approximated.
    """
    if state.instance.flavor is Flavor.TWO_VALUE:
        return state.maximin_shares()[i - 1]
    if state.t > MMS_EXHAUSTIVE_MAX_GOODS:
        return None
    prof = state.profile(i)
    return mms_exhaustive([value(prof, g, i) for g in state.goods_seen], state.n)


# ---------------------------------------------------------------------------
# envy graphs
# ---------------------------------------------------------------------------


class CycleError(Exception):
    """Raised when a topological sort is requested on a cyclic envy graph."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"envy graph contains cycle {self.cycle}")


@dataclass
class EnvyGraph:
    """Directed edges (i, j) present iff i strictly envies j, with magnitudes.

    `topo_sort` keeps its result on the graph (`_order`, outside equality and
    repr), so a graph must not be mutated once it has been sorted.
    """

    n: int
    edges: dict = field(default_factory=dict)  # (i, j) -> v_i(A_j) - v_i(A_i)
    # pi, or the CycleError of a cyclic graph; set by the first `topo_sort`
    _order: object = field(default=None, init=False, repr=False, compare=False)


def build_envy_graph(state: AllocationState) -> EnvyGraph:
    """The envy graph read from the arrival log alone: every bundle's value
    from every agent's view, summed in one pass in arrival order."""
    n = state.n
    val = [[0] * (n + 1) for _ in range(n + 1)]
    for good, owner in zip(state.goods_seen, state.recipients):
        for i in range(1, n + 1):
            val[i][owner] += value(state.profile(i), good, i)
    return EnvyGraph(n, {(i, j): val[i][j] - val[i][i] for i in range(1, n + 1)
                         for j in range(1, n + 1) if i != j and _gt(val[i][j], val[i][i])})


def topo_sort(g: EnvyGraph):
    """Permutation pi (agent -> 1-based rank) with pi(i) < pi(j) on every edge.

    Deterministic: repeatedly emits the smallest-index vertex of in-degree
    zero.  Raises CycleError with one witness cycle if the graph is cyclic.
    Kahn's pass runs once per graph: at a round boundary the auditor and
    the rule sort the same cached `PairwiseTracker.envy_graph`, and a later
    call returns a fresh list of the same order, or raises the same witness.
    """
    order = g._order
    if order is None:
        order = g._order = _kahn(g)
    if order.__class__ is CycleError:
        raise CycleError(order.cycle)
    return list(order)


def _kahn(g: EnvyGraph):
    """`topo_sort`'s pass: pi, or the CycleError with its witness."""
    indeg = {v: 0 for v in range(1, g.n + 1)}
    succ = {v: [] for v in range(1, g.n + 1)}
    for (a, b) in g.edges:
        indeg[b] += 1
        succ[a].append(b)
    order = []
    ready = sorted(v for v, d in indeg.items() if d == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        changed = False
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort()
    if len(order) < g.n:
        rem = [v for v in range(1, g.n + 1) if indeg[v] > 0]
        return CycleError(_find_cycle(succ, rem))
    pi = [0] * g.n
    for pos, v in enumerate(order, 1):
        pi[v - 1] = pos
    return pi


def _find_cycle(succ, remaining):
    """One cycle among the vertices Kahn's pass left unsorted.

    Some of them are only fed by a cycle and lead nowhere; they are pruned
    first, so the walk from the smallest survivor never dead-ends.
    """
    rem = set(remaining)
    dead = [v for v in rem if not any(w in rem for w in succ[v])]
    while dead:
        rem.difference_update(dead)
        dead = [v for v in rem if not any(w in rem for w in succ[v])]
    start = min(rem)
    path, seen = [start], {start}
    while True:
        nxt = min(w for w in succ[path[-1]] if w in rem)
        if nxt in seen:
            return path[path.index(nxt):]
        path.append(nxt)
        seen.add(nxt)


# ---------------------------------------------------------------------------
# incremental pairwise tracking and per-step reports
# ---------------------------------------------------------------------------


class PairwiseTracker:
    """Incremental view of every bundle from every agent's perspective.

    Keeps, per (viewer, owner) pair, the bundle value and enough structure to
    answer "value after removing the k best goods" in O(1): the bundle size,
    with its high count for 2-value instances (the rest are lows) and its
    two largest goods otherwise.  A run's tracker belongs to its
    `AllocationState` (see `AllocationState.pairwise`).

    Per viewer it can also keep the largest removable value over the other
    agents, d_k[i] = max_{j != i} removable_value(i, j, k) for k = 0, 1, 2,
    with its argmax, and the viewer's envy out-degree (`maxima`).  They are
    built on first read, so a run that never reads them pays one `is None`
    test per `observe`; after that `observe` keeps them current in O(n).
    Agent a receiving a good changes only column a of `val`, and in exact
    arithmetic a removable value never decreases, so each other viewer needs
    one compare per k against column a, and none when column a is worth at
    most d_2[i] and is no argmax of row i; row i is rescanned only when its
    argmax column went down (float rounding).  Envy of a growing bundle
    cannot vanish, so the out-degree needs one `_gt` test per other viewer
    plus a recount of row a, whose own value grew.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        n = instance.n
        self.n = n
        self.two_value = instance.flavor.value == "two_value"
        self.val = [[0] * (n + 1) for _ in range(n + 1)]      # val[i][j] = v_i(A_j)
        self.seen_total = [0] * (n + 1)                        # v_i(first t goods)
        if self.two_value:
            self.high_cnt = [[0] * (n + 1) for _ in range(n + 1)]
            self._views = [(p.alpha == p.beta, p.alpha > 0, p.alpha, p.beta)
                           for p in instance.agents]
        else:
            self.top2 = [[(0, 0)] * (n + 1) for _ in range(n + 1)]
        self.size = [0] * (n + 1)                              # size[j] = |A_j|
        self.t = 0
        self._dmax = None      # _dmax[k][i] = d_k[i], built by `maxima`
        self._argmax = None    # _argmax[k][i]: a j attaining it
        self._envy_out = None  # _envy_out[i] = |{j : i envies j}|
        self._envies = None    # _envies[i][j]: i envies j
        self._graph, self._graph_t = None, -1  # `envy_graph` at step _graph_t

    def maxima(self):
        """(dmax, envy_out), built from `val` on the first call.

        dmax[k][i] = max_{j != i} removable_value(i, j, k) for k = 0, 1, 2,
        and envy_out[i] counts the j with `_gt(val[i][j], val[i][i])`.  With
        one agent dmax is 0.  Callers must not mutate them.
        """
        if self._dmax is None:
            n = self.n
            self._dmax = [[0] * (n + 1) for _ in range(3)]
            self._argmax = [[0] * (n + 1) for _ in range(3)]
            self._envy_out = [0] * (n + 1)
            self._envies = [[False] * (n + 1) for _ in range(n + 1)]
            for i in range(1, n + 1):
                for k in range(3):
                    self._rescan(i, k)
                self._recount(i)
        return self._dmax, self._envy_out

    def _rescan(self, i: int, k: int):
        best, arg = 0, 0
        for j in range(1, self.n + 1):
            if j != i:
                r = self.removable_value(i, j, k)
                if arg == 0 or r > best:
                    best, arg = r, j
        self._dmax[k][i] = best
        self._argmax[k][i] = arg

    def _recount(self, i: int):
        row, env = self.val[i], self._envies[i]
        mine = row[i]
        for j in range(1, self.n + 1):
            env[j] = j != i and row[j] > mine and _gt(row[j], mine)  # _gt implies >
        self._envy_out[i] = sum(env)

    def _update_maxima(self, a: int):
        """Bring the maxima up to date after agent a received a good."""
        val, removable, envies = self.val, self.removable_value, self._envies
        slots = tuple(zip((0, 1, 2), self._dmax, self._argmax))
        d2 = self._dmax[2]
        g0, g1, g2 = self._argmax
        for i in range(1, self.n + 1):
            if i == a:
                continue
            theirs = val[i][a]
            # removing goods never raises a value, so theirs bounds every r
            # and d2 <= d1 <= d0: below d2, a column that is no argmax moves
            # no maximum
            if theirs > d2[i] or a == g0[i] or a == g1[i] or a == g2[i]:
                for k, d, arg in slots:
                    if arg[i] == a:
                        r = removable(i, a, k) if k else theirs
                        if r < d[i]:
                            self._rescan(i, k)
                        else:
                            d[i] = r
                    elif theirs > d[i]:
                        r = removable(i, a, k) if k else theirs
                        if r > d[i]:
                            d[i] = r
                            arg[i] = a
            mine = val[i][i]
            if not envies[i][a] and theirs > mine and _gt(theirs, mine):
                envies[i][a] = True
                self._envy_out[i] += 1
        self._recount(a)

    def efk_failures(self, k: int, num=1, den=1) -> list:
        """The pairs (i, j), in index order, with `is_efk(i, j, k, num,
        den)` false.  One pass tests each viewer once, against its largest
        removable value (`_geq` is monotone in it); only a viewer that fails
        is scanned over j."""
        n, val = self.n, self.val
        dk = (self._dmax or self.maxima()[0])[k]
        out = []
        for i in range(1, n + 1):
            lhs = den * val[i][i]
            rhs = num * dk[i]
            if lhs >= rhs or _geq(lhs, rhs):  # lhs >= rhs implies _geq
                continue
            out += [(i, j) for j in range(1, n + 1)
                    if j != i and not self.is_efk(i, j, k, num, den)]
        return out

    def observe(self, good, agent: int):
        """Add a good received by `agent`: one pass over every agent's view
        of it, with no `value` call per agent."""
        self.t += 1
        j = agent
        seen, val = self.seen_total, self.val
        if self.two_value:
            high_cnt = self.high_cnt
            for i, high, (flat, positive, alpha, beta) in zip(range(1, self.n + 1), good.high,
                                                              self._views):
                v = alpha if high else beta
                seen[i] += v
                val[i][j] += v
                if (high or flat) and positive:  # `value(...) == alpha > 0`
                    high_cnt[i][j] += 1
        else:
            top2 = self.top2
            for i, v in enumerate(good.values, 1):
                seen[i] += v
                val[i][j] += v
                a, b = top2[i][j]
                if v >= a:
                    top2[i][j] = (v, a)
                elif v > b:
                    top2[i][j] = (a, v)
        self.size[j] += 1
        if self._dmax is not None:
            self._update_maxima(agent)

    def removable_value(self, i: int, j: int, k: int):
        full = self.val[i][j]
        if k == 0:
            return full
        if self.two_value:
            prof = self.instance.agents[i - 1]
            hc = self.high_cnt[i][j]
            drop_h = min(k, hc)
            drop_l = min(k - drop_h, self.size[j] - hc)  # the rest are lows
            return full - drop_h * prof.alpha - drop_l * prof.beta
        if self.size[j] <= k:
            # full - top - second would leave a float rounding residue
            return full - full
        a, b = self.top2[i][j]
        return full - a - (b if k == 2 else 0)

    def is_efk(self, i: int, j: int, k: int, num=1, den=1) -> bool:
        """Exact check: v_i(A_i) >= (num/den) * (A_j minus its k best)."""
        return _geq(den * self.val[i][i], num * self.removable_value(i, j, k))

    def envy_graph(self) -> EnvyGraph:
        """The envy graph of the current allocation, built once per step.

        A round boundary reads it twice on one state (the auditor, then the
        rule planning the next round), so the graph, with the order
        `topo_sort` keeps on it, is kept until the next `observe`.  Callers
        share it and must not mutate it.
        """
        if self._graph_t == self.t:
            return self._graph
        g = EnvyGraph(self.n)
        for i in range(1, self.n + 1):
            mine = self.val[i][i]
            for j in range(1, self.n + 1):
                if i != j and _gt(self.val[i][j], mine):
                    g.edges[(i, j)] = self.val[i][j] - mine
        self._graph, self._graph_t = g, self.t
        return g


REPORT_COLUMNS = ("t", "agent", "ef", "ef1", "ef2", "prop", "mms_value", "mms_ratio",
                  "envy_out_degree")


@dataclass
class FairnessReport:
    """One time step's report: the ledger's quantities, copied once, with the
    per-agent ratios computed from them on demand.

    Lists run over agents 1..n: `own` holds v_i(A_i), `d0`/`d1`/`d2` the
    largest k = 0/1/2 removable value of another bundle to agent i, `seen`
    v_i(goods seen), `mms_value` the maximin share (or None) and `envy_out`
    the envy out-degree.  `ef`, `ef1`, `ef2`, `prop` and `mms_ratio` are
    clamped `_ratio`s: exact on integers, float otherwise.  With n = 1 the
    EFk ratios are `_ONE` (nothing to envy).
    """

    t: int
    own: list
    d0: list
    d1: list
    d2: list
    seen: list
    mms_value: list
    envy_out: list

    def _efk(self, dmax):
        return [_ONE] if len(self.own) == 1 else list(map(_ratio, self.own, dmax))

    @property
    def ef(self):
        return self._efk(self.d0)

    @property
    def ef1(self):
        return self._efk(self.d1)

    @property
    def ef2(self):
        return self._efk(self.d2)

    @property
    def prop(self):
        n = len(self.own)
        return [_ratio(n * mine, seen) for mine, seen in zip(self.own, self.seen)]

    @property
    def mms_ratio(self):
        return [None if mu is None else _ratio(mine, mu)
                for mine, mu in zip(self.own, self.mms_value)]


class ReportBuilder:
    """Emits FairnessReport rows of an instance from a run's ledger."""

    def __init__(self, instance: Instance):
        self.instance = instance

    def report(self, state: AllocationState) -> FairnessReport:
        """Every agent's ledger quantities after the goods `state` has seen,
        read from `state.pairwise()` and its per-viewer maxima (`maxima`,
        built on the first report and kept current by the ledger after that).

        For agent i the numerator v_i(A_i) is the same against every j, so
        min_j min(1, v_i(A_i)/d_j) = min(1, v_i(A_i)/max_j d_j), where a
        denominator d <= 0 counts as ratio 1 (on floats too, since rounded
        division is monotone).  A report therefore keeps v_i(A_i), the
        ledger's largest k = 0, 1, 2 removable values and seen totals, the
        envy out-degrees and the maximin shares: O(n) copies plus one pass
        over the ledger's shares.  No ratio is computed here; the report's
        properties give them exactly on demand, and `report_csv_rows` writes
        them as text.
        """
        n = self.instance.n
        tr = state.pairwise()
        (d0, d1, d2), deg = tr.maxima()
        val = tr.val
        if self.instance.flavor is Flavor.TWO_VALUE:
            mmsv = state.maximin_shares()
        else:
            mmsv = [mms_share(state, i) for i in range(1, n + 1)]
        return FairnessReport(state.t, [val[i][i] for i in range(1, n + 1)], d0[1:], d1[1:],
                              d2[1:], tr.seen_total[1:], mmsv, deg[1:])


def _fmt(x) -> str:
    """CSV text of a report value: a float's repr for a float or a
    `Fraction`, "" for None, str otherwise.  The report's common values
    come first: an int share, `_ONE` as "1.0", and a `Fraction` formatted
    from its int true division, which is correctly rounded and so equals
    `float(x)`."""
    if x.__class__ is int:
        return str(x)
    if x is _ONE:
        return "1.0"
    if x.__class__ is float:
        return repr(x)
    if isinstance(x, Fraction):
        return repr(x.numerator / x.denominator)
    if x is None:
        return ""
    return str(x)


def _ratio_text(num, den) -> str:
    """`_fmt(_ratio(num, den))` with no `Fraction` built on two ints: int true
    division is correctly rounded, so num / den equals float(Fraction(num,
    den))."""
    if num.__class__ is int and den.__class__ is int:
        return "1.0" if den <= 0 or num >= den else repr(num / den)
    return _fmt(_ratio(num, den))


def report_csv_rows(reports):
    """Yield FairnessReports as CSV rows (header first), writing each ratio's
    text from the report's ledger quantities (`_ratio_text`).  Rows are formed
    one at a time as they are read; wrap the call in `list` for a list.

    Most agents' quantities repeat from one step to the next, so each agent
    keeps its last EF/EF1/EF2 text with its inputs (own, d0, d1, d2) and its
    last maximin text with (own, mu), and reuses a text while the inputs are
    unchanged.  The keys hold each input's class too: 8 == 8.0, but one
    prints "8" and the other "8.0".  Equal values of one class print alike:
    own values and shares are sums from int 0, so none is -0.0.  The prop
    text is formed every row: seen totals grow every step.  The memo holds
    two entries per agent.
    """
    yield ",".join(REPORT_COLUMNS)
    text = _ratio_text
    ef_key, ef_text, mms_key, mms_text = [], [], [], []
    for rep in reports:
        n = len(rep.own)
        for memo in (ef_key, ef_text, mms_key, mms_text):
            memo.extend([None] * (n - len(memo)))
        t = rep.t
        for i, (mine, a, b, c, seen, mu, deg) in enumerate(
                zip(rep.own, rep.d0, rep.d1, rep.d2, rep.seen, rep.mms_value, rep.envy_out)):
            key = (mine, a, b, c, mine.__class__, a.__class__, b.__class__, c.__class__)
            if key == ef_key[i]:
                ef = ef_text[i]
            else:
                ef = ef_text[i] = f"{text(mine, a)},{text(mine, b)},{text(mine, c)}"
                ef_key[i] = key
            if mu is None:
                mms = ","
            else:
                key = (mine, mu, mine.__class__, mu.__class__)
                if key == mms_key[i]:
                    mms = mms_text[i]
                else:
                    mms = mms_text[i] = f"{_fmt(mu)},{text(mine, mu)}"
                    mms_key[i] = key
            yield f"{t},{i + 1},{ef},{text(n * mine, seen)},{mms},{deg}"
