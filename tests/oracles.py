"""Test-only oracles, which no code under `src` calls: direct forms of what
a run keeps in its ledger or checks in its auditors, read from the arrival
log (`goods_seen` and `recipients`, from which `bundles` rebuilds every
bundle), the threshold proxy or a trace with no `PairwiseTracker`, and
restatements of the paper's claims."""
import math
from fractions import Fraction

from fairstream.deferred_priority import DeferredPriorityAuditor, PriorityState
from fairstream.driver import Violation, audit_trace, replay_states
from fairstream.matching import CONTESTED_I, CONTESTED_II, PATTERN_TABLE
from fairstream.metrics import _ONE, REL_TOL, _ratio, mms_share
from fairstream.model import AllocationState, Instance, value
from fairstream.reduction import ThresholdProxy


def proxy_value(pair: ThresholdProxy, agent: int, good_index: int) -> float:
    g = pair.proxy.goods[good_index - 1]
    return value(pair.proxy.agents[agent - 1], g, agent)


def sandwich_holds(pair: ThresholdProxy, agent: int, subset) -> bool:
    """Check proxy(S)/sqrt(alpha) <= original(S) <= proxy(S) on a good subset."""
    thr = pair.thresholds[agent - 1]
    orig = sum(pair.original.goods[idx - 1].values[agent - 1] for idx in subset)
    prox = sum(proxy_value(pair, agent, idx) for idx in subset)
    tol = REL_TOL * max(1.0, orig, prox)
    return prox / thr <= orig + tol and orig <= prox + tol


def bundle_value(instance: Instance, agent: int, bundle):
    """Additive value of a set of good indices from `agent`'s perspective."""
    prof = instance.agents[agent - 1]
    total = 0
    for idx in bundle:
        total += value(prof, instance.goods[idx - 1], agent)
    return total


def bundles(state: AllocationState) -> list:
    """Every agent's bundle as good indices in arrival order, rebuilt from
    the arrival log."""
    out = [[] for _ in range(state.n)]
    for t, agent in enumerate(state.recipients, 1):
        out[agent - 1].append(t)
    return out


def own_value(state: AllocationState, agent: int):
    """v_agent(A_agent), summed in arrival order as the ledger adds it up."""
    return bundle_value(state.instance, agent, bundles(state)[agent - 1])


def seen_value(state: AllocationState, agent: int):
    """Value to `agent` of every good seen so far."""
    prof = state.profile(agent)
    return sum(value(prof, g, agent) for g in state.goods_seen)


def removable_value(state: AllocationState, viewer: int, owner: int, k: int):
    """Value of owner's bundle to `viewer` after removing its k best goods.

    Summed in the ledger's order (`PairwiseTracker.removable_value` on
    interval values): the bundle folded in arrival order, minus its largest
    good and, for k = 2, its second largest.  A bundle of at most k goods
    gives full - full (0, or 0.0 on floats), never a rounding residue.
    """
    prof = state.profile(viewer)
    vals = [value(prof, state.goods_seen[idx - 1], viewer) for idx in bundles(state)[owner - 1]]
    full = 0
    for v in vals:  # not `sum`, which compensates float rounding on Python >= 3.12
        full += v
    if k == 0:
        return full
    if len(vals) <= k:
        return full - full
    top = sorted(vals, reverse=True)
    return full - top[0] - (top[1] if k == 2 else 0)


def efk_ratio(state: AllocationState, i: int, j: int, k: int):
    """Largest rho <= 1 such that agent i is rho-EFk towards agent j.

    The removed set minimizing the denominator is the k goods of A_j that i
    values most (valid because valuations are additive and nonnegative).
    Vacuous cases (empty or fully removable bundle) give ratio 1.
    """
    if k not in (0, 1, 2):
        raise ValueError("only k in {0, 1, 2} supported")
    return _ratio(own_value(state, i), removable_value(state, i, j, k))


def efk_ratio_all(state: AllocationState, i: int, k: int):
    """Worst-case rho-EFk of agent i towards every other agent."""
    return min((efk_ratio(state, i, j, k) for j in range(1, state.n + 1) if j != i),
               default=_ONE)


def prop_ratio(state: AllocationState, i: int):
    """Largest rho <= 1 with v_i(A_i) >= rho * v_i(allocated goods)/n."""
    return _ratio(state.n * own_value(state, i), seen_value(state, i))


def mms_report(state: AllocationState, i: int):
    """(maximin share, clamped ratio) of agent i over the goods seen so far,
    or None where `mms_share` is unavailable."""
    mu = mms_share(state, i)
    return None if mu is None else (mu, _ratio(own_value(state, i), mu))


def level_sets(H, n: int):
    """Map level -> agents whose H entry sits at that level (levels 0..n)."""
    out = {k: [] for k in range(n + 1)}
    for i, h in enumerate(H, 1):
        if 0 <= h <= n:
            out[h].append(i)
    return out


def check_level_sets(ps: PriorityState) -> bool:
    """True iff at most k agents have H at or below k, for every 0 <= k <= n."""
    ordered = sorted(ps.H)
    return all(h >= pos for pos, h in enumerate(ordered, 1))


def check_share_bounds(trace):
    """Audit the per-type maximin floors (1/2, 1/3, 1/(2n-1)) and the 1/4
    proportionality floor for high-holding two-value agents, exactly."""
    return [v for v in audit_trace(trace, DeferredPriorityAuditor(trace.instance,
                                                                  share_bounds=True))
            if v.check.startswith(("mms-", "prop-"))]


def per_pair_asymptotics(trace, lam, naive=False):
    """The paper's long-run floors for the matching rules, on every pair.

    Once every agent i holds value at least lam * alpha_i (step t*), the
    allocation must stay lam/(lam+2)-envy-free, lam/(lam+1)-envy-free-up-to-1
    and lam/(lam+2)-proportional from t* on (lam/(lam+1)-proportional for the
    two-agent rule).  Returns (t_star, violations); t_star is None when the
    premise is never reached."""
    inst = trace.instance
    n = inst.n
    t_star = None
    prop_den = lam + 1 if naive else lam + 2
    violations = []
    for state, _ in replay_states(trace):
        tr = state.pairwise()
        t = state.t
        if t_star is None and all(tr.val[i][i] >= lam * inst.agents[i - 1].alpha
                                  for i in range(1, n + 1)):
            t_star = t
        if t_star is None:
            continue
        for i in range(1, n + 1):
            own = tr.val[i][i]
            if prop_den * n * own < lam * tr.seen_total[i]:
                violations.append(Violation("prop-floor", t, i, f"v={own}"))
            for j in range(1, n + 1):
                if i == j:
                    continue
                if (lam + 2) * own < lam * tr.val[i][j]:
                    violations.append(Violation("ef-floor", t, i, f"vs agent {j}"))
                if not tr.is_efk(i, j, 1, lam, lam + 1):
                    violations.append(Violation("ef1-floor", t, i, f"vs agent {j}"))
    return t_star, violations


def pattern_table_json() -> list:
    """The pattern table as audit-friendly JSON rows (one per 2x2 pattern)."""
    rows = []
    for key in sorted(PATTERN_TABLE, key=lambda k: tuple(int(b) for b in k)):
        entry = PATTERN_TABLE[key]
        rows.append({
            "agent1": ["high" if key[0] else "low", "high" if key[1] else "low"],
            "agent2": ["high" if key[2] else "low", "high" if key[3] else "low"],
            "assignment": entry if entry in (CONTESTED_I, CONTESTED_II)
            else {"agent1": entry, "agent2": "g'" if entry == "g" else "g"},
        })
    return rows


def sqrt_gap(n: int):
    """Compare the 1/(2n-1) floor with 1/sqrt(2*alpha) for alpha = 2n^2+2n.

    Returns (1/(2n-1), 1/sqrt(2*alpha), gap).  The first always dominates and
    the gap vanishes as n grows, which rephrases the maximin impossibility in
    terms of the largest high-to-low value ratio."""
    alpha = 2 * n * n + 2 * n
    exact = Fraction(1, 2 * n - 1)
    loose = 1.0 / math.sqrt(2 * alpha)
    return exact, loose, float(exact) - loose


def check_sqrt_gap(ns=(10, 100, 1000), tail=1e-3) -> bool:
    """Assert the inequality chain 1/(2n-1) >= 1/sqrt(2*alpha) with a gap that
    shrinks monotonically below `tail` along `ns`."""
    gaps = []
    for n in ns:
        exact, loose, gap = sqrt_gap(n)
        if float(exact) < loose:
            return False
        gaps.append(gap)
    if any(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:])):
        return False
    return gaps[-1] < tail
