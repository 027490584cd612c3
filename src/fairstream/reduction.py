"""Threshold rounding: interval-restricted values to 2-value proxies.

Agent i's values lie in [1, alpha_i].  Rounding every value up to alpha_i
when it exceeds sqrt(alpha_i) and up to sqrt(alpha_i) otherwise yields a
personalized 2-value proxy whose additive values sandwich the originals:

    proxy(S) / sqrt(alpha_i) <= original(S) <= proxy(S)

so any fairness ratio achieved on the proxy transfers to the original at the
cost of a sqrt(alpha_i) factor, and the proxy maximin share dominates the
original one.  `a_star = max_i sqrt(alpha_i)` is the instance-wide transfer
factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .driver import Trace, replay_states
from .metrics import (MMS_EXHAUSTIVE_MAX_GOODS, REL_TOL, _geq, _gt, _mms_two_value_folded,
                      _ratio, mms_exhaustive, mms_two_value)
from .model import AgentProfile, Flavor, GoodEvent, Instance, value


@dataclass
class ThresholdProxy:
    original: Instance
    proxy: Instance
    thresholds: list  # per-agent sqrt(alpha_i)

    @property
    def a_star(self) -> float:
        return max(self.thresholds)

    @property
    def alpha_max(self) -> float:
        return max(a.alpha for a in self.original.agents)


def threshold_round(instance: Instance) -> ThresholdProxy:
    """Build the 2-value proxy of an interval-restricted instance.

    The proxy keeps the good order and foresight; agent i's proxy profile is
    (alpha_i, sqrt(alpha_i)) and a good is proxy-high exactly when its
    original value exceeds sqrt(alpha_i) beyond the float tolerance (`_gt`),
    so a value at the boundary rounds down to sqrt(alpha_i)."""
    if instance.flavor is not Flavor.INTERVAL:
        raise ValueError("threshold rounding applies to interval-restricted instances")
    for a in instance.agents:
        if a.alpha <= 1:
            raise ValueError(f"interval agents need alpha > 1, got {a.alpha}")
    thresholds = [math.sqrt(a.alpha) for a in instance.agents]
    agents = [AgentProfile(a.alpha, thr) for a, thr in zip(instance.agents, thresholds)]
    goods = [GoodEvent(g.index,
                       high=[_gt(v, thresholds[i]) for i, v in enumerate(g.values)])
             for g in instance.goods]
    proxy = Instance(agents=agents, goods=goods, flavor=Flavor.TWO_VALUE,
                     foresight=instance.foresight)
    return ThresholdProxy(instance, proxy, thresholds)


@dataclass
class LiftedStep:
    """Fairness ratios of one step under proxy and original values."""

    t: int
    agent: int
    proxy: dict
    original: dict


def _efk_ratio(tr, dmax, i, k):
    """min over j != i of min(1, v_i(A_i) / removable_value(i, j, k)) on the
    ledger `tr`, 1.0 with one agent.  A float own value makes every ratio a
    float, and correctly rounded division is monotone in the denominator, so
    the minimum is the one ratio against the ledger's largest removable value
    `dmax[k][i]` (`PairwiseTracker.maxima`), to the last bit.  An exact own
    value can give ratios of mixed class that tie in value, of which the
    minimum keeps the first j's, so that case scans j."""
    own = tr.val[i][i]
    if own.__class__ is float and tr.n > 1:
        return _ratio(own, dmax[k][i])
    return min((_ratio(own, tr.removable_value(i, j, k)) for j in range(1, tr.n + 1) if j != i),
               default=1.0)


def lift_guarantee(pair: ThresholdProxy, trace) -> list:
    """Replay a trace produced on the proxy and verify the guarantee transfer.

    For every step, agent and metric (ef, ef1, ef2, prop, mms) asserts
    original_ratio >= proxy_ratio / sqrt(alpha_i) within the float tolerance
    (`_geq`), and that the original maximin share never exceeds the proxy
    one.  The trace is replayed on both instances (`replay_states`) and every
    ratio reads the replay's ledger: an EFk ratio whose own value is a float
    is one ratio against the ledger's largest removable value
    (`PairwiseTracker.maxima`, as in `ReportBuilder.report`), and one whose
    own value is exact scans the other agents (`_efk_ratio`).  Shares exist
    on prefixes of at most 12 goods.  The proxy's is the fold search
    `_mms_two_value_folded`, equal to the exhaustive oracle on the proxy
    values, checked against `mms_two_value`; the original's is the
    exhaustive oracle.  The original
    search is skipped when n * own_o and n * mu_p both exceed seen_o, the
    original value agent i has seen (`_gt`): mu_o never exceeds seen_o / n,
    so its ratio is 1 and it cannot exceed mu_p.  The row then takes the
    `prop` ratio, which is that same 1 (`_ONE` on exact values, 1.0 once a
    float is seen), so a skipped search leaves every row unchanged.  Returns
    the per-step lifted report rows."""
    if trace.instance != pair.proxy:
        raise ValueError("trace was not produced on this proxy instance")
    orig, prox = pair.original, pair.proxy
    n = orig.n
    out = []
    for (so, step), (sp, _) in zip(replay_states(Trace(orig, trace.steps)),
                                   replay_states(trace)):
        t = step.t
        tr_orig, tr_prox = so.pairwise(), sp.pairwise()
        dmax_o, dmax_p = tr_orig.maxima()[0], tr_prox.maxima()[0]
        for i in range(1, n + 1):
            scale = pair.thresholds[i - 1]
            po, oo = {}, {}
            for k, name in ((0, "ef"), (1, "ef1"), (2, "ef2")):
                po[name] = _efk_ratio(tr_prox, dmax_p, i, k)
                oo[name] = _efk_ratio(tr_orig, dmax_o, i, k)
            po["prop"] = _ratio(n * tr_prox.val[i][i], tr_prox.seen_total[i])
            oo["prop"] = _ratio(n * tr_orig.val[i][i], tr_orig.seen_total[i])
            if t <= MMS_EXHAUSTIVE_MAX_GOODS:
                prof_p = prox.agents[i - 1]
                h = sp.high_seen[i - 1]
                mu_p = _mms_two_value_folded(h, t - h, prof_p.alpha, prof_p.beta, n)
                mu_p2 = mms_two_value(h, t - h, prof_p.alpha, prof_p.beta, n)
                if abs(mu_p - mu_p2) > REL_TOL * max(1.0, mu_p):
                    raise AssertionError(
                        f"proxy maximin oracles disagree at t={t}: {mu_p} vs {mu_p2}")
                po["mms"] = _ratio(tr_prox.val[i][i], mu_p)
                own_o, seen_o = tr_orig.val[i][i], tr_orig.seen_total[i]
                if _gt(n * own_o, seen_o) and _gt(n * mu_p, seen_o):
                    # mu_o <= seen_o / n < own_o, mu_p: the ratio is 1, of
                    # _ratio(own_o, mu_o)'s type, and mu_o cannot exceed mu_p
                    oo["mms"] = oo["prop"]
                else:
                    prof_o = orig.agents[i - 1]
                    mu_o = mms_exhaustive([value(prof_o, g, i) for g in so.goods_seen], n)
                    if mu_o > mu_p * (1 + REL_TOL) + REL_TOL:
                        raise AssertionError(
                            f"original maximin share exceeds proxy at t={t}, agent {i}")
                    oo["mms"] = _ratio(own_o, mu_o)
            for name, pr in po.items():
                if not _geq(float(oo[name]), float(pr) / scale):
                    raise AssertionError(
                        f"transfer violated at t={t}, agent {i}, {name}: "
                        f"original {oo[name]} < proxy {pr} / sqrt(alpha)")
            out.append(LiftedStep(t, i, po, oo))
    return out


def sidecar(pair: ThresholdProxy) -> dict:
    """Audit metadata written next to a reduced instance."""
    return {
        "alpha_max": pair.alpha_max,
        "a_star": pair.a_star,
        "thresholds": list(pair.thresholds),
        "per_agent_alpha": [a.alpha for a in pair.original.agents],
    }
