"""Adaptive adversary streams realizing the worst-case lower bounds.

The adversaries play against any deterministic no-lookahead rule and emit
goods one at a time as a function of the rule's past choices ("renaming the
agents" is operationalized as adaptivity: agents are indexed by the order the
rule serves them).  Every branch terminates in a certified witness step where
some agent's fairness ratio drops to the claimed bound, verified with exact
rational arithmetic:

* `ef1_adversary`: two agents, a witness with envy-free-up-to-1 ratio at most
  1/2 within 5 steps;
* `mms_adversary`: n agents with high value 2n^2 + 2n, a witness with maximin
  share ratio at most 1/(2n-1) within 3n-1 steps.

`lows_then_highs` (re-exported from the generators) is the fixed instance
showing that even complete lookahead cannot beat a 1/n maximin floor at every
step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .driver import replay_states, run_online
from .generators import lows_then_highs
from .metrics import _ONE, _ratio
from .model import (AgentProfile, AllocationState, Flavor, GoodEvent, Instance,
                    OnlineAlgorithm)


@dataclass
class Witness:
    step: int
    agent: int
    metric: str
    ratio: Fraction
    bound: Fraction


@dataclass
class AdversaryTrace:
    kind: str
    instance: Instance
    choices: list
    reports: list  # per step: tuple of per-agent ratios (`_ratio`, exact on integers)
    witness: Witness
    notes: dict = field(default_factory=dict)


class _AdaptiveRun:
    """Owns one algorithm run; emits goods and scans for a witness."""

    def __init__(self, kind, alg: OnlineAlgorithm, agents, bound: Fraction, metric: str):
        if alg.min_foresight(len(agents)) != 0:
            raise ValueError(
                f"{alg.name} requires lookahead; the adversarial bounds do not apply")
        self.kind = kind
        self.alg = alg
        self.bound = bound
        self.metric = metric
        self.instance = Instance(agents=list(agents), goods=[], flavor=Flavor.TWO_VALUE,
                                 foresight=0)
        self.n = self.instance.n
        alg.check_config(self.n, 0)
        alg.start(self.n, self.instance.agents, 0)
        self.state = AllocationState(self.instance)
        self.choices = []
        self.reports = []
        self.witness = None

    def emit(self, mask) -> int:
        good = GoodEvent(self.state.t + 1, high=mask)
        self.instance.validate_good(good)
        self.instance.goods.append(good)
        agent = self.alg.choose(self.state, good, [])
        if agent.__class__ is not int or not 1 <= agent <= self.n:
            raise RuntimeError(f"{self.alg.name} returned invalid agent {agent!r}")
        self.state.assign(good, agent)
        self.choices.append(agent)
        ratios = self._ratios()
        self.reports.append(ratios)
        if self.witness is None:
            for i, r in enumerate(ratios, 1):
                if r <= self.bound:
                    self.witness = Witness(self.state.t, i, self.metric, r, self.bound)
                    break
        return agent

    def _ratios(self):
        tr = self.state.pairwise()
        # min over j of min(1, own/d_j) is the ratio at the largest d_j
        dens = self.state.maximin_shares() if self.metric == "mms" else tr.maxima()[0][1][1:]
        return tuple(_ratio(tr.val[i][i], den) for i, den in enumerate(dens, 1))

    def finish(self, **notes) -> AdversaryTrace:
        if self.witness is None:
            raise RuntimeError(f"{self.kind}: no witness found -- adversary logic is broken")
        assert self.witness.ratio <= self.bound
        return AdversaryTrace(self.kind, self.instance, self.choices, self.reports,
                              self.witness, notes)


def ef1_adversary(alg: OnlineAlgorithm) -> AdversaryTrace:
    """Defeat any deterministic no-lookahead rule on two (5, 1)-agents: some
    agent's envy-free-up-to-1 ratio falls to 1/2 or below within 5 steps."""
    agents = [AgentProfile(5, 1), AgentProfile(5, 1)]
    run = _AdaptiveRun("ef1-2", alg, agents, Fraction(1, 2), "ef1")

    first = run.emit((False, False))                       # equally low opener
    if run.witness:
        return run.finish()
    a, b = first, 3 - first

    def only(agent):
        return tuple(i + 1 == agent for i in range(2))

    run.emit(only(a))                                      # high only for the opener's owner
    if run.witness:
        return run.finish()
    third = run.emit((False, False))
    if run.witness:
        return run.finish()
    if third == a:
        run.emit((True, True))                             # contested universal high
    else:
        run.emit(only(b))
        if run.witness:
            return run.finish()
        run.emit((True, True))
    trace = run.finish(roles={"first": a})
    assert trace.witness.step <= 5
    return trace


def mms_adversary(alg: OnlineAlgorithm, n: int) -> AdversaryTrace:
    """Defeat any deterministic no-lookahead rule on n agents with values
    (2n^2 + 2n, 1): some agent's maximin ratio falls to 1/(2n-1) or below
    within 3n-1 steps.

    Stream structure: a staircase whose goods are low for everyone not yet
    served (forcing one good per agent), n-1 universal lows, then either
    universal highs (when the last-served agent missed the lows) or per-agent
    highs, switching to universal highs the moment the rule deviates.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    alpha = 2 * n * n + 2 * n
    agents = [AgentProfile(alpha, 1) for _ in range(n)]
    run = _AdaptiveRun("mms", alg, agents, Fraction(1, 2 * n - 1), "mms")
    all_low = (False,) * n
    all_high = (True,) * n

    served = []
    served_set = set()
    for _ in range(n):                                    # staircase phase
        mask = tuple(i + 1 in served_set for i in range(n))
        a = run.emit(mask)
        if run.witness:
            return run.finish(case="early")
        if a in served_set:
            while run.state.t < n:                        # double serve: starve someone
                run.emit(all_low)
                if run.witness:
                    return run.finish(case="double-serve")
            return run.finish(case="double-serve")
        served.append(a)
        served_set.add(a)

    got_filler = set()
    for _ in range(n - 1):                                # universal lows
        got_filler.add(run.emit(all_low))
        if run.witness:
            return run.finish(case="early")
    skipped_ranks = [r for r in range(1, n + 1) if served[r - 1] not in got_filler]
    k = max(skipped_ranks)

    if k == n:                                            # starve the last-served agent
        for _ in range(n - 1):
            run.emit(all_high)
            if run.witness:
                return run.finish(case="last-rank", k=k)
        raise RuntimeError("universal highs exhausted without a witness")

    for l in range(1, n - k + 1):                         # per-agent highs, high ranks first
        target = served[n - l]
        a = run.emit(tuple(i + 1 == target for i in range(n)))
        if run.witness:
            return run.finish(case="middle-rank", k=k)
        if a != target:                                   # deviation: punish with universals
            for _ in range(n - l):
                run.emit(all_high)
                if run.witness:
                    return run.finish(case="deviation", k=k, deviated_at=l)
            raise RuntimeError("punish branch exhausted without a witness")
    for _ in range(k - 1):                                # finish starving rank k
        run.emit(all_high)
        if run.witness:
            return run.finish(case="middle-rank", k=k)
    raise RuntimeError("middle-rank branch exhausted without a witness")


def worst_step_share_ratio(alg: OnlineAlgorithm, instance: Instance):
    """Run `alg` over a 2-value instance and return the minimum over steps and
    agents of the maximin-share ratio (`_ratio` of the replay's ledger: exact
    on integer values, a float otherwise)."""
    worst = _ONE
    for state, _ in replay_states(run_online(alg, instance)):
        val = state.pairwise().val
        for i, mu in enumerate(state.maximin_shares(), 1):
            worst = min(worst, _ratio(val[i][i], mu))
    return worst


__all__ = ["AdversaryTrace", "Witness", "ef1_adversary", "mms_adversary",
           "lows_then_highs", "worst_step_share_ratio"]
