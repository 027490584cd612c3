"""Lookahead matching rules for personalized 2-value streams.

Two rules live here:

* `NaiveMatching` (two agents, one-step lookahead): pairs of consecutive
  goods are assigned from a literal 16-entry pattern table; the two
  *contested* patterns (one universally high good, one universally low) are
  resolved by an alternating counter so the disadvantaged side flips.
  The allocation is exactly envy-free-up-to-1 at every even step and
  envy-free-up-to-2 always.

* `PriorityMatching` (n agents, (n-1)-step lookahead): every n steps the
  current envy graph is topologically sorted and the next n goods are matched
  to agents by a maximum-weight matching under rank-weighted auxiliary
  weights (doubled on high-valued goods).  Bundle sizes stay balanced, the
  envy graph stays acyclic at round boundaries with per-edge envy at most
  alpha_i - beta_i, and the allocation is envy-free-up-to-1 at every multiple
  of n and envy-free-up-to-2 always.

  `plan_round` picks the solver from the round's size.  A full round (n
  goods) is solved from its structure by `assignment.priority_assignment`,
  without forming a weight.  Only a partial final round (fewer goods than
  agents) builds `aux_weight_matrix`, and `assignment.max_weight_assignment`
  solves it by one exact Hungarian solve whose integer costs carry the
  tie-break.  Both return the lexicographically smallest maximum-weight
  matching, so the split never shows in a trace.
"""
from __future__ import annotations

from dataclasses import dataclass

from .assignment import max_weight_assignment, priority_assignment
from .driver import Violation, audit_trace
from .metrics import (CycleError, build_envy_graph, mms_two_value, topo_sort, _floor_certified,
                      _is_exact, REL_TOL)
from .model import AllocationState, GoodEvent, Instance, OnlineAlgorithm

# ---------------------------------------------------------------------------
# the two-agent pattern table
# ---------------------------------------------------------------------------

CONTESTED_I = "contested-I"    # current good low for both, next high for both
CONTESTED_II = "contested-II"  # current good high for both, next low for both

# key: (v1(g) high?, v1(g') high?, v2(g) high?, v2(g') high?)
# value: the good agent 1 receives ("g" or "g'"), or a contested marker.
PATTERN_TABLE = {
    (False, False, False, False): "g",
    (False, True, False, False): "g'",
    (True, False, False, False): "g",
    (True, True, False, False): "g",
    (False, False, False, True): "g",
    (False, True, False, True): CONTESTED_I,
    (True, False, False, True): "g",
    (True, True, False, True): "g",
    (False, False, True, False): "g'",
    (False, True, True, False): "g'",
    (True, False, True, False): CONTESTED_II,
    (True, True, True, False): "g'",
    (False, False, True, True): "g'",
    (False, True, True, True): "g'",
    (True, False, True, True): "g",
    (True, True, True, True): "g",
}


@dataclass(frozen=True)
class Commitment:
    """A previewed good pinned to a recipient; honored exactly as committed."""

    good: int
    agent: int


def naive_step(ctr: int, commitment, t: int, g: GoodEvent, window):
    """Functional core of the two-agent rule.

    Returns (recipient, new ctr, new outstanding commitment).  On odd steps
    the pattern of (g, next good) decides both goods at once; on even steps
    the outstanding commitment is followed.  An unpaired final good goes to
    the currently disadvantaged agent (agent 1 when ctr is 0).
    """
    if t % 2 == 0:
        if commitment is None or commitment.good != g.index:
            raise RuntimeError(f"no commitment for good {g.index} at even step {t}")
        return commitment.agent, ctr, None
    if not window:
        return (1 if ctr == 0 else 2), ctr, None
    gp = window[0]
    key = (g.high[0], gp.high[0], g.high[1], gp.high[1])
    entry = PATTERN_TABLE[key]
    if entry in (CONTESTED_I, CONTESTED_II):
        ctr = (ctr + 1) % 2
        j = 2 - ctr
        other = 3 - j
        if entry == CONTESTED_I:  # the high good is the previewed one
            return other, ctr, Commitment(gp.index, j)
        return j, ctr, Commitment(gp.index, other)
    if entry == "g":
        return 1, ctr, Commitment(gp.index, 2)
    return 2, ctr, Commitment(gp.index, 1)


class NaiveMatching(OnlineAlgorithm):
    """Two agents, lookahead one: envy-free-up-to-1 at every even step."""

    name = "naive-matching"
    trace_columns = ("round", "pi", "committed")

    def min_foresight(self, n):
        return 1

    def check_config(self, n, foresight):
        if n != 2:
            raise ValueError("naive-matching requires exactly 2 agents")
        super().check_config(n, foresight)

    def start(self, n, agents, foresight):
        self.ctr = 0
        self.pending = None
        self._t = 0

    def choose(self, state, good, window):
        self._t = state.t + 1
        agent, self.ctr, self.pending = naive_step(
            self.ctr, self.pending, self._t, good, window)
        return agent

    def snapshot(self):
        committed = f"{self.pending.good}:{self.pending.agent}" if self.pending else ""
        return {"round": (self._t + 1) // 2, "pi": "", "committed": committed,
                "ctr": self.ctr}


# ---------------------------------------------------------------------------
# priority matching with lookahead n-1
# ---------------------------------------------------------------------------


@dataclass
class RoundPlan:
    """One round's matching: each of the <= n goods pinned to an agent."""

    round_index: int
    pi: tuple
    assignment: dict  # good index -> agent

    def agent_for(self, good_index: int) -> int:
        if good_index not in self.assignment:
            raise RuntimeError(f"good {good_index} missing from round plan")
        return self.assignment[good_index]


def _high_masks(agents, goods) -> list:
    """Each agent's `sees_high` over `goods` as a bitmask (bit c: goods[c]).

    `sees_high` inlined: a 2-value good is high for an agent whose flag is
    set or whose alpha == beta, a value good for one whose value is alpha.
    """
    masks = []
    for a, p in enumerate(agents):
        flat = p.alpha == p.beta
        mask = 0
        for c, g in enumerate(goods):
            if (g.high[a] or flat) if g.high is not None else g.values[a] == p.alpha:
                mask |= 1 << c
        masks.append(mask)
    return masks


def aux_weight_matrix(pi, agents, goods):
    """Auxiliary weights of one round, scaled by (2n)^(n-1) to integers.

    The rank-i agent weighs a good at 2*((2n+1)/(2n))^(n-i) when it sees it
    high and half that otherwise; times (2n)^(n-1) that is the rank factor
    f_i = (2n+1)^(n-i) * (2n)^(i-1), doubled on high goods.  Row a-1 is agent
    a, column c is goods[c]; scaling keeps every optimum and tie.
    """
    n = len(agents)
    rows = []
    for a, mask in enumerate(_high_masks(agents, goods), 1):
        i = pi[a - 1]
        factor = (2 * n + 1) ** (n - i) * (2 * n) ** (i - 1)
        rows.append([2 * factor if mask >> c & 1 else factor for c in range(len(goods))])
    return rows


def plan_round(graph, agents, goods, round_index: int) -> RoundPlan:
    """Topologically sort the envy graph and match one round of goods.

    A full round (one good per agent) is solved from its structure by
    `priority_assignment`; a partial final round by one exact
    `max_weight_assignment` solve on `aux_weight_matrix`.  Both give the
    lexicographically smallest maximum-weight matching.
    """
    try:
        pi = topo_sort(graph)
    except CycleError as e:
        raise RuntimeError(f"cyclic envy graph at a round boundary: {e.cycle}") from e
    n = len(agents)
    if len(goods) == n:
        cols = priority_assignment(_high_masks(agents, goods),
                                   sorted(range(n), key=pi.__getitem__))
    else:
        cols = max_weight_assignment(aux_weight_matrix(pi, agents, goods))
    assignment = {}
    for a, col in enumerate(cols, 1):
        if col is not None:
            assignment[goods[col].index] = a
    return RoundPlan(round_index, tuple(pi), assignment)


def priority_round_plan(state: AllocationState, goods) -> RoundPlan:
    """Round plan from an explicit allocation state (current + window goods)."""
    if state.t % state.n != 0:
        raise ValueError("round plans are built when t = 1 mod n")
    graph = build_envy_graph(state)
    return plan_round(graph, state.instance.agents, list(goods), state.t // state.n + 1)


class PriorityMatching(OnlineAlgorithm):
    """n agents, lookahead n-1: envy-free-up-to-1 at every multiple of n."""

    name = "priority-matching"
    trace_columns = ("round", "pi", "committed")

    def min_foresight(self, n):
        return n - 1

    def start(self, n, agents, foresight):
        self.n = n
        self.agents = list(agents)
        self.plan = None
        self.committed = ""

    def choose(self, state, good, window):
        t = state.t + 1
        if (t - 1) % self.n == 0:
            goods = [good] + list(window[: self.n - 1])
            plan = self.plan = plan_round(state.pairwise().envy_graph(), self.agents, goods,
                                          (t - 1) // self.n + 1)
            # the same for every step of the round
            self.committed = ";".join(f"{g}:{a}" for g, a in sorted(plan.assignment.items()))
        return self.plan.agent_for(good.index)

    def snapshot(self):
        plan = self.plan
        return {"round": plan.round_index, "pi": plan.pi, "committed": self.committed}


# ---------------------------------------------------------------------------
# runtime verification
# ---------------------------------------------------------------------------


class NaiveMatchingAuditor:
    """Exact streaming checks for the two-agent rule: envy-free-up-to-2 at
    every step, envy-free-up-to-1 plus the directional envy invariant at even
    steps (when ctr is 0 only agent 1 may envy, by at most alpha_1 - beta_1)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.violations = []

    def observe(self, state, good, agent, extras):
        tr = state.pairwise()
        t = state.t
        for i, j in tr.efk_failures(2):
            self.violations.append(Violation("ef2", t, i, f"vs agent {j}"))
        if t % 2 == 0:
            if state.goods_received[0] != t // 2 or state.goods_received[1] != t // 2:
                self.violations.append(Violation("balance", t, None, "unequal bundle sizes"))
            for i, j in tr.efk_failures(1):
                self.violations.append(Violation("ef1-even", t, i, f"vs agent {j}"))
            ctr = extras.get("ctr")
            if ctr is not None:
                favored = 2 if ctr == 0 else 1  # the agent that must not envy
                other = 3 - favored
                if tr.val[favored][favored] < tr.val[favored][other]:
                    self.violations.append(
                        Violation("ctr-direction", t, favored, f"envies agent {other}"))
                prof = self.instance.agents[other - 1]
                gap = tr.val[other][favored] - tr.val[other][other]
                if gap > prof.alpha - prof.beta:
                    self.violations.append(
                        Violation("ctr-envy-bound", t, other, f"envy {gap} exceeds alpha-beta"))

    def finish(self):
        return self.violations


class PriorityMatchingAuditor:
    """Exact streaming checks for priority matching.

    Per step: envy-free-up-to-2.  At every full round boundary t = kn:
    envy-free-up-to-1, equal bundle sizes, acyclic envy graph with every edge's
    envy at most alpha_i - beta_i, and an n*v >= maximin-share check.  Tracks
    the half-envy-free-up-to-1 recovery clause: once it fails at some t0, it
    must hold at every step from the end of that round on.  With
    `exchange=True` also verifies that swapping the two round goods across any
    residual envy edge cannot increase the matched auxiliary weight.

    The maximin check asks the `mms_two_value` oracle only when n * n * v is
    below the value seen: mu never exceeds the value seen over n
    (`_floor_certified`).  `oracle_skips` counts the checks that bound
    settled.
    """

    def __init__(self, instance: Instance, exchange=False):
        self.instance = instance
        self.n = instance.n
        self.violations = []
        self.oracle_skips = 0
        self.half_ef1_failures = []
        self.recovery_deadline = None
        self.exchange = exchange
        self._round_pi = None
        self._round_recipient = {}  # agent -> good received this round

    def observe(self, state, good, agent, extras):
        tr = state.pairwise()
        n = self.n
        t = state.t
        if (t - 1) % n == 0:
            self._round_pi = extras.get("pi")
            self._round_recipient = {}
        self._round_recipient[agent] = good

        for i, j in tr.efk_failures(2):
            self.violations.append(Violation("ef2", t, i, f"vs agent {j}"))
        if tr.efk_failures(1, 1, 2):
            self.half_ef1_failures.append(t)
            if self.recovery_deadline is None:
                self.recovery_deadline = -(-t // n) * n
            elif t >= self.recovery_deadline:
                self.violations.append(
                    Violation("half-ef1-recovery", t, None, "failed after recovery deadline"))

        if t % n == 0:
            self._boundary_checks(state, t)

    def _boundary_checks(self, state, t):
        tr = state.pairwise()
        n = self.n
        sizes = set(state.goods_received)
        if len(sizes) != 1:
            self.violations.append(Violation("balance", t, None, f"sizes {state.goods_received}"))
        for i, j in tr.efk_failures(1):
            self.violations.append(Violation("ef1-round", t, i, f"vs agent {j}"))
        graph = tr.envy_graph()
        try:
            topo_sort(graph)
        except CycleError as e:
            self.violations.append(Violation("acyclic", t, None, f"cycle {e.cycle}"))
        for (i, j), gap in graph.edges.items():
            prof = self.instance.agents[i - 1]
            bound = prof.alpha - prof.beta
            ok = gap <= bound if _is_exact(gap) and _is_exact(bound) else \
                gap <= bound + REL_TOL * max(1.0, abs(bound))
            if not ok:
                self.violations.append(
                    Violation("edge-envy", t, i, f"envy {gap} of agent {j} > {bound}"))
        for i in range(1, n + 1):
            if _floor_certified(n * n * tr.val[i][i], tr.seen_total[i]):
                self.oracle_skips += 1
                continue
            prof = self.instance.agents[i - 1]
            hs = state.high_seen[i - 1]
            mu = mms_two_value(hs, t - hs, prof.alpha, prof.beta, n)
            if n * tr.val[i][i] < mu:
                self.violations.append(Violation("mms-round", t, i, f"mu={mu}"))
        if self.exchange and self._round_pi:
            self._exchange_checks(graph, t)

    def _exchange_checks(self, graph, t):
        recipients = sorted(self._round_recipient)
        col = {a: c for c, a in enumerate(recipients)}
        w = aux_weight_matrix(self._round_pi, self.instance.agents,
                              [self._round_recipient[a] for a in recipients])
        for (i, j) in graph.edges:
            if i not in col or j not in col:
                continue
            gi, gj = col[i], col[j]
            if w[i - 1][gj] + w[j - 1][gi] > w[i - 1][gi] + w[j - 1][gj]:
                self.violations.append(
                    Violation("exchange", t, i, f"swapping goods with agent {j} gains weight"))

    def finish(self):
        return self.violations


def check_round_guarantees(trace):
    """Audit a priority-matching trace; returns violations."""
    return audit_trace(trace, PriorityMatchingAuditor(trace.instance))
