"""Deferred-priority allocation for personalized 2-value streams.

The rule keeps two per-agent priority counters: H[i] counts how many more
high-valued goods agent i can afford to lose before the high-frequency
guarantee breaks, L[i] orders agents for goods nobody active values highly.
Goods go to the active agent with the smallest relevant counter, the winner's
counter is pushed far back, and the process runs in phases so that everyone
receives something regularly.

Guarantees maintained (and audited here at runtime):

* each agent gets exactly one of the first n goods;
* at every step end, agent i holds at least floor(h_i / (3n-2)) goods it
  values highly, where h_i counts high-valued goods i has seen, and at least
  one by the time h_i reaches n;
* from step n on, agent i holds at least floor((t-n)/(2n-1)) + 1 goods;
* the sorted H vector never has more than k entries at or below k;
* per-type share floors: 1/2 for flat-value agents, 1/3 for agents with zero
  low value, 1/(2n-1) otherwise, plus a 1/4 proportionality floor once a
  two-distinct-value agent holds a high good.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import lt

from .driver import Violation, audit_trace
from .metrics import _floor_certified, _is_exact, mms_two_value
from .model import AgentType, AllocationState, GoodEvent, Instance, OnlineAlgorithm, sees_high


@dataclass
class PriorityState:
    """Counters of the deferred-priority rule; one owner per stream."""

    n: int
    H: list = field(default_factory=list)
    L: list = field(default_factory=list)
    chi: list = field(default_factory=list)
    phase: int = 0
    low: int = 0
    high: int = 0
    t: int = 0
    # per agent (alpha == beta, alpha > 0), derived by `dp_step` on first use
    views: list | None = field(default=None, repr=False, compare=False)

    @classmethod
    def fresh(cls, n: int) -> "PriorityState":
        return cls(n=n, H=[n] * n, L=[2 * n - 1] * n, chi=[0] * n)


def dp_step(ps: PriorityState, g: GoodEvent, agents) -> int:
    """Allocate one arriving good, mutating `ps`.  Returns the recipient.

    An agent is *active* while chi is 0; inactive agents receive nothing for
    the rest of the phase.  Ties in both argmins break lexicographically.
    A flat-value agent (alpha == beta) sees every good as high-valued; a
    high good bumps H only for alpha > 0, so a (0, 0) agent's L moves.
    Those two per-agent facts are read from `agents` once per stream.
    """
    n = ps.n
    H, L, chi = ps.H, ps.L, ps.chi
    ps.t += 1
    views = ps.views
    if views is None:
        views = ps.views = [(p.alpha == p.beta, p.alpha > 0) for p in agents]
    hi_members = []  # active agents who see the good high, in index order
    for i, high, inactive, (flat, positive) in zip(range(n), g.high, chi, views):
        if high or flat:
            if positive:
                H[i] -= 1
            else:
                L[i] -= 1
            if not inactive:
                hi_members.append(i)
        else:
            L[i] -= 1

    if hi_members:
        ps.high += 1
        j = min(hi_members, key=H.__getitem__)  # first minimum: lowest index
        H[j] += 3 * n - 2
        chi[j] = 1
    else:
        # nobody active sees the good high, so every active agent sees it low
        lo_members = [i for i, inactive in enumerate(chi) if not inactive]
        if not lo_members:
            raise RuntimeError("no eligible recipient: phase accounting is broken")
        ps.low += 1
        j = min(lo_members, key=L.__getitem__)
        L[j] = 2 * n + ps.t
        if ps.phase == 0:
            chi[j] = 1

    if (ps.phase == 0 and ps.low + ps.high == n) or \
       (ps.phase > 0 and max(ps.low, ps.high) == n):
        ps.phase += 1
        ps.low = 0
        ps.high = 0
        L[:] = [2 * n - 1] * n
        chi[:] = [0] * n  # activity is per-phase

    return j + 1


class DeferredPriority(OnlineAlgorithm):
    """Online rule with a 1/(2n-1) maximin-share floor at every step."""

    name = "deferred-priority"
    trace_columns = ("phase", "H", "L", "chi")

    def start(self, n, agents, foresight):
        self.agents = list(agents)
        self.ps = PriorityState.fresh(n)

    def choose(self, state, good, window):
        return dp_step(self.ps, good, self.agents)

    def snapshot(self):
        ps = self.ps
        return {"phase": ps.phase, "H": tuple(ps.H), "L": tuple(ps.L),
                "chi": tuple(ps.chi)}


class DeferredPriorityAuditor:
    """Streaming verifier for the structural and share guarantees above.

    Feed it every completed step; violations accumulate in `.violations`.
    `share_bounds=True` additionally checks the per-type maximin and
    proportionality floors (exact integer arithmetic on integer instances);
    `strict=True` adds the inactivity and low-good rotation invariants.

    An agent of type k = 1, 2 or 3 has the floor c * v >= mu with c = 2n-1, 2
    or 3 and mu its `mms_two_value` share.  The check asks that oracle, not
    the ledger, and only when c * n * v is below the value seen: mu never
    exceeds the value seen over n (`_floor_certified`).  That test is
    decided per agent once: an agent whose alpha and beta are both exact has
    exact own and seen values, so it is a plain >=.  `oracle_skips` counts
    the checks, of all three types, that this bound settled.

    The value seen of an exact agent is `hs * alpha + (t - hs) * beta`, with
    hs its high goods seen: the closed form its own value uses, equal to the
    ledger's fold in value and in text on ints and `Fraction`s.  So a run
    whose agents are all exact never builds the n x n `PairwiseTracker`.
    An inexact agent reads the ledger (`state.pairwise().seen_total`), whose
    fold in arrival order can differ from the closed form in the last bit.
    """

    def __init__(self, instance: Instance, share_bounds=False, strict=False):
        self.instance = instance
        n = instance.n
        self.n = n
        self.share_bounds = share_bounds
        self.strict = strict
        self.violations = []
        self.oracle_skips = 0
        self._t0_passed = [False] * n
        self._prev_chi = (0,) * n
        self._prev_phase = 0
        self._phase_steps = 0
        self._last_low = [None] * n  # step of the last low receipt this phase
        self._last_state = None
        # per agent: type, the c of its share floor c * v >= mu (None for type 0), alpha,
        # beta, and whether both values are exact, so that its own value and the value
        # it has seen are too and `_floor_certified` is a plain >=
        factor = {AgentType.TYPE1: 2 * n - 1, AgentType.TYPE2: 2, AgentType.TYPE3: 3}
        self._views = [(p.kind, factor.get(p.kind), p.alpha, p.beta,
                        _is_exact(p.alpha) and _is_exact(p.beta)) for p in instance.agents]
        self._m = instance.m

    def _fail(self, check, t, agent, detail):
        self.violations.append(Violation(check, t, agent, detail))

    def observe(self, state: AllocationState, good: GoodEvent, agent: int, extras: dict):
        n = self.n
        t = state.t
        H = extras["H"]
        phase = extras["phase"]
        self._last_state = state
        transitioned = phase != self._prev_phase

        if transitioned:
            length = self._phase_steps + 1
            if self._prev_phase == 0:
                if length != min(n, self._m):
                    self._fail("phase-length", t, None, f"phase 0 lasted {length} steps")
            elif length > 2 * n - 1:
                self._fail("phase-length", t, None,
                           f"phase {self._prev_phase} lasted {length} steps")
            self._phase_steps = 0
        else:
            self._phase_steps += 1

        # parts 1-3 of the structural guarantee, in one pass over the agents
        if t == n:
            for i, gr in enumerate(state.goods_received, 1):
                if gr != 1:
                    self._fail("one-of-first-n", t, i, f"holds {gr} goods at t=n")
        k_high = 3 * n - 2
        least = (t - n) // (2 * n - 1) + 1 if t >= n else 0  # goods every agent holds
        passed = self._t0_passed
        for i, hs, hr, gr in zip(range(1, n + 1), state.high_seen, state.high_received,
                                 state.goods_received):
            if hr < hs // k_high:
                self._fail("high-frequency", t, i, f"{hr} high goods held, {hs} seen")
            if hs >= n and not passed[i - 1]:
                passed[i - 1] = True
                if hr < 1:
                    self._fail("first-high-by-n-seen", t, i,
                               f"no high good despite {hs} seen")
            if gr < least:
                self._fail("overall-frequency", t, i, f"holds {gr} goods at t={t}")

        # H-positivity and the level-set condition on the end-of-step H vector
        ordered = sorted(H)
        if ordered[0] < 1:
            self._fail("H-positive", t, None, f"H = {list(H)}")
        if any(map(lt, ordered, range(1, n + 1))):  # some sorted H[pos - 1] < pos
            self._fail("level-sets", t, None, f"sorted H = {ordered}")

        if self.strict:
            self._check_rotation(state, good, agent, t, transitioned)
        if self.share_bounds:
            self._check_shares(state, t)

        self._prev_chi = extras["chi"]
        self._prev_phase = phase

    def _check_rotation(self, state, good, agent, t, transitioned):
        if self._prev_chi[agent - 1]:
            self._fail("inactive-receipt", t, agent, "recipient was inactive")
        prof = self.instance.agents[agent - 1]
        if not sees_high(prof, good, agent):
            prev = self._last_low[agent - 1]
            if prev is not None:
                for j in range(self.n):
                    if j == agent - 1:
                        continue
                    ok = self._prev_chi[j] or (
                        self._last_low[j] is not None and self._last_low[j] > prev)
                    if not ok:
                        self._fail("low-rotation", t, agent,
                                   f"agent {j + 1} neither inactive nor served in between")
            self._last_low[agent - 1] = t
        if transitioned:
            self._last_low = [None] * self.n

    def _check_shares(self, state, t):
        """The share floors, in one pass over every agent's view and ledger
        tallies, and the 1/4 proportionality floor of type 1 agents."""
        n = self.n
        four_n, type1 = 4 * n, AgentType.TYPE1
        skips = 0
        ledger = None  # the run's `seen_total`, read only for an inexact agent
        for i, (kind, c, alpha, beta, exact), hr, gr, hs in zip(
                range(1, n + 1), self._views, state.high_received, state.goods_received,
                state.high_seen):
            if c is None:
                continue
            own = hr * alpha + (gr - hr) * beta
            if exact:
                seen = hs * alpha + (t - hs) * beta
            else:
                if ledger is None:
                    ledger = state.pairwise().seen_total
                seen = ledger[i]
            lhs = c * n * own
            if lhs >= seen if exact else _floor_certified(lhs, seen):
                skips += 1
            else:
                mu = mms_two_value(hs, t - hs, alpha, beta, n)
                if c * own < mu:
                    self._fail(f"mms-type{int(kind)}", t, i, f"v={own}, mu={mu}")
            if kind is type1 and hr >= 1 and four_n * own < seen:
                self._fail("prop-quarter", t, i, f"v={own}, seen={seen}")
        self.oracle_skips += skips

    def finish(self):
        if self._m < self.n and self._last_state is not None:
            for i in range(self.n):
                if self._last_state.goods_received[i] > 1:
                    self._fail("one-of-first-n", self._last_state.t, i + 1,
                               "holds more than one good on a short stream")
        return self.violations


def check_structural_guarantees(trace):
    """Audit the one-of-first-n, high-frequency and overall-frequency parts
    plus the phase-length bounds over a full or prefix trace."""
    return [v for v in audit_trace(trace, DeferredPriorityAuditor(trace.instance))
            if v.check in ("one-of-first-n", "high-frequency", "first-high-by-n-seen",
                           "overall-frequency", "phase-length", "H-positive")]


def check_level_set_condition(trace):
    """Audit the sorted-H level-set condition at every step end."""
    return [v for v in audit_trace(trace, DeferredPriorityAuditor(trace.instance))
            if v.check == "level-sets"]
