"""Core data model: agent profiles, streamed goods, instances, allocation state.

Every other module consumes these types.  Agents and goods are 1-indexed in
all public interfaces; the arrival index of a good doubles as its time step.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import compress


class AgentType(enum.IntEnum):
    TYPE0 = 0  # alpha == beta == 0, trivially satisfied
    TYPE1 = 1  # alpha > beta > 0
    TYPE2 = 2  # alpha == beta > 0
    TYPE3 = 3  # alpha > beta == 0


def classify_agent(alpha, beta) -> AgentType:
    """Classify an agent by its (high, low) value pair.

    >>> classify_agent(5, 1)
    <AgentType.TYPE1: 1>
    >>> classify_agent(1, 0)
    <AgentType.TYPE3: 3>
    """
    for v in (alpha, beta):
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"values must be finite, got alpha={alpha}, beta={beta}")
    if beta < 0 or alpha < beta:
        raise ValueError(f"need alpha >= beta >= 0, got alpha={alpha}, beta={beta}")
    if alpha == 0:
        return AgentType.TYPE0
    if beta == 0:
        return AgentType.TYPE3
    if alpha == beta:
        return AgentType.TYPE2
    return AgentType.TYPE1


@dataclass(frozen=True)
class AgentProfile:
    """Per-agent valuation parameters: every good is worth alpha or beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        classify_agent(self.alpha, self.beta)  # validates alpha >= beta >= 0

    @property
    def kind(self) -> AgentType:
        return classify_agent(self.alpha, self.beta)


@dataclass(frozen=True)
class GoodEvent:
    """One arriving good.

    Exactly one of `high` (per-agent high/low flags, 2-value instances) and
    `values` (per-agent reals, interval-restricted instances) is set.  Flags
    must be `bool`s; anything else raises `ValueError` instead of being
    coerced.
    """

    index: int
    high: tuple | None = None
    values: tuple | None = None

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("good index is 1-based")
        if (self.high is None) == (self.values is None):
            raise ValueError("exactly one of high / values must be given")
        if self.high is not None:
            high = tuple(self.high)
            if not all(isinstance(b, bool) for b in high):
                raise ValueError(f"good {self.index}: high flags must be booleans, got {high!r}")
            object.__setattr__(self, "high", high)
        else:
            object.__setattr__(self, "values", tuple(self.values))

    @property
    def n(self) -> int:
        return len(self.high if self.high is not None else self.values)


class Flavor(str, enum.Enum):
    TWO_VALUE = "two_value"
    INTERVAL = "interval"


@dataclass
class Instance:
    """A stream of goods over a fixed agent set, plus the foresight length.

    Foresight ``ell`` means: when good t is being allocated, goods
    t+1 .. t+ell (clipped at the stream end) are readable.
    """

    agents: list
    goods: list
    flavor: Flavor = Flavor.TWO_VALUE
    foresight: int = 0

    def __post_init__(self):
        self.flavor = Flavor(self.flavor)
        self.agents = list(self.agents)
        self.goods = list(self.goods)
        if self.foresight < 0:
            raise ValueError("foresight must be nonnegative")
        if not self.agents:
            raise ValueError("need at least one agent")
        for g in self.goods:
            self.validate_good(g)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.goods)

    def validate_good(self, g: GoodEvent):
        if g.n != self.n:
            raise ValueError(f"good {g.index}: expected {self.n} entries, got {g.n}")
        if self.flavor is Flavor.TWO_VALUE:
            if g.high is None:
                raise ValueError(f"good {g.index}: 2-value instances carry high/low flags")
        else:
            if g.values is None:
                raise ValueError(f"good {g.index}: interval instances carry real values")
            for i, v in enumerate(g.values, 1):
                a = self.agents[i - 1].alpha
                if not (1 - REL_TOL <= v <= a * (1 + REL_TOL)):  # NaN fails too
                    raise ValueError(f"good {g.index}: value {v} for agent {i} outside [1, {a}]")

    def with_foresight(self, ell: int) -> "Instance":
        return replace(self, foresight=ell, agents=list(self.agents), goods=list(self.goods))


def value(profile: AgentProfile, event: GoodEvent, agent: int):
    """Value of one good for `agent` (1-based index into the event's entries)."""
    if not 1 <= agent <= event.n:
        raise IndexError(f"agent {agent} out of range 1..{event.n}")
    if event.high is not None:
        return profile.alpha if event.high[agent - 1] else profile.beta
    return event.values[agent - 1]


def sees_high(profile: AgentProfile, event: GoodEvent, agent: int) -> bool:
    """True iff the good is worth alpha to `agent` (always true when alpha == beta)."""
    if event.high is not None:
        return event.high[agent - 1] or profile.alpha == profile.beta
    return event.values[agent - 1] == profile.alpha


class AllocationState:
    """Mutable per-run allocation record and the run's one ledger.

    It keeps the arrival log (`goods_seen`, and `recipients`, the agent of
    each step) and running tallies; a bundle is the steps whose recipient is
    its owner.  Besides the log, `assign` counts only the recipient's goods
    and, from the recipient's own view, its high goods (`goods_received`,
    `high_received`), and feeds the tracker below once it is built.
    `high_seen[i-1]` counts goods worth alpha_i among those seen so far,
    matching the stream prefix regardless of who received them.  It is
    brought up to date when it is read: a reader that checks every step
    counts one good per read, one that checks once per round counts the
    round at once, and a run that never reads it counts nothing.

    `pairwise()` returns the run's only `PairwiseTracker`: every bundle's
    value from every agent's view.  It is built from the log the first time
    anyone asks for it and fed by every `assign` after that, so a run that
    never asks never builds it.  Rules, auditors and reports all read this
    one copy and must not mutate it.  `metrics.build_envy_graph` and the
    direct oracles in `tests/oracles.py`, which the ledger is checked
    against, read the log instead.

    On 2-value instances `maximin_shares()` answers every agent's maximin
    share of the goods seen so far, each warm-started from its last answer.
    Its per-agent state is allocated on the first read and never touched by
    `assign`, so a run that never reads shares pays nothing for them.
    """

    __slots__ = ("instance", "n", "t", "goods_seen", "recipients", "goods_received",
                 "high_received", "_high_seen", "_hs_t", "_agents", "_flat", "_alphas",
                 "_pairwise", "_mms")

    def __init__(self, instance: Instance):
        self.instance = instance
        self._agents = list(instance.agents)
        self.n = len(self._agents)
        self.t = 0
        self.goods_seen = []
        self.recipients = []
        self.goods_received = [0] * self.n
        self.high_received = [0] * self.n
        self._high_seen = [0] * self.n
        self._hs_t = 0  # goods counted in `_high_seen`
        self._flat = [p.alpha == p.beta for p in self._agents]  # sees every good high
        self._alphas = [p.alpha for p in self._agents]
        self._pairwise = None
        self._mms = None  # per agent: (h, l, share) of the last read, or None

    def profile(self, agent: int) -> AgentProfile:
        return self._agents[agent - 1]

    def assign(self, event: GoodEvent, agent: int):
        """Irrevocably add the next arriving good to `agent`'s bundle."""
        if not 1 <= agent <= self.n:
            raise ValueError(f"agent index {agent} out of range 1..{self.n}")
        if event.index != self.t + 1:
            raise ValueError(f"good {event.index} arrived out of order at t={self.t}")
        self.t += 1
        self.goods_seen.append(event)
        self.recipients.append(agent)
        a = agent - 1
        self.goods_received[a] += 1
        # the recipient's `sees_high`; every other agent's waits for `high_seen`
        if (event.high[a] or self._flat[a]) if event.high is not None else \
                event.values[a] == self._alphas[a]:
            self.high_received[a] += 1
        if self._pairwise is not None:
            self._pairwise.observe(event, agent)

    @property
    def high_seen(self) -> list:
        """`high_seen[i-1]` counts the goods seen so far that are worth
        alpha_i, whoever received them.  The goods that arrived since the
        last read are counted now, one pass over every agent's view of each;
        the same list is returned every time and must not be mutated."""
        seen = self._high_seen
        if self._hs_t < self.t:
            rng, flat, alphas = range(self.n), self._flat, self._alphas
            for event in self.goods_seen[self._hs_t:]:
                if event.high is not None:
                    view = [h or f for h, f in zip(event.high, flat)]
                else:
                    view = [v == a for v, a in zip(event.values, alphas)]
                for i in compress(rng, view):
                    seen[i] += 1
            self._hs_t = self.t
        return seen

    def pairwise(self):
        """The run's `PairwiseTracker`, built from the log on first use."""
        if self._pairwise is None:
            tracker = PairwiseTracker(self.instance)
            for event, agent in zip(self.goods_seen, self.recipients):
                tracker.observe(event, agent)
            self._pairwise = tracker
        return self._pairwise

    def maximin_shares(self) -> list:
        """Every agent's `mms_two_value(h, t - h, alpha, beta, n)` over the
        goods seen so far, with h its high goods seen, as a new list in agent
        order (2-value instances only).

        For integer values with beta | alpha the ledger keeps each agent's
        last answer (h, l, mu) and searches only [mu, min(mu + (h' - h) *
        alpha + (l' - l) * beta, floor((h' alpha + l' beta) / n))] at new
        counts (h', l').  That range holds the share: a share never drops
        when a good arrives, and never rises by more than the value of the
        goods added.  When the range is empty (the share already equals the
        proportional floor) no search runs.  An agent with alpha = 0 has
        share 0 and one with beta = 0 has alpha * floor(h / n), answered
        directly with the oracle's value and type; other values go to the
        cached `mms_two_value`.
        """
        warm = self._mms
        if warm is None:
            if self.instance.flavor is not Flavor.TWO_VALUE:
                raise ValueError("maximin_shares needs a 2-value instance")
            warm = self._mms = [(0, 0, 0) if _fast_ok(p.alpha, p.beta) else None
                                for p in self._agents]
        n, t = self.n, self.t
        oracle = _metrics.mms_two_value
        out = []
        append = out.append
        for i, (h, last, prof) in enumerate(zip(self.high_seen, warm, self._agents)):
            if last is None:
                alpha, beta = prof.alpha, prof.beta
                if alpha == 0:
                    append(0)
                elif beta == 0:
                    append(alpha * (h // n))
                else:
                    append(oracle(h, t - h, alpha, beta, n))
                continue
            h0, l0, mu = last
            l = t - h
            if h != h0 or l != l0:
                alpha, beta = prof.alpha, prof.beta
                # counts only grow and beta > 0, so the range is empty exactly
                # when its second bound is at most mu
                cap = (h * alpha + l * beta) // n
                if cap > mu:
                    hi = mu + (h - h0) * alpha + (l - l0) * beta
                    mu = _mms_two_value_fast(h, l, alpha, beta, n, mu, hi if hi < cap else cap)
                warm[i] = (h, l, mu)
            append(mu)
        return out


class OnlineAlgorithm:
    """Behavioral contract for an online allocation rule.

    A fresh run begins with `start`; then `choose` is called once per arriving
    good with the state *before* the assignment and a foresight window of the
    next goods.  Decisions are irrevocable and must be deterministic in the
    (history, window) pair.  A rule keeps no copy of the run's tallies: the
    state is the run's ledger, and a rule that needs pairwise bundle values
    reads `state.pairwise()` (read-only) in `choose`.
    """

    name = "abstract"
    trace_columns: tuple = ()
    requires_flags = True  # False for rules that never read high/low masks

    def min_foresight(self, n: int) -> int:
        return 0

    def check_config(self, n: int, foresight: int):
        need = self.min_foresight(n)
        if foresight < need:
            raise ValueError(f"{self.name} needs foresight >= {need} for n={n}, got {foresight}")

    def start(self, n: int, agents, foresight: int):
        raise NotImplementedError

    def choose(self, state: AllocationState, good: GoodEvent, window) -> int:
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {}


# metrics imports this module, so its names are imported once the names above
# exist; an import inside `pairwise` would cost every run several microseconds.
# `maximin_shares` looks `mms_two_value` up on metrics at call time, so a
# rebinding of `metrics.mms_two_value` reaches the ledger as well.
from . import metrics as _metrics  # noqa: E402
from .metrics import REL_TOL, PairwiseTracker, _fast_ok, _mms_two_value_fast  # noqa: E402
