"""Single-threaded run loop: feed a stream through an algorithm, record a trace.

One run owns one algorithm instance and one allocation state; independent runs
never share mutable state and may execute concurrently.  The state is the
run's one ledger: the rule, every auditor and the per-step report read the
same `AllocationState` and its `pairwise()` tracker, and none of them keeps a
copy of its own.  `audit_trace` replays a recorded trace through an auditor
the same way, and every auditor reports `Violation` records.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .model import AllocationState, Instance, OnlineAlgorithm

TRACE_CORE_COLUMNS = ("t", "good", "allocated_to", "as_high")


@dataclass
class Violation:
    """One failed guarantee check at step t; `agent` is None for a check that
    is not about one agent."""

    check: str
    t: int
    agent: int | None
    detail: str


@dataclass
class StepRecord:
    t: int
    good: int
    agent: int
    as_high: bool
    extras: dict = field(default_factory=dict)


@dataclass
class Trace:
    instance: Instance
    steps: list

    @property
    def choices(self):
        return [s.agent for s in self.steps]


def run_online(alg: OnlineAlgorithm, instance: Instance, auditors=()) -> Trace:
    """Run `alg` over the instance honoring its foresight contract.

    Auditors receive every completed step via `observe(state, good, agent,
    extras)`, with the run's own state, and may accumulate violations; they
    never influence decisions.
    """
    alg.check_config(instance.n, instance.foresight)
    if alg.requires_flags and instance.flavor.value != "two_value":
        raise ValueError(f"{alg.name} reads high/low flags; reduce the instance first")
    alg.start(instance.n, instance.agents, instance.foresight)
    state = AllocationState(instance)
    steps = []
    goods = instance.goods
    ell = instance.foresight
    for pos, good in enumerate(goods):
        window = goods[pos + 1: pos + 1 + ell] if ell else []
        agent = alg.choose(state, good, window)
        if agent.__class__ is not int or not 1 <= agent <= instance.n:
            raise RuntimeError(f"{alg.name} returned invalid agent {agent!r}")
        before = state.high_received[agent - 1]
        state.assign(good, agent)
        as_high = state.high_received[agent - 1] > before
        extras = alg.snapshot()
        rec = StepRecord(state.t, good.index, agent, as_high, extras)
        steps.append(rec)
        for aud in auditors:
            aud.observe(state, good, agent, extras)
    return Trace(instance, steps)


def replay_states(trace: Trace):
    """Yield (state, step) pairs with the state as of the *end* of each step."""
    state = AllocationState(trace.instance)
    for step in trace.steps:
        state.assign(trace.instance.goods[step.t - 1], step.agent)
        yield state, step


def audit_trace(trace: Trace, auditor) -> list:
    """Replay a recorded trace through `auditor`; return its violations."""
    for state, step in replay_states(trace):
        auditor.observe(state, trace.instance.goods[step.t - 1], step.agent, step.extras)
    return auditor.finish()


def _join(vec) -> str:
    return ";".join([("1" if v else "0") if v.__class__ is bool else str(v) for v in vec])


def trace_csv_rows(trace: Trace, columns):
    """Yield the trace as CSV rows (header first): core columns plus
    `columns`, the rule's `trace_columns`, read from each step's extras, with
    vector-valued extras semicolon-joined.  Deterministic for replay diffing.
    Rows are formed one at a time as they are read; wrap the call in `list`
    for a list."""
    yield ",".join(TRACE_CORE_COLUMNS + tuple(columns))
    for s in trace.steps:
        row = [str(s.t), str(s.good), str(s.agent), "1" if s.as_high else "0"]
        for col in columns:
            v = s.extras.get(col, "")
            row.append(_join(v) if isinstance(v, (list, tuple)) else str(v))
        yield ",".join(row)
