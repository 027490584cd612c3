"""Per-layer timing for the traced benchmark run.

Only a traced run calls `install`.  It rebinds each public name where its
callers look it up (class attributes such as `AllocationState.assign`, and
module globals such as `fairstream.matching.max_weight_assignment` or the
`mms_two_value` that several modules import by name) to a wrapper that
records a span around the call.  `install` returns a function that puts the
original objects back.

Spans nest: a span's self time is its duration minus the time its child
spans cover.  Totals per span name are kept as the run goes; the spans
themselves (name, start, end, parent) are kept only while `record` is on,
so memory stays bounded on long runs.
"""
from __future__ import annotations

import functools
import pathlib
import time

_now = time.perf_counter_ns

# stats entry: [calls, total_ns, self_ns, errors]
CALLS, TOTAL, SELF, ERRORS = range(4)

LAYERS = ("driver", "model", "metrics", "deferred_priority", "matching",
          "assignment", "jsonl", "cli", "reduction")


class Tracer:
    def __init__(self):
        self.stats = {}
        self.mms_args = set()
        self.spans = None  # list while recording
        self._stack = []   # open spans: [start_ns, child_ns, span index]

    def record(self):
        """Keep every span from now on (until `take`)."""
        self.spans = []

    def take(self):
        """Return (stats, distinct mms_two_value argument count, spans) and
        start afresh."""
        out = (self.stats, len(self.mms_args), self.spans)
        self.stats, self.mms_args, self.spans = {}, set(), None
        return out

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        spans = self.spans
        idx = -1
        if spans is not None:
            idx = len(spans)
            spans.append(None)
        frame = [_now(), 0, idx]
        stack.append(frame)
        failed = False
        try:
            return fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = _now()
            stack.pop()
            dur = end - frame[0]
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0, 0, 0]
            st[CALLS] += 1
            st[TOTAL] += dur
            st[SELF] += dur - frame[1]
            st[ERRORS] += failed
            if stack:
                stack[-1][1] += dur
            if idx >= 0:
                parent = stack[-1][2] if stack else -1
                spans[idx] = (name, frame[0], end, parent)


def merge_stats(into, more):
    """Add the span totals `more` into `into`."""
    for name, st in more.items():
        cur = into.setdefault(name, [0, 0, 0, 0])
        for k in range(4):
            cur[k] += st[k]


def _wrap(tracer, fn, name, name_of=None, on_call=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if on_call is not None:
            on_call(args)
        return tracer.call(name_of(args) if name_of else name, fn, args, kwargs)
    return traced


def _targets(fs):
    """(owner, attribute, span name, name_of) for every traced public name."""
    drv, mdl, met, dp, mat, asg, jl, cli, red = (
        fs.driver, fs.model, fs.metrics, fs.deferred_priority, fs.matching,
        fs.assignment, fs.jsonl, fs.cli, fs.reduction)
    plan_n = lambda a: f"matching.plan_round.n{len(a[1])}"
    assign_n = lambda a: f"assignment.max_weight_assignment.n{len(a[0])}"
    return [
        (drv, "run_online", "driver.run_online", None),
        (cli, "run_online", "driver.run_online", None),
        (mdl.AllocationState, "assign", "model.assign", None),
        (met.PairwiseTracker, "observe", "metrics.tracker_observe", None),
        (met.PairwiseTracker, "envy_graph", "metrics.envy_graph", None),
        (met, "build_envy_graph", "metrics.envy_graph", None),
        (mat, "build_envy_graph", "metrics.envy_graph", None),
        (met, "topo_sort", "metrics.topo_sort", None),
        (mat, "topo_sort", "metrics.topo_sort", None),
        (met.ReportBuilder, "report", "metrics.report", None),
        (met, "mms_two_value", "metrics.mms_two_value", None),
        (dp, "mms_two_value", "metrics.mms_two_value", None),
        (mat, "mms_two_value", "metrics.mms_two_value", None),
        (red, "mms_two_value", "metrics.mms_two_value", None),
        (met, "mms_exhaustive", "metrics.mms_exhaustive", None),
        (red, "mms_exhaustive", "metrics.mms_exhaustive", None),
        (dp.DeferredPriority, "choose", "deferred_priority.choose", None),
        (dp.DeferredPriorityAuditor, "observe", "deferred_priority.audit", None),
        (mat.PriorityMatching, "choose", "matching.choose", None),
        (mat.NaiveMatching, "choose", "matching.choose", None),
        (mat, "plan_round", None, plan_n),
        (mat.PriorityMatchingAuditor, "observe", "matching.audit", None),
        (mat.NaiveMatchingAuditor, "observe", "matching.audit", None),
        (mat, "max_weight_assignment", None, assign_n),
        (asg, "max_weight_assignment", None, assign_n),
        (jl, "read_instance", "jsonl.read", None),
        (cli, "read_instance", "jsonl.read", None),
        (cli, "trace_csv_rows", "cli.csv", None),
        (cli, "report_csv_rows", "cli.csv", None),
        (pathlib.Path, "write_text", "cli.csv", None),
        (red, "threshold_round", "reduction.threshold_round", None),
        (red, "lift_guarantee", "reduction.lift", None),
    ]


def traced_names(fs):
    """(owner, attribute) pairs that `install` rebinds."""
    return [(owner, attr) for owner, attr, _, _ in _targets(fs)]


def install(tracer, fs):
    """Rebind every traced name to a timing wrapper; return the undo function."""
    saved = []
    for owner, attr, name, name_of in _targets(fs):
        orig = owner.__dict__[attr]
        on_call = None
        if attr == "mms_two_value":
            on_call = lambda a: tracer.mms_args.add(a)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(tracer, orig, name, name_of, on_call))

    def restore():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return restore


def _per_call(st, field, scale):
    return st[field] / st[CALLS] / scale if st and st[CALLS] else 0.0


def layer_metrics(stats, rounds, goods):
    """Per-layer metrics of a traced phase of `rounds` rounds and `goods` goods.

    `*_s` metrics are seconds per round (inclusive of child spans unless the
    name says self); per-call and per-good metrics are as named.
    """
    get = stats.get

    def per_round(*names, field=TOTAL):
        return sum(get(n, (0, 0, 0, 0))[field] for n in names) / rounds / 1e9

    def prefixed(prefix):
        return sorted(n for n in stats if n.startswith(prefix))

    out = {
        "driver.self_us_per_good": (get("driver.run_online") or [0, 0, 0, 0])[SELF] / goods / 1e3,
        "model.assign_us_per_call": _per_call(get("model.assign"), TOTAL, 1e3),
        "metrics.tracker_observe_s": per_round("metrics.tracker_observe"),
        "metrics.report_ms_per_call": _per_call(get("metrics.report"), SELF, 1e6),
        "metrics.mms_two_value_s": per_round("metrics.mms_two_value"),
        "metrics.mms_exhaustive_s": per_round("metrics.mms_exhaustive"),
        "metrics.envy_graph_s": per_round("metrics.envy_graph"),
        "metrics.topo_sort_s": per_round("metrics.topo_sort"),
        "metrics.self_s": per_round(*prefixed("metrics."), field=SELF),
        "deferred_priority.choose_us_per_call": _per_call(get("deferred_priority.choose"), TOTAL, 1e3),
        "deferred_priority.audit_s": per_round("deferred_priority.audit"),
        "matching.choose_us_per_call": _per_call(get("matching.choose"), SELF, 1e3),
        "matching.audit_s": per_round("matching.audit"),
        "jsonl.read_s": per_round("jsonl.read"),
        "cli.csv_s": per_round("cli.csv"),
        "reduction.threshold_round_s": per_round("reduction.threshold_round"),
        "reduction.lift_self_s": per_round("reduction.lift", field=SELF),
    }
    for name in prefixed("matching.plan_round.n"):
        out["matching.plan_round_ms_per_call." + name.rsplit(".", 1)[1]] = \
            _per_call(stats[name], TOTAL, 1e6)
    for name in prefixed("assignment.max_weight_assignment.n"):
        out["assignment.ms_per_call." + name.rsplit(".", 1)[1]] = \
            _per_call(stats[name], TOTAL, 1e6)
    for layer in LAYERS:
        out[layer + ".errors"] = sum(st[ERRORS] for n, st in stats.items()
                                     if n.startswith(layer + "."))
    return out


def exact_counts(stats, distinct_mms, goods):
    """Counts of one fixed pass; they must repeat exactly on the same seed."""
    calls = lambda *names: sum(stats.get(n, (0,))[CALLS] for n in names)
    prefixed = lambda p: [n for n in stats if n.startswith(p)]
    return {
        "model.assign_calls_per_good": calls("model.assign") / goods,
        "metrics.tracker_observes_per_good": calls("metrics.tracker_observe") / goods,
        "metrics.report_calls": calls("metrics.report"),
        "metrics.mms_two_value_calls": calls("metrics.mms_two_value"),
        "metrics.mms_two_value_distinct": distinct_mms,
        "metrics.mms_exhaustive_calls": calls("metrics.mms_exhaustive"),
        "matching.plan_round_calls": calls(*prefixed("matching.plan_round.n")),
        "assignment.calls": calls(*prefixed("assignment.max_weight_assignment.n")),
    }
