"""The four benchmark workloads.

fairstream is driven as a single-caller, closed-loop batch library: one
process, one thread, and each stream (or CLI invocation) starts only after
the previous one has finished.  A workload is a pool of rounds built from the
seed during set-up; a round is a fixed list of operations, and the timed loop
replays the pool round after round.  Each workload is built so that one
module does most of its work (see `spec.json` for the inputs, the reasons and
the per-layer metric each should move).

An operation's pipeline is timed; the benchmark's own checks of its output
(digests, replay audits) run outside the timed region.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracing import merge_stats

_now = time.perf_counter_ns
_cpu_now = time.thread_time_ns

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"
MODULES = ("driver", "model", "metrics", "deferred_priority", "matching",
           "assignment", "jsonl", "cli", "reduction", "generators")


def load_fairstream(fresh=False):
    """Import fairstream (anew when `fresh`) and return its modules by name."""
    if fresh:
        for name in [m for m in sys.modules if m == "fairstream" or m.startswith("fairstream.")]:
            del sys.modules[name]
    mods = {name: importlib.import_module("fairstream." + name) for name in MODULES}
    return SimpleNamespace(package=sys.modules["fairstream"], **mods)


class StepClock:
    """Observer appended last to `run_online`'s auditors: stamps each
    completed step.  A step's latency runs from the previous stamp (for step
    1, from the clock's creation just before `run_online` is called).

    The stamps read this thread's CPU clock.  `run_online` does no I/O and
    waits on nothing, so a step's CPU time is its latency less the time the
    thread was preempted; on a shared host that preemption otherwise decides
    the tail (on a 2-CPU shared Linux VM with Python 3.11, wall-clock p99 of
    one CLI instance ranged 8.2-11.0 ms over four runs, CPU-time p99
    6.7-7.4 ms)."""

    def __init__(self, sink):
        self.sink = sink
        self.last = _cpu_now()

    def observe(self, state, good, agent, extras):
        now = _cpu_now()
        self.sink.append(now - self.last)
        self.last = now


@dataclass
class Op:
    key: str      # "<pool round>:<position>"; keys the reference digest
    slice: str    # the part of the workload mix it belongs to
    goods: int
    payload: tuple


@dataclass
class Outcome:
    ns: int                 # wall time of the operation's pipeline
    digest: str = ""
    error: str | None = None
    output: object = None   # kept for the workload's own check


def sha256(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def choices_digest(trace) -> str:
    return sha256(",".join(map(str, trace.choices)))


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def lifted_digest(rows) -> str:
    parts = []
    for r in rows:
        prox = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.proxy.items()))
        orig = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.original.items()))
        parts.append(f"{r.t},{r.agent},{prox}|{orig}")
    return sha256("\n".join(parts))


def _failed(t0, e) -> Outcome:
    return Outcome(_now() - t0, error=f"{type(e).__name__}: {e}")


class Workload:
    name = ""
    pool_rounds = 1
    rss_of_children = False
    in_process = True  # the timed pipeline runs in this process
    scaled = False     # times are scaled to the reference speed (calibration.py)

    def __init__(self, fs, seed, work_dir: Path):
        self.fs = fs
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work_dir = work_dir
        self.tracer = None  # set by a traced run; used where work leaves the process
        self.pool = [self.build_round(r) for r in range(self.pool_rounds)]

    def next_seed(self) -> int:
        return self.rng.randrange(2 ** 31)

    def build_round(self, r) -> list:
        raise NotImplementedError

    def execute(self, op: Op, steps: list) -> Outcome:
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome):
        """Extra check on the first run of each operation; returns an error or None."""
        return None


class AuditCorpus(Workload):
    """Seeded streams through `run_online` with the rule's auditor, as in the
    corpus audit and acceptance criteria 01/03/06/07."""

    name = "audit-corpus"
    pool_rounds = 4

    def build_round(self, r):
        gen = self.fs.generators.random_two_value
        ops = []
        for n in range(2, 7):
            ops.append(("deferred-priority", n, gen(n, 200, self.next_seed(), bias=0.3)))
        ops.append(("naive-matching", 2, gen(2, 200, self.next_seed(), bias=0.35, foresight=1)))
        for n in range(2, 7):
            ops.append(("priority-matching", n,
                        gen(n, 50 * n, self.next_seed(), bias=0.35, foresight=n - 1)))
        return [Op(f"{r}:{i}", f"{alg} n={n}", inst.m, (alg, inst))
                for i, (alg, n, inst) in enumerate(ops)]

    def execute(self, op, steps):
        alg, inst = op.payload
        cli, driver = self.fs.cli, self.fs.driver
        t0 = _now()
        try:
            aud = cli.AUDITORS[alg](inst)
            clock = StepClock(steps)
            trace = driver.run_online(cli.ALGORITHMS[alg](), inst, auditors=[aud, clock])
            violations = aud.finish()
        except Exception as e:
            return _failed(t0, e)
        ns = _now() - t0
        error = f"{len(violations)} violations, first {violations[0]}" if violations else None
        return Outcome(ns, choices_digest(trace), error)


class DecideWide(Workload):
    """Bare `run_online` (only the step clock observes): priority matching on
    both sides of `assignment.EXHAUSTIVE_LIMIT` and deferred priority at n=128."""

    name = "decide-wide"
    # a round's time moves by up to 15% with its instances, so a run spreads
    # over many of them
    pool_rounds = 12
    # (rule, n, m): sized so that no slice takes half of a round
    SLICES = (("priority-matching", 7, 140), ("priority-matching", 8, 640),
              ("priority-matching", 16, 192), ("priority-matching", 32, 64),
              ("deferred-priority", 128, 1280))

    def build_round(self, r):
        gen = self.fs.generators.random_two_value
        ops = []
        for i, (alg, n, m) in enumerate(self.SLICES):
            if alg == "priority-matching":
                inst = gen(n, m, self.next_seed(), bias=0.35, foresight=n - 1)
            else:
                inst = gen(n, m, self.next_seed(), bias=0.3)
            ops.append(Op(f"{r}:{i}", f"{alg} n={n}", m, (alg, inst)))
        return ops

    def execute(self, op, steps):
        alg, inst = op.payload
        t0 = _now()
        try:
            clock = StepClock(steps)
            trace = self.fs.driver.run_online(self.fs.cli.ALGORITHMS[alg](), inst,
                                              auditors=[clock])
        except Exception as e:
            return _failed(t0, e)
        return Outcome(_now() - t0, choices_digest(trace), output=trace)

    def check(self, op, outcome):
        """Replay the rule's structural audit over the trace."""
        alg, _ = op.payload
        trace = outcome.output
        if alg == "priority-matching":
            bad = self.fs.matching.check_round_guarantees(trace)
        else:
            dp = self.fs.deferred_priority
            bad = dp.check_structural_guarantees(trace) + dp.check_level_set_condition(trace)
        return f"{len(bad)} violations, first {bad[0]}" if bad else None


class ReportStream(Workload):
    """`fairstream run ... --granularity step --assert-guarantees` with trace and
    report CSVs, each invocation in a fresh interpreter (cold maximin cache)."""

    name = "report-stream"
    # a run makes about six invocations; each on its own instance, so that the
    # step tail is not that of two or three instances
    pool_rounds = 6
    rss_of_children = True
    in_process = False
    N, M = 16, 1000

    def build_round(self, r):
        # every profile of the default pool N/4 times, so that seeds vary only the goods
        gen = self.fs.generators
        profiles = list(gen.DEFAULT_PROFILE_POOL) * (self.N // len(gen.DEFAULT_PROFILE_POOL))
        inst = gen.random_two_value(self.N, self.M, self.next_seed(), profiles=profiles)
        path = self.work_dir / f"instance-{r}.jsonl"
        self.fs.jsonl.write_instance(inst, path)
        self.fs.jsonl.read_instance(path)  # validate what was written
        return [Op(f"{r}:0", f"deferred-priority n={self.N}", self.M, (r, path))]

    def execute(self, op, steps):
        r, path = op.payload
        trace_csv = self.work_dir / f"trace-{r}.csv"
        report_csv = self.work_dir / f"report-{r}.csv"
        result_json = self.work_dir / f"child-{r}.json"
        for p in (trace_csv, report_csv, result_json):
            p.unlink(missing_ok=True)
        flags = ["--scaled"] if self.scaled else []
        if self.tracer is not None:
            flags.append("--trace")
            if self.tracer.spans is not None:
                flags.append("--record-spans")
        cmd = [sys.executable, str(CHILD), str(result_json), *flags, "--",
               "run", "--alg", "deferred-priority", "--instance", str(path),
               "--granularity", "step", "--assert-guarantees",
               "--trace-out", str(trace_csv), "--report-out", str(report_csv)]
        t0 = _now()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        except subprocess.TimeoutExpired as e:
            return _failed(t0, e)
        ns = _now() - t0
        if proc.returncode != 0:
            return Outcome(ns, error=f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            result = json.loads(result_json.read_text())
            digest = sha256(trace_csv.read_bytes() + b"\0" + report_csv.read_bytes())
        except (OSError, ValueError) as e:
            return _failed(t0, e)
        steps.extend(result["steps"])
        if self.tracer is not None:
            self._absorb(result)
        if self.scaled:
            ns = (ns - result["calibration_ns"]) * result["scale"]
        return Outcome(ns, digest)

    def _absorb(self, result):
        tr = self.tracer
        merge_stats(tr.stats, result["stats"])
        tr.mms_args.update(tuple(a) for a in result["mms_args"])
        if tr.spans is not None and result.get("spans"):
            base = len(tr.spans)
            tr.spans.extend((n, s, e, p + base if p >= 0 else -1)
                            for n, s, e, p in result["spans"])


class IntervalLift(Workload):
    """Criterion 10's pipeline: interval stream -> threshold_round -> rule on
    the proxy -> lift_guarantee."""

    name = "interval-lift"
    # mms_exhaustive's cost swings widely from instance to instance, so a run
    # replays few instances twice: about 1000 distinct streams per seed
    pool_rounds = 24
    OPS_PER_ROUND = 42  # every (n, m, rule) combination of the cycle once

    def build_round(self, r):
        gen = self.fs.generators.interval_random
        ops = []
        for k in range(self.OPS_PER_ROUND):
            n, m = 2 + k % 3, 6 + k % 7
            alg = "deferred-priority" if k % 2 == 0 else "priority-matching"
            alphas = [self.rng.uniform(2.0, 25.0) for _ in range(n)]
            inst = gen(n, m, self.next_seed(), alphas=alphas, foresight=n - 1)
            ops.append(Op(f"{r}:{k}", f"{alg} n={n}", m, (alg, inst)))
        return ops

    def execute(self, op, steps):
        alg, inst = op.payload
        red = self.fs.reduction
        t0 = _now()
        try:
            pair = red.threshold_round(inst)
            clock = StepClock(steps)
            trace = self.fs.driver.run_online(self.fs.cli.ALGORITHMS[alg](), pair.proxy,
                                              auditors=[clock])
            rows = red.lift_guarantee(pair, trace)
        except Exception as e:  # lift_guarantee raises AssertionError on a broken transfer
            return _failed(t0, e)
        return Outcome(_now() - t0, lifted_digest(rows))


WORKLOADS = {w.name: w for w in (AuditCorpus, ReportStream, DecideWide, IntervalLift)}
