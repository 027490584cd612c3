#!/usr/bin/env python3
"""fairstream benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload audit-corpus --seed 0 --seconds 30 --trace 0

Run from the root of a fairstream checkout; the package is imported from
`src/`.  Workloads: audit-corpus, report-stream, decide-wide, interval-lift
(see `spec.json`).

`--trace 0` measures the end-to-end metrics named in BENCHMARK.json:
goods per second (median over rounds), per-step latency p50/p99 from a
CPU-time clock observer appended last to `run_online`'s auditors, peak
resident memory and set-up time (median of several set-ups).  Times are
scaled to a reference speed of the machine, measured by a calibration loop
run between operations (see `calibration.py`).  `--trace 1`
spends half the time untraced and half with timing wrappers installed, and
reports the per-layer metrics, the exact call counts of one fixed round (run
twice; they must agree) and the tracing overhead.

Every operation is checked: auditor violations, CLI exit codes and
`lift_guarantee` failures count as failures, every repeat of an operation
must give the digest of its first run, and on the default seed every digest
must equal the one stored in `reference.json`.

Human-readable lines come first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A full record
(environment, sample counts, every metric) goes to
`perfbench/out/<workload>-seed<seed>-trace<t>.json`.

`--record-reference` runs every operation of the default seed once and
stores its digests; use it only when a change is meant to alter outputs.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from calibration import calibrate, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 9

_now = time.perf_counter_ns
class Runner:
    """Runs pool rounds, checks every operation and keeps the tallies."""

    def __init__(self, workload, reference, scaled=False):
        self.wl = workload
        workload.scaled = scaled
        # a workload whose operations leave this process scales them itself
        self.calibrations = [calibrate()] if scaled and workload.in_process else None
        self.reference = reference  # op key -> digest, or None off the default seed
        self.first = {}             # op key -> digest of its first run here
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.slice_ns = {}

    def run_round(self, r, steps):
        """Run pool round r (cyclically); return (goods, pipeline ns)."""
        goods = ns = 0
        for op in self.wl.pool[r % len(self.wl.pool)]:
            lo = len(steps)
            out = self.wl.execute(op, steps)
            t = out.ns
            if self.calibrations is not None:
                self.calibrations.append(calibrate())
                factor = scale(self.calibrations)
                t *= factor
                steps[lo:] = array("q", [round(x * factor) for x in steps[lo:]])
            goods += op.goods
            ns += t
            self.slice_ns[op.slice] = self.slice_ns.get(op.slice, 0) + t
            self.attempted += 1
            problem = out.error or self._verify(op, out)
            if problem:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{op.key} ({op.slice}): {problem}")
        return goods, ns

    def _verify(self, op, out):
        first = self.first.get(op.key)
        if first is not None:
            return None if out.digest == first else "digest differs from its first run"
        self.first[op.key] = out.digest
        if self.reference is not None and self.reference.get(op.key) != out.digest:
            return "digest differs from reference.json"
        return self.wl.check(op, out)

    def measure(self, budget_s, steps, start=0, min_rounds=1):
        """Run rounds from `start` until the next one would overrun the budget."""
        rounds, walls = [], []
        t0 = time.perf_counter()
        r = start
        while len(rounds) < min_rounds or \
                time.perf_counter() - t0 + statistics.median(walls or [0]) <= budget_s:
            w0 = time.perf_counter()
            rounds.append(self.run_round(r, steps))
            walls.append(time.perf_counter() - w0)
            r += 1
        return rounds


def goods_per_s(rounds):
    return statistics.median(g / (ns / 1e9) for g, ns in rounds)


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(p / 100 * len(sorted_vals)) - 1)]


def peak_rss_mib(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def unit_of(name):
    if "us_per_" in name:
        return "us"
    if "ms_per_" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_good"):
        return "calls/good"
    if name.endswith("_s"):
        return "s"
    return "count"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fairstream" / "__init__.py").is_file():
        fail(f"no fairstream sources under {SRC}; run from the root of a fairstream checkout")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    sys.path.insert(1, str(SRC))
    from tracing import Tracer, exact_counts, install, layer_metrics, merge_stats
    from workloads import WORKLOADS, Workload, load_fairstream

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work_dir = OUT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)

    setup_ns, calibrations = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts from a collected heap
        t0 = _now()
        fs = load_fairstream(fresh=True)
        wl = WORKLOADS[args.workload](fs, args.seed, work_dir)
        t = _now() - t0
        calibrations.append(calibrate())
        setup_ns.append(t * scale(calibrations))
    if not Path(fs.package.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"fairstream was imported from {fs.package.__file__}, not from {SRC}")

    if args.record_reference:
        return record_reference(args, wl, reference)
    runner = Runner(wl, reference.get(args.workload) if args.seed == DEFAULT_SEED else None,
                    scaled=not args.trace)

    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "platform": platform.platform(), "git_commit": git_commit(),
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report = {}   # name -> (value, unit, samples)
    extra = {}
    counts_agree = True
    if not args.trace:
        steps = array("q")  # compact, so that the samples barely move peak_rss_mib
        rounds = runner.measure(args.seconds, steps)
        rss = peak_rss_mib(wl.rss_of_children)
        steps = sorted(steps)
        report["goods_per_s"] = (goods_per_s(rounds), "goods/s", len(rounds))
        report["step_p50_us"] = (percentile(steps, 50) / 1e3, "us", len(steps))
        report["step_p99_us"] = (percentile(steps, 99) / 1e3, "us", len(steps))
        report["peak_rss_mib"] = (rss, "MiB", 1)
        report["setup_s"] = (statistics.median(setup_ns) / 1e9, "s", len(setup_ns))
        extra["calibration_ms"] = {
            "set-up": [k / 1e6 for k in calibrations],
            "run_deciles": None if runner.calibrations is None else
            [k / 1e6 for k in statistics.quantiles(runner.calibrations, n=10)]}
        if len(steps) < 1000:
            print(f"warning: only {len(steps)} step samples; p99 has fewer than 10 beyond it")
    else:
        half = args.seconds / 2
        # the workload's own check runs on an operation's first run: keep it untraced
        checked = type(wl).check is not Workload.check
        untraced = runner.measure(half, [], min_rounds=len(wl.pool) if checked else 1)
        tracer = Tracer()
        restore = install(tracer, fs)
        wl.tracer = tracer
        try:
            t0 = time.perf_counter()
            tracer.record()
            pass_a = runner.run_round(0, [])
            stats_a, distinct_a, spans = tracer.take()
            pass_b = runner.run_round(0, [])
            stats_b, distinct_b, _ = tracer.take()
            rest = runner.measure(half - (time.perf_counter() - t0), [], start=1,
                                  min_rounds=0)
            stats_rest, _, _ = tracer.take()
        finally:
            restore()
            wl.tracer = None
        counts_a = exact_counts(stats_a, distinct_a, pass_a[0])
        counts_b = exact_counts(stats_b, distinct_b, pass_b[0])
        counts_agree = counts_a == counts_b
        traced = [pass_a, pass_b] + rest
        stats = {}
        for part in (stats_a, stats_b, stats_rest):
            merge_stats(stats, part)
        layers = layer_metrics(stats, len(traced), sum(g for g, _ in traced))
        for name, value in layers.items():
            report[name] = (value, unit_of(name), len(traced))
        for name, value in counts_a.items():
            report[name] = (value, unit_of(name), 1)
        # the same pool round timed both ways: round 0 against passes A and B, then
        # round r of each phase, so that rounds of unequal cost do not enter
        pairs = [(untraced[0], pass_a), (untraced[0], pass_b), *zip(untraced[1:], rest)]
        overhead = 100 * (statistics.median(t / u for (_, u), (_, t) in pairs) - 1)
        report["tracing.overhead_pct"] = (overhead, "%", len(pairs))
        extra["exact_counts"] = {"pass_a": counts_a, "pass_b": counts_b}
        extra["spans_file"] = write_spans(args, spans)

    return finish(args, bench, env, runner, report, extra, counts_agree)


def write_spans(args, spans):
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    base = min((s[1] for s in spans), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps({"name": name, "start_ns": start - base,
                                 "end_ns": end - base, "parent": parent}) + "\n")
    return str(path.relative_to(ROOT))


def finish(args, bench, env, runner, report, extra, counts_agree):
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in bench[kind]]
    missing = [n for n in wanted if n not in report]
    if missing:
        fail(f"metrics {missing} were not measured")
    total_ns = sum(runner.slice_ns.values()) or 1
    shares = {k: v / total_ns for k, v in sorted(runner.slice_ns.items())}
    error_rate = runner.failed / runner.attempted
    correct = runner.failed == 0 and counts_agree

    print(f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}")
    print(f"  python {env['python']}, {env['cpu_count']} CPUs, {env['platform']}, "
          f"commit {env['git_commit']}")
    for name, (value, unit, samples) in report.items():
        print(f"  {name:<44} {value:>16.6f} {unit:<10} samples={samples}")
    print(f"  operations: attempted={runner.attempted} failed={runner.failed} "
          f"error_rate={error_rate:g}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    print("  time share by slice: " + ", ".join(f"{k} {v:.0%}" for k, v in shares.items()))
    if not counts_agree:
        print("EXACT-COUNT CHECK FAILED: two traced passes over the same round differ: "
              f"{extra['exact_counts']}", file=sys.stderr)

    record = {"workload": args.workload, "environment": env,
              "attempted": runner.attempted, "failed": runner.failed,
              "error_rate": error_rate, "problems": runner.problems,
              "slice_time_share": shares,
              "metrics": {n: {"value": v, "unit": u, "samples": s}
                          for n, (v, u, s) in report.items()}, **extra}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {n: {"value": report[n][0], "unit": report[n][1]}
                                  for n in wanted}}))
    return 0 if counts_agree else 1


def record_reference(args, wl, reference):
    if args.seed != DEFAULT_SEED:
        fail(f"references are recorded on the default seed {DEFAULT_SEED}")
    runner = Runner(wl, None)
    for r in range(len(wl.pool)):
        runner.run_round(r, [])
    if runner.failed:
        fail("operations failed; no reference written:\n  " + "\n  ".join(runner.problems))
    reference[args.workload] = runner.first
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(runner.first)} digests for {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
