"""Run one `fairstream` CLI invocation in this fresh interpreter and time its
steps.

    python3 perfbench/cli_child.py RESULT.json [--scaled | --trace [--record-spans]] -- CLI-ARGS...

`fairstream.cli.run_online` is rebound so that the step clock is appended
last to the CLI's own auditors; with `--trace` the timing wrappers are
installed as well.  RESULT.json receives the exit code, the step latencies
(ns) and, when traced, the span totals, the distinct `mms_two_value`
arguments and the recorded spans.  With `--scaled` the step latencies are
scaled to the reference speed (calibration.py), and RESULT.json also
receives the mean factor and the wall time spent calibrating, which the
caller takes out of its timing before scaling it.  The process exits with
the CLI's code.
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from calibration import REFERENCE_NS, calibrate, scale  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import StepClock, load_fairstream  # noqa: E402

# an invocation runs for seconds, so its steps are calibrated in slices of
# this much CPU time
CALIBRATE_EVERY_NS = 100_000_000


class CalibratedClock(StepClock):
    """Step clock that calibrates after every CALIBRATE_EVERY_NS of steps and
    scales the steps since the previous calibration.  The calibrations are
    left out of the steps; their wall time is summed in `calibration_ns`."""

    def __init__(self, sink, calibrations):
        super().__init__(sink)
        self.calibrations = calibrations
        self.lo = len(sink)
        self.since = self.last
        self.raw_ns = self.scaled_ns = self.calibration_ns = 0

    def observe(self, state, good, agent, extras):
        super().observe(state, good, agent, extras)
        if self.last - self.since >= CALIBRATE_EVERY_NS:
            self.close()

    def close(self):
        """Calibrate, and scale the steps since the previous calibration."""
        w0 = time.perf_counter_ns()
        self.calibrations.append(calibrate())
        factor = scale(self.calibrations)
        raw = self.sink[self.lo:]
        self.sink[self.lo:] = [round(x * factor) for x in raw]
        self.raw_ns += sum(raw)
        self.scaled_ns += sum(self.sink[self.lo:])
        self.lo = len(self.sink)
        self.calibration_ns += time.perf_counter_ns() - w0
        self.last = self.since = time.thread_time_ns()


def main(argv):
    sep = argv.index("--")
    result_path, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    fs = load_fairstream()
    tracer = None
    if "--trace" in flags:
        tracer = Tracer()
        install(tracer, fs)
        if "--record-spans" in flags:
            tracer.record()
    steps, clocks = [], []
    scaled = "--scaled" in flags
    if scaled:
        w0 = time.perf_counter_ns()
        calibrations = [calibrate()]
        calibration_ns = time.perf_counter_ns() - w0
    run_online = fs.cli.run_online

    def run_online_clocked(alg, instance, auditors=()):
        clock = CalibratedClock(steps, calibrations) if scaled else StepClock(steps)
        clocks.append(clock)
        try:
            return run_online(alg, instance, auditors=[*auditors, clock])
        finally:
            if scaled:
                clock.close()

    fs.cli.run_online = run_online_clocked
    rc = fs.cli.main(cli_args)
    result = {"rc": rc, "steps": steps}
    if scaled:
        raw_ns = sum(c.raw_ns for c in clocks)
        result["scale"] = sum(c.scaled_ns for c in clocks) / raw_ns if raw_ns else \
            REFERENCE_NS / calibrations[0]
        result["calibration_ns"] = calibration_ns + sum(c.calibration_ns for c in clocks)
    if tracer is not None:
        mms_args = sorted(tracer.mms_args)
        stats, _, spans = tracer.take()
        result.update(stats=stats, mms_args=mms_args, spans=spans)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
