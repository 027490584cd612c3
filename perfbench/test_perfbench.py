"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`.

Tracing must not change what fairstream computes, and an untraced run must
leave every traced name bound to fairstream's own object.
"""
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _small_ops(wl, tmp_path):
    if isinstance(wl, workloads.ReportStream):
        inst = wl.fs.generators.random_two_value(4, 40, seed=3)
        path = tmp_path / "small.jsonl"
        wl.fs.jsonl.write_instance(inst, path)
        return [workloads.Op("small", "deferred-priority n=4", 40, ("small", path))]
    ops = wl.pool[0]
    return ops[:2] if isinstance(wl, workloads.DecideWide) else ops[:1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_identical(name, tmp_path):
    fs = workloads.load_fairstream()
    wl = workloads.WORKLOADS[name](fs, run.DEFAULT_SEED, tmp_path)
    for op in _small_ops(wl, tmp_path):
        plain = wl.execute(op, [])
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, fs)
        wl.tracer = tracer
        try:
            traced = wl.execute(op, [])
        finally:
            restore()
            wl.tracer = None
        assert plain.error is None and traced.error is None
        assert traced.digest == plain.digest
        assert tracer.stats, "the traced run recorded no spans"


def test_untraced_run_installs_no_wrapper():
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", "audit-corpus", "--seed", "7", "--seconds", "0.5",
                       "--trace", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 0 and result["correct"] and result["attempted"] >= 1
    fs = workloads.load_fairstream()
    assert not hasattr(fs.metrics.mms_two_value, "__wrapped__")
    for owner, attr in tracing.traced_names(fs):
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)


def test_restore_puts_back_the_original_objects():
    fs = workloads.load_fairstream()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in tracing.traced_names(fs)]
    restore = tracing.install(tracing.Tracer(), fs)
    assert hasattr(fs.metrics.mms_two_value, "__wrapped__")
    restore()
    for owner, attr, obj in before:
        assert owner.__dict__[attr] is obj, (owner, attr)


def test_scaled_cli_child_gives_the_same_output(tmp_path):
    fs = workloads.load_fairstream()
    wl = workloads.ReportStream(fs, run.DEFAULT_SEED, tmp_path)
    op = _small_ops(wl, tmp_path)[0]
    plain = wl.execute(op, [])
    wl.scaled = True
    steps = []
    scaled = wl.execute(op, steps)
    assert plain.error is None and scaled.error is None
    assert scaled.digest == plain.digest
    assert scaled.ns > 0 and len(steps) == op.goods and min(steps) > 0
