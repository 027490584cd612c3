"""Golden digests of the interval -> proxy pipeline.

Each case takes three seeded `interval_random` streams of one size (n
agents, m goods, foresight n - 1) and compares with
`fixtures/golden_lift.json`:

* the SHA-256 of the `lift_guarantee` rows after running deferred priority
  and priority matching on the threshold proxy, one row per line as
  ``t,agent,`` + proxy ratios + ``|`` + original ratios, each ``name=value``
  joined by ``;`` in name order, Fractions as ``n/d`` and floats as `repr`;
* the SHA-256 of the proxy JSONL and of the ``.meta.json`` sidecar that
  ``fairstream reduce`` writes for the same streams.

The grid has m = 2n ... 3n - 1 for n = 2, 3, 4, so every size of a partial
final priority-matching round is covered, and a change to the assignment
solver, the tracker's float path or the rounding that alters one ratio fails
here.

Re-record the fixture only when a change is meant to alter outputs::

    PYTHONPATH=src python tests/test_golden_lift.py --record
"""
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairstream.cli import main
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import run_online
from fairstream.generators import interval_random
from fairstream.jsonl import write_instance
from fairstream.matching import PriorityMatching
from fairstream.reduction import lift_guarantee, threshold_round

FIXTURE = Path(__file__).parent / "fixtures" / "golden_lift.json"

SEEDS = (31, 32, 33)
RULES = {"deferred-priority": DeferredPriority, "priority-matching": PriorityMatching}
CASES = {f"n{n}-m{m}": (n, m) for n in (2, 3, 4) for m in range(2 * n, 3 * n)}


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def _row(r) -> str:
    prox = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.proxy.items()))
    orig = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.original.items()))
    return f"{r.t},{r.agent},{prox}|{orig}"


def digests(n, m, tmp_dir: Path) -> dict:
    h = {name: hashlib.sha256() for name in (*RULES, "reduce_jsonl", "reduce_meta")}
    for seed in SEEDS:
        inst = interval_random(n, m, seed, foresight=n - 1)
        pair = threshold_round(inst)
        for name, rule in RULES.items():
            rows = lift_guarantee(pair, run_online(rule(), pair.proxy))
            h[name].update("\n".join(map(_row, rows)).encode() + b"\n\n")
        src, out = tmp_dir / "interval.jsonl", tmp_dir / "proxy.jsonl"
        write_instance(inst, src)
        assert main(["reduce", "--in", str(src), "--out", str(out)]) == 0
        h["reduce_jsonl"].update(out.read_bytes() + b"\n")
        h["reduce_meta"].update(out.with_suffix(".meta.json").read_bytes() + b"\n")
    return {name: d.hexdigest() for name, d in h.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lift_rows_and_reduce_outputs_match_golden_digests(case, tmp_path):
    golden = json.loads(FIXTURE.read_text())
    assert digests(*CASES[case], tmp_path) == golden[case]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        recorded = {case: digests(*args, Path(d)) for case, args in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {FIXTURE}")
