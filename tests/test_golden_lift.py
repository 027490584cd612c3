"""Golden digests of the interval -> proxy pipeline.

Each case takes a few interval streams with foresight n - 1 and compares
with `fixtures/golden_lift.json`:

* the SHA-256 of the `lift_guarantee` rows after running deferred priority
  and priority matching on the threshold proxy, one row per line as
  ``t,agent,`` + proxy ratios + ``|`` + original ratios, each ``name=value``
  joined by ``;`` in name order, Fractions as ``n/d`` and floats as `repr`;
* the SHA-256 of the proxy JSONL and of the ``.meta.json`` sidecar that
  ``fairstream reduce`` writes for the same streams.

The grid cases take three seeded `interval_random` streams of one size (n
agents, m goods).  It has m = 2n ... 3n - 1 for n = 2, 3, 4, so every size
of a partial final priority-matching round is covered, and a change to the
assignment solver, the tracker's float path or the rounding that alters one
ratio fails here.  Three more sizes pin the edges: n = 1, where every envy
ratio is the empty minimum 1.0, and m = 13 and 14, past the 12-good cap of
the exhaustive maximin oracle, whose rows carry no ``mms``.

The ``int-valued`` case is hand-built: integer values and alpha in {4, 9,
16, 25}, so sqrt(alpha) is a float with an integer value and proxy values
mix int alpha with float sqrt(alpha).  Its rows pin the type of each ratio
(a ``Fraction`` on all-integer operands, a float otherwise), including the
clamped 0 and 1, and a value equal to sqrt(alpha) rounding down.

Re-record the fixture, only when a change is meant to alter outputs, with
`PYTHONPATH=src python tests/test_golden_lift.py --record`.
"""
import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fairstream.cli import main
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import run_online
from fairstream.generators import interval_random
from fairstream.jsonl import write_instance
from fairstream.matching import PriorityMatching
from fairstream.model import AgentProfile, Flavor, GoodEvent, Instance
from fairstream.reduction import lift_guarantee, threshold_round
from golden import FIXTURES, expected, record

FIXTURE = FIXTURES / "golden_lift.json"

SEEDS = (31, 32, 33)
RULES = {"deferred-priority": DeferredPriority, "priority-matching": PriorityMatching}


def seeded_streams(n, m):
    return [interval_random(n, m, seed, foresight=n - 1) for seed in SEEDS]


def int_valued_streams():
    """Integer interval streams, n = 2, 3, 4, m up to 12.  Each value is 1,
    sqrt(alpha), alpha or uniform in [1, alpha], in equal parts."""
    rng = random.Random(12)
    out = []
    for n in (2, 3, 4):
        for _ in range(4):
            alphas = [rng.choice((4, 9, 16, 25)) for _ in range(n)]
            picks = [(1, round(a ** 0.5), a) for a in alphas]
            goods = [GoodEvent(t, values=[rng.choice(p + (rng.randint(1, a),))
                                          for p, a in zip(picks, alphas)])
                     for t in range(1, rng.randint(n, 12) + 1)]
            out.append(Instance([AgentProfile(a, 1) for a in alphas], goods,
                                Flavor.INTERVAL, foresight=n - 1))
    return out


CASES = {f"n{n}-m{m}": (seeded_streams, n, m)
         for n in (2, 3, 4) for m in range(2 * n, 3 * n)}
CASES.update({"n1-m4": (seeded_streams, 1, 4), "n3-m13": (seeded_streams, 3, 13),
              "n4-m14": (seeded_streams, 4, 14), "int-valued": (int_valued_streams,)})


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def _row(r) -> str:
    prox = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.proxy.items()))
    orig = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.original.items()))
    return f"{r.t},{r.agent},{prox}|{orig}"


def digests(streams, tmp_dir: Path) -> dict:
    h = {name: hashlib.sha256() for name in (*RULES, "reduce_jsonl", "reduce_meta")}
    for inst in streams:
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


def compute(case, tmp_dir: Path) -> dict:
    make, *args = CASES[case]
    return digests(make(*args), tmp_dir)


@pytest.mark.parametrize("case", sorted(CASES))
def test_lift_rows_and_reduce_outputs_match_golden_digests(case, tmp_path):
    assert compute(case, tmp_path) == expected(FIXTURE)[case]


if __name__ == "__main__":
    record(FIXTURE, CASES, compute)
