#!/usr/bin/env python3
"""Threshold-reduction walkthrough: generate an interval-restricted stream,
round it to its 2-value proxy, run an allocation rule on the proxy, and report
the worst ratios under the original values next to the floors the rule
claims, transferred at a cost of a_star: the maximin floor 1/((2n-1)*a_star)
for deferred priority, and EF2 at every step and EF1 at multiples of n, both
at 1/a_star, for priority matching.  Exits 1 if the run breaks one.  Also
prints the round-robin ratios, which claim no floor, for comparison.

Example:
    python scripts/reduction_demo.py --n 3 --m 12 --seed 1 --alg deferred-priority
"""
import argparse
import sys

from fairstream.baselines import RoundRobin
from fairstream.cli import ALGORITHMS
from fairstream.driver import run_online
from fairstream.generators import interval_random
from fairstream.metrics import REL_TOL
from fairstream.reduction import lift_guarantee, threshold_round


def _worst(rows, key, boundary=None):
    vals = [float(r.original[key]) for r in rows
            if key in r.original and (boundary is None or r.t % boundary == 0)]
    return min(vals) if vals else None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--m", type=int, default=12)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--alg", default="deferred-priority",
                    choices=["deferred-priority", "priority-matching"])
    args = ap.parse_args()

    inst = interval_random(args.n, args.m, args.seed, foresight=args.n - 1)
    pair = threshold_round(inst)
    print(f"alphas    : {[round(a.alpha, 3) for a in inst.agents]}")
    print(f"thresholds: {[round(t, 3) for t in pair.thresholds]}  a*={pair.a_star:.3f}")

    trace = run_online(ALGORITHMS[args.alg](), pair.proxy)
    rows = lift_guarantee(pair, trace)
    n, a_star = args.n, pair.a_star
    # (metric, transferred floor, checked at multiples of this, or at every step)
    if args.alg == "deferred-priority":
        floors = [("mms", 1 / ((2 * n - 1) * a_star), None)]
    else:
        floors = [("ef2", 1 / a_star, None), ("ef1", 1 / a_star, n)]
    print(f"{args.alg} on the proxy, ratios under original values:")
    breached = []
    for key, floor, boundary in floors:
        worst = _worst(rows, key, boundary)
        if worst is not None:
            where = f" at multiples of {boundary}" if boundary else ""
            note = ""
            if worst < floor - REL_TOL:
                breached.append(key)
                note = ", BREACHED"
            print(f"  worst {key}{where}: {worst:.4f}  (transferred floor {floor:.4f}{note})")

    rr_rows = lift_guarantee(pair, run_online(RoundRobin(), pair.proxy))
    print("round-robin comparison (claims no floor):")
    for key in ("ef1", "mms"):
        worst = _worst(rr_rows, key)
        if worst is not None:
            print(f"  worst {key}: {worst:.4f}")
    if breached:
        print(f"transferred floors breached: {', '.join(breached)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
