#!/usr/bin/env python3
"""Run both adaptive adversaries against every no-lookahead rule and print the
witness table, alongside the fixed full-lookahead hard instance.  Exits 1
if a ratio exceeds the bound printed beside it: no rule can beat those bounds.

Example:
    python scripts/adversary_sweep.py --ns 2 3 4 5
"""
import argparse
import sys
from fractions import Fraction

from fairstream.adversaries import (ef1_adversary, lows_then_highs, mms_adversary,
                                    worst_step_share_ratio)
from fairstream.baselines import GreedyWelfare, RoundRobin
from fairstream.deferred_priority import DeferredPriority
from fairstream.matching import NaiveMatching, PriorityMatching

NO_LOOKAHEAD = (DeferredPriority, RoundRobin, GreedyWelfare)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ns", type=int, nargs="+", default=[2, 3, 4, 5])
    args = ap.parse_args()
    above = []  # ratios above their bound

    def mark(name, ratio, bound):
        if ratio > bound:
            above.append(name)
            return "  ABOVE THE BOUND"
        return ""

    print("== envy adversary (two agents, bound 1/2) ==")
    for alg_cls in NO_LOOKAHEAD:
        tr = ef1_adversary(alg_cls())
        w = tr.witness
        print(f"  {alg_cls.name:20s} witness t={w.step} agent={w.agent} ratio={w.ratio}"
              + mark(alg_cls.name, w.ratio, Fraction(1, 2)))

    print("== maximin adversary (bound 1/(2n-1)) ==")
    for n in args.ns:
        for alg_cls in NO_LOOKAHEAD:
            tr = mms_adversary(alg_cls(), n)
            w = tr.witness
            bound = Fraction(1, 2 * n - 1)
            print(f"  n={n} {alg_cls.name:20s} witness t={w.step} ratio={w.ratio} "
                  f"(bound {bound}, case {tr.notes.get('case')})"
                  + mark(f"{alg_cls.name} n={n}", w.ratio, bound))

    print("== fixed hard instance (full lookahead, bound 1/n) ==")
    for n in args.ns:
        inst = lows_then_highs(n, alpha=n)
        for alg_cls in NO_LOOKAHEAD + (PriorityMatching,) + ((NaiveMatching,) if n == 2 else ()):
            ratio = worst_step_share_ratio(alg_cls(), inst)
            print(f"  n={n} {alg_cls.name:20s} min-over-steps ratio={ratio}"
                  + mark(f"{alg_cls.name} n={n}", ratio, Fraction(1, n)))
    if above:
        print(f"ratios above their bound: {', '.join(above)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
