#!/usr/bin/env python3
"""Audit an allocation rule over a corpus of seeded random 2-value streams.

Example:
    python scripts/run_corpus.py --alg deferred-priority --ns 2 3 4 --seeds 200 --m 100
"""
import argparse
import sys
import time
from collections import Counter

from fairstream.cli import ALGORITHMS, AUDITORS
from fairstream.driver import run_online
from fairstream.generators import random_two_value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alg", default="deferred-priority", choices=sorted(AUDITORS))
    ap.add_argument("--ns", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    ap.add_argument("--seeds", type=int, default=200)
    ap.add_argument("--m", type=int, default=100)
    ap.add_argument("--bias", type=float, default=0.3)
    args = ap.parse_args()

    if args.alg == "naive-matching":
        args.ns = [2]
    total = Counter()
    t0 = time.time()
    for n in args.ns:
        foresight = ALGORITHMS[args.alg]().min_foresight(n)
        for seed in range(args.seeds):
            inst = random_two_value(n, args.m, seed=n * 1_000_000 + seed,
                                    bias=args.bias, foresight=foresight)
            aud = AUDITORS[args.alg](inst)
            run_online(ALGORITHMS[args.alg](), inst, auditors=[aud])
            for v in aud.finish():
                total[v.check] += 1
        print(f"n={n}: {args.seeds} streams audited")
    elapsed = time.time() - t0
    if total:
        print("VIOLATIONS:")
        for check, count in total.most_common():
            print(f"  {check}: {count}")
        print(f"({elapsed:.1f}s)")
        return 1
    print(f"all guarantees hold on {args.seeds * len(args.ns)} streams ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
