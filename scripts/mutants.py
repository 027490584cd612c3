"""Run the committed mutant corpus: each mutant must be killed by its tests.

    python scripts/mutants.py

Each mutant is one textual edit to a file under `src/`.  It is applied to a
temporary copy of `src`, and only the test files named for it run against
that copy (`python -m pytest` with `PYTHONPATH` set to the copy).  A mutant
is killed when those tests fail (pytest exit code 1); the same tests pass
on the unmutated tree, which the tier-1 run checks.  The script prints one
line per mutant and exits 1 if any mutant survives, no longer applies (its
text is not found exactly once) or errs (any other pytest exit code, such
as a collection error), 0 otherwise.  Stdlib only; run from anywhere in the
checkout.

`EQUIVALENT` lists mutants that no test can kill because they leave every
result unchanged, each with the argument why.  They are not run; each must
still apply exactly once, so the argument stays attached to today's code.
`tests/test_mutants.py` checks in the tier-1 run that every mutant of both
lists applies and names test files that exist.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/, original text, mutated text, test files)
MUTANTS = [
    # a ledger maximum whose argmax column drops by float rounding takes the
    # lower value instead of a rescan over the other agents
    (
        "update-maxima-no-rescan",
        "fairstream/metrics.py",
        """                        if r < d[i]:
                            self._rescan(i, k)
                        else:
                            d[i] = r
""",
        """                        d[i] = r
""",
        ["tests/test_metrics.py"],
    ),
    # the maxima skip a viewer whose new column is worth at most its EF1
    # maximum, and so miss an EF2 maximum between d2 and d1
    (
        "update-maxima-skip-below-d1",
        "fairstream/metrics.py",
        "            if theirs > d2[i] or a == g0[i]",
        "            if theirs > self._dmax[1][i] or a == g0[i]",
        ["tests/test_metrics.py"],
    ),
    # the warm share search ignores the low goods since the last read, so a
    # share that rose by low goods alone stays at its old value
    (
        "warm-range-no-low-term",
        "fairstream/model.py",
        "                    hi = mu + (h - h0) * alpha + (l - l0) * beta\n",
        "                    hi = mu + (h - h0) * alpha\n",
        ["tests/test_maximin_ledger.py"],
    ),
    # the deferred-priority auditor asks one good fewer of every agent from
    # step n on
    (
        "overall-frequency-floor-no-plus-one",
        "fairstream/deferred_priority.py",
        "least = (t - n) // (2 * n - 1) + 1 if t >= n else 0",
        "least = (t - n) // (2 * n - 1) if t >= n else 0",
        ["tests/test_golden_verdicts.py", "tests/test_deferred_priority.py"],
    ),
    # a ratio just below 1 is written as "1.0"
    (
        "ratio-text-one-below-den",
        "fairstream/metrics.py",
        '"1.0" if den <= 0 or num >= den else',
        '"1.0" if den <= 0 or num >= den - 1 else',
        ["tests/test_report_text.py"],
    ),
    # the interval -> proxy lift computes every ratio but never checks the
    # sqrt(alpha) transfer
    (
        "lift-transfer-silenced",
        "fairstream/reduction.py",
        "                if not _geq(float(oo[name]), float(pr) / scale):\n",
        "                if False:\n",
        ["tests/test_reduction.py"],
    ),
    # the exactness test keeps only plain ints, so bools and Fractions take
    # the float path
    (
        "exact-fast-path-int-only",
        "fairstream/metrics.py",
        "    return x.__class__ is not float and isinstance(x, _EXACT)\n",
        "    return x.__class__ is int\n",
        ["tests/test_numeric_policy.py"],
    ),
    # the lift certifies the original share from the agent's own bundle alone,
    # and so never checks it against a proxy share below seen / n
    (
        "lift-certificate-no-proxy-test",
        "fairstream/reduction.py",
        "if _gt(n * own_o, seen_o) and _gt(n * mu_p, seen_o):",
        "if _gt(n * own_o, seen_o):",
        ["tests/test_reduction.py"],
    ),
    # threshold rounding compares raw, so a value within REL_TOL above
    # sqrt(alpha) becomes proxy-high
    (
        "threshold-raw-compare",
        "fairstream/reduction.py",
        "high=[_gt(v, thresholds[i]) for i, v in enumerate(g.values)]",
        "high=[v > thresholds[i] for i, v in enumerate(g.values)]",
        ["tests/test_reduction.py"],
    ),
    # a ledger built before a step is never fed the goods assigned after it
    (
        "assign-no-ledger-feed",
        "fairstream/model.py",
        """        if self._pairwise is not None:
            self._pairwise.observe(event, agent)
""",
        "",
        ["tests/test_golden_lift.py", "tests/test_maximin_ledger.py",
         "tests/test_golden_reports.py"],
    ),
    # the maximin search cuts a branch whose bundles need exactly as many
    # goods as remain
    (
        "exhaustive-count-bound-off-by-one",
        "fairstream/metrics.py",
        "            if cut or cnt > m - idx:\n",
        "            if cut or cnt >= m - idx:\n",
        ["tests/test_metrics.py"],
    ),
    # on integers a bundle counts one good more than its gap needs
    (
        "exhaustive-count-bound-integer-plus-two",
        "fairstream/metrics.py",
        "                        cnt += d // v + 1\n",
        "                        cnt += d // v + 2\n",
        ["tests/test_metrics.py"],
    ),
    # the float value bound cuts at need > rem, with no REL_TOL margin, and
    # so loses a fold that rounds above the incumbent
    (
        "exhaustive-value-bound-no-margin",
        "fairstream/metrics.py",
        "need - rem > REL_TOL * max(1.0, best)",
        "need > rem",
        ["tests/test_metrics.py"],
    ),
    # the float margin scales with the need and the remaining value instead of
    # the incumbent, below one rounding of sums far above 1
    (
        "exhaustive-value-margin-of-the-gap",
        "fairstream/metrics.py",
        "need - rem > REL_TOL * max(1.0, best)",
        "need - rem > REL_TOL * max(1.0, need, rem)",
        ["tests/test_metrics.py"],
    ),
    # a cut on the smallest bundle plus every remaining good, with no margin
    (
        "exhaustive-lift-cut-no-margin",
        "fairstream/metrics.py",
        "        v = vals[idx]  # the largest remaining good, so v > 0\n",
        "        if low + rem <= best:\n"
        "            return\n"
        "        v = vals[idx]  # the largest remaining good, so v > 0\n",
        ["tests/test_metrics.py"],
    ),
    # the fold search values k highs as k * alpha, `mms_two_value`'s
    # convention, and so differs from the exhaustive oracle in the last bit
    (
        "fold-share-product-bases",
        "fairstream/metrics.py",
        "_split_share(h, l, list(accumulate([alpha] * h, initial=0)), beta, n, h)",
        "_split_share(h, l, [k * alpha for k in range(h + 1)], beta, n, h)",
        ["tests/test_metrics.py"],
    ),
    # the fold search returns a float share on exact values too
    (
        "fold-share-always-float",
        "fairstream/metrics.py",
        "    return cls(max(0, _split_share(h, l, list(accumulate(",
        "    return float(max(0, _split_share(h, l, list(accumulate(",
        ["tests/test_metrics.py"],
    ),
    # `mms_two_value` folds k highs left, the lift's convention, instead of
    # k * alpha, and so moves the last bit of some float shares
    (
        "split-share-fold-bases",
        "fairstream/metrics.py",
        "_split_share(h, l, [k * alpha for k in range(h + 1)], beta, n, cap)",
        "_split_share(h, l, list(accumulate([alpha] * h, initial=0 * alpha)), beta, n, cap)",
        ["tests/test_golden_shares.py"],
    ),
    # the direct envy graph credits each good to the viewer's own column, not
    # the recipient's, so no agent envies anyone
    (
        "envy-graph-viewer-column",
        "fairstream/metrics.py",
        "            val[i][owner] += value(state.profile(i), good, i)\n",
        "            val[i][i] += value(state.profile(i), good, i)\n",
        ["tests/test_metrics.py"],
    ),
    # the lift reads the ledger's EFk maxima on exact own values too, where
    # ratios of mixed class tie and the first j's class is the row's
    (
        "lift-ef-maxima-unguarded",
        "fairstream/reduction.py",
        "    if own.__class__ is float and tr.n > 1:\n",
        "    if tr.n > 1:\n",
        ["tests/test_golden_lift.py", "tests/test_reduction.py"],
    ),
    # the lift's EF1 ratio on a float own value reads the EF2 maximum
    (
        "lift-ef-wrong-k",
        "fairstream/reduction.py",
        "        return _ratio(own, dmax[k][i])\n",
        "        return _ratio(own, dmax[2 if k == 1 else k][i])\n",
        ["tests/test_golden_lift.py", "tests/test_reduction.py"],
    ),
    # the split search's cached table ignores the cap and holds every split
    (
        "partition-table-drops-cap",
        "fairstream/metrics.py",
        "    return tuple(_capped_partitions(h, n, cap))\n",
        "    return tuple(_capped_partitions(h, n, h))\n",
        ["tests/test_metrics.py"],
    ),
    # the deferred-priority auditor certifies a float share floor by a plain
    # >=, with no REL_TOL margin
    (
        "share-floor-raw-compare",
        "fairstream/deferred_priority.py",
        "            if lhs >= seen if exact else _floor_certified(lhs, seen):\n",
        "            if lhs >= seen:\n",
        ["tests/test_maximin_ledger.py"],
    ),
    # the deferred-priority auditor holds flat agents to 1/3 of their share
    # and zero-low agents to 1/2
    (
        "share-floor-factors-swapped",
        "fairstream/deferred_priority.py",
        "AgentType.TYPE2: 2, AgentType.TYPE3: 3}",
        "AgentType.TYPE2: 3, AgentType.TYPE3: 2}",
        ["tests/test_maximin_ledger.py"],
    ),
]

# (name, file under src/, original text, mutated text, reason)
EQUIVALENT = [
    (
        "exhaustive-count-two-only-above-the-gap",
        "fairstream/metrics.py",
        "                        cnt += 2 if d >= v else 1\n",
        "                        cnt += 2 if d > v else 1\n",
        "Counting one good where the original counts two only weakens the goods "
        "bound, and the original is exact there: a gap d == v is exact, so one "
        "good lifts the bundle to best at most and it needs two.  Both searches "
        "then return the largest leaf fold; only the number of nodes differs.",
    ),
]


def applies(rel, old) -> bool:
    """The original text occurs exactly once in its file under src/."""
    return (ROOT / "src" / rel).read_text().count(old) == 1


def run_mutant(name, rel, old, new, tests) -> str:
    """'killed', 'survived', 'error' or 'stale' (the original text is not
    found exactly once)."""
    if not applies(rel, old):
        return "stale"
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / rel
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    bad = 0
    for name, rel, old, new, tests in MUTANTS:
        t0 = time.perf_counter()
        verdict = run_mutant(name, rel, old, new, tests)
        bad += verdict != "killed"
        print(f"{verdict:8} {name} ({' '.join(tests)}, {time.perf_counter() - t0:.1f} s)")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    stale = 0
    for name, rel, old, new, reason in EQUIVALENT:
        ok = applies(rel, old) and bool(reason.strip())
        stale += not ok
        print(f"{'equiv' if ok else 'stale':8} {name}")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
