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
        """                    if r < d[i]:
                        self._rescan(i, k)
                    else:
                        d[i] = r
""",
        """                    d[i] = r
""",
        ["tests/test_metrics.py"],
    ),
    # a ratio just below 1 is written as "1.0"
    (
        "ratio-text-one-below-den",
        "fairstream/metrics.py",
        '"1.0" if den <= 0 or num >= den else',
        '"1.0" if den <= 0 or num >= den - 1 else',
        ["tests/test_report_text.py"],
    ),
    # the direct removable value sums the bundle in sorted order, not in the
    # ledger's arrival order, and so differs from it in the last bit
    (
        "removable-value-sorted-sum",
        "fairstream/metrics.py",
        "    vals = [value(prof, state.goods_seen[idx - 1], viewer) for idx in state.bundles[owner - 1]]\n",
        "    vals = sorted([value(prof, state.goods_seen[idx - 1], viewer)\n"
        "                   for idx in state.bundles[owner - 1]], reverse=True)\n",
        ["tests/test_metrics.py"],
    ),
    # the interval -> proxy lift computes every ratio but never checks the
    # sqrt(alpha) transfer
    (
        "lift-transfer-silenced",
        "fairstream/reduction.py",
        "                if float(oo[name]) < float(pr) / scale - _EQ_RTOL:\n",
        "                if False:\n",
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
]


def run_mutant(name, rel, old, new, tests) -> str:
    """'killed', 'survived', 'error' or 'stale' (the original text is not
    found exactly once)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / rel
        text = path.read_text()
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new))
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
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
