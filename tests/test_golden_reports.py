"""Golden digests of `fairstream run --granularity step` outputs.

Each case runs the CLI in-process and compares the SHA-256 of its trace CSV
and report CSV, and its exit code, with `fixtures/golden_reports.json`.  The
digests pin every report field byte for byte, so a change to the metrics
that alters a ratio, its type's formatting or an envy count fails here.

Re-record the fixture, only when a change is meant to alter outputs, with
`PYTHONPATH=src python tests/test_golden_reports.py --record`.
"""
from pathlib import Path

import pytest

from fairstream.cli import main
from golden import FIXTURES, expected, record, sha256

FIXTURE = FIXTURES / "golden_reports.json"

CASES = {
    "deferred-priority-n1": ["--alg", "deferred-priority", "--gen", "random-2value",
                             "--n", "1", "--m", "200", "--seed", "1"],
    "deferred-priority-n4": ["--alg", "deferred-priority", "--gen", "random-2value",
                             "--n", "4", "--m", "200", "--seed", "2"],
    "deferred-priority-n16": ["--alg", "deferred-priority", "--gen", "random-2value",
                              "--n", "16", "--m", "200", "--seed", "3"],
    # (int alpha, float beta) agents: agent 1's share prints 4 at t = 7 and
    # 4.0 at t = 8, so the class of each value is pinned too.
    "deferred-priority-n4-mixed": ["--alg", "deferred-priority", "--gen", "random-2value",
                                   "--n", "4", "--m", "200", "--seed", "9",
                                   "--profiles", "4:2.0,5:1.5,3:3,2.5:1"],
    "priority-matching-n3": ["--alg", "priority-matching", "--gen", "random-2value",
                             "--n", "3", "--m", "30", "--seed", "4", "--foresight", "2"],
    "priority-matching-n8": ["--alg", "priority-matching", "--gen", "random-2value",
                             "--n", "8", "--m", "64", "--seed", "5", "--foresight", "7"],
    "naive-matching-n2": ["--alg", "naive-matching", "--gen", "random-2value",
                          "--n", "2", "--m", "40", "--seed", "6", "--foresight", "1"],
    "round-robin-n1-float": ["--alg", "round-robin", "--gen", "random-2value",
                             "--n", "1", "--m", "60", "--profiles", "2.5:1"],
    "round-robin-n5-float-zero": ["--alg", "round-robin", "--gen", "random-2value",
                                  "--n", "5", "--m", "60", "--seed", "7",
                                  "--profiles", "2.5:1,5:1.5,1:1,1:0,0:0"],
    "greedy-welfare-interval-n3": ["--alg", "greedy-welfare", "--gen", "interval-random",
                                   "--n", "3", "--m", "16", "--seed", "8"],
}


def run_case(argv, tmp_dir: Path) -> dict:
    trace, report = tmp_dir / "trace.csv", tmp_dir / "report.csv"
    code = main(["run", *argv, "--granularity", "step", "--assert-guarantees",
                 "--trace-out", str(trace), "--report-out", str(report)])
    return {
        "exit": code,
        "trace_sha256": sha256(trace.read_bytes()),
        "report_sha256": sha256(report.read_bytes()),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_reports_match_golden_digests(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == expected(FIXTURE)[case]


if __name__ == "__main__":
    record(FIXTURE, CASES, lambda case, tmp_dir: run_case(CASES[case], tmp_dir))
