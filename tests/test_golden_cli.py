"""Golden digests of the `fairstream` command itself, run as a subprocess.

Each case writes an instance file with `fairstream generate --out`, then runs
`fairstream run --instance FILE --granularity step --assert-guarantees`
twice: once with `--trace-out` and `--report-out`, once with the report on
stdout.  The SHA-256 of the instance file, the trace CSV, the report CSV and
the stdout bytes, and both exit codes, are compared with
`fixtures/golden_cli.json`.  This pins the bytes the command writes, not only
the rows the library builds.

Re-record the fixture, only when a change is meant to alter outputs, with
`PYTHONPATH=src python tests/test_golden_cli.py --record`.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairstream
from golden import FIXTURES, expected, record, sha256

FIXTURE = FIXTURES / "golden_cli.json"
SRC = str(Path(fairstream.__file__).resolve().parents[1])

CASES = {
    "deferred-priority-two-value-file": ["--alg", "deferred-priority", "--gen", "random-2value",
                                         "--n", "4", "--m", "120", "--seed", "11",
                                         "--profiles", "5:1,3:1,2.5:1,1:0"],
    "greedy-welfare-interval-file": ["--alg", "greedy-welfare", "--gen", "interval-random",
                                     "--n", "3", "--m", "14", "--seed", "12"],
}


def fairstream_cli(*argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "fairstream", *argv], env=env,
                          capture_output=True, timeout=120)


def run_case(argv, tmp_dir: Path) -> dict:
    alg, gen = argv[:2], argv[2:]
    inst, trace, report = tmp_dir / "inst.jsonl", tmp_dir / "trace.csv", tmp_dir / "report.csv"
    made = fairstream_cli("generate", *gen, "--out", str(inst))
    assert made.returncode == 0, made.stderr
    run = ["run", *alg, "--instance", str(inst), "--granularity", "step", "--assert-guarantees"]
    to_files = fairstream_cli(*run, "--trace-out", str(trace), "--report-out", str(report))
    to_stdout = fairstream_cli(*run)
    assert to_files.stderr == to_stdout.stderr == b""
    return {
        "exit": [to_files.returncode, to_stdout.returncode],
        "instance_sha256": sha256(inst.read_bytes()),
        "trace_sha256": sha256(trace.read_bytes()),
        "report_sha256": sha256(report.read_bytes()),
        "stdout_sha256": sha256(to_stdout.stdout),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden_digests(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == expected(FIXTURE)[case]


if __name__ == "__main__":
    record(FIXTURE, CASES, lambda case, tmp_dir: run_case(CASES[case], tmp_dir))
