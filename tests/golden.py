"""What the `test_golden_*.py` files share: the fixture path, SHA-256 and the
`--record` entry point that re-records a fixture when they run as scripts."""
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def expected(fixture: Path) -> dict:
    """The recorded cases of one fixture, read once per test session."""
    return json.loads(fixture.read_text())


def record(fixture: Path, cases, compute, indent=2):
    """With `--record` as the only argument, write `compute(case, tmp_dir)`
    for every case, in name order, to `fixture`; `tmp_dir` is one temporary
    directory for the whole recording."""
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as d:
        data = {case: compute(case, Path(d)) for case in sorted(cases)}
    fixture.write_text(json.dumps(data, indent=indent, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {fixture}")
