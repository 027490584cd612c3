"""The committed mutant corpus still applies to today's code.

`scripts/mutants.py` runs each mutant's tests in a subprocess; this check
runs none.  It only asserts that every mutant's original text occurs exactly
once in its file, so that a change to `src` which moves a mutated line shows
here, and that the named test files exist and each equivalent mutant gives
its reason.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m[0] for m in mutants.MUTANTS + mutants.EQUIVALENT]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, rel, old, new, tests", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(name, rel, old, new, tests):
    assert mutants.applies(rel, old), f"{name}: original text not found exactly once in {rel}"
    assert old != new
    assert tests and all((ROOT / t).is_file() for t in tests), tests


@pytest.mark.parametrize("name, rel, old, new, reason", mutants.EQUIVALENT,
                         ids=[m[0] for m in mutants.EQUIVALENT])
def test_equivalent_mutant_applies_once_and_gives_a_reason(name, rel, old, new, reason):
    assert mutants.applies(rel, old), f"{name}: original text not found exactly once in {rel}"
    assert old != new
    assert reason.strip()
