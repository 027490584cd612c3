"""The report's CSV text against the formatter it replaced.

`report_csv_rows` writes each ratio from the report's ledger quantities
through `_ratio_text`, which turns a ratio of two ints into text without a
`Fraction`.  The formatter below formats the report's exact ratios (its
`ef`, `ef1`, `ef2`, `prop` and `mms_ratio` properties) value by value, as
the CSV writer did before; it is the oracle the text must equal byte for
byte.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.baselines import GreedyWelfare
from fairstream.cli import main
from fairstream.deferred_priority import DeferredPriority
from fairstream.driver import run_online
from fairstream.generators import interval_random, random_two_value
from fairstream.metrics import (_ONE, REPORT_COLUMNS, ReportBuilder, _fmt, _ratio,
                                _ratio_text, report_csv_rows)
from fairstream.model import AllocationState

from test_metrics import random_states


def _fmt_oracle(x) -> str:
    """The CSV text of one report value, as the writer formatted it."""
    if x is _ONE:
        return "1.0"
    if isinstance(x, Fraction):
        return repr(x.numerator / x.denominator)
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def csv_rows_oracle(reports):
    out = [",".join(REPORT_COLUMNS)]
    for rep in reports:
        cols = zip(rep.ef, rep.ef1, rep.ef2, rep.prop, rep.mms_value, rep.mms_ratio)
        for i, (row, deg) in enumerate(zip(cols, rep.envy_out), 1):
            out.append(f"{rep.t},{i}," + ",".join(map(_fmt_oracle, row)) + f",{deg}")
    return out


def _step_reports(inst, owners):
    """A report after every step of the run that gives good t to owners[t - 1]."""
    builder = ReportBuilder(inst)
    state = AllocationState(inst)
    reports = [builder.report(state)]
    for g, o in zip(inst.goods, owners):
        state.assign(g, o)
        reports.append(builder.report(state))
    return reports


small_ints = st.integers(-4, 40)
numbers = st.one_of(
    small_ints,
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=50).filter(lambda f: abs(f) < 10 ** 6),
    st.floats(-1e6, 1e6),
)


@given(numbers, numbers)
@settings(max_examples=1000, deadline=None)
def test_ratio_text_equals_formatted_ratio(num, den):
    assert _ratio_text(num, den) == _fmt(_ratio(num, den)) == _fmt_oracle(_ratio(num, den))


@pytest.mark.parametrize("num, den", [
    (0, 0), (3, 0), (-3, 0), (2, -5), (0, 1), (1, 1), (2, 1), (-1, 2),
    (1, 2), (6, 7), (99, 100), (10 ** 20 - 1, 10 ** 20), (1, 3),
    (Fraction(1, 3), 1), (2, Fraction(7, 3)), (1, 3.0), (2.5, 3), (0, 0.0), (1.0, -2),
])
def test_ratio_text_at_and_around_one(num, den):
    """Just below 1 (num = den - 1) a ratio is a fraction, not "1.0"."""
    assert _ratio_text(num, den) == _fmt_oracle(_ratio(num, den))


@given(random_states(wide=True))
@settings(max_examples=200, deadline=None)
def test_report_csv_equals_oracle_on_random_runs(data):
    """Every step of a random run: integer and float 2-value profiles,
    interval values, and n = 1."""
    state, inst = data
    reports = _step_reports(inst, state.recipients)
    assert list(report_csv_rows(reports)) == csv_rows_oracle(reports)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_report_csv_equals_oracle_past_the_maximin_oracle(n):
    """Interval runs past 12 goods report no maximin share: empty fields."""
    for seed in range(20):
        inst = interval_random(n, 15, seed)
        rng = random.Random(seed)
        reports = _step_reports(inst, [rng.randint(1, n) for _ in inst.goods])
        assert reports[-1].mms_value == [None] * n
        assert list(report_csv_rows(reports)) == csv_rows_oracle(reports)


# 2-value profile pools for the long runs; an agent's pair is drawn from its pool
PROFILE_POOLS = {
    "int": [(5, 1), (2, 1), (6, 2), (9, 3)],
    "float": [(2.5, 1.0), (0.7, 0.1), (3.5, 0.5), (1.25, 1.0)],
    "mixed": [(4, 2.0), (5, 1.5), (3, 3), (2.5, 1), (7, 3)],
    "fraction": [(Fraction(5, 2), 1), (Fraction(7, 3), Fraction(1, 3)), (2, Fraction(1, 2)),
                 (Fraction(9, 4), Fraction(9, 4))],
    "flat": [(1, 1), (2, 2), (1.5, 1.5), (3, 3.0)],
    "zero-low": [(1, 0), (0, 0), (3, 0), (2.5, 0)],
}
# pools with shares that only the split search gives (not integers with
# beta | alpha, no zero value), which walks every split of the highs an agent
# has seen and water-fills the lows into each: their runs stop at n = 3 and
# draw fewer highs, to keep the test fast
SPLIT_SEARCH_POOLS = {"float", "mixed", "fraction"}


def _long_runs(seed, split_search=False):
    """(n, m, bias, rng) for n = 1..6 (1..3 with `split_search`), each run
    100 to 300 goods long."""
    rng = random.Random(seed)
    for n in range(1, 4 if split_search else 7):
        yield n, rng.randint(100, 300), 0.1 if split_search else 0.3, rng


@pytest.mark.parametrize("owners", ["deferred-priority", "random"])
@pytest.mark.parametrize("pool", sorted(PROFILE_POOLS))
def test_report_csv_equals_oracle_on_long_runs(pool, owners):
    """Runs of 100 to 300 steps, where most rows repeat their agent's EF and
    maximin inputs from the step before and the writer reuses their text: it
    must still equal the oracle row for row."""
    for n, m, bias, rng in _long_runs(f"{pool}-{owners}", pool in SPLIT_SEARCH_POOLS):
        inst = random_two_value(n, m, rng.randrange(10 ** 6), bias=bias,
                                profiles=PROFILE_POOLS[pool])
        if owners == "random":
            chosen = [rng.randint(1, n) for _ in inst.goods]
        else:
            chosen = run_online(DeferredPriority(), inst).choices
        reports = _step_reports(inst, chosen)
        assert list(report_csv_rows(reports)) == csv_rows_oracle(reports)


@pytest.mark.parametrize("owners", ["greedy-welfare", "random"])
def test_report_csv_equals_oracle_on_long_interval_runs(owners):
    """Interval runs far past 12 goods: maximin fields turn empty at t = 13
    while the EF text keeps being reused."""
    for n, m, _, rng in _long_runs(owners):
        inst = interval_random(n, m, rng.randrange(10 ** 6))
        if owners == "random":
            chosen = [rng.randint(1, n) for _ in inst.goods]
        else:
            chosen = run_online(GreedyWelfare(), inst).choices
        reports = _step_reports(inst, chosen)
        assert list(report_csv_rows(reports)) == csv_rows_oracle(reports)


def test_mixed_profile_share_text_follows_its_class(capsys):
    """On an (int alpha, float beta) profile the share is an int or a float by
    the split that attains it, and the CSV prints its class: 8 at t = 6 and
    8.0 at t = 7, with agent 1's own value unchanged in between."""
    code = main(["run", "--alg", "deferred-priority", "--gen", "random-2value",
                 "--profiles", "4:2.0", "--n", "2", "--m", "8", "--seed", "3",
                 "--granularity", "step"])
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    col = rows[0].index("mms_value")
    agent1 = [r[col] for r in rows[1:] if r[1] == "1"]
    assert agent1 == ["0", "2.0", "4", "6.0", "6.0", "8", "8.0", "10.0"]
