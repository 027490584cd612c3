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

from fairstream.generators import interval_random
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
