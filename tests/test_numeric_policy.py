"""The numeric helpers of `fairstream.metrics` against the expressions they
replaced.

Each oracle below is the earlier, separately kept form of a comparison:
the `isinstance` exactness tests without the float fast path, the threshold
rounding's `math.isclose` test and the lift's absolute transfer margin.  The
helpers must return the same value, of the same type, on ints, bools and
other int subclasses, `Fraction`s, floats, float subclasses and mixes.
"""
import enum
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fairstream.metrics import (REL_TOL, _ONE, _floor_certified, _geq, _gt, _is_exact,
                                _ratio)

_EXACT = (int, Fraction)


def old_is_exact(x):
    return isinstance(x, _EXACT)


def old_ratio(num, den):
    if isinstance(num, _EXACT) and isinstance(den, _EXACT):
        if den <= 0:
            return _ONE
        return Fraction(num, den) if num < den else _ONE
    if den <= 0:
        return 1.0
    return min(1.0, num / den)


def old_gt(a, b):
    if isinstance(a, _EXACT) and isinstance(b, _EXACT):
        return a > b
    return a - b > REL_TOL * max(1.0, abs(a), abs(b))


def old_geq(lhs, rhs):
    if isinstance(lhs, _EXACT) and isinstance(rhs, _EXACT):
        return lhs >= rhs
    return lhs >= rhs - REL_TOL * max(1.0, abs(lhs), abs(rhs))


def old_floor_certified(lhs, seen):
    if isinstance(lhs, _EXACT) and isinstance(seen, _EXACT):
        return lhs >= seen
    return old_gt(lhs, seen)


def old_above_threshold(v, thr):
    # the boundary value itself rounds down to sqrt(alpha)
    if math.isclose(v, thr, rel_tol=1e-9, abs_tol=1e-12):
        return False
    return v > thr


def old_transfer_violated(oo, pr, scale):
    return float(oo) < float(pr) / scale - 1e-9


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 5


class _Real(float):
    pass


_numbers = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False).map(_Real),
)


@st.composite
def _pairs(draw):
    """Two numbers, the second often within a few REL_TOL of the first."""
    a = draw(_numbers)
    if draw(st.booleans()):
        return a, draw(_numbers)
    b = float(a) * (1 + draw(st.integers(-30, 30)) * REL_TOL / 10) + \
        draw(st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10]))
    if draw(st.booleans()):
        b = math.nextafter(b, draw(st.sampled_from([math.inf, -math.inf])))
    return (a, b) if draw(st.booleans()) else (b, a)


def _same(got, want):
    return type(got) is type(want) and got == want and (want is not _ONE or got is _ONE)


@given(_numbers)
def test_is_exact_equals_isinstance(x):
    assert _is_exact(x) is old_is_exact(x)


def test_is_exact_keeps_int_subclasses_and_fractions():
    for x in (3, True, False, _Level.HIGH, Fraction(1, 3)):
        assert _is_exact(x)
    for x in (3.0, _Real(3.0), math.inf):
        assert not _is_exact(x)


@given(_pairs())
@settings(max_examples=400)
def test_ratio_equals_its_isinstance_form(pair):
    num, den = pair
    assert _same(_ratio(num, den), old_ratio(num, den))


@given(_pairs())
@settings(max_examples=400)
def test_comparisons_equal_their_isinstance_forms(pair):
    a, b = pair
    assert _gt(a, b) is old_gt(a, b)
    assert _geq(a, b) is old_geq(a, b)
    assert _floor_certified(a, b) is old_floor_certified(a, b)


def _nudge(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


_ALPHAS = [1.0 + 2 ** -40, 1.0001, 1.5, 2.0, 3.0, 4.0, 9.0, 10.0, 16.5, 100.0, 12345.678, 1e6]


def test_threshold_gt_equals_isclose_test_on_an_ulp_grid():
    """thr = sqrt(alpha) > 1, so the absolute tolerance of `math.isclose`
    never decides and `_gt` draws the same boundary."""
    checked = 0
    for alpha in _ALPHAS:
        thr = math.sqrt(alpha)
        for center in (thr, thr * (1 + 1e-9), thr * (1 - 1e-9), thr + 1e-9, thr - 1e-9,
                       thr * (1 + 5e-10), thr * (1 - 5e-10)):
            for k in range(-4, 5):
                v = _nudge(center, k)
                assert _gt(v, thr) is old_above_threshold(v, thr), (alpha, v)
                checked += 1
        for v in range(1, int(alpha) + 1):  # integer values in [1, alpha]
            assert _gt(v, thr) is old_above_threshold(v, thr), (alpha, v)
    assert checked == len(_ALPHAS) * 7 * 9


@given(st.floats(1.0, 1e6, exclude_min=True), st.floats(1.0, 1e6))
def test_threshold_gt_equals_isclose_test_on_random_values(alpha, v):
    thr = math.sqrt(alpha)
    for w in (v, thr * (v / alpha), _nudge(thr * (1 + 1e-9), int(v) % 7 - 3)):
        assert _gt(w, thr) is old_above_threshold(w, thr)


@given(st.one_of(st.floats(0.0, 1.0), st.fractions(0, 1, max_denominator=1000)),
       st.floats(1.0, 1e3, exclude_min=True), st.integers(-3, 3),
       st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 0.25, -0.25]))
@settings(max_examples=400)
def test_transfer_geq_equals_absolute_margin_on_unit_ratios(pr, scale, k, shift):
    """Both ratios lie in [0, 1], so the relative margin of `_geq` is
    REL_TOL * 1.0 = 1e-9 exactly."""
    rhs = float(pr) / scale
    oo = min(1.0, max(0.0, _nudge(rhs + shift, k)))
    for o in (oo, Fraction(oo)):
        assert (not _geq(float(o), float(pr) / scale)) is old_transfer_violated(o, pr, scale)
