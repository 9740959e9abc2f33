from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opnlab.constants import Precision, zeta_enclosure
from opnlab.errors import InvalidArgument, NonPositiveInterval
from opnlab.exact_arith import (
    Ordering3,
    RatInterval,
    as_rational,
    compare,
    interval_div_scalar,
)

rationals = st.fractions(max_denominator=10**6)
positive_rationals = st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=10**4
)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**4)


def make_interval(a: Fraction, b: Fraction) -> RatInterval:
    return RatInterval(min(a, b), max(a, b))


def test_as_rational_rejects_junk():
    with pytest.raises(InvalidArgument):
        as_rational("not a number")
    with pytest.raises(InvalidArgument):
        as_rational(1.5)


def test_interval_validation():
    with pytest.raises(InvalidArgument):
        RatInterval(Fraction(2), Fraction(1))


def test_interval_div_scalar_examples():
    assert interval_div_scalar(Fraction(16, 7), RatInterval(1, 2)) == RatInterval(
        Fraction(8, 7), Fraction(16, 7)
    )
    assert interval_div_scalar(1, RatInterval(1, 1)) == RatInterval(1, 1)
    with pytest.raises(NonPositiveInterval):
        interval_div_scalar(Fraction(0), RatInterval(1, 2))
    with pytest.raises(NonPositiveInterval):
        interval_div_scalar(1, RatInterval(0, 2))


def test_div_by_zeta3_encloses_reference_decimal():
    # 16/(7*zeta(3)) = 1.901502566 to ten digits
    z3 = zeta_enclosure(3, Precision(Fraction(1, 10**9)))
    ratio = interval_div_scalar(Fraction(16, 7), z3)
    assert ratio.contains(Fraction("1.901502566"))


def test_compare_examples():
    box = RatInterval(Fraction(8, 5), Fraction(13, 8))
    assert compare(Fraction(3, 2), box) is Ordering3.BELOW
    assert compare(Fraction(2), box) is Ordering3.ABOVE
    assert compare(Fraction(81, 50), box) is Ordering3.INDETERMINATE


@given(rationals, rationals, rationals)
def test_compare_is_exhaustive_and_exclusive(q, a, b):
    box = make_interval(a, b)
    side = compare(q, box)
    if q < box.lo:
        assert side is Ordering3.BELOW
    elif q > box.hi:
        assert side is Ordering3.ABOVE
    else:
        assert side is Ordering3.INDETERMINATE


@given(positive_rationals, positive_rationals, positive_rationals, unit_fractions)
def test_interval_div_soundness(c, b1, b2, u):
    b = make_interval(b1, b2)
    y = b.lo + u * b.width()
    assert interval_div_scalar(c, b).contains(c / y)
