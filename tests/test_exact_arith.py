from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opnlab.constants import Precision, zeta_enclosure
from opnlab.errors import InvalidArgument
from opnlab.exact_arith import (
    Ordering3,
    RatInterval,
    as_rational,
    compare,
)

rationals = st.fractions(max_denominator=10**6)


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


def test_div_by_zeta3_encloses_reference_decimal():
    # 16/(7*zeta(3)) = 1.901502566 to ten digits
    z3 = zeta_enclosure(3, Precision(Fraction(1, 10**9)))
    c = Fraction(16, 7)
    ratio = RatInterval(c / z3.hi, c / z3.lo)
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

