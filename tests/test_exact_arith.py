from fractions import Fraction

import pytest

from opnlab.constants import Precision, zeta_enclosure
from opnlab.errors import InvalidArgument
from opnlab.exact_arith import RatInterval, as_rational


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

