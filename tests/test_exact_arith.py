from fractions import Fraction

import pytest

from opnlab.constants import zeta_enclosure
from opnlab.errors import InvalidArgument
from opnlab.exact_arith import MAX_DECIMAL_EXPONENT, RatInterval, as_rational


def test_as_rational_rejects_junk():
    with pytest.raises(InvalidArgument):
        as_rational("not a number")
    with pytest.raises(InvalidArgument):
        as_rational(1.5)
    # a decimal exponent past the bound is refused before 10^exponent is built
    for text in ("1e-60000000", "1E+60000000", "2.5e-2000001", "1e2_000_001", "1e" + "9" * 10_000):
        with pytest.raises(InvalidArgument, match=str(MAX_DECIMAL_EXPONENT)):
            as_rational(text)
    assert as_rational("1e-2_000") == Fraction(1, 10**2000)
    assert as_rational("3e000000000000000005") == 300000


def test_interval_validation():
    with pytest.raises(InvalidArgument):
        RatInterval(Fraction(2), Fraction(1))


def test_div_by_zeta3_encloses_reference_decimal():
    # 16/(7*zeta(3)) = 1.901502566 to ten digits
    z3 = zeta_enclosure(3, Fraction(1, 10**9))
    c = Fraction(16, 7)
    ratio = RatInterval(c / z3.hi, c / z3.lo)
    assert ratio.contains(Fraction("1.901502566"))

