from fractions import Fraction

import pytest

from opnlab.constants import zeta_enclosure
from opnlab.errors import InvalidArgument
from opnlab.exact_arith import (
    MAX_DECIMAL_EXPONENT,
    MAX_MANTISSA_LENGTH,
    RatInterval,
    as_rational,
)


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


def test_as_rational_bounds_the_mantissa():
    # refused before parsing: at the exponent bound, a 130,000-digit mantissa
    # takes seconds to reduce
    too_long = (
        "0." + "7" * 130_000 + "e-2000000",
        "1" * (MAX_MANTISSA_LENGTH + 1),
        "1/" + "3" * (MAX_MANTISSA_LENGTH - 1),
    )
    for text in too_long:
        with pytest.raises(InvalidArgument, match=f"more than {MAX_MANTISSA_LENGTH}$"):
            as_rational(text)
    # an exponent past its bound is named first, whatever the mantissa
    with pytest.raises(InvalidArgument, match=str(MAX_DECIMAL_EXPONENT)):
        as_rational("7" * 130_000 + "e-60000000")
    # the longest mantissa parses; the exponent's own text does not count
    sevens = "7" * (MAX_MANTISSA_LENGTH - 2)
    assert as_rational("0." + sevens + "e-5") == Fraction(int(sevens), 10 ** (len(sevens) + 5))
    threes = "3" * (MAX_MANTISSA_LENGTH - 2)
    assert as_rational("1/" + threes) == Fraction(1, int(threes))


def test_interval_validation():
    with pytest.raises(InvalidArgument):
        RatInterval(Fraction(2), Fraction(1))


def test_div_by_zeta3_encloses_reference_decimal():
    # 16/(7*zeta(3)) = 1.901502566 to ten digits
    z3 = zeta_enclosure(3, Fraction(1, 10**9))
    c = Fraction(16, 7)
    ratio = RatInterval(c / z3.hi, c / z3.lo)
    assert ratio.contains(Fraction("1.901502566"))

