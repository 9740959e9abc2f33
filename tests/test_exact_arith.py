import copy
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opnlab.abundancy import AbundancyReport, Classification
from opnlab.bound_tables import BoundTableRow
from opnlab.constants import zeta_enclosure
from opnlab.errors import InvalidArgument
from opnlab.exact_arith import (
    MAX_DECIMAL_EXPONENT,
    MAX_MANTISSA_LENGTH,
    RatInterval,
    Record,
    _fraction,
    _reduced_product,
    as_rational,
)
from opnlab.primes import Factorization
from opnlab.screener import Condition, Outcome, ScreenVerdict


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


def test_as_rational_reads_a_zero_padded_exponent_under_the_default_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        assert as_rational("1e-" + "0" * 5_000 + "5") == Fraction(1, 10**5)
        assert as_rational("2.5E+" + "0_" * 5_000 + "3 ") == 2500
        # an exponent Fraction would refuse is refused still, quoting the caller's text
        for text in ("1e-_5", "1e-5_", "1e-0__5"):
            with pytest.raises(InvalidArgument, match=f"not a rational: {text!r}"):
                as_rational(text)
        with pytest.raises(InvalidArgument):
            as_rational("1e-" + "0" * 5_000 + "_")
    finally:
        sys.set_int_max_str_digits(limit)


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


@given(st.fractions(), st.fractions())
def test_the_reduced_product_is_fractions_own(x, y):
    product = _reduced_product(x.numerator, x.denominator, y.numerator, y.denominator)
    assert type(product) is Fraction
    assert (product.numerator, product.denominator) == ((x * y).numerator, (x * y).denominator)
    assert hash(product) == hash(x * y) and product == pickle.loads(pickle.dumps(product))


@given(st.integers(min_value=0), st.integers(min_value=1))
def test_the_witness_helper_is_fractions_own(n, d):
    witness, expected = _fraction(n, d), Fraction(n, d)
    assert type(witness) is Fraction
    assert (witness.numerator, witness.denominator) == (expected.numerator, expected.denominator)
    assert hash(witness) == hash(expected)


def test_interval_validation():
    with pytest.raises(InvalidArgument):
        RatInterval(Fraction(2), Fraction(1))


def test_div_by_zeta3_encloses_reference_decimal():
    # 16/(7*zeta(3)) = 1.901502566 to ten digits
    z3 = zeta_enclosure(3, Fraction(1, 10**9))
    c = Fraction(16, 7)
    ratio = RatInterval(c / z3.hi, c / z3.lo)
    assert ratio.contains(Fraction("1.901502566"))


# each record type: its field names, then two valid value tuples that differ
# in every field
RECORDS = [
    (RatInterval, ("lo", "hi"), (Fraction(1, 3), Fraction(1, 2)), (Fraction(1, 4), Fraction(1))),
    (Factorization, ("factors",), (((3, 2), (5, 1)),), (((3, 2),),)),
    (
        ScreenVerdict,
        ("outcome", "violated_condition", "witness", "case_witnesses"),
        (Outcome.VIOLATES, Condition.ALPHA2_CASE1, Fraction(7, 3), (("case2", Fraction(7, 3)),)),
        (Outcome.CONSISTENT_SO_FAR, None, None, None),
    ),
    (
        AbundancyReport,
        ("n", "sigma", "sigma_minus_one", "classification"),
        (945, 1920, Fraction(128, 63), Classification.ABUNDANT),
        (28, 56, Fraction(2), Classification.PERFECT),
    ),
    (
        BoundTableRow,
        ("m", "p_I1", "p_I2", "p_I3", "perisastri"),
        (9, 11, 31, 509, 9),
        (10, 13, 37, 593, 12),
    ),
]


@pytest.mark.parametrize("cls, names, values, other", RECORDS)
def test_a_record_refuses_assignment_and_deletion(cls, names, values, other):
    record = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*values)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other", RECORDS)
def test_records_compare_and_hash_by_their_fields(cls, names, values, other):
    record = cls(*values)
    twin = cls(**dict(zip(names, values)))
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert cls.__match_args__ == names
    for i in range(len(names)):
        changed = cls(*values[:i], other[i], *values[i + 1 :])
        assert changed != record and not changed == record
    assert record != values and record != object()
    # hashed as its fields' tuple and pickled as (type, fields)
    assert hash(record) == hash(values) and record.__reduce__() == (cls, values)
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is cls and copied == record == copy.deepcopy(record)
    assert repr(copied) == repr(record)


@pytest.mark.parametrize("cls, names, values, other", RECORDS)
def test_a_record_shows_its_fields(cls, names, values, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_the_record_table_covers_every_record_type():
    # so the tests above run over every Record subclass
    assert {cls for cls, *_ in RECORDS} == set(Record.__subclasses__())


def test_a_factorization_computes_n_once_and_compares_without_it():
    f, g = Factorization(((3, 40), (5, 1))), Factorization(((3, 40), (5, 1)))
    assert f.n == 5 * 3**40 and f.n is f.n
    assert f == g and hash(f) == hash(g)  # g has not computed n
    assert repr(f) == repr(g) == "Factorization(factors=((3, 40), (5, 1)))"
