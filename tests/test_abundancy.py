from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnlab.abundancy import (
    Classification,
    _truncated_pair,
    abundancy_report,
    sigma,
    sigma_minus_one,
    truncated_product,
)
from opnlab.bound_tables import _PREFIX
from opnlab.constants import zeta_enclosure
from opnlab.errors import InvalidArgument
from opnlab.exact_arith import RatInterval
from opnlab.primes import Factorization, factorize, primes_window
from oracles import geometric_split

EVEN_PERFECT = (6, 28, 496, 8128)


def divisor_sigma_oracle(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


small_primes = primes_window(1, 25)
factorizations = st.dictionaries(
    st.sampled_from(small_primes), st.integers(min_value=1, max_value=6), max_size=5
).map(lambda d: Factorization.from_pairs(d.items()))


def test_sigma_examples():
    assert sigma(factorize(6)) == 12
    assert sigma(factorize(945)) == divisor_sigma_oracle(945) == 1920
    assert sigma(Factorization(())) == 1


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=20000))
def test_sigma_matches_divisor_enumeration(n):
    assert sigma(factorize(n)) == divisor_sigma_oracle(n)


def test_sigma_minus_one_examples():
    assert sigma_minus_one(factorize(28)) == Fraction(2)
    assert sigma_minus_one(factorize(945)) == Fraction(128, 63)
    assert sigma_minus_one(Factorization(())) == Fraction(1)


@given(factorizations)
def test_sigma_minus_one_times_n_is_sigma(f):
    assert sigma_minus_one(f) * f.n == sigma(f)


@given(factorizations)
def test_abundancy_report_is_sigma_over_n(f):
    report = abundancy_report(f)
    assert (report.n, report.sigma) == (f.n, sigma(f))
    assert report.sigma_minus_one * report.n == report.sigma
    classes = {-1: Classification.DEFICIENT, 0: Classification.PERFECT, 1: Classification.ABUNDANT}
    excess = report.sigma - 2 * report.n
    assert report.classification is classes[(excess > 0) - (excess < 0)]


def test_perfect_numbers_hit_two_exactly():
    for n in EVEN_PERFECT:
        report = abundancy_report(factorize(n))
        assert report.sigma_minus_one == Fraction(2)
        assert report.classification is Classification.PERFECT


def test_classification_boundaries():
    assert abundancy_report(factorize(1)).classification is Classification.DEFICIENT
    assert abundancy_report(factorize(945)).classification is Classification.ABUNDANT
    assert abundancy_report(factorize(8128)).classification is Classification.PERFECT


def test_truncated_product_examples():
    assert truncated_product({3, 5, 7}, 1) == Fraction(64, 35)
    assert truncated_product({3, 5, 7}, 2) == Fraction(22971, 11025)
    assert truncated_product((), 1) == Fraction(1)


def test_truncated_product_brute_force():
    # independent route: sum the alpha+1 reciprocal powers term by term
    for alpha in (1, 2, 3):
        expected = Fraction(1)
        for p in (3, 7, 11, 13):
            expected *= sum(Fraction(1, p**i) for i in range(alpha + 1))
        assert truncated_product({3, 7, 11, 13}, alpha) == expected


def test_truncated_product_validation():
    with pytest.raises(InvalidArgument):
        truncated_product({3, 4}, 1)
    with pytest.raises(InvalidArgument):
        truncated_product([3, 3, 5], 1)
    with pytest.raises(InvalidArgument):
        truncated_product({3, 5}, 0)


def test_truncated_product_rejects_non_integral_primes():
    # 3.7 was once truncated to 3, giving 8/5
    with pytest.raises(InvalidArgument):
        truncated_product([3.7, 5], 1)
    with pytest.raises(InvalidArgument):
        truncated_product(["3", 5], 1)


class _Index:
    """An integer-like value that only supports __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_truncated_product_coerces_integer_like_alpha():
    assert truncated_product({3, 5, 7}, _Index(2)) == Fraction(22971, 11025)
    with pytest.raises(InvalidArgument, match="^alpha must be an integer"):
        truncated_product({3, 5, 7}, 2.0)


# small primes, primes near 2 * 10^6 and the Mersenne prime 2^61 - 1, so
# every closed form of the factor numerators meets multi-digit integers
_PAIR_PRIMES = primes_window(2, 40) + primes_window(148_900, 40) + [2**61 - 1]


@settings(max_examples=100, deadline=None)
@given(
    primes=st.lists(st.sampled_from(_PAIR_PRIMES), max_size=10, unique=True),
    h=st.integers(min_value=1, max_value=6),
    k=st.sampled_from(sorted(_PREFIX)),
)
def test_truncated_pair_equals_the_term_by_term_sum(primes, h, k):
    expected = Fraction(*_PREFIX[k])
    for p in primes:
        expected *= sum(Fraction(1, p**i) for i in range(h + 1))
    num, den = _truncated_pair(primes, h, *_PREFIX[k])
    assert den > 0 and Fraction(num, den) == expected


def test_geometric_split_examples():
    assert geometric_split(3, 4, 1)
    assert geometric_split(5, 0, 1)
    assert geometric_split(7, 6, 2)
    # cross-check the first case by hand: both sides equal sum_{k=0..5} 3^-k
    assert sum(Fraction(1, 3**k) for k in range(6)) == Fraction(364, 243)
    assert sigma_minus_one(factorize(3**5)) == Fraction(364, 243)
    assert truncated_product([3], 1) * (1 + Fraction(1, 9) + Fraction(1, 81)) == Fraction(364, 243)


@settings(deadline=None)
@given(p=st.sampled_from(small_primes), h=st.integers(0, 12), alpha=st.integers(1, 4))
def test_geometric_split_holds_for_the_library_sums(p, h, alpha):
    # sigma_{-1}(p^c) at the split's cutoff c is the alpha-truncated factor
    # times the block sum
    blocks = h // (alpha + 1)
    cutoff = (alpha + 1) * blocks + alpha
    block_sum = sum(Fraction(1, p ** (j * (alpha + 1))) for j in range(blocks + 1))
    assert geometric_split(p, h, alpha)
    assert sigma_minus_one(Factorization(((p, cutoff),))) == truncated_product([p], alpha) * block_sum


def test_truncation_of_perfect_numbers_is_sandwiched():
    # for n perfect with every exponent >= 1, the alpha=1 truncation sits in
    # (2/zeta(2), 2]: dropping the prime 2 requirement means the lower
    # threshold here is 2/zeta(2), and 2 is attained only when every
    # exponent equals 1 (n = 6)
    z2 = zeta_enclosure(2, Fraction(1, 10**6))
    lower = RatInterval(2 / z2.hi, 2 / z2.lo)
    for n in EVEN_PERFECT:
        f = factorize(n)
        assert sigma_minus_one(f) == 2
        value = truncated_product(f.radical, 1)
        assert value > lower.hi
        if n == 6:
            assert value == 2
        else:
            assert value < 2


@given(
    st.sets(st.sampled_from(small_primes), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_truncation_is_monotone_in_alpha(primes, alpha):
    lo = truncated_product(primes, alpha)
    hi = truncated_product(primes, alpha + 1)
    assert lo < hi
    f = Factorization.from_pairs((p, alpha + 1) for p in primes)
    assert hi <= sigma_minus_one(f)
    deeper = Factorization.from_pairs((p, alpha + 2) for p in primes)
    assert hi < sigma_minus_one(deeper)
