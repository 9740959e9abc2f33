import functools
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnlab import constants
from opnlab.constants import (
    DEFAULT_WIDTH,
    below,
    pi_enclosure,
    threshold_enclosure,
    zeta_enclosure,
)
from opnlab.errors import InvalidArgument, PrecisionCapExceeded
from opnlab.exact_arith import RatInterval
from oracles import (
    arctan_inv,
    crvz_zeta,
    dirichlet_zeta,
    machin_pi,
    oracle_side,
    oracle_threshold,
)

# published 50-digit value, used in tests only as an independent check
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937510")
ZETA2_LITERAL = Fraction("1.644934")
ALPHA1_REF = Fraction("1.621138938")
ALPHA2_REF = Fraction("1.901502566")


def width(x) -> Fraction:
    return Fraction(x) if not isinstance(x, Fraction) else x


def test_width_validation_at_every_enclosure_entry():
    entries = (
        functools.partial(threshold_enclosure, 1),
        pi_enclosure,
        functools.partial(zeta_enclosure, 2),
    )
    for entry in entries:
        for bad in (0, Fraction(-1, 2), 1.5):
            with pytest.raises(InvalidArgument):
                entry(bad)
        # a width is a plain rational: a string parses like its Fraction
        assert entry("1e-30") == entry(Fraction(1, 10**30))


def test_zeta_examples():
    z2 = zeta_enclosure(2, Fraction(1, 10**6))
    assert z2.width() <= Fraction(1, 10**6)
    assert z2.contains(ZETA2_LITERAL)

    coarse = zeta_enclosure(2, Fraction(1))
    assert coarse.width() <= 1
    assert coarse.contains(ZETA2_LITERAL)

    z3 = zeta_enclosure(3, Fraction(1, 10**9))
    assert z3.width() <= Fraction(1, 10**9)
    assert z3.contains(Fraction("1.202056903"))


def test_zeta_rejects_bad_arguments():
    with pytest.raises(InvalidArgument):
        zeta_enclosure(1, Fraction(1))
    with pytest.raises(InvalidArgument):
        zeta_enclosure("2", Fraction(1))


class _Index:
    """An integer-like value that only supports __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_enclosures_coerce_integer_like_arguments():
    w = Fraction(1, 10**6)
    assert threshold_enclosure(_Index(2), w) == threshold_enclosure(2, w)
    assert zeta_enclosure(_Index(3), w) == zeta_enclosure(3, w)
    # a huge integer is quoted by its head and digit count: one short line
    big, huge = 10**5000, "1" + "0" * 99 + "... (5001 digits)"
    for call, message in [
        (lambda: threshold_enclosure(-big, w), f"alpha must be an integer >= 1, got -{huge}"),
        (lambda: zeta_enclosure(-big, w), f"s must be an integer >= 2, got -{huge}"),
        (lambda: threshold_enclosure(1, -big), f"target width must be > 0, got -{huge}"),
        (lambda: pi_enclosure(Fraction(-big, 3)), f"target width must be > 0, got -{huge}/3"),
        (lambda: RatInterval(big, 0), f"interval endpoints out of order: {huge} > 0"),
        (
            lambda: RatInterval(Fraction(1, 3), Fraction(1, 4)),
            "interval endpoints out of order: 1/3 > 1/4",
        ),
        (lambda: threshold_enclosure(2.0, w), "alpha must be an integer >= 1, got 2.0"),
        (lambda: zeta_enclosure(3.0, w), "s must be an integer >= 2, got 3.0"),
    ]:
        with pytest.raises(InvalidArgument) as info:
            call()
        assert str(info.value) == message and len(message) < 250


def test_zeta_thresholds_reach_default_width_quickly():
    z2 = zeta_enclosure(2, DEFAULT_WIDTH)
    assert z2.width() <= DEFAULT_WIDTH
    assert z2.encloses(crvz_zeta(2, DEFAULT_WIDTH / 10**6))
    constants._bracket.cache_clear()  # time the builds, not the memo
    start = time.perf_counter()
    for alpha in range(2, 7):
        assert threshold_enclosure(alpha, DEFAULT_WIDTH).width() <= DEFAULT_WIDTH
    assert time.perf_counter() - start < 0.05


def test_zeta_brackets_nest_as_width_shrinks():
    prev = zeta_enclosure(2, Fraction(1, 10))
    for exp in (2, 4, 6, 8):
        cur = zeta_enclosure(2, Fraction(1, 10**exp))
        assert prev.encloses(cur)
        prev = cur


@pytest.mark.parametrize("exponent", [9, 12])
def test_brackets_intersect_the_dirichlet_and_machin_oracles(exponent):
    w = Fraction(1, 10**exponent)
    p = machin_pi(w)
    assert p.width() <= w
    assert _intersect(pi_enclosure(w), p)
    assert _intersect(threshold_enclosure(1, w), RatInterval(16 / p.hi**2, 16 / p.lo**2))
    for s in (3, 4, 5):
        # n^-s bounds the Dirichlet bracket's width
        z = dirichlet_zeta(s, math.ceil(10 ** (exponent / s)))
        assert z.width() <= w
        assert _intersect(zeta_enclosure(s, w), z)
        c = Fraction(2 ** (s + 1), 2**s - 1)
        assert _intersect(threshold_enclosure(s - 1, w), RatInterval(c / z.hi, c / z.lo))


def _intersect(a: RatInterval, b: RatInterval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def test_pi_enclosure_widths():
    for target in (Fraction(10), Fraction(1, 100), Fraction(1, 10**10), Fraction(1, 10**30)):
        iv = pi_enclosure(target)
        assert iv.width() <= target
        assert iv.contains(PI_50)


def test_pi_enclosure_centimeter_window():
    iv = pi_enclosure(Fraction(1, 100))
    assert iv.lo >= Fraction("3.14")
    assert iv.hi <= Fraction("3.15")


def test_zeta2_and_pi_squared_over_six_overlap():
    # both brackets contain zeta(2), so they must intersect at every width
    for exp in (1, 3, 6, 9):
        z = zeta_enclosure(2, Fraction(1, 10**exp))
        p = pi_enclosure(Fraction(1, 10**exp))
        pi2_over_6 = RatInterval(p.lo * p.lo / 6, p.hi * p.hi / 6)
        assert z.lo <= pi2_over_6.hi and pi2_over_6.lo <= z.hi


def test_threshold_reference_decimals():
    t1 = threshold_enclosure(1, Fraction(1, 10**8))
    assert t1.contains(ALPHA1_REF)
    t2 = threshold_enclosure(2, Fraction(1, 10**8))
    assert t2.contains(ALPHA2_REF)


def test_threshold_refine_halves_and_nests():
    t = threshold_enclosure(1, Fraction(1, 10**8))
    for _ in range(5):
        r = threshold_enclosure(1, t.width() / 2)
        assert r.width() <= t.width() / 2
        assert t.encloses(r)
        t = r
    # still pinned to the same constant after refinement
    assert t.contains(Fraction("1.62113893827740434310"))

    t2 = threshold_enclosure(2, Fraction(1, 10**8))
    r2 = threshold_enclosure(2, t2.width() / 2)
    assert r2.width() <= t2.width() / 2
    assert t2.encloses(r2)


def test_refined_threshold_keeps_reference_decimal():
    t = threshold_enclosure(1, Fraction(1, 10**8))
    assert threshold_enclosure(1, t.width() / 2).contains(ALPHA1_REF)


def test_thresholds_live_inside_unit_band():
    for alpha in range(1, 12):
        t = threshold_enclosure(alpha, Fraction(1, 10**6))
        assert t.lo > 1
        assert t.hi < 2


def test_coarse_threshold_still_inside_band():
    t = threshold_enclosure(1, Fraction(1))
    assert 1 < t.lo <= t.hi < 2


def test_thresholds_strictly_increase_with_alpha():
    prev = threshold_enclosure(1, Fraction(1, 10**6))
    for alpha in range(2, 12):
        cur = threshold_enclosure(alpha, Fraction(1, 10**6))
        assert cur.lo > prev.hi
        prev = cur


def test_threshold_validation():
    with pytest.raises(InvalidArgument):
        threshold_enclosure(0, Fraction(1))


def test_zeta_backed_threshold_reaches_1e_1000_quickly():
    w = Fraction(1, 10**1000)
    constants._bracket.cache_clear()
    start = time.perf_counter()
    t = threshold_enclosure(2, w)
    assert time.perf_counter() - start < 1.0
    assert t.width() <= w
    assert t.encloses(oracle_threshold(2, w / 10**6))
    # the cap now stops only a series of more than 10^6 terms
    for alpha in (1, 2):
        with pytest.raises(PrecisionCapExceeded):
            threshold_enclosure(alpha, Fraction(1, 2**5_000_000))


def test_default_threshold_widths():
    assert threshold_enclosure(1).width() <= DEFAULT_WIDTH
    assert threshold_enclosure(2).width() <= Fraction(1, 10**9)


def _dyadic_bits(q: Fraction) -> int:
    d = q.denominator
    assert d & (d - 1) == 0, f"{q} is not dyadic"
    return d.bit_length() - 1


def test_comparison_brackets_are_short_dyadic_and_sound():
    for alpha in range(1, 13):
        target = DEFAULT_WIDTH
        iv, prev = threshold_enclosure(alpha), None
        for _ in range(6):
            w = iv.width()
            assert w <= target
            for end in (iv.lo, iv.hi):
                # at most log2(1/w) + 8 bits
                assert w * Fraction(2) ** (_dyadic_bits(end) - 8) <= 1
            assert 1 < iv.lo and iv.hi < 2
            if prev is not None:
                assert prev.encloses(iv)
            # rounded outward from the symmetric enclosure at 3/4 of the target
            assert iv.encloses(threshold_enclosure(alpha, target * 3 / 4))
            assert iv.encloses(threshold_enclosure(alpha, w / 100))
            iv, prev, target = threshold_enclosure(alpha, w / 2), iv, w / 2


def test_certified_compare_decides_near_misses():
    # the midpoint of the default bracket is within a hair of the constant,
    # so that bracket cannot decide it; below must still come back decided
    for alpha in (1, 2):
        t = threshold_enclosure(alpha)
        q = t.midpoint()
        assert t.contains(q)
        side = below(q.numerator, q.denominator, alpha)
        assert isinstance(side, bool)
        assert side is oracle_side(q, alpha)


def test_certified_compare_fast_path():
    # a value the default bracket decides costs no new bracket
    threshold_enclosure(1)
    misses = constants._bracket.cache_info().misses
    assert below(3, 2, 1)
    assert not below(64, 35, 1)
    assert constants._bracket.cache_info().misses == misses


def test_decide_agrees_with_the_oracle_across_threads():
    mid = threshold_enclosure(1, Fraction(1, 10**60)).midpoint()
    # near misses at many distances, so threads need brackets of different widths
    misses = [mid + sign * Fraction(1, 10**j) for j in range(31, 51) for sign in (1, -1)]
    expected = [oracle_side(q, 1) for q in misses]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            constants._bracket.cache_clear()
            answers = [None] * len(misses)

            def work(start):
                for i in range(start, len(misses), 8):
                    answers[i] = below(misses[i].numerator, misses[i].denominator, 1)

            workers = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert answers == expected
    finally:
        sys.setswitchinterval(interval)


@functools.cache
def _near(alpha):
    # a dyadic rational within 2^-150 of the constant
    mid = oracle_threshold(alpha, Fraction(1, 2**160)).midpoint()
    return Fraction(round(mid * 2**150), 2**150)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.integers(40, 150),
    bits=st.integers(80, 140),
    offset=st.integers(-16, 16).filter(bool),
)
def test_decide_agrees_with_the_oracle_at_large_alpha(alpha, bits, offset):
    # the constant is about 2 - 2 * 3^-(alpha+1): from alpha 64 on, the
    # default bracket holds 2 too, so it does not lie inside (1, 2)
    q = _near(alpha) + Fraction(offset, 2**bits)
    assert below(q.numerator, q.denominator, alpha) is oracle_side(q, alpha)


def test_a_near_miss_builds_few_brackets():
    # below doubles the bracket's bits: from 101, five brackets reach 1616
    # bits, past the 997 that 1e-300 needs; one bit per step would take ~900
    for alpha in (1, 2):
        c = threshold_enclosure(alpha, Fraction(1, 10**400)).midpoint()
        fine = oracle_threshold(alpha, Fraction(1, 10**310))
        d = Fraction(1, 10**300)
        for q, side in ((c - d, True), (c + d, False)):
            constants._bracket.cache_clear()
            assert below(q.numerator, q.denominator, alpha) is side
            assert constants._bracket.cache_info().misses <= 5
            assert fine.side(q) is side


@functools.cache
def _short_near(alpha):
    # a short rational within 1e-15 of the constant keeps drawn points cheap
    mid = oracle_threshold(alpha, Fraction(1, 10**20)).midpoint()
    return Fraction(round(mid * 10**15), 10**15)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.sampled_from([1, 2]),
    offset=st.fractions(min_value=-1, max_value=1, max_denominator=10**10),
    g=st.integers(min_value=1, max_value=10**6),
)
def test_decide_agrees_with_a_fine_enclosure(alpha, offset, g):
    q = _short_near(alpha) + offset
    expected = oracle_side(q, alpha)
    # below takes unreduced pairs: a common factor must not matter
    assert below(q.numerator * g, q.denominator * g, alpha) is expected


def test_decide_near_the_alpha2_constant_gets_a_verdict():
    # within 1e-16 of 16/(7 zeta(3)) the Dirichlet bracket ran into the
    # series cap; every point here must now be decided
    c = threshold_enclosure(2, Fraction(1, 10**60)).midpoint()
    for j in range(16, 35):
        under, over = c - Fraction(1, 10**j), c + Fraction(1, 10**j)
        assert below(under.numerator, under.denominator, 2)
        assert not below(over.numerator, over.denominator, 2)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.integers(1, 8),
    exponent=st.integers(1, 79),
    mantissa=st.integers(10, 100),
)
def test_threshold_brackets_are_dyadic_nested_and_centred(alpha, exponent, mantissa):
    # widths from 1e-1 down to 1e-80, each followed by five refinements
    target = Fraction(mantissa, 10 ** (exponent + 2))
    iv, prev = threshold_enclosure(alpha, target), None
    for _ in range(6):
        w = iv.width()
        assert w <= target
        assert 1 < iv.lo and iv.hi < 2
        for end in (iv.lo, iv.hi):
            assert w * Fraction(2) ** (_dyadic_bits(end) - 8) <= 1
        if prev is not None:
            assert prev.encloses(iv)
        ref = oracle_threshold(alpha, w / 1000)
        assert iv.lo + w / 4 <= ref.lo and ref.hi <= iv.hi - w / 4
        iv, prev, target = threshold_enclosure(alpha, w / 2), iv, w / 2


# The scaled integer contracts every bracket rests on, checked directly:
# _centred keeps 16 grid units of slack, so a bracket test alone misses a
# contract rounded inward by one unit.  Each oracle bracket has width
# 2^-(p+12), so it lies within 2^-12 units of x * 2^p.
_CONTRACT_BITS = range(0, 161)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7])
def test_zeta_scaled_encloses_zeta(s):
    for p in _CONTRACT_BITS:
        lo, hi = constants._zeta_scaled(s, p)
        ref = crvz_zeta(s, Fraction(1, 2 ** (p + 12)))
        assert lo <= ref.lo * 2**p and ref.hi * 2**p <= hi and hi - lo <= 2, p


@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 6])
def test_threshold_scaled_encloses_the_threshold(alpha):
    for p in _CONTRACT_BITS:
        lo, hi = constants._threshold_scaled(alpha, p)
        ref = oracle_threshold(alpha, Fraction(1, 2 ** (p + 12)))
        assert lo <= ref.lo * 2**p and ref.hi * 2**p <= hi and hi - lo <= 4, p


@pytest.mark.parametrize("x", [2, 5, 57, 239])
def test_arctan_inv_scaled_encloses_the_arctangent(x):
    for k in _CONTRACT_BITS:
        v, e = constants._arctan_inv_scaled(x, k)
        ref = arctan_inv(x, Fraction(1, 2 ** (k + 12)))
        assert v - e < ref.lo * 2**k and ref.hi * 2**k < v + e, k
