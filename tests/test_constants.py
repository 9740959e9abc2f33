import functools
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opnlab import constants
from opnlab.constants import (
    DEFAULT_WIDTH,
    Precision,
    Threshold,
    certified_compare,
    decide,
    default_threshold,
    pi_enclosure,
    refine,
    threshold_enclosure,
    zeta_enclosure,
)
from opnlab.errors import InvalidArgument, PrecisionCapExceeded
from opnlab.exact_arith import Ordering3, RatInterval, compare

# published 50-digit value, used in tests only as an independent check
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937510")
ZETA2_LITERAL = Fraction("1.644934")
ALPHA1_REF = Fraction("1.621138938")
ALPHA2_REF = Fraction("1.901502566")


def width(x) -> Fraction:
    return Fraction(x) if not isinstance(x, Fraction) else x


# --- reference oracles, exact Fraction arithmetic, independent of the library


def dirichlet_zeta(s: int, n: int) -> RatInterval:
    """zeta(s) between the partial sum to n plus the two integral tail bounds

    (n+1)^(1-s)/(s-1) <= sum_{k>n} k^(-s) <= n^(1-s)/(s-1).
    """

    def partial(lo, hi):
        # pairwise split keeps intermediate denominators near lcm scale
        if lo == hi:
            return Fraction(1, lo**s)
        mid = (lo + hi) // 2
        return partial(lo, mid) + partial(mid + 1, hi)

    total = partial(1, n)
    return RatInterval(
        total + Fraction(1, (s - 1) * (n + 1) ** (s - 1)),
        total + Fraction(1, (s - 1) * n ** (s - 1)),
    )


def machin_pi(w: Fraction) -> RatInterval:
    """pi = 16 atan(1/5) - 4 atan(1/239), each alternating series stopped at
    its first term below w/32 (resp. w/8), which bounds its tail."""

    def atan_inv(x, max_err):
        total, k = Fraction(0), 0
        while True:
            term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
            if term <= max_err:
                return (total, total + term) if k % 2 == 0 else (total - term, total)
            total += term if k % 2 == 0 else -term
            k += 1

    a_lo, a_hi = atan_inv(5, w / 32)
    b_lo, b_hi = atan_inv(239, w / 8)
    return RatInterval(16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo)


def crvz_zeta(s: int, w: Fraction) -> RatInterval:
    """zeta(s) = eta(s) / (1 - 2^(1-s)), eta by Algorithm 1 of Cohen, Rodriguez
    Villegas and Zagier in exact Fractions; |eta - S_n| <= eta / d_n < 1 / d_n."""
    factor = 1 / (1 - Fraction(1, 2 ** (s - 1)))
    n, d_prev, d = 1, 1, 3
    while 2 * factor / d > w:
        n, d_prev, d = n + 1, d, 6 * d - d_prev
    b, c, total = Fraction(-1), Fraction(-d), Fraction(0)
    for k in range(n):
        c = b - c
        total += c / (k + 1) ** s
        b = b * (k + n) * (k - n) / (Fraction(2 * k + 1, 2) * (k + 1))
    eta = total / d
    return RatInterval((eta - Fraction(1, d)) * factor, (eta + Fraction(1, d)) * factor)


def oracle_threshold(alpha: int, w: Fraction) -> RatInterval:
    """Bracket of 2^(a+2) / (zeta(a+1) (2^(a+1)-1)) of width <= w."""
    if alpha == 1:  # 16 / pi^2; 16/x^2 stretches widths near pi by < 1.04
        p = machin_pi(w / 2)
        return RatInterval(16 / p.hi**2, 16 / p.lo**2)
    c = Fraction(2 ** (alpha + 2), 2 ** (alpha + 1) - 1)
    z = crvz_zeta(alpha + 1, w / c)  # zeta > 1, so c/zeta narrows the width
    return RatInterval(c / z.hi, c / z.lo)


def test_precision_validation():
    with pytest.raises(InvalidArgument):
        Precision(Fraction(0))
    with pytest.raises(InvalidArgument):
        Precision(Fraction(-1, 2))
    assert Precision("1e-30").target_width == Fraction(1, 10**30)


def test_zeta_examples():
    z2 = zeta_enclosure(2, Precision(Fraction(1, 10**6)))
    assert z2.width() <= Fraction(1, 10**6)
    assert z2.contains(ZETA2_LITERAL)

    coarse = zeta_enclosure(2, Precision(Fraction(1)))
    assert coarse.width() <= 1
    assert coarse.contains(ZETA2_LITERAL)

    z3 = zeta_enclosure(3, Precision(Fraction(1, 10**9)))
    assert z3.width() <= Fraction(1, 10**9)
    assert z3.contains(Fraction("1.202056903"))


def test_zeta_rejects_bad_arguments():
    with pytest.raises(InvalidArgument):
        zeta_enclosure(1, Precision(Fraction(1)))
    with pytest.raises(InvalidArgument):
        zeta_enclosure("2", Precision(Fraction(1)))


class _Index:
    """An integer-like value that only supports __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_enclosures_coerce_integer_like_arguments():
    w = Precision(Fraction(1, 10**6))
    assert threshold_enclosure(_Index(2), w) == threshold_enclosure(2, w)
    assert zeta_enclosure(_Index(3), w) == zeta_enclosure(3, w)
    with pytest.raises(InvalidArgument, match="^alpha must be an integer"):
        threshold_enclosure(2.0, w)
    with pytest.raises(InvalidArgument, match="^s must be an integer"):
        zeta_enclosure(3.0, w)


def test_zeta_thresholds_reach_default_width_quickly():
    z2 = zeta_enclosure(2, Precision(DEFAULT_WIDTH))
    assert z2.width() <= DEFAULT_WIDTH
    assert z2.encloses(crvz_zeta(2, DEFAULT_WIDTH / 10**6))
    start = time.perf_counter()
    for alpha in range(2, 7):
        assert threshold_enclosure(alpha, DEFAULT_WIDTH).enclosure.width() <= DEFAULT_WIDTH
    assert time.perf_counter() - start < 0.05


def test_zeta_brackets_nest_as_width_shrinks():
    prev = zeta_enclosure(2, Precision(Fraction(1, 10)))
    for exp in (2, 4, 6, 8):
        cur = zeta_enclosure(2, Precision(Fraction(1, 10**exp)))
        assert prev.encloses(cur)
        prev = cur


@pytest.mark.parametrize("exponent", [9, 12])
def test_brackets_intersect_the_dirichlet_and_machin_oracles(exponent):
    w = Fraction(1, 10**exponent)
    p = machin_pi(w)
    assert p.width() <= w
    assert _intersect(pi_enclosure(w), p)
    assert _intersect(threshold_enclosure(1, w).enclosure, RatInterval(16 / p.hi**2, 16 / p.lo**2))
    for s in (3, 4, 5):
        # n^-s bounds the Dirichlet bracket's width
        z = dirichlet_zeta(s, math.ceil(10 ** (exponent / s)))
        assert z.width() <= w
        assert _intersect(zeta_enclosure(s, w), z)
        c = Fraction(2 ** (s + 1), 2**s - 1)
        assert _intersect(threshold_enclosure(s - 1, w).enclosure, RatInterval(c / z.hi, c / z.lo))


def _intersect(a: RatInterval, b: RatInterval) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def test_pi_enclosure_widths():
    for target in (Fraction(10), Fraction(1, 100), Fraction(1, 10**10), Fraction(1, 10**30)):
        iv = pi_enclosure(Precision(target))
        assert iv.width() <= target
        assert iv.contains(PI_50)


def test_pi_enclosure_centimeter_window():
    iv = pi_enclosure(Precision(Fraction(1, 100)))
    assert iv.lo >= Fraction("3.14")
    assert iv.hi <= Fraction("3.15")


def test_zeta2_and_pi_squared_over_six_overlap():
    # both brackets contain zeta(2), so they must intersect at every width
    for exp in (1, 3, 6, 9):
        z = zeta_enclosure(2, Precision(Fraction(1, 10**exp)))
        p = pi_enclosure(Precision(Fraction(1, 10**exp)))
        pi2_over_6 = RatInterval(p.lo * p.lo / 6, p.hi * p.hi / 6)
        assert z.lo <= pi2_over_6.hi and pi2_over_6.lo <= z.hi


def test_threshold_reference_decimals():
    t1 = threshold_enclosure(1, Precision(Fraction(1, 10**8)))
    assert t1.enclosure.contains(ALPHA1_REF)
    t2 = threshold_enclosure(2, Precision(Fraction(1, 10**8)))
    assert t2.enclosure.contains(ALPHA2_REF)


def test_threshold_refine_halves_and_nests():
    t = threshold_enclosure(1, Precision(Fraction(1, 10**8)))
    for _ in range(5):
        r = refine(t)
        assert r.enclosure.width() <= t.enclosure.width() / 2
        assert t.enclosure.encloses(r.enclosure)
        t = r
    # still pinned to the same constant after refinement
    assert t.enclosure.contains(Fraction("1.62113893827740434310"))

    t2 = threshold_enclosure(2, Precision(Fraction(1, 10**8)))
    r2 = refine(t2)
    assert r2.enclosure.width() <= t2.enclosure.width() / 2
    assert t2.enclosure.encloses(r2.enclosure)


def test_refined_threshold_keeps_reference_decimal():
    t = threshold_enclosure(1, Precision(Fraction(1, 10**8)))
    assert refine(t).enclosure.contains(ALPHA1_REF)


def test_thresholds_live_inside_unit_band():
    for alpha in range(1, 12):
        t = threshold_enclosure(alpha, Precision(Fraction(1, 10**6)))
        assert t.enclosure.lo > 1
        assert t.enclosure.hi < 2


def test_coarse_threshold_still_inside_band():
    t = threshold_enclosure(1, Precision(Fraction(1)))
    assert 1 < t.enclosure.lo <= t.enclosure.hi < 2


def test_thresholds_strictly_increase_with_alpha():
    prev = threshold_enclosure(1, Precision(Fraction(1, 10**6)))
    for alpha in range(2, 12):
        cur = threshold_enclosure(alpha, Precision(Fraction(1, 10**6)))
        assert cur.enclosure.lo > prev.enclosure.hi
        prev = cur


def test_threshold_validation():
    with pytest.raises(InvalidArgument):
        threshold_enclosure(0, Precision(Fraction(1)))
    with pytest.raises(InvalidArgument):
        Threshold(1, RatInterval(Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(InvalidArgument):
        Threshold(1, RatInterval(Fraction(3, 2), Fraction(5, 2)))


def test_zeta_backed_threshold_reaches_1e_1000_quickly():
    w = Fraction(1, 10**1000)
    start = time.perf_counter()
    t = threshold_enclosure(2, w)
    assert time.perf_counter() - start < 1.0
    assert t.enclosure.width() <= w
    assert t.enclosure.encloses(oracle_threshold(2, w / 10**6))
    # the cap now stops only a series of more than 10^6 terms
    for alpha in (1, 2):
        with pytest.raises(PrecisionCapExceeded):
            threshold_enclosure(alpha, Fraction(1, 2**5_000_000))


def test_default_threshold_widths():
    assert default_threshold(1).enclosure.width() <= DEFAULT_WIDTH
    assert default_threshold(2).enclosure.width() <= Fraction(1, 10**9)


def _dyadic_bits(q: Fraction) -> int:
    d = q.denominator
    assert d & (d - 1) == 0, f"{q} is not dyadic"
    return d.bit_length() - 1


def test_comparison_brackets_are_short_dyadic_and_sound():
    for alpha in range(1, 13):
        target = DEFAULT_WIDTH
        t, prev = default_threshold(alpha), None
        for _ in range(6):
            iv = t.enclosure
            w = iv.width()
            assert w <= target
            for end in (iv.lo, iv.hi):
                # at most log2(1/w) + 8 bits
                assert w * Fraction(2) ** (_dyadic_bits(end) - 8) <= 1
            assert 1 < iv.lo and iv.hi < 2
            if prev is not None:
                assert prev.encloses(iv)
            # rounded outward from the symmetric enclosure at 3/4 of the target
            assert iv.encloses(threshold_enclosure(alpha, Precision(target * 3 / 4)).enclosure)
            assert iv.encloses(threshold_enclosure(alpha, Precision(w / 100)).enclosure)
            t, prev, target = refine(t), iv, w / 2


def test_certified_compare_decides_near_misses():
    # the midpoint of an enclosure is within a hair of the constant; the
    # comparison must still come back decided after refinement
    for alpha in (1, 2):
        t = threshold_enclosure(alpha, Precision(Fraction(1, 10**8)))
        q = t.enclosure.midpoint()
        side, refined = certified_compare(q, t)
        assert side in (Ordering3.BELOW, Ordering3.ABOVE)
        assert refined.enclosure.width() < t.enclosure.width()
        # the refined bracket certifies the answer
        if side is Ordering3.BELOW:
            assert q < refined.enclosure.lo
        else:
            assert q > refined.enclosure.hi


def test_certified_compare_fast_path():
    t = threshold_enclosure(1, Precision(Fraction(1, 10**8)))
    side, same = certified_compare(Fraction(3, 2), t)
    assert side is Ordering3.BELOW
    assert same is t
    side, same = certified_compare(Fraction(64, 35), t)
    assert side is Ordering3.ABOVE
    assert same is t


@pytest.fixture
def empty_store(monkeypatch):
    store = {}
    monkeypatch.setattr(constants, "_tightest", store)
    return store


def _near_miss(store, alpha):
    # a point a quarter width inside the current bracket, so decide must
    # refine; it sits at least 3/16 of the width from the constant (the
    # midpoint is within 1/16), so two halvings decide it
    iv = (store.get(alpha) or default_threshold(alpha)).enclosure
    q = iv.midpoint() + iv.width() / 4
    decide(q.numerator, q.denominator, alpha)


def test_store_keeps_one_narrowing_bracket_per_alpha(empty_store):
    for alpha in (1, 2):
        widths = []
        for _ in range(4):
            _near_miss(empty_store, alpha)
            widths.append(empty_store[alpha].enclosure.width())
        assert all(b < a for a, b in zip(widths, widths[1:]))
        # decided by the stored bracket at once: the store is left alone
        assert decide(3, 2, alpha) is Ordering3.BELOW
        assert decide(2, 1, alpha) is Ordering3.ABOVE
        assert empty_store[alpha].enclosure.width() == widths[-1]
    assert sorted(empty_store) == [1, 2]


def test_threshold_enclosure_ignores_the_store(empty_store):
    w = Fraction(1, 10**10)
    before = threshold_enclosure(2, w).enclosure
    while 2 not in empty_store or empty_store[2].enclosure.width() >= w / 100:
        _near_miss(empty_store, 2)
    after = threshold_enclosure(2, w).enclosure
    assert (after.lo, after.hi) == (before.lo, before.hi)


def test_store_never_loses_its_tightest_bracket_across_threads(empty_store, monkeypatch):
    reached = []

    def recording(num, den, t, _real=constants._decided):
        side, refined = _real(num, den, t)
        reached.append(refined.enclosure.width())
        return side, refined

    monkeypatch.setattr(constants, "_decided", recording)
    mid = threshold_enclosure(1, Fraction(1, 10**60)).enclosure.midpoint()
    # near misses at many distances, so threads refine to different widths
    misses = [mid + sign * Fraction(1, 10**j) for j in range(31, 51) for sign in (1, -1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            empty_store.clear()
            reached.clear()
            workers = [
                threading.Thread(
                    target=lambda qs=misses[i::8]: [
                        decide(q.numerator, q.denominator, 1) for q in qs
                    ]
                )
                for i in range(8)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert empty_store[1].enclosure.width() == min(reached)
    finally:
        sys.setswitchinterval(interval)


# fine enough to decide every offset the property below draws (>= 1e-10)
_FINE_WIDTH = {1: Fraction(1, 10**40), 2: Fraction(1, 10**12)}


@functools.cache
def _fine(alpha):
    iv = threshold_enclosure(alpha, _FINE_WIDTH[alpha]).enclosure
    # a short rational within 1e-15 of the constant keeps drawn points cheap
    return iv, Fraction(round(iv.midpoint() * 10**15), 10**15)


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.sampled_from([1, 2]),
    offset=st.fractions(min_value=-1, max_value=1, max_denominator=10**10),
    g=st.integers(min_value=1, max_value=10**6),
)
def test_decide_agrees_with_a_fine_enclosure(alpha, offset, g):
    fine, near = _fine(alpha)
    q = near + offset
    expected = compare(q, fine)
    assume(expected is not Ordering3.INDETERMINATE)
    # decide takes unreduced pairs: a common factor must not matter
    assert decide(q.numerator * g, q.denominator * g, alpha) is expected


def test_decide_near_the_alpha2_constant_gets_a_verdict(empty_store):
    # within 1e-16 of 16/(7 zeta(3)) the Dirichlet bracket ran into the
    # series cap; every point here must now be decided
    c = threshold_enclosure(2, Fraction(1, 10**60)).enclosure.midpoint()
    for j in range(16, 35):
        below, above = c - Fraction(1, 10**j), c + Fraction(1, 10**j)
        assert decide(below.numerator, below.denominator, 2) is Ordering3.BELOW
        assert decide(above.numerator, above.denominator, 2) is Ordering3.ABOVE


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.integers(1, 8),
    exponent=st.integers(1, 79),
    mantissa=st.integers(10, 100),
)
def test_threshold_brackets_are_dyadic_nested_and_centred(alpha, exponent, mantissa):
    # widths from 1e-1 down to 1e-80, each followed by five refinements
    target = Fraction(mantissa, 10 ** (exponent + 2))
    t, prev = threshold_enclosure(alpha, target), None
    for _ in range(6):
        iv = t.enclosure
        w = iv.width()
        assert w <= target
        assert 1 < iv.lo and iv.hi < 2
        for end in (iv.lo, iv.hi):
            assert w * Fraction(2) ** (_dyadic_bits(end) - 8) <= 1
        if prev is not None:
            assert prev.encloses(iv)
        ref = oracle_threshold(alpha, w / 1000)
        assert iv.lo + w / 4 <= ref.lo and ref.hi <= iv.hi - w / 4
        t, prev, target = refine(t), iv, w / 2
