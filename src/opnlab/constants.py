"""Certified dyadic enclosures of pi, zeta(s), and the screening thresholds.

Every series is summed in integers scaled by 2^K, and each term's
truncation error is counted, so every bracket comes out with endpoints
that are multiples of 2^-K.  pi comes from Machin's formula
pi = 16*atan(1/5) - 4*atan(1/239), each arctangent an alternating series
of exact floors.  zeta(s) for integer s >= 2 is eta(s) / (1 - 2^(1-s)),
with the alternating eta series summed by Algorithm 1 of Cohen, Rodriguez
Villegas and Zagier, "Convergence acceleration of alternating series"
(2000), whose error after n terms is at most eta(s) / d_n for an integer
d_n > (3+sqrt 8)^n / 2.

A screening threshold is 2^(a+2) / (zeta(a+1) * (2^(a+1)-1)).  For a = 1
this equals 16/pi^2 and is built from the pi enclosure; for a >= 2 it is
built from the zeta enclosure.  ``_threshold_ends(alpha, width)`` is the
one validated entry to a threshold bracket at a requested width: it returns
the bracket's grid integers (lo, hi, bits), ``threshold_enclosure`` wraps
them in a ``RatInterval``, and ``opnlab constants`` prints them directly, so
the bracket the CLI prints is the one every comparison uses.  It and the
zeta bracket are mid +- 2^-j, mid on the grid 2^-(j+4), so their endpoints
need about log2(1/width) + 5 bits, and the constant lies nearly half a width
inside each end.  A width is a plain rational (an int, a ``Fraction`` or a
numeric string), coerced and checked once, by ``_target_bits``.

The enclosure functions are pure: each call computes its bracket from the
series, so ``threshold_enclosure`` at a given width always returns the same
endpoints.  The threshold brackets come from one builder, ``_bracket``,
memoized in a bounded cache, so the radical screen and the bound tables
compare against brackets built once per process.  Inside this module every
bracket is a pair of integers on its own dyadic grid: ``_bracket(alpha, j)``
is (lo, hi) on 2^-(j+4), and a threshold is composed from the integer
outputs of the pi and zeta series, never from a ``Fraction``.  A
``RatInterval`` is built only at the public entries ``pi_enclosure``,
``zeta_enclosure`` and ``threshold_enclosure``.  ``below`` takes an
unreduced integer pair (num, den) and tests num * 2^(j+4) against lo * den
and hi * den, so a compared value is never reduced by a gcd.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import InvalidArgument, PrecisionCapExceeded, _ratio
from .exact_arith import RatInterval, as_index, as_rational

SERIES_TERM_CAP = 10**6
DEFAULT_WIDTH = Fraction(1, 10**30)


def _target_bits(width) -> int:
    """Least k >= 0 with 2^-k <= the target width, a rational > 0."""
    w = as_rational(width)
    if w <= 0:
        raise InvalidArgument(f"target width must be > 0, got {_ratio(w)}")
    return (-(-w.denominator // w.numerator) - 1).bit_length()


def _check_terms(what: str, terms: int) -> None:
    if terms > SERIES_TERM_CAP:
        raise PrecisionCapExceeded(f"{what} needs more than {SERIES_TERM_CAP} series terms")


def _centred(scaled, j: int) -> tuple[int, int]:
    """Bracket mid +- 2^-j of a constant x, as the integer ends
    (mid - 16, mid + 16) on the grid 2^-(j+4).

    ``scaled(p)`` gives integers lo <= x * 2^p <= hi with hi - lo <= 4.  At
    p = j + 7 that encloses x to 2^-(j+5); its centre, floored to the grid,
    is mid, so x is within 5 * 2^-(j+6) of mid.  Each end keeps more than a
    quarter of the width 2^(1-j) as slack, and the bracket at j+1 lies
    inside the one at j.
    """
    lo, hi = scaled(j + 7)
    mid = (lo + hi) >> 4
    return mid - 16, mid + 16


def _dyadic(lo: int, hi: int, bits: int) -> RatInterval:
    """The bracket [lo, hi] / 2^bits, built at a public entry."""
    return RatInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def _zeta_scaled(s: int, p: int) -> tuple[int, int]:
    """Integers lo <= zeta(s) * 2^p <= hi with hi - lo <= 2.

    eta(s) * 2^k, k = p + 3, is summed by CRVZ Algorithm 1 in integers: d,
    b and c are the algorithm's integers (b_j are coefficients of a shifted
    Chebyshev polynomial, so each update divides exactly).  With
    n = ceil(2(k+1)/5) terms, d > (3+sqrt 8)^n / 2 > 2^(5n/2 - 1) >= 2^k,
    so the truncation error is below one unit; the n floors of the terms,
    divided by d, and the final floor add less than one more each, so
    eta(s) * 2^k lies in (v - 2, v + 2).  zeta = eta * r with
    r = 2^(s-1) / (2^(s-1) - 1) <= 2, so the width is below 4r/8 + 2.
    """
    k = p + 3
    n = -(-2 * (k + 1) // 5)
    _check_terms(f"zeta({s}) to {k} bits", n)
    d_prev, d = 1, 3
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, total = -1, -d, 0
    for j in range(n):
        c = b - c
        total += (c << k) // (j + 1) ** s
        b = b * 2 * (j + n) * (j - n) // ((2 * j + 1) * (j + 1))
    v = total // d + 1
    r_num, r_den = 2 ** (s - 1), 8 * (2 ** (s - 1) - 1)
    return (v - 2) * r_num // r_den, -(-(v + 2) * r_num // r_den)


def zeta_enclosure(s: int, width) -> RatInterval:
    """Certified dyadic bracket of zeta(s) for integer s >= 2, width <= the target."""
    s = as_index(s, "s", 2)
    j = _target_bits(width) + 1
    return _dyadic(*_centred(functools.partial(_zeta_scaled, s), j), j + 4)


def _arctan_inv_scaled(x: int, k: int) -> tuple[int, int]:
    """(v, e) with |arctan(1/x) * 2^k - v| < e.

    Each term floor(2^k / ((2i+1) x^(2i+1))) is an exact floor and loses
    less than one unit; the alternating tail is below its first term,
    which is below one unit when the loop stops.
    """
    power = (1 << k) // x
    total = i = 0
    while power:
        term = power // (2 * i + 1)
        total += -term if i & 1 else term
        power //= x * x
        i += 1
    return total, i + 1


def _machin(bits: int) -> tuple[int, int, int]:
    """(v, e, k) with |pi * 2^k - v| < e and 2e <= 2^(k - bits), by Machin's formula."""
    # the counted error 16*ea + 4*eb is below 4k + 30 units, as ea < k/4.6 + 2
    # and eb < k/15.8 + 2; these guard bits keep twice it below 2^(k - bits)
    k = bits + bits.bit_length() + 8
    # 5^(2i+1) > 2^(4i+2), so atan(1/5) takes fewer than k/4 + 1 terms
    _check_terms(f"pi to {k} bits", k // 4 + 1)
    a, ea = _arctan_inv_scaled(5, k)
    b, eb = _arctan_inv_scaled(239, k)
    return 16 * a - 4 * b, 16 * ea + 4 * eb, k


def pi_enclosure(width) -> RatInterval:
    """Certified dyadic bracket of pi via Machin's formula, width <= the target."""
    v, e, k = _machin(_target_bits(width))
    return _dyadic(v - e, v + e, k)


def _threshold_scaled(alpha: int, p: int) -> tuple[int, int]:
    """Integers lo <= threshold * 2^p <= hi with hi - lo <= 4.

    The threshold is n / (d * x^e) for x = pi (alpha 1) or zeta(alpha+1).
    Near pi, 16/x^2 stretches widths by 32/pi^3 < 1.04; for alpha >= 2,
    n/d <= 16/7 and zeta > 1, so n/(d x) stretches them by less than 2.3.
    The brackets [lo, hi] / 2^g of x below, pi to 2^-(p+1) and zeta(alpha+1)
    to 2^-(p+2), keep the stretched width under one unit, and the outward
    floor and ceiling add less than two.  They stay unreduced integers, so
    threshold * 2^p lies in n 2^(p+g e) / (d [hi, lo]^e).
    """
    if alpha == 1:
        v, err, g = _machin(p + 1)
        lo, hi, n, d, e = v - err, v + err, 16, 1, 2
    else:
        lo, hi = _centred(functools.partial(_zeta_scaled, alpha + 1), p + 3)
        g, n, d, e = p + 7, 2 ** (alpha + 2), 2 ** (alpha + 1) - 1, 1
    top = n << (p + g * e)
    return top // (d * hi**e), -(-top // (d * lo**e))


@functools.lru_cache(maxsize=64)
def _bracket(alpha: int, j: int) -> tuple[int, int]:
    """Threshold bracket mid +- 2^-j as its integer ends on the grid
    2^-(j+4); a table or a screen asks for few (alpha, j)."""
    return _centred(functools.partial(_threshold_scaled, alpha), j)


def _threshold_ends(alpha: int, width) -> tuple[int, int, int]:
    """(lo, hi, bits): the threshold bracket mid +- 2^-j as [lo, hi] / 2^bits,
    bits = j + 4, hi - lo = 32, width 2^(1-j) <= the target.

    j doubles past the target as needed so the bracket lies strictly
    inside (1, 2), however coarse the request or close to 2 the constant
    (about 2 - 2 * 3^-(alpha+1)); so 2^bits < lo < hi < 2^(bits+1).
    """
    alpha = as_index(alpha, "alpha", 1)
    j = _target_bits(width) + 1
    while True:
        lo, hi = _bracket(alpha, j)
        if 1 << (j + 4) < lo and hi < 2 << (j + 4):
            return lo, hi, j + 4
        j *= 2


def threshold_enclosure(alpha: int, width=DEFAULT_WIDTH) -> RatInterval:
    """Dyadic bracket mid +- 2^-j of the alpha threshold, strictly inside
    (1, 2), width 2^(1-j) <= the target; the bracket ``_threshold_ends`` gives."""
    return _dyadic(*_threshold_ends(alpha, width))


_DEFAULT_J = _target_bits(DEFAULT_WIDTH) + 1


def below(num: int, den: int, alpha: int) -> bool:
    """Whether num/den is certified below the alpha threshold; False means
    certified above, as the rational never equals the constant.

    num and den are ints with den > 0, not necessarily coprime, and alpha is
    an int >= 1; callers validate them, since this runs once per table probe
    and radical case.  Starts from the default-width bracket and doubles j
    until the bracket decides: each bracket encloses the constant, so any
    decided side is proven, and none need lie inside (1, 2).  num/den is
    rational and the constant irrational, so the walk ends unless the series
    cap is hit first; a near miss visits O(log) brackets, not one per bit.
    """
    j = _DEFAULT_J
    while True:
        lo, hi = _bracket(alpha, j)
        scaled = num << (j + 4)
        if scaled < lo * den:
            return True
        if scaled > hi * den:
            return False
        j *= 2
