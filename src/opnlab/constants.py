"""Certified rational enclosures of pi, zeta(s), and the screening thresholds.

zeta(s) for integer s >= 2 is bracketed by a Dirichlet partial sum plus the
two-sided integral tail bound

    (N+1)^(1-s)/(s-1)  <=  sum_{k>N} k^(-s)  <=  N^(1-s)/(s-1),

with N chosen so the bracket meets the requested width.  pi comes from
Machin's formula pi = 16*atan(1/5) - 4*atan(1/239), each arctangent an
alternating series whose truncation error is bounded by the first omitted
term.  Everything is exact rational arithmetic end to end.  The brackets
that ``threshold_enclosure`` returns (and ``opnlab constants`` prints) are
never rounded, so their endpoints carry the full size of the series sums.

A screening threshold is 2^(a+2) / (zeta(a+1) * (2^(a+1)-1)).  For a = 1
this equals 16/pi^2 and is built from the pi enclosure; for a >= 2 it is
built from the zeta enclosure.  Threshold intervals are re-centered to a
symmetric bracket so both sides carry comparable slack.

The brackets that comparisons use, from ``default_threshold`` and
``refine``, are rounded outward to multiples of 2^-k: only rounding outward
keeps them sound, and their endpoints then need about log2(1/width) + 4
bits, so comparing a product against one costs a short multiplication
whatever the size of the series sums behind it.

The enclosure functions are pure: each call computes its bracket from the
series, so ``threshold_enclosure`` at a given width always returns the same
endpoints.  The one bracket this module remembers is the tightest threshold
per alpha that ``decide`` has needed, the store that the radical screen and
the bound tables compare against.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgument, PrecisionCapExceeded
from .exact_arith import Ordering3, RatInterval, as_rational, compare, interval_div_scalar

SERIES_TERM_CAP = 10**6
DEFAULT_WIDTH = Fraction(1, 10**30)

# zeta-backed thresholds cannot reach DEFAULT_WIDTH under the term cap
# (the Dirichlet bracket narrows like N^-s), so alpha >= 2 starts coarser
# and relies on certified refinement.
DEFAULT_ZETA_THRESHOLD_WIDTH = Fraction(1, 10**9)


@dataclass(frozen=True)
class Precision:
    """Maximum allowed enclosure width (hi - lo)."""

    target_width: Fraction

    def __post_init__(self):
        object.__setattr__(self, "target_width", as_rational(self.target_width))
        if self.target_width <= 0:
            raise InvalidArgument(f"target width must be > 0, got {self.target_width}")


def _target_width(prec) -> Fraction:
    if isinstance(prec, Precision):
        return prec.target_width
    return Precision(as_rational(prec)).target_width


@dataclass(frozen=True)
class Threshold:
    """Enclosure of 2^(alpha+2) / (zeta(alpha+1) * (2^(alpha+1)-1))."""

    alpha: int
    enclosure: RatInterval

    def __post_init__(self):
        if self.alpha < 1:
            raise InvalidArgument(f"alpha must be >= 1, got {self.alpha}")
        if not (self.enclosure.lo > 1 and self.enclosure.hi < 2):
            raise InvalidArgument(
                f"threshold enclosure must lie strictly inside (1, 2), got {self.enclosure}"
            )


def _dirichlet_sum(s: int, lo: int, hi: int) -> Fraction:
    # pairwise split keeps intermediate denominators near lcm scale
    if lo == hi:
        return Fraction(1, lo**s)
    mid = (lo + hi) // 2
    return _dirichlet_sum(s, lo, mid) + _dirichlet_sum(s, mid + 1, hi)


def _zeta_bracket_ok(s: int, n: int, width: Fraction) -> bool:
    # bracket width = (n^(1-s) - (n+1)^(1-s)) / (s-1) <= width, cross-multiplied
    a, b = width.numerator, width.denominator
    lhs = b * ((n + 1) ** (s - 1) - n ** (s - 1))
    rhs = a * (s - 1) * n ** (s - 1) * (n + 1) ** (s - 1)
    return lhs <= rhs


def zeta_enclosure(s: int, prec) -> RatInterval:
    """Certified bracket of zeta(s) for integer s >= 2, width <= the target."""
    if not isinstance(s, int) or s < 2:
        raise InvalidArgument(f"zeta enclosure needs integer s >= 2, got {s!r}")
    width = _target_width(prec)
    if not _zeta_bracket_ok(s, SERIES_TERM_CAP, width):
        raise PrecisionCapExceeded(
            f"zeta({s}) at width {width} needs more than {SERIES_TERM_CAP} terms"
        )
    if _zeta_bracket_ok(s, 1, width):
        n = 1
    else:
        lo_n, hi_n = 1, 2
        while not _zeta_bracket_ok(s, hi_n, width):
            lo_n = hi_n
            hi_n = min(2 * hi_n, SERIES_TERM_CAP)
        while lo_n + 1 < hi_n:
            mid = (lo_n + hi_n) // 2
            if _zeta_bracket_ok(s, mid, width):
                hi_n = mid
            else:
                lo_n = mid
        n = hi_n

    partial = _dirichlet_sum(s, 1, n)
    tail_lo = Fraction(1, (s - 1) * (n + 1) ** (s - 1))
    tail_hi = Fraction(1, (s - 1) * n ** (s - 1))
    return RatInterval(partial + tail_lo, partial + tail_hi)


def _arctan_inv_enclosure(x: int, max_err: Fraction) -> RatInterval:
    """Bracket of arctan(1/x), alternating series, width <= max_err."""
    total = Fraction(0)
    k = 0
    sign = 1
    while True:
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
        if term <= max_err:
            # remainder has sign (-1)^k and magnitude <= this first omitted term
            if sign > 0:
                return RatInterval(total, total + term)
            return RatInterval(total - term, total)
        total += sign * term
        sign = -sign
        k += 1
        if k > SERIES_TERM_CAP:
            raise PrecisionCapExceeded(f"arctan(1/{x}) series exceeded {SERIES_TERM_CAP} terms")


def pi_enclosure(prec) -> RatInterval:
    """Certified bracket of pi via Machin's formula, width <= the target."""
    width = _target_width(prec)
    a = _arctan_inv_enclosure(5, width / 32)
    b = _arctan_inv_enclosure(239, width / 8)
    return RatInterval(16 * a.lo - 4 * b.hi, 16 * a.hi - 4 * b.lo)


def _threshold_raw(alpha: int, width: Fraction) -> RatInterval:
    if alpha == 1:
        # 16/pi^2; the map x -> 16/x^2 roughly preserves width near pi
        w_pi = width / 2
        while True:
            p = pi_enclosure(Precision(w_pi))
            raw = RatInterval(16 / (p.hi * p.hi), 16 / (p.lo * p.lo))
            if raw.width() <= width:
                return raw
            w_pi /= 2
    s = alpha + 1
    c = Fraction(2 ** (alpha + 2), 2 ** (alpha + 1) - 1)
    # zeta(s) > 1, so dividing c by the bracket shrinks the width
    z = zeta_enclosure(s, Precision(width / c))
    return interval_div_scalar(c, z)


def threshold_enclosure(alpha: int, prec=Precision(DEFAULT_WIDTH)) -> Threshold:
    """Threshold bracket for a given alpha, symmetric and width <= the target.

    The bracket is rebuilt tighter as needed so it always lies strictly
    inside (1, 2), however coarse the request.
    """
    if not isinstance(alpha, int) or alpha < 1:
        raise InvalidArgument(f"alpha must be an integer >= 1, got {alpha!r}")
    w = _target_width(prec)
    while True:
        raw = _threshold_raw(alpha, w / 8)
        mid = raw.midpoint()
        candidate = RatInterval(mid - w / 2, mid + w / 2)
        if candidate.lo > 1 and candidate.hi < 2:
            return Threshold(alpha, candidate)
        w /= 2


def _dyadic_threshold(alpha: int, width: Fraction) -> Threshold:
    """Threshold bracket of width <= width, endpoints multiples of 2^-k.

    The symmetric enclosure at 3/4 of the width is rounded outward to the
    grid 2^-k <= min(its width, lo - 1, 2 - hi) / 8: the two roundings add
    at most a quarter of its width, and the bracket stays inside (1, 2).
    Its endpoints then need about log2(1/width) + 4 bits, whatever the
    size of the series sums behind them.
    """
    inner = threshold_enclosure(alpha, Precision(width * 3 / 4)).enclosure
    slack = min(inner.width(), inner.lo - 1, 2 - inner.hi)
    grid = 1 << (math.ceil(8 / slack) - 1).bit_length()  # least 2^k >= 8/slack
    lo = Fraction(math.floor(inner.lo * grid), grid)
    hi = Fraction(math.ceil(inner.hi * grid), grid)
    return Threshold(alpha, RatInterval(lo, hi))


def refine(t: Threshold) -> Threshold:
    """Same constant, dyadic enclosure width at most half the input width."""
    return _dyadic_threshold(t.alpha, t.enclosure.width() / 2)


def default_threshold(alpha: int) -> Threshold:
    """Dyadic threshold at the default width (coarser start for zeta-backed alphas)."""
    if alpha == 1:
        return _dyadic_threshold(1, DEFAULT_WIDTH)
    return _dyadic_threshold(alpha, DEFAULT_ZETA_THRESHOLD_WIDTH)


def certified_compare(q, t: Threshold) -> tuple[Ordering3, Threshold]:
    """Compare a rational against a threshold, refining until decided.

    Returns the ordering and the (possibly refined) threshold so callers can
    keep the sharper bracket.  The compared products are rational and the
    thresholds irrational, so equality is impossible and the loop terminates
    unless the series cap is hit first.
    """
    q = as_rational(q)
    while True:
        side = compare(q, t.enclosure)
        if side is not Ordering3.INDETERMINATE:
            return side, t
        t = refine(t)


# the tightest bracket any decide() call has reached, one per alpha
_tightest: dict[int, Threshold] = {}
_tightest_lock = threading.Lock()


def decide(q, alpha: int) -> Ordering3:
    """Certified position of a rational against the alpha threshold.

    Starts from the tightest bracket stored for alpha (the default one on
    the first call) and stores the refined bracket when it is narrower than
    the stored one.  A call decided without refinement takes no lock.
    """
    stored = _tightest.get(alpha)
    side, t = certified_compare(q, stored or default_threshold(alpha))
    if t is not stored:
        with _tightest_lock:
            current = _tightest.get(alpha)
            # another thread may have stored a narrower bracket meanwhile
            if current is None or t.enclosure.width() < current.enclosure.width():
                _tightest[alpha] = t
    return side
