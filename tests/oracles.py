"""Reference brackets of pi, arctan(1/x), zeta(s) and the screening
thresholds, truncated prime products summed term by term, and the block
split of a geometric sum.

Exact ``Fraction`` arithmetic throughout, independent of the library: its
brackets are this module's own ``Bracket``, whose side test is a plain
``Fraction`` comparison answering True (below), False (above) or None
(inside the bracket), so a decided side compares directly with
``constants.below``'s bool.  Nothing here imports opnlab.
"""

import functools
from fractions import Fraction
from typing import NamedTuple


class Bracket(NamedTuple):
    """Closed interval [lo, hi] of Fractions."""

    lo: Fraction
    hi: Fraction

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def side(self, q: Fraction) -> bool | None:
        """True (below) if q < lo, False (above) if q > hi, else None:
        inside the bracket."""
        if q < self.lo:
            return True
        if q > self.hi:
            return False
        return None


def dirichlet_zeta(s: int, n: int) -> Bracket:
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
    return Bracket(
        total + Fraction(1, (s - 1) * (n + 1) ** (s - 1)),
        total + Fraction(1, (s - 1) * n ** (s - 1)),
    )


def arctan_inv(x: int, w: Fraction) -> Bracket:
    """atan(1/x) for an integer x >= 2, its alternating series stopped at its
    first term below w, which bounds the tail and the bracket's width."""
    total, k = Fraction(0), 0
    while True:
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
        if term <= w:
            if k % 2 == 0:
                return Bracket(total, total + term)
            return Bracket(total - term, total)
        total += term if k % 2 == 0 else -term
        k += 1


def machin_pi(w: Fraction) -> Bracket:
    """pi = 16 atan(1/5) - 4 atan(1/239), each arctangent to w/32 (resp. w/8)."""
    a = arctan_inv(5, w / 32)
    b = arctan_inv(239, w / 8)
    return Bracket(16 * a.lo - 4 * b.hi, 16 * a.hi - 4 * b.lo)


def crvz_zeta(s: int, w: Fraction) -> Bracket:
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
    return Bracket((eta - Fraction(1, d)) * factor, (eta + Fraction(1, d)) * factor)


def oracle_threshold(alpha: int, w: Fraction) -> Bracket:
    """Bracket of 2^(a+2) / (zeta(a+1) (2^(a+1)-1)) of width <= w."""
    if alpha == 1:  # 16 / pi^2; 16/x^2 stretches widths near pi by < 1.04
        p = machin_pi(w / 2)
        return Bracket(16 / p.hi**2, 16 / p.lo**2)
    c = Fraction(2 ** (alpha + 2), 2 ** (alpha + 1) - 1)
    z = crvz_zeta(alpha + 1, w / c)  # zeta > 1, so c/zeta narrows the width
    return Bracket(c / z.hi, c / z.lo)


@functools.cache
def _oracle_bracket(alpha: int, bits: int) -> Bracket:
    return oracle_threshold(alpha, Fraction(1, 2**bits))


def oracle_side(q, alpha: int) -> bool:
    """Whether q is certified below the alpha threshold (False: above), by
    the oracles alone.

    Starts at width 2^-100 (about 8e-31) and halves the cached oracle width
    until ``Bracket.side`` decides; q is rational and the threshold
    irrational, so some width does.
    """
    bits = 100
    while True:
        found = _oracle_bracket(alpha, bits).side(Fraction(q))
        if found is not None:
            return found
        bits += 1


def truncated_product(primes, alpha: int, start=Fraction(1)) -> Fraction:
    """start * prod over primes of sum_{i=0..alpha} p^-i, summed term by term."""
    value = Fraction(start)
    for p in primes:
        value *= sum(Fraction(1, p**i) for i in range(alpha + 1))
    return value


def geometric_split(p: int, h: int, alpha: int) -> bool:
    """Whether sum_{k=0..c} p^-k, with c = (alpha+1)*floor(h/(alpha+1)) + alpha,
    factors as (sum_{i=0..alpha} p^-i) * (sum_{j=0..floor(h/(alpha+1))}
    p^-(j(alpha+1))), and the cutoff c covers h.  Every sum is taken term by
    term, through no closed form."""
    blocks = h // (alpha + 1)
    cutoff = (alpha + 1) * blocks + alpha
    lhs = sum(Fraction(1, p**k) for k in range(cutoff + 1))
    inner = sum(Fraction(1, p**i) for i in range(alpha + 1))
    outer = sum(Fraction(1, p ** (j * (alpha + 1))) for j in range(blocks + 1))
    return lhs == inner * outer and cutoff >= h
