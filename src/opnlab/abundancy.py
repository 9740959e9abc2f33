"""Divisor sums, reciprocal divisor sums, and truncated prime products.

For n = prod p^h the divisor sum is sigma(n) = prod (p^(h+1)-1)/(p-1) and
the reciprocal-divisor sum sigma_{-1}(n) = prod sum_{k=0..h} p^-k equals
sigma(n)/n exactly; it is 2 precisely for perfect numbers.  The truncated
variant keeps only the first alpha+1 terms of each geometric factor and
needs nothing but the radical, which is what makes exponent-free screening
possible.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from operator import index

from .errors import InvalidArgument, _digits
from .exact_arith import Record, _geometric_sum, _geometric_sums, as_index
from .primes import Factorization, _first_nonprime


class Classification(enum.Enum):
    DEFICIENT = "Deficient"
    PERFECT = "Perfect"
    ABUNDANT = "Abundant"


class AbundancyReport(Record):
    """sigma(n), the reciprocal-divisor sum sigma(n)/n and the class of n."""

    __slots__ = ("n", "sigma", "sigma_minus_one", "classification")

    def __init__(
        self, n: int, sigma: int, sigma_minus_one: Fraction, classification: Classification
    ):
        Record.__init__(self, n, sigma, sigma_minus_one, classification)


def sigma(f: Factorization) -> int:
    """Exact divisor sum; 1 for the empty factorization."""
    total = 1
    for p, h in f.factors:
        total *= _geometric_sum(p, h)
    return total


def sigma_minus_one(f: Factorization) -> Fraction:
    """Exact reciprocal-divisor sum, prod over p|n of sum_{k=0..h_p} p^-k."""
    # the product equals sigma(n)/n; one gcd at the end
    return Fraction(sigma(f), f.n)


def abundancy_report(f: Factorization) -> AbundancyReport:
    s = sigma(f)
    ratio = Fraction(s, f.n)
    if ratio < 2:
        cls = Classification.DEFICIENT
    elif ratio == 2:
        cls = Classification.PERFECT
    else:
        cls = Classification.ABUNDANT
    return AbundancyReport(n=f.n, sigma=s, sigma_minus_one=ratio, classification=cls)


def _check_prime_set(primes) -> tuple[int, ...]:
    try:
        members = tuple(primes)
    except TypeError:
        raise InvalidArgument("primes must be an iterable of integers") from None
    try:
        ps = tuple(sorted(map(index, members)))
    except TypeError:
        # the slow pass names the first member that is not an integer
        ps = tuple(sorted(as_index(p, "prime") for p in members))
    if len(set(ps)) != len(ps):
        duplicate = next(a for a, b in zip(ps, ps[1:]) if a == b)
        raise InvalidArgument(f"duplicate prime {_digits(duplicate)}")
    bad = _first_nonprime(ps)
    if bad is not None:
        raise InvalidArgument(f"{_digits(bad)} is not prime")
    return ps


def _truncated_pair(primes, h: int) -> tuple[int, int]:
    """Unreduced (num, den) of prod over primes of sum_{i=0..h} p^-i.

    Each factor is (1 + p + ... + p^h) / p^h, its numerator from
    ``exact_arith._geometric_sums`` (p(p + 1) + 1 = (p^3 - 1)/(p - 1) at
    h = 2); the numerators and the denominators are one product each, and
    no gcd is taken.  The radical screen and the bound-table windows form
    the same integers from the same numerators, the screen with its
    radical formed once for both alphas, the windows from ``bound_tables``'
    per-alpha store.
    """
    return math.prod(_geometric_sums(primes, h)), math.prod(primes) ** h


def truncated_product(primes, alpha: int) -> Fraction:
    """prod over the given primes of sum_{i=0..alpha} p^-i, exactly."""
    alpha = as_index(alpha, "alpha", 1)
    return Fraction(*_truncated_pair(_check_prime_set(primes), alpha))

