"""Exact rational arithmetic and rational-interval enclosures.

Rationals are stdlib ``fractions.Fraction`` (arbitrary-size, always
canonical: reduced, positive denominator).  A ``RatInterval`` is a pair of
rationals certified, by construction, to bracket some real constant.
Comparisons against a constant are made by ``constants.decide``, which
keeps its brackets as integers on a dyadic grid and refines them until it
can answer with an ``Ordering3``; a ``RatInterval`` is built only at the
public entries of ``constants``, so no table probe or radical case reads one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational as _RationalABC
from operator import index

from .errors import InvalidArgument


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, and numeric strings ('3/4', '1e-30') to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, _RationalABC)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgument(f"not a rational: {value!r}") from exc
    raise InvalidArgument(f"not a rational: {value!r}")


def as_index(value, name: str) -> int:
    """``operator.index(value)``: ints pass, floats and strings raise
    InvalidArgument naming the argument."""
    try:
        return index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None


class Ordering3(enum.Enum):
    """Side of a rational against an irrational threshold, as ``decide``
    answers it: the rational is never equal to the constant, so a fine
    enough bracket always puts it strictly below or strictly above."""

    BELOW = "Below"
    ABOVE = "Above"


@dataclass(frozen=True)
class RatInterval:
    """Closed interval [lo, hi] of exact rationals, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise InvalidArgument(f"interval endpoints out of order: {self.lo} > {self.hi}")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        q = as_rational(q)
        return self.lo <= q <= self.hi

    def encloses(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

