"""Exact rational arithmetic and rational-interval enclosures.

Rationals are stdlib ``fractions.Fraction`` (arbitrary-size, always
canonical: reduced, positive denominator).  ``as_rational`` is the one place
a string becomes a ``Fraction``.  Before parsing it refuses a decimal
exponent beyond +-MAX_DECIMAL_EXPONENT, since the parse expands 10^exponent
in full, and a mantissa (the text before any exponent) longer than
MAX_MANTISSA_LENGTH characters, since the parse then reduces the mantissa's
integer against that power.  A ``RatInterval`` is a pair of rationals
certified, by construction, to bracket some real constant.  Comparisons
against a constant are made by ``constants.below``, which keeps its
brackets as integers on a dyadic grid and refines them until it can answer
True or False; a ``RatInterval`` is built only at the public entries of
``constants``, so no table probe or radical case reads one.
``_fraction`` builds a Fraction from an integer pair with one gcd, and is
the one place the package writes a Fraction's slots: every screening
witness comes from it.  ``_reduced_product`` multiplies two reduced
fractions given as integer pairs with two small gcds, as the radical
screen's case witnesses need, and builds its result through ``_fraction``.
``_geometric_sum`` and ``_geometric_sums`` are the one place the package
writes the numerators 1 + p + ... + p^h of sum_{i=0..h} p^-i: the divisor
sums take theirs one prime at a time, the radical screen's products and
the bound table's store a list at a time.
``Record`` is the base of the package's immutable result records.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from numbers import Rational as _RationalABC
from operator import index

from .errors import InvalidArgument, _digits, _quoted, _ratio

# Parsing '1e-2000000' takes about 0.4 s, and the time grows with the
# exponent.  No alpha serves a width below about 10^-1204000 within the
# series cap, so the bound refuses no width that some alpha can serve; a
# width above 10^2000000, which would be served as width 1, is refused too.
MAX_DECIMAL_EXPONENT = 2_000_000
# The text before the exponent: at this length and the exponent bound the
# parse takes about 0.6 s on a 2-vCPU host, against 4 s at 130,000 digits.
# It is Python's default int-to-str limit, which library callers already
# meet in int().
MAX_MANTISSA_LENGTH = 4_300

# an exponent as Fraction reads it: digits, with single underscores between them
_EXPONENT_RE = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, and numeric strings ('3/4', '1e-30') to Fraction."""
    if isinstance(value, Fraction):
        return value
    text = value
    if isinstance(value, str):
        exponent = _EXPONENT_RE.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "").lstrip("0") or "0"
            # compare the digit count first: int() of a long string is slow
            if len(digits) > 7 or int(digits) > MAX_DECIMAL_EXPONENT:
                raise InvalidArgument(
                    f"decimal exponent of {_quoted(value)} is beyond +-{MAX_DECIMAL_EXPONENT}"
                )
            # Fraction's int() of the exponent would meet the digit limit on its zeros
            text = value[: exponent.start(1)] + digits
        length = exponent.start() if exponent else len(value)
        if length > MAX_MANTISSA_LENGTH:
            raise InvalidArgument(
                f"mantissa has {length} characters, more than {MAX_MANTISSA_LENGTH}"
            )
    if isinstance(value, (int, str, _RationalABC)):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgument(f"not a rational: {_quoted(value)}") from exc
    raise InvalidArgument(f"not a rational: {value!r}")


def as_index(value, name: str, least: int | None = None) -> int:
    """``operator.index(value)`` when that is at least ``least``: the
    package's one integer range check.  A float, a string or a smaller int
    raises InvalidArgument "{name} must be an integer >= {least}, got
    {value}" (no bound when least is None), integers quoted by _digits."""
    try:
        n = index(value)
    except TypeError:
        n = None
    else:
        if least is None or n >= least:
            return n
    # formatted only on failure: sweep calls this once per factorization
    shown = _quoted(value) if n is None else _digits(n)
    bound = "" if least is None else f" >= {_digits(least)}"
    raise InvalidArgument(f"{name} must be an integer{bound}, got {shown}")


def _fraction(num: int, den: int, g: int | None = None) -> Fraction:
    """num/den as a Fraction, for an integer num and an integer den >= 1:
    both are divided by g, their gcd (taken here unless the caller passes
    it), and written straight into ``Fraction``'s two slots, which gives the
    parts, hash and pickle of ``Fraction(num, den)`` without its
    constructor's type and sign checks.
    This is the one place the package writes a Fraction's slots, which hold
    its numerator and denominator from Python 3.10 to 3.13 at least.
    """
    if g is None:
        g = gcd(num, den)
    q = object.__new__(Fraction)
    q._numerator = num // g
    q._denominator = den // g
    return q


def _reduced_product(n: int, d: int, a: int, b: int) -> Fraction:
    """(n/d) * (a/b) as a Fraction, for n/d and a/b in lowest terms with
    d, b > 0: Knuth's reduced product (TAOCP vol. 2, 4.5.1), the rule
    ``Fraction``'s own multiplication uses.

    With g1 the gcd of n and b, and g2 that of a and d, the product is
    (n/g1)(a/g2) / ((d/g2)(b/g1)), already in lowest terms: n/g1 is coprime
    to d/g2 since gcd(n, d) = 1 and to b/g1 by the choice of g1, and a/g2 is
    coprime to b/g1 since gcd(a, b) = 1 and to d/g2 by the choice of g2.
    The denominator is positive, as d, b, g1 and g2 are.  So no third gcd
    is taken; when n/d is large and a/b small, both gcds are large-by-small.
    ``_fraction`` divides the pair (n/g1)a, d(b/g1) by g2, their gcd, since
    n/g1 is coprime to d(b/g1) and a to b/g1.
    """
    g1 = gcd(n, b)
    return _fraction((n // g1) * a, d * (b // g1), gcd(a, d))


def _geometric_sum(p: int, h: int) -> int:
    """1 + p + ... + p^h = (p^(h+1) - 1)/(p - 1), exact for p >= 2, h >= 0.

    ``sigma``, whose exponent changes from prime to prime, calls this one
    directly: a one-element list per factor costs the sweep about 6%.
    """
    return (p ** (h + 1) - 1) // (p - 1)


def _geometric_sums(primes, h: int) -> list[int]:
    """``_geometric_sum(p, h)`` for each prime p, in order.

    The closed forms are p + 1 for h = 1 and p(p + 1) + 1 = (p^3 - 1)/(p - 1)
    for h = 2, so the radical screen's factors take no power, no division
    and no Python call each.
    """
    if h == 1:
        return [p + 1 for p in primes]
    if h == 2:
        return [p * (p + 1) + 1 for p in primes]
    return [_geometric_sum(p, h) for p in primes]


class Record:
    """An immutable record.  Its fields are its ``__slots__`` in order, but
    for slots named with a leading underscore, which hold cached values; a
    subclass's ``__init__`` passes every slot's value to ``Record.__init__``,
    which stores each through its slot's own ``__set__``, cached per class."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class RatInterval(Record):
    """Closed interval [lo, hi] of exact rationals, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = as_rational(lo), as_rational(hi)
        if lo > hi:
            raise InvalidArgument(f"interval endpoints out of order: {_ratio(lo)} > {_ratio(hi)}")
        Record.__init__(self, lo, hi)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        q = as_rational(q)
        return self.lo <= q <= self.hi

    def encloses(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

