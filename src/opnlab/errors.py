"""Exception hierarchy shared by all opnlab modules."""


class OpnlabError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(OpnlabError):
    """An argument violates a documented precondition."""


class ResourceLimit(OpnlabError):
    """A computation exceeded the sieve cap, the trial-division budget, or the
    range psi_13 within which a prime can be proven."""


class PrecisionCapExceeded(OpnlabError):
    """An enclosure would need more series terms than the configured cap."""


class ParseError(OpnlabError):
    """Command-line input could not be parsed."""


# an error message quotes at most this many characters of a string input, or
# digits of an integer, so it stays one short line however long the input is
_QUOTED_CHARS = 100


def _quoted(value) -> str:
    """repr(value), but of a string longer than _QUOTED_CHARS only the head,
    followed by its length."""
    if isinstance(value, str) and len(value) > _QUOTED_CHARS:
        return f"{value[:_QUOTED_CHARS]!r}... ({len(value)} characters)"
    return repr(value)


def _digits(n: int) -> str:
    """str(n), but of n longer than _QUOTED_CHARS digits only the sign and
    head, followed by its digit count.  No str() sees more than about
    _QUOTED_CHARS digits, so a long n prints under Python's default
    4,300-digit limit on int-to-str conversion."""
    if n < 0:
        return "-" + _digits(-n)
    # n has more than (bits - 1) * log10(2) digits, so n // 10**skip keeps
    # about _QUOTED_CHARS + 1 of them
    skip = max(0, n.bit_length() * 30103 // 100_000 - _QUOTED_CHARS - 1)
    head = str(n // 10**skip)
    if skip + len(head) <= _QUOTED_CHARS:
        return head
    return f"{head[:_QUOTED_CHARS]}... ({skip + len(head)} digits)"


def _ratio(q) -> str:
    """str(q) of a Fraction, its numerator and denominator quoted by
    _digits; the denominator only when it is not 1."""
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"
