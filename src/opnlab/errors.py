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
