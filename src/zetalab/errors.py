"""Exception hierarchy shared across the package."""


class ZetalabError(Exception):
    """Base class for all zetalab errors."""


class DomainError(ZetalabError, ValueError):
    """Input outside the supported domain of an operation."""


class OrderLimitError(ZetalabError, OverflowError):
    """Order too high for an evaluation that must stay exact."""


class PrecisionError(ZetalabError):
    """Requested accuracy cannot be reached within the configured budget."""


class NearZeroError(ZetalabError):
    """An evaluation landed at or suspiciously near a zero of zeta."""


class MissedZeroError(ZetalabError):
    """Zero census failed: the scan's count is off the Riemann-von Mangoldt estimate."""


class CoverageError(ZetalabError):
    """A zero table does not cover the requested height."""


class RangeError(ZetalabError, ValueError):
    """A grid or window does not cover the requested range."""


class UnsupportedError(ZetalabError):
    """Operation variant deliberately not provided."""


class DivisionError(ZetalabError, ZeroDivisionError):
    """Denominator indistinguishable from zero within its error estimate."""


class IoError(ZetalabError, OSError):
    """File could not be read or written."""


class ParseError(ZetalabError, ValueError):
    """Malformed zeros file.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class OrderError(ParseError):
    """Ordinates in a zeros file are not strictly increasing."""
