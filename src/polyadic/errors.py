"""Exception types shared across the package."""


class PolyadicError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGroupError(PolyadicError):
    """A structure failed verification where a verified one was required.

    ``report`` is the failing verification report, if one was made."""

    def __init__(self, message: str = "", report=None):
        super().__init__(message)
        self.report = report


class SizeLimitError(PolyadicError):
    """An operation was asked to run outside its documented size budget."""


class CriterionUnavailableError(PolyadicError):
    """A decision criterion does not apply to the given group."""


class ParseError(PolyadicError):
    """A group file could not be parsed into a structurally valid object."""
