"""Exception types shared across the package."""


class ChatterDetectError(Exception):
    """Base class for all package errors."""


class ParseError(ChatterDetectError, ValueError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ValidationError(ChatterDetectError, ValueError):
    """Input data violated a structural requirement."""


class DomainError(ChatterDetectError, ValueError):
    """An argument was outside the operation's domain."""

