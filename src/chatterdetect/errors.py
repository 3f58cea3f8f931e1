"""Exception types shared across the package."""


class ChatterDetectError(Exception):
    """Base class for all package errors."""


class ParseError(ChatterDetectError, ValueError):
    """A file could not be parsed; carries the file and the offending line
    number, and names both in its message (`path: line n: ...`)."""

    def __init__(self, message, line_number=None, path=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_number = line_number
        self.path = path


class ValidationError(ChatterDetectError, ValueError):
    """Input data violated a structural requirement."""


class DomainError(ChatterDetectError, ValueError):
    """An argument was outside the operation's domain."""

