"""Exception types shared across the package.

Everything derives from ValueError so callers can catch broadly.  Every
public entry point raises a ``MeansError`` for an argument that does
not convert, has mismatched shapes or is out of range: parameters are
read by ``means._read`` and arguments by the validated calls.
"""

__all__ = ["MeansError", "ParameterError", "DomainError", "InvalidMeanSpec"]


class MeansError(ValueError):
    """Base class for errors raised by this package."""


class ParameterError(MeansError):
    """A numeric parameter lies outside its documented range."""


class DomainError(MeansError):
    """An operation was applied to inputs or flags it does not support."""


class InvalidMeanSpec(MeansError):
    """A textual mean specification could not be parsed.

    ``position`` is the character offset of the offending token when known.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
