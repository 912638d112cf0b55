"""Shared exception types; ``cli.main`` maps each to an exit code."""

from __future__ import annotations


class PawncountError(Exception):
    """Base class for all package-specific errors."""


class GuardExceeded(PawncountError):
    """A size guard refused an input before its arrays were allocated;
    the message names a viable route, if there is one."""


class NonConverged(PawncountError):
    """Power iteration failed to converge within the iteration budget."""


class IllegalMatrix(PawncountError):
    """Matrix violates the pattern set required by an operation."""

    def __init__(self, message: str, position: tuple[int, int] | None = None,
                 pattern: str | None = None):
        super().__init__(message)
        self.position = position
        self.pattern = pattern


class InvalidTiling(PawncountError):
    """Tiling is malformed: anchor out of range or overlapping tiles."""

    def __init__(self, message: str, position: tuple[int, int] | None = None):
        super().__init__(message)
        self.position = position


class MatrixFormatError(PawncountError, ValueError):
    """Matrix text is ragged or contains non-binary characters."""


class InvalidK(PawncountError, ValueError):
    """Diagonal run length must be at least 2."""


class NonIntegerResult(PawncountError):
    """An exact closed form failed to collapse to an integer."""


class NoFitFound(PawncountError):
    """No linear recurrence of the allowed order generates the sequence."""
