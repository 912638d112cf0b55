"""Shared exception types, and the size bound the guards apply.

Each error type names its own exit code in ``exit_code``: ``cli.main``
prints the message of any package error that ends a command and exits
with that code.  The bound is defined here rather than with the sweeps
so that the tiling bijection can apply it without loading numpy.
"""

from __future__ import annotations

#: Widest column profile any sweep allocates (2^22 states per array).
MAX_WIDTH = 22
#: Most entries any one state holds.  The L sweep's guard counts its
#: legal frontiers against it, but its array form holds 2 F(m+1) entries,
#: 4% past the bound at m = 30 (see ``frontier``'s docstring).
MAX_STATES = 1 << MAX_WIDTH


class PawncountError(Exception):
    """Base class for all package-specific errors; each subclass sets
    ``exit_code``, the code ``pawncount`` exits with when one ends a
    command."""

    exit_code: int


class GuardExceeded(PawncountError):
    """A size guard refused an input before its arrays were allocated;
    the message names a viable route, if there is one."""

    exit_code = 3


class NonConverged(PawncountError):
    """Power iteration failed to converge within the iteration budget."""

    exit_code = 4


class IllegalMatrix(PawncountError):
    """Matrix violates the pattern set required by an operation."""

    exit_code = 5


class InvalidTiling(PawncountError):
    """Tiling is malformed: anchor out of range or overlapping tiles."""

    exit_code = 5


class MatrixFormatError(PawncountError, ValueError):
    """Matrix text is ragged or contains non-binary characters."""

    exit_code = 5


class InvalidK(PawncountError, ValueError):
    """Diagonal run length must be at least 2."""

    exit_code = 2


class NonIntegerResult(PawncountError):
    """An exact closed form failed to collapse to an integer."""

    exit_code = 1


class NoFitFound(PawncountError):
    """No linear recurrence of the allowed order generates the sequence."""

    exit_code = 1
