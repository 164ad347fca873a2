"""Exception types shared across the package.

Every error raised by this package derives from :class:`WavefallError`, so
callers can catch the whole family with one except clause.  Messages name the
offending quantity and its limit.
"""

__all__ = [
    "WavefallError",
    "GridOverflow",
    "NonFiniteState",
    "BadSigma",
    "GridMismatch",
    "NegativeTime",
    "DegenerateInterval",
    "TooLarge",
    "NotHermitian",
    "NotUnitary",
    "SuperluminalPath",
    "PhaseAliasing",
    "SchemeMismatch",
    "ConfigError",
]


class WavefallError(Exception):
    """Base class for all errors raised by this package."""


class GridOverflow(WavefallError):
    """Wave-packet amplitude reached the guarded boundary region of the grid.

    row is the index of the offending row in the producer's (rows, n) stack,
    or None when the raiser has no stack.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class NonFiniteState(WavefallError, ValueError):
    """A state, or a quantity reduced from it, holds NaN or inf.

    row is the index of the offending row in the producer's rows, or None
    when the raiser has no rows.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class BadSigma(WavefallError):
    """Packet width is non-positive or cannot be resolved on the grid."""


class GridMismatch(WavefallError):
    """Operands live on different grids."""


class NegativeTime(WavefallError):
    """An evolution or proper-time duration must be finite and non-negative."""


class DegenerateInterval(WavefallError):
    """A two-time action needs a positive duration t > 0."""


class TooLarge(WavefallError):
    """Dense-operator size guard exceeded."""


class NotHermitian(WavefallError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotUnitary(WavefallError):
    """Matrix expected to be unitary is not, beyond tolerance."""


class SuperluminalPath(WavefallError):
    """Proper-time radicand is non-positive somewhere along the path."""


class PhaseAliasing(WavefallError):
    """Consecutive fringe-phase samples too far apart to unwrap reliably."""


class SchemeMismatch(WavefallError):
    """Interferometer branch schedules disagree about the total duration."""


class ConfigError(WavefallError):
    """Run configuration failed validation."""
