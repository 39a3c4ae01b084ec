"""Exception types shared across the package.

Every error carries a short machine-readable ``code``; the CLI turns any
of these into a single ``error: <CODE>: <detail>`` line and a nonzero
exit status.
"""


class McorError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"


class NonFiniteEntry(McorError):
    code = "NON_FINITE_ENTRY"


class LengthMismatch(McorError):
    code = "LENGTH_MISMATCH"


class TooFewValues(McorError):
    code = "TOO_FEW_VALUES"


class ZeroVariance(McorError):
    code = "ZERO_VARIANCE"


class NoConvergence(McorError):
    """QL iterations passed their cap on one eigenvalue; carries the residual reached."""

    code = "NO_CONVERGENCE"

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DimensionTooSmall(McorError):
    code = "DIMENSION_TOO_SMALL"


class NotACorrelationSpectrum(McorError):
    """Eigenvalue list fails the trace sanity check; carries the actual sum."""

    code = "NOT_A_CORRELATION_SPECTRUM"

    def __init__(self, message: str, total: float):
        super().__init__(message)
        self.total = total


class NotACorrelationMatrix(McorError):
    code = "NOT_A_CORRELATION_MATRIX"


class DegenerateSpectrum(McorError):
    code = "DEGENERATE_SPECTRUM"


class BadArguments(McorError):
    code = "BAD_ARGUMENTS"


class NumericInconsistency(McorError):
    """A computed value violated a bound by more than roundoff can explain."""

    code = "NUMERIC_INCONSISTENCY"


class FileError(McorError):
    code = "FILE_ERROR"


class ParseError(McorError):
    code = "PARSE_ERROR"


class NotSquare(McorError):
    code = "NOT_SQUARE"


class NotSymmetric(McorError):
    code = "NOT_SYMMETRIC"


class EmptySelection(McorError):
    code = "EMPTY_SELECTION"


class TooFewRows(McorError):
    code = "TOO_FEW_ROWS"


class UsageError(McorError):
    code = "USAGE"
