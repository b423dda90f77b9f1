"""Exception types shared across the package.

Plain division by zero raises the built-in ``ZeroDivisionError``; everything
else that a caller may want to distinguish gets its own class here.
"""


class SumRankError(Exception):
    """Base class for all package-specific errors."""


class LevelMismatchError(SumRankError):
    """Arithmetic attempted between elements at different tower levels."""


class ZeroInputError(SumRankError):
    """Zero passed where a nonzero field element is required."""


class BadTowerError(SumRankError):
    """Tower does not satisfy the preconditions of the requested operation."""


class NotADivisorError(SumRankError):
    """Requested subgroup order does not divide the group order."""


class NotSquareError(SumRankError):
    """Square matrix required."""


class AmbientMismatchError(SumRankError):
    """Row spaces live in different ambient dimensions."""


class SingularLeadingBlockError(SumRankError):
    """Leading principal block is singular, Schur residual undefined."""


class BlockOutOfRangeError(SumRankError):
    """Evaluation block index outside 1..ell."""


class BadParamsError(SumRankError):
    """Code parameters violate their admissibility constraints."""


class TooLargeError(SumRankError):
    """Exhaustive enumeration would exceed the configured guard."""


class SingularMError(SumRankError):
    """Hankel block M is singular; the structured criterion is undefined."""


class SearchFailedError(SumRankError):
    """Parameter search exhausted all candidates without success."""

    def __init__(self, message: str, candidates_scanned: int = 0):
        super().__init__(message)
        self.candidates_scanned = candidates_scanned
