"""Exception types shared across the package."""


class SmoothentError(Exception):
    """Base class for all library errors."""


class InvalidData(SmoothentError):
    """Input data violates a structural requirement (non-finite, wrong shape, ...)."""


class InvalidConfig(SmoothentError):
    """A configuration value is out of its legal range."""


class InsufficientData(SmoothentError):
    """Too few samples for the requested operation (e.g. a half/half split)."""


class NumericalFailure(SmoothentError):
    """An iterative numerical routine failed to converge."""


class DegenerateGap(SmoothentError):
    """The eigenvalue gap controlling subspace recovery is zero."""


class Unsupported(SmoothentError):
    """The operation is not available for the given inputs (by design)."""


# What a run reports (CLI exit 2 or 3, a harness's error row) rather than lets through
REPORTED_ERRORS = (SmoothentError, ValueError, OSError, MemoryError)
