"""Exception types shared across the package."""

from __future__ import annotations


class IncutimeError(Exception):
    """Base class for all package errors."""


class DatasetValidationError(IncutimeError):
    """Raised when input records are structurally invalid."""

    def __init__(self, message: str, record_index: int | None = None):
        if record_index is not None:
            message = f"record {record_index}: {message}"
        super().__init__(message)
        self.record_index = record_index


class InfeasibleRecordError(IncutimeError):
    """Raised when a record receives zero weight at every grid point."""

    def __init__(self, record_index: int, message: str = ""):
        detail = message or "no grid point carries positive weight for this record"
        super().__init__(f"record {record_index}: {detail}")
        self.record_index = record_index


class SingularMatrixError(IncutimeError):
    """Raised by the Cholesky factorization on a non-positive pivot."""

    def __init__(self, pivot: int):
        super().__init__(f"matrix is not positive definite (pivot {pivot})")
        self.pivot = pivot


class NonConvergenceError(IncutimeError):
    """Raised when an iterative fit stops before reaching its tolerance.

    Carries the iteration trace accumulated so far in ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class DegenerateFitError(IncutimeError):
    """Raised when a fitted distribution cannot support the requested inference."""


class BootstrapFailureError(IncutimeError):
    """Raised when too many bootstrap or Fisher averaging replicates fail."""

    def __init__(self, message: str, failed: int = 0, total: int = 0):
        super().__init__(message)
        self.failed = failed
        self.total = total
