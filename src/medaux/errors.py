"""Exception and warning taxonomy shared across the package."""

from __future__ import annotations

__all__ = [
    "MedauxError",
    "ParseError",
    "SchemaError",
    "DomainError",
    "DegenerateSampleError",
    "SingularityError",
    "DegenerateOptimumError",
    "UnknownEstimatorError",
    "InfiniteEfficiencyWarning",
]


class MedauxError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MedauxError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SchemaError(MedauxError):
    """A structured document is missing required keys or carries unknown ones."""


class DomainError(MedauxError, ValueError):
    """Inputs lie outside the mathematical domain of an operation."""


class DegenerateSampleError(DomainError):
    """A sample has no spread, so a kernel density estimate is undefined."""


class SingularityError(MedauxError, ArithmeticError):
    """An estimator denominator is exactly zero for the given inputs."""


class DegenerateOptimumError(MedauxError, ArithmeticError):
    """The weight optimum does not exist (quadratic form not positive definite)."""


class UnknownEstimatorError(MedauxError, KeyError):
    """An estimator name does not match any known preset."""

    def __str__(self) -> str:  # KeyError would quote the message
        return str(self.args[0]) if self.args else ""


class InfiniteEfficiencyWarning(UserWarning):
    """Relative efficiency against a zero MSE is unbounded."""
