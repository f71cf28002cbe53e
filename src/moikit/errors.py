"""Exception hierarchy shared by all moikit modules, and the one integer
check that the input boundaries share."""

import numbers


class MoikitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MoikitError):
    """A value violates a structural invariant or an input schema.

    ``path`` optionally carries the field path inside a JSON payload so CLI
    diagnostics can point at the offending entry.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ParameterError(MoikitError):
    """A numeric parameter is outside its admissible range."""


class CapabilityError(MoikitError):
    """The requested operation needs information a function cannot provide,
    e.g. a derivative order beyond what is available, or a separable
    representation that was never supplied."""


class FunctionDomainError(MoikitError):
    """A scalar function evaluated to NaN/inf at a point where a finite
    value is required (an eigenvalue or an eigenvalue tuple)."""


class DecompositionFailureError(MoikitError):
    """A decomposition could not be produced within its retry budget."""


class NumericalError(MoikitError):
    """A numerical routine failed to converge or exceeded its residual
    contract."""


def _integer(value, message: str, path: str, low: int | None = 0,
             high: int | None = None) -> int:
    """An integer in low..high-1 (no limit where a bound is None), else
    ValidationError(message) at ``path``.  Booleans are rejected although
    Python counts them as integers."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or (low is not None and value < low)
            or (high is not None and value >= high)):
        raise ValidationError(message, path=path)
    return int(value)
