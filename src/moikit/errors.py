"""Exception hierarchy shared by all moikit modules, and the integer,
seed, finite-number, numeric-array and Schatten-exponent checks that the
input boundaries share."""

import math
import numbers

import numpy as np


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


# The largest order k whose k! is a finite float64: a k-th derivative is k!
# times an MOI, and a Taylor term divides by k!.  An alternating binomial sum
# of that order has already lost every digit.
MAX_ORDER = 170

# The largest unitary remainder order: its spectral sum and its Markov coefficients
# run over all 2^(k-1) compositions of k, seconds per run at k = 16 and doubling.
MAX_UNITARY_ORDER = 16


def _seed(value, path: str = "") -> int:
    """A random seed, an integer in [0, 2^64), else ValidationError at ``path``."""
    return _integer(value, "seed must be an unsigned 64-bit integer", path, 0, 2**64)


def _finite(value, message: str) -> float:
    """A real number as a finite float, else ValidationError(message).
    Booleans are rejected, and integers past the float range."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(value):
                return value
    raise ValidationError(message)


def _numeric(value, message: str) -> np.ndarray:
    """``value`` as an array of integer, float or complex dtype, else (a
    boolean, string, object or ragged nesting, or a nesting that holds a
    Python or numpy boolean among numbers, which numpy would read as 0 or
    1) ValidationError(message)."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError):
        array = np.asarray(None)
    if array.dtype.kind not in "iufc" or (
            not isinstance(value, np.ndarray)
            and any(isinstance(v, bool) or getattr(v, "dtype", None) == bool
                    for v in np.asarray(value, dtype=object).flat)):
        raise ValidationError(message)
    return array


def _schatten_exponent(value) -> float:
    """A Schatten exponent p as a float, inf included: a real number, not a
    boolean, NaN or an integer past the float range, else ValidationError;
    p < 1 raises ParameterError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            p = float(value)
        except OverflowError:
            pass
        else:
            if p < 1:
                raise ParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
            if not math.isnan(p):
                return p
    raise ValidationError("Schatten exponents must be real numbers in [1, inf]")
