"""Operator calculus: derivatives, higher differences, Taylor remainders.

Each construction is available both directly (finite differences of matrix
functions, exact series collection) and through its spectral-sum
representation; agreement of the two routes is the module's main test
surface.  The unitary flavor perturbs multiplicatively by exp(i t H) and is
restricted to polynomial scalar functions so every series manipulation is
exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (MAX_ORDER, MAX_UNITARY_ORDER, CapabilityError, ParameterError,
                     ValidationError, _integer)
from .integrands import (
    ScalarFunction,
    divided_difference_integrand,
    multiply_by_slot_variable,
)
from .moi import moi_core
from .operators import (
    AnyOperator,
    HermitianOperator,
    UnitaryOperator,
    _checked_shift,
    _from_spectrum,
    _function_of_spectra,
    _shifted,
    apply_scalar_function,
    operator_norm,
)

SERIES_TERM_CAP = 64


@dataclass(frozen=True)
class SlotFunctionSum:
    """A multivariate operator function of the form sum_j phi_j(X_j):
    ``functions[j]`` is the scalar function phi_j of slot j."""

    functions: tuple[ScalarFunction, ...]

    def __post_init__(self):
        functions = tuple(self.functions)
        if not functions:
            raise ValidationError("at least one slot function is required")
        object.__setattr__(self, "functions", functions)

    @classmethod
    def from_slot_functions(cls, functions: Sequence[ScalarFunction]) -> "SlotFunctionSum":
        return cls(functions)


@dataclass(frozen=True)
class RemainderSpec:
    """Order-k Taylor remainder task for a slotwise function sum.

    ``self_adjoint`` perturbs each base operator additively by a Hermitian
    H_j; ``unitary`` multiplies each unitary base operator by exp(i H_j),
    needs polynomial slot functions and an order k <= ``MAX_UNITARY_ORDER``.
    Each H_j may be a matrix, checked here, or a :class:`HermitianOperator`.
    """

    order: int
    function: SlotFunctionSum
    base: tuple[AnyOperator, ...]
    perturbations: tuple[np.ndarray, ...]
    flavor: str

    def __post_init__(self):
        high = MAX_UNITARY_ORDER if self.flavor == "unitary" else MAX_ORDER
        if not 1 <= _integer(self.order, "orders must be integers", "", None) <= high:
            raise ValidationError(f"remainder order must lie in 1..{high}")
        if self.flavor not in ("self_adjoint", "unitary"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        base, perts = tuple(self.base), tuple(self.perturbations)
        slots = len(self.function.functions)
        if len(base) != slots or len(perts) != slots:
            raise ValidationError("base/perturbation counts must match the slot count")
        dims = {op.dim for op in base}
        if len(dims) != 1:
            raise ValidationError("base operators have mixed dimensions")
        dim = dims.pop()
        generators = []
        for j, h in enumerate(perts):
            try:
                gen = h if isinstance(h, HermitianOperator) else HermitianOperator(h)
            except ValidationError as err:
                raise ValidationError(f"perturbation {j}: {err}") from err
            if gen.dim != dim:
                raise ValidationError(f"perturbation {j} has shape {gen.matrix.shape}")
            generators.append(gen)
        if self.flavor == "unitary":
            if not all(isinstance(op, UnitaryOperator) for op in base):
                raise ValidationError("unitary flavor needs unitary base operators")
            for fn in self.function.functions:
                if fn.kind != "polynomial":
                    raise CapabilityError(
                        "unitary flavor is restricted to polynomial slot functions"
                    )
        else:
            if not all(isinstance(op, HermitianOperator) for op in base):
                raise ValidationError("self-adjoint flavor needs Hermitian base operators")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "perturbations", tuple(g.matrix for g in generators))
        object.__setattr__(self, "_generators", tuple(generators))

    @property
    def dim(self) -> int:
        return self.base[0].dim


def _as_matrix(value) -> np.ndarray:
    if isinstance(value, (HermitianOperator, UnitaryOperator)):
        return value.matrix
    return np.asarray(value, dtype=np.complex128)


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def frechet_derivative(
    f: ScalarFunction, operator: AnyOperator, direction: np.ndarray
) -> np.ndarray:
    """Directional derivative of X -> f(X) at ``operator`` along ``direction``:
    :func:`kth_derivative` at order 1.  In the eigenbasis this is the
    entrywise product of the first-divided-difference matrix with the
    rotated direction.
    """
    return kth_derivative(f, operator, direction, 1)


def kth_derivative(
    f: ScalarFunction, operator: AnyOperator, direction: np.ndarray, order: int
) -> np.ndarray:
    """d^k/dt^k f(A + tB) at t = 0: k! times the (k+1)-operator spectral sum
    of the order-k divided difference with k copies of the direction."""
    order = _integer(order, "orders must be integers", "", None)
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError(f"derivative order must lie in 1..{MAX_ORDER}")
    integrand = divided_difference_integrand(f, order)
    value = moi_core(
        [operator] * (order + 1), integrand, [np.asarray(direction)] * order
    )
    return math.factorial(order) * value


def higher_difference(
    f: ScalarFunction, operator: HermitianOperator, step: np.ndarray, order: int
) -> np.ndarray:
    """Order-k operator difference: the alternating binomial sum of
    f(A + iB) over i = 0..k."""
    order = _integer(order, "orders must be integers", "", None)
    if not 0 <= order <= MAX_ORDER:
        raise ParameterError(f"difference order must lie in 0..{MAX_ORDER}")
    return _ladder_difference(f, _shift_ladder(operator, step, order))


def _shift_ladder(operator: HermitianOperator, step, order: int) -> list:
    """[A, A + B, ..., A + kB] for A = ``operator``, B = ``step``, k = ``order``;
    ``step`` is checked once, whatever the order."""
    step = _checked_shift(operator, step)
    return [operator] + [_shifted(operator, i * step) for i in range(1, order + 1)]


def _ladder_difference(
    f: ScalarFunction, ladder: Sequence[HermitianOperator]
) -> np.ndarray:
    """:func:`_binomial_sum` of the operators [A, A + B, ..., A + kB]."""
    decomps = [op.decomposition for op in ladder]
    return _binomial_sum(
        f, [d.eigenvalues[None] for d in decomps], [d.basis[None] for d in decomps]
    )[0]


def _binomial_sum(f: ScalarFunction, eigenvalues, bases) -> np.ndarray:
    """The order-k difference from the spectra of its shifted Hermitian
    operators [A, A + B, ..., A + kB], stacked over samples (``eigenvalues[i]``
    of shape (N, n), ``bases[i]`` of shape (N, n, n)): per sample, the sum
    over i of (-1)^(k-i) C(k, i) f(A + iB).  Raises the FunctionDomainError
    of the first operator where f is not finite."""
    order = len(eigenvalues) - 1
    total = np.zeros(bases[0].shape, dtype=np.complex128)
    for i, (values, basis) in enumerate(zip(eigenvalues, bases)):
        _, value, _ = _function_of_spectra(f, values, basis, hermitian=True)
        total += ((-1) ** (order - i)) * math.comb(order, i) * value
    return total


def higher_difference_moi_diagnostic(
    f: ScalarFunction, operator: HermitianOperator, step: np.ndarray, order: int
) -> dict:
    """Exploratory cross-check of the gap-weighted spectral-sum form of the
    order-k difference against the binomial definition.

    The binomial definition is authoritative; this reports the deviation of
    the candidate representation (sum over j of spectral sums weighted by the
    slot-gap factor) without treating disagreement as a failure.
    """
    order = _integer(order, "orders must be integers", "", None)
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError(f"diagnostic needs order in 1..{MAX_ORDER}")
    ops = _shift_ladder(operator, step, order)
    binomial = _ladder_difference(f, ops)
    dd = divided_difference_integrand(f, order)
    if dd.separable is None:
        raise CapabilityError("diagnostic needs a polynomial scalar function")
    total = np.zeros_like(binomial)
    for j in range(1, order + 1):
        weighted = multiply_by_slot_variable(dd.separable, j).plus(
            multiply_by_slot_variable(dd.separable, j - 1).scaled(-1.0)
        )
        total += moi_core(ops, weighted, [step] * order)
    deviation = operator_norm(total - binomial)
    return {
        "binomial": binomial,
        "moi_form": total,
        "abs_deviation": deviation,
        "rel_deviation": deviation / max(1.0, operator_norm(binomial)),
    }


# ---------------------------------------------------------------------------
# Self-adjoint Taylor remainders
# ---------------------------------------------------------------------------


def taylor_remainder_self_adjoint(spec: RemainderSpec, method: str = "moi") -> np.ndarray:
    """Order-k remainder of f(X + H) after subtracting the Taylor terms.

    ``direct`` evaluates f(X + H) and subtracts the directional-derivative
    Taylor terms; ``moi`` evaluates one (k+1)-operator spectral sum per slot
    with the shifted operator in the leading position.
    """
    if spec.flavor != "self_adjoint":
        raise ValidationError("spec flavor must be self_adjoint")
    if method not in ("direct", "moi"):
        raise ParameterError(f"unknown method {method!r}")
    k = spec.order
    dim = spec.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    for slot, phi in enumerate(spec.function.functions):
        base = spec.base[slot]
        pert = spec.perturbations[slot]
        shifted = _shifted(base, pert)
        if method == "direct":
            value = _as_matrix(apply_scalar_function(phi, shifted))
            value = value - _as_matrix(apply_scalar_function(phi, base))
            for ell in range(1, k):
                value = value - kth_derivative(phi, base, pert, ell) / math.factorial(
                    ell
                )
        else:
            integrand = divided_difference_integrand(phi, k)
            value = moi_core([shifted] + [base] * k, integrand, [pert] * k)
        total += value
    return total


# ---------------------------------------------------------------------------
# Unitary Taylor remainders
# ---------------------------------------------------------------------------


def unitary_exponential(generator: HermitianOperator) -> np.ndarray:
    """exp(i H) through the spectral decomposition of H."""
    decomp = generator.decomposition
    phases = np.exp(1j * np.asarray(decomp.eigenvalues, dtype=float))
    return _from_spectrum(phases, decomp.basis)


def exp_series_tail(generator: HermitianOperator, start: int) -> np.ndarray:
    """Tail of the exponential series: exp(iH) minus its partial sum below
    ``start`` (exp(iH) is exact via the spectral decomposition)."""
    if start < 1:
        raise ParameterError("tail must start at order >= 1")
    partial = sum(_exp_term_cache(generator.matrix, start - 1))
    return unitary_exponential(generator) - partial


def polynomial_of_matrix(f: ScalarFunction, matrix: np.ndarray) -> np.ndarray:
    """Horner evaluation of a polynomial at a square matrix, or at each
    matrix of a stack: :func:`_taylor_coefficients` of the series [M], at t^0."""
    if f.kind != "polynomial":
        raise CapabilityError("matrix evaluation needs a polynomial")
    return _taylor_coefficients(f, [matrix])[0]


def _taylor_coefficients(phi: ScalarFunction, series: Sequence[np.ndarray]) -> list:
    """The coefficients of t^0 .. t^(K-1) in phi(Y(t)) for a polynomial phi
    and Y(t) = sum_r series[r] t^r, K = len(series); each entry may be a
    stack of matrices.

    Horner's rule on power series truncated after t^(K-1) (Higham,
    *Functions of Matrices*, SIAM 2008, section 4.2): from [c_p Y_0 +
    c_(p-1) I, c_p Y_1, ..., c_p Y_(K-1)], each lower coefficient c sets
    out_j = out_0 Y_j + ... + out_j Y_0, summed left to right, then adds c I
    to out_0: (p - 1) K (K + 1) / 2 products in all.  A constant phi is its
    constant at t^0.
    """
    series = [np.asarray(term, dtype=np.complex128) for term in series]
    eye = np.eye(series[0].shape[-1], dtype=np.complex128)
    *lower, top = phi.coefficients
    if not lower:
        return [top * eye] + [np.zeros_like(eye)] * (len(series) - 1)
    out = [top * term for term in series]
    out[0] = out[0] + lower.pop() * eye
    for c in reversed(lower):
        out = [functools.reduce(np.add, [out[i] @ series[j - i] for i in range(j + 1)])
               for j in range(len(series))]
        out[0] = out[0] + c * eye
    return out


def _exp_term_cache(generator_matrix: np.ndarray, max_order: int) -> list[np.ndarray]:
    """G_r = (iH)^r / r! for r = 0..max_order."""
    ih = 1j * np.asarray(generator_matrix, dtype=np.complex128)
    terms = [np.eye(ih.shape[0], dtype=np.complex128)]
    for r in range(1, max_order + 1):
        terms.append(terms[-1] @ ih / r)
    return terms


def taylor_remainder_unitary(spec: RemainderSpec, method: str = "moi") -> np.ndarray:
    """Order-k remainder of f(exp(iH) o X) after its t-derivative Taylor terms.

    ``direct`` subtracts from phi(exp(iH) X) its t^0 .. t^(k-1) coefficients
    in phi(exp(itH) X), :func:`_taylor_coefficients` of the series [X, G_1 X,
    ..., G_(k-1) X], G_r = (iH)^r / r!.  ``moi`` sums, per slot, one spectral
    sum for every composition of k into parts (k <= ``MAX_UNITARY_ORDER``),
    with the exponential-series tail as the leading argument factor.
    """
    if spec.flavor != "unitary":
        raise ValidationError("spec flavor must be unitary")
    if method not in ("direct", "moi"):
        raise ParameterError(f"unknown method {method!r}")
    k = spec.order
    dim = spec.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    for slot, phi in enumerate(spec.function.functions):
        base = spec.base[slot]
        gen = spec._generators[slot]
        rotator = unitary_exponential(gen)
        rotated = UnitaryOperator._trusted(rotator @ base.matrix)
        g_terms = _exp_term_cache(gen.matrix, k)
        if method == "direct":
            value = polynomial_of_matrix(phi, rotated.matrix)
            series = [base.matrix] + [g @ base.matrix for g in g_terms[1:k]]
            value = functools.reduce(np.subtract, _taylor_coefficients(phi, series), value)
        else:
            tails = {
                start: exp_series_tail(gen, start) for start in range(1, k + 1)
            }
            value = np.zeros((dim, dim), dtype=np.complex128)
            for ell in range(1, k + 1):
                integrand = divided_difference_integrand(phi, ell)
                ops = [rotated] + [base] * ell
                for comp in compositions(k, ell):
                    args = [tails[comp[0]] @ base.matrix]
                    args.extend(g_terms[part] @ base.matrix for part in comp[1:])
                    value += moi_core(ops, integrand, args)
        total += value
    return total


# ---------------------------------------------------------------------------
# Composition bookkeeping for the unitary remainder bound
# ---------------------------------------------------------------------------


def compositions(total: int, parts: int):
    """All tuples of ``parts`` positive integers summing to ``total``
    (there are C(total-1, parts-1) of them)."""
    if parts < 1 or parts > total:
        return
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _exp_tail_scalar(x: float, start: int) -> float:
    """sum_{m >= start} x^m / m!, summed forward to avoid cancellation."""
    term = x**start / math.factorial(start)
    total = 0.0
    for m in range(start, start + SERIES_TERM_CAP):
        total += term
        term *= x / (m + 1)
        if term <= 1e-18 * max(total, 1.0):
            total += term
            break
    return total


def composition_weight(h_norm: float, composition: Sequence[int]) -> float:
    """Norm weight of one composition (a sequence of positive parts) in the
    unitary remainder bound: the exponential-series tail at the leading part
    times h^i_p / i_p! over the remaining parts."""
    parts = tuple(_integer(i, "composition parts must be positive integers", "", None)
                  for i in composition)
    if not parts or any(i < 1 for i in parts):
        raise ParameterError("composition parts must be positive integers")
    if h_norm < 0:
        raise ParameterError("norm argument must be nonnegative")
    weight = _exp_tail_scalar(float(h_norm), parts[0])
    for part in parts[1:]:
        weight *= float(h_norm) ** part / math.factorial(part)
    return weight


def composition_weight_sum(h_norm: float, order: int, parts: int) -> float:
    """Sum of :func:`composition_weight` over every composition of ``order``
    into ``parts`` positive parts."""
    if not 1 <= parts <= order:
        raise ParameterError(f"parts must lie in 1..{order}")
    return sum(
        composition_weight(h_norm, comp) for comp in compositions(order, parts)
    )
