"""Operator calculus: derivatives, higher differences, Taylor remainders.

Each construction is available both directly (finite differences of matrix
functions, exact series collection) and through its spectral-sum
representation; agreement of the two routes is the module's main test
surface.  The unitary flavor perturbs multiplicatively by exp(i t H) and is
restricted to polynomial scalar functions so every series manipulation is
exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapabilityError, ParameterError, ValidationError
from .integrands import (
    ScalarFunction,
    add_scalar_functions,
    divided_difference_integrand,
    multiply_by_slot_variable,
)
from .moi import moi_core
from .operators import (
    AnyOperator,
    HermitianOperator,
    UnitaryOperator,
    _function_of_spectra,
    _shifted,
    _times_shared,
    apply_scalar_function,
    operator_norm,
    shifted_operator,
)

__all__ = [
    "MultiIndex",
    "SlotFunctionSum",
    "RemainderSpec",
    "frechet_derivative",
    "kth_derivative",
    "higher_difference",
    "higher_difference_moi_diagnostic",
    "taylor_remainder_self_adjoint",
    "taylor_remainder_unitary",
    "exp_series_tail",
    "unitary_exponential",
    "polynomial_of_matrix",
    "compositions",
    "composition_weight",
    "composition_weight_sum",
]

SERIES_TERM_CAP = 64


@dataclass(frozen=True)
class MultiIndex:
    """A tuple of nonnegative integers with the usual |a| and a! shorthands."""

    components: tuple[int, ...]

    def __post_init__(self):
        comps = tuple(int(c) for c in self.components)
        if any(c < 0 for c in comps):
            raise ValidationError("multi-index components must be nonnegative")
        object.__setattr__(self, "components", comps)

    @property
    def size(self) -> int:
        return sum(self.components)

    @property
    def factorial(self) -> int:
        return math.prod(math.factorial(c) for c in self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


@dataclass(frozen=True)
class SlotFunctionSum:
    """A multivariate operator function of the form sum_j phi_j(X_j).

    ``terms`` maps slot indices to scalar functions; repeated slots add.
    """

    arity: int
    terms: tuple[tuple[int, ScalarFunction], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValidationError("slot count must be positive")
        terms = tuple((int(slot), fn) for slot, fn in self.terms)
        if not terms:
            raise ValidationError("at least one slot function is required")
        for slot, _ in terms:
            if not 0 <= slot < self.arity:
                raise ValidationError(f"slot {slot} out of range 0..{self.arity - 1}")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_slot_functions(cls, functions: Sequence[ScalarFunction]) -> "SlotFunctionSum":
        return cls(len(functions), tuple(enumerate(functions)))

    def per_slot(self) -> list[tuple[int, ScalarFunction]]:
        """Slot functions with repeated slots combined, in slot order."""
        grouped: dict[int, ScalarFunction] = {}
        for slot, fn in self.terms:
            grouped[slot] = add_scalar_functions(grouped[slot], fn) if slot in grouped else fn
        return sorted(grouped.items())


@dataclass(frozen=True)
class RemainderSpec:
    """Order-k Taylor remainder task for a slotwise function sum.

    ``self_adjoint`` perturbs each base operator additively by a Hermitian
    H_j; ``unitary`` multiplies each unitary base operator by exp(i H_j) and
    requires polynomial slot functions.  Each H_j may be given as a matrix or
    as a :class:`HermitianOperator`; a matrix is checked here.
    """

    order: int
    function: SlotFunctionSum
    base: tuple[AnyOperator, ...]
    perturbations: tuple[np.ndarray, ...]
    flavor: str

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError("remainder order must be >= 1")
        if self.flavor not in ("self_adjoint", "unitary"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        base, perts = tuple(self.base), tuple(self.perturbations)
        if len(base) != self.function.arity or len(perts) != self.function.arity:
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
            for slot, fn in self.function.terms:
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
    if order < 1:
        raise ParameterError("derivative order must be >= 1")
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
    if order < 0:
        raise ParameterError("difference order must be nonnegative")
    return _ladder_difference(f, _shift_ladder(operator, step, order))


def _shift_ladder(operator: HermitianOperator, step, order: int) -> list:
    """[A, A + B, ..., A + kB] for A = ``operator``, B = ``step``, k = ``order``."""
    step = np.asarray(step, dtype=np.complex128)
    return [operator] + [shifted_operator(operator, i * step) for i in range(1, order + 1)]


def _ladder_difference(
    f: ScalarFunction, ladder: Sequence[HermitianOperator]
) -> np.ndarray:
    """:func:`_binomial_sum` of the operators [A, A + B, ..., A + kB]."""
    decomps = [op.decomposition for op in ladder]
    total, errors = _binomial_sum(
        f, [d.eigenvalues[None] for d in decomps], [d.basis[None] for d in decomps]
    )
    if errors:
        raise errors[0]
    return total[0]


def _binomial_sum(f: ScalarFunction, eigenvalues, bases) -> tuple[np.ndarray, dict]:
    """The order-k difference from the spectra of its shifted Hermitian
    operators [A, A + B, ..., A + kB], stacked over samples (``eigenvalues[i]``
    of shape (N, n), ``bases[i]`` of shape (N, n, n)): per sample, the sum
    over i of (-1)^(k-i) C(k, i) f(A + iB).  Also returns, by sample index,
    the FunctionDomainError of the first operator where f is not finite."""
    order = len(eigenvalues) - 1
    total = np.zeros(bases[0].shape, dtype=np.complex128)
    errors: dict = {}
    for i, (values, basis) in enumerate(zip(eigenvalues, bases)):
        _, value, _, failed = _function_of_spectra(f, values, basis, hermitian=True)
        total += ((-1) ** (order - i)) * math.comb(order, i) * value
        errors = {**failed, **errors}
    return total, errors


def higher_difference_moi_diagnostic(
    f: ScalarFunction, operator: HermitianOperator, step: np.ndarray, order: int
) -> dict:
    """Exploratory cross-check of the gap-weighted spectral-sum form of the
    order-k difference against the binomial definition.

    The binomial definition is authoritative; this reports the deviation of
    the candidate representation (sum over j of spectral sums weighted by the
    slot-gap factor) without treating disagreement as a failure.
    """
    if order < 1:
        raise ParameterError("diagnostic needs order >= 1")
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
    for slot, phi in spec.function.per_slot():
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
    return (decomp.basis * phases) @ decomp.basis.conj().T


def exp_series_tail(generator: HermitianOperator, start: int) -> np.ndarray:
    """Tail of the exponential series: exp(iH) minus its partial sum below
    ``start`` (exp(iH) is exact via the spectral decomposition)."""
    if start < 1:
        raise ParameterError("tail must start at order >= 1")
    partial = sum(_exp_term_cache(generator.matrix, start - 1))
    return unitary_exponential(generator) - partial


def polynomial_of_matrix(f: ScalarFunction, matrix: np.ndarray) -> np.ndarray:
    """Horner evaluation of a polynomial at a square matrix, or at each
    matrix of a stack."""
    if f.kind != "polynomial":
        raise CapabilityError("matrix evaluation needs a polynomial")
    matrix = np.asarray(matrix, dtype=np.complex128)
    eye = np.eye(matrix.shape[-1], dtype=np.complex128)
    coeffs = f.coefficients
    result = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        result = result @ matrix + c * eye
    return result


def _exp_term_cache(generator_matrix: np.ndarray, max_order: int) -> list[np.ndarray]:
    """G_r = (iH)^r / r! for r = 0..max_order."""
    ih = 1j * np.asarray(generator_matrix, dtype=np.complex128)
    terms = [np.eye(ih.shape[0], dtype=np.complex128)]
    for r in range(1, max_order + 1):
        terms.append(terms[-1] @ ih / r)
    return terms


def _unitary_taylor_term(
    phi: ScalarFunction, x_matrix: np.ndarray, g_terms: list[np.ndarray], order: int
) -> np.ndarray:
    """(1/order!) d^order/dt^order phi(exp(itH) X) at t = 0.

    Exact for polynomial phi: expand exp(itH) as a series, distribute over
    the monomial's factors, and collect the t^order coefficient.  X may be a
    stack of matrices.

    For X^p this sums G_r1 X ... G_rp X (G_r = g_terms[r]) over the p-tuples
    summing to ``order``, in lexicographic order, built along shared prefixes
    without the leading I or any G_0 = I (exact but for the sign of a zero).
    A prefix stack times G_r is one BLAS call (:func:`_times_shared`), with
    the per-matrix bits.
    """
    dim = x_matrix.shape[-1]
    total = np.zeros(x_matrix.shape, dtype=np.complex128)

    def products(prefix, budget: int, slots: int):
        for r in range(budget + 1) if slots > 1 else (budget,):
            if prefix is None:
                head = x_matrix if r == 0 else g_terms[r] @ x_matrix
            else:
                head = (prefix if r == 0 else _times_shared(prefix, g_terms[r])) @ x_matrix
            if slots == 1:
                yield head
            else:
                yield from products(head, budget - r, slots - 1)

    for p, c in enumerate(phi.coefficients):
        if c == 0:
            continue
        if p == 0:
            if order == 0:
                total += c * np.eye(dim, dtype=np.complex128)
            continue
        if order == 0:
            total += c * np.linalg.matrix_power(x_matrix, p)
            continue
        for prod in products(None, order, p):
            total += c * prod
    return total


def taylor_remainder_unitary(spec: RemainderSpec, method: str = "moi") -> np.ndarray:
    """Order-k remainder of f(exp(iH) o X) after its t-derivative Taylor terms.

    ``direct`` collects the t-power coefficients of each polynomial slot
    function exactly; ``moi`` sums, per slot, one spectral-sum term for every
    composition of k into parts, with the exponential-series tail as the
    leading argument factor.
    """
    if spec.flavor != "unitary":
        raise ValidationError("spec flavor must be unitary")
    if method not in ("direct", "moi"):
        raise ParameterError(f"unknown method {method!r}")
    k = spec.order
    dim = spec.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    for slot, phi in spec.function.per_slot():
        base = spec.base[slot]
        gen = spec._generators[slot]
        rotator = unitary_exponential(gen)
        rotated = UnitaryOperator._trusted(rotator @ base.matrix)
        g_terms = _exp_term_cache(gen.matrix, k)
        if method == "direct":
            value = polynomial_of_matrix(phi, rotated.matrix)
            for ell in range(k):
                value = value - _unitary_taylor_term(phi, base.matrix, g_terms, ell)
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


def composition_weight(h_norm: float, composition) -> float:
    """Norm weight of one composition in the unitary remainder bound:
    the exponential-series tail at the leading part times h^i_p / i_p! over
    the remaining parts."""
    if isinstance(composition, MultiIndex):
        parts = composition.components
    else:
        parts = tuple(int(i) for i in composition)
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
