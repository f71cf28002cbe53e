"""Multiple-operator-integral engine.

Evaluates weighted spectral sums of the form

    sum over eigenvalue tuples of  psi(l_1..l_m) P_1 X_1 P_2 ... X_{m-1} P_m

in rotated coordinates: with each operator diagonalized as U diag(l) U*, the
arguments rotate to Y_j = U_j* X_j U_{j+1}, and the integrand picks one of
two paths:

* factored -- a separable integrand psi = sum_n prod_i f_{i,n}
  (:class:`~moikit.integrands.SeparableIntegrand`) is evaluated as
  sum_n D_{1,n} Y_1 D_{2,n} ... Y_{m-1} D_{m,n}, D_{i,n} = diag(f_{i,n}(l_i)),
  which is the operator-integral definition for such integrands (Peller,
  J. Funct. Anal. 233, 2006); no n^m grid is built.  A polynomial's
  divided difference sums words instead, the t^k coefficient of f(L + tY)
  in Mathias's block-bidiagonal form (SIAM J. Matrix Anal. Appl. 17, 1996);
* grid -- any other integrand is evaluated on the n^m grid of eigenvalue
  tuples, and the sum collapses to a single tensor contraction of that grid
  against the Y matrices.

The evaluation runs on spectra stacked along a leading sample axis
(:func:`_stacked_moi`): the factored path handles every sample at once, the
grid path one sample after the other.  :func:`moi_core` is its batch of one,
and the Monte Carlo harness calls it once per chunk of samples.

Also bounds an evaluation's norm (:func:`moi_norm_bound`) and its drift
under operator perturbation (:func:`continuity_modulus`).
"""

from __future__ import annotations

import math
import string
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CapabilityError,
    FunctionDomainError,
    ParameterError,
    ValidationError,
    _integer,
    _schatten_exponent,
)
from .integrands import (
    MultivariateFunction,
    ScalarFunction,
    SeparableIntegrand,
    _as_integrand,
    _batch_of_one,
    _sample,
    _sibling_sums,
    _word_sums,
    divided_difference_integrand,
    projective_norm_bound,
    sup_norm_on_grid,
)
from .operators import (
    AnyOperator,
    _adjoint,
    _from_spectrum,
    _times_shared,
    operator_norm,
    schatten_norm,
)


def _check_evaluation(operators, integrand, arguments):
    """The one check of an evaluation's inputs: the operators share one
    dimension n, the integrand's arity is their count m, and there are m - 1
    arguments of shape (n, n)."""
    dims = {op.dim for op in operators}
    if len(dims) > 1:
        raise ValidationError(f"operators have mixed dimensions {sorted(dims)}")
    if integrand.arity != len(operators):
        raise ValidationError(
            f"integrand arity {integrand.arity} != operator count {len(operators)}"
        )
    if len(arguments) != len(operators) - 1:
        raise ValidationError(
            f"need {len(operators) - 1} argument matrices, got {len(arguments)}"
        )
    for k, arg in enumerate(arguments):
        expected = (operators[0].dim,) * 2
        if np.shape(arg) != expected:
            raise ValidationError(
                f"argument {k} has shape {np.shape(arg)}, expected {expected}"
            )


@dataclass(frozen=True)
class MoiRequest:
    """An evaluation task: m decomposed operators, an arity-m integrand, and
    m-1 argument matrices threaded between the spectral projectors."""

    operators: tuple[AnyOperator, ...]
    integrand: SeparableIntegrand | MultivariateFunction
    arguments: tuple[np.ndarray, ...]

    def __post_init__(self):
        operators = tuple(self.operators)
        integrand = _as_integrand(self.integrand)
        arguments = tuple(np.asarray(x, dtype=np.complex128) for x in self.arguments)
        if len(operators) < 2:
            raise ValidationError("an evaluation needs at least two operators")
        _check_evaluation(operators, integrand, arguments)
        object.__setattr__(self, "operators", operators)
        object.__setattr__(self, "integrand", integrand)
        object.__setattr__(self, "arguments", arguments)


@dataclass(frozen=True)
class MoiResult:
    value: np.ndarray
    eigen_tuple_count: int
    wall_time: float


def _integrand_grid(
    integrand: MultivariateFunction, axes: Sequence[np.ndarray]
) -> np.ndarray:
    grid = integrand.eval_grid(axes)
    finite = np.isfinite(grid)
    if not np.all(finite):
        idx = np.unravel_index(int(np.argmin(finite)), grid.shape)
        tup = tuple(complex(ax[i]) for ax, i in zip(axes, idx))
        raise FunctionDomainError(
            f"integrand is not finite at eigenvalue tuple {tup}"
        )
    return grid


def _grid_core(
    integrand: MultivariateFunction,
    axes: Sequence[np.ndarray],
    rotated: Sequence[np.ndarray],
) -> np.ndarray:
    """The rotated-coordinate sum of one sample as one contraction of the n^m
    integrand grid on its eigenvalue ``axes`` against the rotated arguments."""
    grid = _integrand_grid(integrand, axes)
    m = len(axes)
    if m == 1:
        return grid
    letters = string.ascii_lowercase[:m]
    spec = ",".join([letters] + [letters[j : j + 2] for j in range(m - 1)])
    spec += "->" + letters[0] + letters[-1]
    return np.einsum(spec, grid, *rotated)


def _factored_core(
    psi: SeparableIntegrand,
    eigenvalues: Sequence[np.ndarray],
    rotated: Sequence[np.ndarray],
) -> np.ndarray:
    """The rotated-coordinate sums of ``sum_n D_1n Y_1 D_2n ... Y_m-1 D_mn``,
    with D_in = diag(f_in(eigenvalues of A_i)), without building a grid, for
    every sample at once: ``eigenvalues[i]`` has shape (N, n) and
    ``rotated[j]`` shape (N, n, n).  Returns the sums, shape (N, n, n) (or
    (N, n) when m = 1).  Raises a FunctionDomainError for the first sample
    whose factor values are not finite, else for any whose sum is not.

    A polynomial's divided difference sums its words (:func:`_word_sums`):
    (k - 1)(Q + 1) n x n products per sample; its factors, the powers up to
    Q of each eigenvalue, are finite where the first and Q-th are.  Any
    other walks :attr:`SeparableIntegrand.suffix_tree` from the left: the
    terms sharing their factors from slot j on share everything left of Y_j,
    so that left part is summed over them (:func:`_sibling_sums`) before it
    is multiplied by Y_j, and each level scales its nodes by their diagonal
    factor in place: one n x n product per distinct suffix of length 1..m-2.
    """
    words = psi._polynomial  # (c_k..c_{k+Q}, k) of a polynomial's divided difference
    if words is not None:
        values = [np.array([w, w ** (len(words[0]) - 1)]) for w in eigenvalues]
    else:
        values = psi.factor_values(eigenvalues)  # per slot: (factors, N, n)
    finite = [np.isfinite(slot_values) for slot_values in values]
    if not all(slot_finite.all() for slot_finite in finite):
        failed = [~slot_finite.all(axis=(0, 2)) for slot_finite in finite]
        s = np.argmax(np.any(failed, axis=0))
        slot = next(j for j, slot_failed in enumerate(failed) if slot_failed[s])
        _, col = np.unravel_index(np.argmin(finite[slot][:, s]), finite[slot][:, s].shape)
        raise FunctionDomainError(
            f"an integrand factor of slot {slot} is not finite at "
            f"eigenvalue {complex(eigenvalues[slot][s, col])}"
        )
    if words is not None:
        core = _word_sums(words[0], eigenvalues, rotated)
    else:
        counts, levels = psi.suffix_tree
        factor, *siblings = levels[0]
        core = values[0][factor]
        core = _sibling_sums(np.multiply(counts[:, None, None], core, out=core), *siblings)
        if rotated:
            core = core[..., None] * rotated[0]
        for j in range(1, len(levels)):
            factor, *siblings = levels[j]
            core = _sibling_sums(np.multiply(core, values[j][factor][:, :, None, :], out=core),
                                 *siblings)
            if j < len(rotated):
                core = core @ rotated[j]
        core = core[0]
    if not np.isfinite(core).all():
        raise FunctionDomainError(
            "the factored sum is not finite: products of integrand factors overflow"
        )
    return core


def _stacked_moi(
    integrand: SeparableIntegrand | MultivariateFunction,
    eigenvalues: Sequence[np.ndarray],
    bases: Sequence[np.ndarray],
    arguments: Sequence[np.ndarray],
) -> np.ndarray:
    """:func:`moi_core` on spectra stacked over samples: ``eigenvalues[i]``
    of shape (N, n) and ``bases[i]`` of shape (N, n, n) decompose the i-th
    operator of every sample; the arguments are shared.

    Returns the N results, or raises the abort error of the first sample
    that fails, as :func:`moi_core` does for that sample alone.
    A rotation's first factor U_j* X_j, a stack times one shared matrix, is
    one BLAS call, not N that cost more than their arithmetic at n = 3 or 4
    (:func:`_times_shared`), and has the per-matrix bits on the pinned BLAS.
    """
    # a derivative or remainder passes the same basis and argument objects
    # to several slots: each distinct (basis, argument, basis) is rotated
    # once.  The lists hold every item while its id keys the cache: items of
    # a stacked array are fresh views, and a freed view's id may be reused.
    bases, arguments = list(bases), list(arguments)
    rotations: dict = {}
    rotated = []
    for j in range(len(bases) - 1):
        key = (id(bases[j]), id(arguments[j]), id(bases[j + 1]))
        if key not in rotations:
            rotations[key] = _times_shared(
                _adjoint(bases[j]), np.asarray(arguments[j], dtype=np.complex128)
            ) @ bases[j + 1]
        rotated.append(rotations[key])
    if integrand.separable is not None:
        core = _factored_core(integrand.separable, eigenvalues, rotated)
    else:
        core = np.array([
            _grid_core(integrand, _sample(eigenvalues, s), [y[s] for y in rotated])
            for s in range(len(bases[0]))
        ])
    if len(bases) == 1:
        return _from_spectrum(core, bases[0])
    return bases[0] @ core @ _adjoint(bases[-1])


def moi_core(
    operators: Sequence[AnyOperator],
    integrand,
    arguments: Sequence[np.ndarray],
) -> np.ndarray:
    """Spectral-sum evaluation for any operator count m >= 1.

    m = 1 has no arguments and reduces to applying the integrand as a scalar
    function of the single operator.  A separable integrand is evaluated in
    factored form (over words if it is a polynomial's divided difference),
    any other on the n^m eigenvalue grid.  The inputs get the checks of
    :class:`MoiRequest`, with its messages, except that one operator is
    allowed.
    """
    integrand = _as_integrand(integrand)
    _check_evaluation(operators, integrand, arguments)
    decomps = [op.decomposition for op in operators]
    return _stacked_moi(
        integrand,
        _batch_of_one([d.eigenvalues for d in decomps]),
        _batch_of_one([d.basis for d in decomps]),
        arguments,
    )[0]


def moi_evaluate(request: MoiRequest) -> MoiResult:
    """Evaluate the request; the result matches the direct projector-product
    sum to the engine's working precision."""
    start = time.perf_counter()
    value = moi_core(request.operators, request.integrand, request.arguments)
    elapsed = time.perf_counter() - start
    count = math.prod(op.dim for op in request.operators)
    return MoiResult(value=value, eigen_tuple_count=count, wall_time=elapsed)


def moi_norm_bound(
    request: MoiRequest, schatten_p: Sequence[float] | None = None
) -> tuple[float, float]:
    """Certified upper bound and actual norm of an evaluation.

    Operator mode (default): bound = projective surrogate of the integrand on
    the realized spectra times the product of argument spectral norms; actual
    is the spectral norm of the result.

    Schatten mode: argument i is measured in the Schatten p_i norm (p_i >= 1,
    sum of reciprocals at most 1) and the result in the Schatten q norm with
    1/q = sum_i 1/p_i (q = inf when the sum is zero).
    """
    integrand = request.integrand
    if integrand.separable is None:
        raise CapabilityError("a certified bound needs a separable representation")
    spectra = [np.asarray(op.decomposition.eigenvalues) for op in request.operators]
    surrogate = projective_norm_bound(integrand.separable, spectra)
    value = moi_core(request.operators, integrand, request.arguments)
    if schatten_p is None:
        bound = math.prod(map(operator_norm, request.arguments), start=surrogate)
        return bound, operator_norm(value)
    exponents = [_schatten_exponent(p) for p in schatten_p]
    if len(exponents) != len(request.arguments):
        raise ParameterError("one Schatten exponent per argument is required")
    q = holder_result_exponent(holder_reciprocal_sum(exponents))
    bound = math.prod(map(schatten_norm, request.arguments, exponents), start=surrogate)
    return bound, schatten_norm(value, q)


def holder_reciprocal_sum(schatten_p: Sequence[float]) -> float:
    """The sum of 1/p_i over the argument exponents, checked against the
    Hölder hypotheses p_i >= 1 and sum at most 1."""
    exponents = [_schatten_exponent(p) for p in schatten_p]
    reciprocal = sum(0.0 if p == np.inf else 1.0 / p for p in exponents)
    if reciprocal > 1.0 + 1e-12:
        raise ParameterError(
            f"sum of reciprocal exponents is {reciprocal:.6f}, must be <= 1"
        )
    return reciprocal


def holder_result_exponent(reciprocal: float) -> float:
    """The result exponent q with 1/q = ``reciprocal`` (inf when it is 0)."""
    return np.inf if reciprocal == 0.0 else 1.0 / reciprocal


def continuity_modulus(
    f: ScalarFunction,
    order: int,
    operators: Sequence[AnyOperator],
    perturbed: Sequence[AnyOperator],
    arguments: Sequence[np.ndarray],
) -> tuple[float, float]:
    """Measured drift of an evaluation under operator perturbation, with the
    modulus-of-continuity bound.

    lhs = || T(perturbed list) - T(base list) || for the order-n divided
    difference integrand; bound = (order-(n+1) surrogate norm over the union
    of both spectra) * sum_i ||A'_i - A_i|| * prod_j ||X_j||.  For a
    polynomial ``f`` the surrogate is the projective sum,
    ``sum_p |c_p| h_{p-k-1}(R, .., R)`` with R the union's largest |l|,
    summed over words: an upper bound on the integrand's Schur-multiplier
    norm, so the bound is certified.  For
    any other ``f`` it is the sup over every multiset of the union's
    distinct nodes, each read once, with no grid: only a lower bound on that
    norm, so the bound is an estimate, not a certificate.
    """
    order = _integer(order, "orders must be integers", "", None)
    if len(perturbed) != len(operators):
        raise ValidationError("operator lists must have equal length")
    if len(operators) != order + 1:
        raise ValidationError(
            f"order {order} needs {order + 1} operators, got {len(operators)}"
        )
    if len(arguments) != order:
        raise ValidationError(f"need {order} arguments")
    dd_n = divided_difference_integrand(f, order)
    lhs_matrix = moi_core(perturbed, dd_n, arguments) - moi_core(
        operators, dd_n, arguments
    )
    lhs = operator_norm(lhs_matrix)

    dd_next = divided_difference_integrand(f, order + 1)
    union = np.concatenate(
        [op.decomposition.eigenvalues for op in [*operators, *perturbed]]
    )
    spectra = [union] * (order + 2)
    if dd_next.separable is not None:
        surrogate = projective_norm_bound(dd_next.separable, spectra)
    else:
        surrogate = sup_norm_on_grid(dd_next, spectra)
    drift = sum(
        operator_norm(b.matrix - a.matrix) for a, b in zip(operators, perturbed)
    )
    return lhs, surrogate * drift * math.prod(map(operator_norm, arguments))
