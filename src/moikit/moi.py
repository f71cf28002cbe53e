"""Multiple-operator-integral engine.

Evaluates weighted spectral sums of the form

    sum over eigenvalue tuples of  psi(l_1..l_m) P_1 X_1 P_2 ... X_{m-1} P_m

in rotated coordinates: with each operator diagonalized as U diag(l) U*, the
arguments rotate to Y_j = U_j* X_j U_{j+1}, and the integrand picks one of
two paths:

* factored -- an integrand with a separable representation
  psi = sum_n prod_i f_{i,n} is evaluated as
  sum_n D_{1,n} Y_1 D_{2,n} ... Y_{m-1} D_{m,n}, D_{i,n} = diag(f_{i,n}(l_i)),
  which is the operator-integral definition for such integrands (Peller,
  J. Funct. Anal. 233, 2006); no n^m grid is built;
* grid -- any other integrand is evaluated on the n^m grid of eigenvalue
  tuples, and the sum collapses to a single tensor contraction of that grid
  against the Y matrices.

The evaluation runs on spectra stacked along a leading sample axis
(:func:`_stacked_moi`): the factored path handles every sample at once, the
grid path one sample after the other.  :func:`moi_core` is its batch of one,
and the Monte Carlo harness calls it once per chunk of samples.

Also certifies the algebraic, norm, perturbation, and continuity identities
the evaluator is expected to satisfy.
"""

from __future__ import annotations

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
)
from .integrands import (
    MultivariateFunction,
    ScalarFunction,
    SeparableIntegrand,
    _as_integrand,
    _batch_of_one,
    _sibling_sums,
    _with_grid,
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

__all__ = [
    "MoiRequest",
    "MoiResult",
    "moi_evaluate",
    "moi_core",
    "moi_linear_combination_check",
    "moi_split_evaluate",
    "moi_partition_evaluate",
    "moi_norm_bound",
    "perturbation_residual",
    "continuity_modulus",
]


def _check_evaluation(operators, integrand: MultivariateFunction, arguments):
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
    integrand: MultivariateFunction
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

    @property
    def dim(self) -> int:
        return self.operators[0].dim


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
) -> tuple[np.ndarray, dict[int, FunctionDomainError]]:
    """The rotated-coordinate sums of ``sum_n D_1n Y_1 D_2n ... Y_m-1 D_mn``,
    with D_in = diag(f_in(eigenvalues of A_i)), without building a grid, for
    every sample at once: ``eigenvalues[i]`` has shape (N, n) and
    ``rotated[j]`` shape (N, n, n).  Returns the sums, shape (N, n, n) (or
    (N, n) when m = 1), and a FunctionDomainError by sample index for every
    sample whose factor values or sum are not finite.

    Walks :attr:`SeparableIntegrand.suffix_tree` from the left: the terms
    sharing their factors from slot j on share everything left of Y_j, so
    that left part is summed over them (:func:`_sibling_sums`, with the bits
    of ``np.add.reduceat``) before it is multiplied by Y_j.  Each level
    scales its nodes by their diagonal factor in place.  The cost is one
    n x n product per sample and distinct suffix of length 1..m-2.
    """
    values = psi.factor_values(eigenvalues)  # per slot: (factors, N, n)
    errors = {}
    for slot, (slot_values, axis) in enumerate(zip(values, eigenvalues)):
        finite = np.isfinite(slot_values)
        if finite.all():
            continue
        failed = ~finite.all(axis=(0, 2))
        for s in np.flatnonzero(failed):
            if s not in errors:
                _, col = np.unravel_index(int(np.argmin(finite[:, s])), finite[:, s].shape)
                errors[int(s)] = FunctionDomainError(
                    f"an integrand factor of slot {slot} is not finite at "
                    f"eigenvalue {complex(axis[s, col])}"
                )
        # the failed samples' sums are not used; slots may share their values
        values[slot] = np.where(failed[:, None], 0.0, slot_values)
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
    finite = np.isfinite(core)
    if not finite.all():
        for s in np.flatnonzero(~finite.reshape(len(core), -1).all(axis=1)):
            errors.setdefault(int(s), FunctionDomainError(
                "the factored sum is not finite: products of integrand factors overflow"
            ))
    return core, errors


def _stacked_moi(
    integrand: MultivariateFunction,
    eigenvalues: Sequence[np.ndarray],
    bases: Sequence[np.ndarray],
    arguments: Sequence[np.ndarray],
) -> tuple[np.ndarray, dict]:
    """:func:`moi_core` on spectra stacked over samples: ``eigenvalues[i]``
    of shape (N, n) and ``bases[i]`` of shape (N, n, n) decompose the i-th
    operator of every sample; the arguments are shared.

    Returns the N results and, for the factored path, a FunctionDomainError
    by sample index for each sample that failed (its result is not finite).
    The grid path evaluates sample by sample and raises on the first failure.
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
        core, errors = _factored_core(integrand.separable, eigenvalues, rotated)
    else:
        core = np.array([
            _grid_core(integrand, [w[s] for w in eigenvalues], [y[s] for y in rotated])
            for s in range(len(bases[0]))
        ])
        errors = {}
    if len(bases) == 1:
        return _from_spectrum(core, bases[0]), errors
    return bases[0] @ core @ _adjoint(bases[-1]), errors


def moi_core(
    operators: Sequence[AnyOperator],
    integrand,
    arguments: Sequence[np.ndarray],
) -> np.ndarray:
    """Spectral-sum evaluation for any operator count m >= 1.

    m = 1 has no arguments and reduces to applying the integrand as a scalar
    function of the single operator.  An integrand with a separable
    representation is evaluated in factored form; any other is evaluated on
    the n^m eigenvalue grid.  The inputs get the checks of
    :class:`MoiRequest`, with its messages, except that one operator is
    allowed.
    """
    integrand = _as_integrand(integrand)
    _check_evaluation(operators, integrand, arguments)
    decomps = [op.decomposition for op in operators]
    value, errors = _stacked_moi(
        integrand,
        _batch_of_one([d.eigenvalues for d in decomps]),
        _batch_of_one([d.basis for d in decomps]),
        arguments,
    )
    if errors:
        raise errors[0]
    return value[0]


def moi_evaluate(request: MoiRequest) -> MoiResult:
    """Evaluate the request; the result matches the direct projector-product
    sum to the engine's working precision."""
    start = time.perf_counter()
    value = moi_core(request.operators, request.integrand, request.arguments)
    elapsed = time.perf_counter() - start
    count = 1
    for op in request.operators:
        count *= op.dim
    return MoiResult(value=value, eigen_tuple_count=count, wall_time=elapsed)


def _linear_combination(
    phi: MultivariateFunction, psi: MultivariateFunction, alpha, beta
) -> MultivariateFunction:
    """The integrand ``alpha * phi + beta * psi``: separable when both are,
    else evaluated on a grid as ``alpha * grid(phi) + beta * grid(psi)``."""
    if phi.separable is not None and psi.separable is not None:
        return phi.separable.scaled(alpha).plus(psi.separable.scaled(beta)).as_multivariate()
    return _with_grid(
        MultivariateFunction(
            phi.arity, lambda pt: alpha * phi.evaluate(pt) + beta * psi.evaluate(pt)
        ),
        lambda axes: alpha * phi.eval_grid(axes) + beta * psi.eval_grid(axes),
    )


def moi_linear_combination_check(
    phi,
    psi,
    alpha,
    beta,
    operators: Sequence[AnyOperator],
    arguments: Sequence[np.ndarray],
) -> float:
    """Residual of linearity:  || T_{a*phi + b*psi} - (a T_phi + b T_psi) ||."""
    phi = _as_integrand(phi)
    psi = _as_integrand(psi)
    if phi.arity != psi.arity:
        raise ValidationError("integrand arities differ")
    lhs = moi_core(operators, _linear_combination(phi, psi, alpha, beta), arguments)
    rhs = alpha * moi_core(operators, phi, arguments) + beta * moi_core(
        operators, psi, arguments
    )
    return operator_norm(lhs - rhs)


def moi_split_evaluate(
    psi_left: SeparableIntegrand,
    psi_right: SeparableIntegrand,
    operators: Sequence[AnyOperator],
    arguments: Sequence[np.ndarray],
) -> np.ndarray:
    """Factored evaluation of a block-product integrand.

    For psi_left of arity k and psi_right of arity m-k, returns
    ``T_left(X_1..X_{k-1}) X_k T_right(X_{k+1}..X_{m-1})``, which equals the
    full evaluation of their block product.
    """
    k = psi_left.arity
    m = len(operators)
    if not 1 <= k <= m - 1:
        raise ParameterError(f"split point {k} must lie in 1..{m - 1}")
    return moi_partition_evaluate(
        (psi_left, psi_right), (k, m - k), operators, arguments
    )


def moi_partition_evaluate(
    segment_integrands: Sequence[SeparableIntegrand],
    segment_lengths: Sequence[int],
    operators: Sequence[AnyOperator],
    arguments: Sequence[np.ndarray],
) -> np.ndarray:
    """Factored evaluation over a contiguous partition of the operator list.

    With the operators split into contiguous non-empty segments and the full
    integrand equal to the product of the per-segment integrands, the result
    is the product of the per-segment evaluations joined by the argument
    matrices at the segment boundaries.
    """
    lengths = [int(s) for s in segment_lengths]
    if len(lengths) != len(segment_integrands) or not lengths:
        raise ValidationError("one integrand per segment is required")
    if any(s < 1 for s in lengths):
        raise ValidationError("every segment must hold at least one operator")
    if sum(lengths) != len(operators):
        raise ValidationError(
            f"segment lengths sum to {sum(lengths)}, expected {len(operators)}"
        )
    for psi, length in zip(segment_integrands, lengths):
        if psi.arity != length:
            raise ValidationError(
                f"segment integrand arity {psi.arity} != segment length {length}"
            )
    result = None
    offset = 0
    for idx, (psi, length) in enumerate(zip(segment_integrands, lengths)):
        ops = operators[offset : offset + length]
        args = arguments[offset : offset + length - 1]
        block = moi_core(ops, psi, args)
        if result is None:
            result = block
        else:
            boundary = np.asarray(arguments[offset - 1], dtype=np.complex128)
            result = result @ boundary @ block
        offset += length
    return result


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
        bound = surrogate
        for arg in request.arguments:
            bound *= operator_norm(arg)
        return bound, operator_norm(value)
    exponents = [float(p) for p in schatten_p]
    if len(exponents) != len(request.arguments):
        raise ParameterError("one Schatten exponent per argument is required")
    q = holder_result_exponent(holder_reciprocal_sum(exponents))
    bound = surrogate
    for arg, p in zip(request.arguments, exponents):
        bound *= schatten_norm(arg, p)
    return bound, schatten_norm(value, q)


def holder_reciprocal_sum(schatten_p: Sequence[float]) -> float:
    """The sum of 1/p_i over the argument exponents, checked against the
    Hölder hypotheses p_i >= 1 and sum at most 1."""
    exponents = [float(p) for p in schatten_p]
    if any(p < 1 for p in exponents):
        raise ParameterError("Schatten exponents must satisfy p >= 1")
    reciprocal = sum(0.0 if p == np.inf else 1.0 / p for p in exponents)
    if reciprocal > 1.0 + 1e-12:
        raise ParameterError(
            f"sum of reciprocal exponents is {reciprocal:.6f}, must be <= 1"
        )
    return reciprocal


def holder_result_exponent(reciprocal: float) -> float:
    """The result exponent q with 1/q = ``reciprocal`` (inf when it is 0)."""
    return np.inf if reciprocal == 0.0 else 1.0 / reciprocal


def perturbation_residual(
    f: ScalarFunction,
    operators: Sequence[AnyOperator],
    insert_index: int,
    c_op: AnyOperator,
    d_op: AnyOperator,
    arguments: Sequence[np.ndarray],
) -> float:
    """Residual of the middle-operator replacement identity.

    Swapping one inserted operator C for D inside an order-m divided
    difference evaluation equals one order-(m+1) evaluation with C and D
    adjacent and C - D threaded as the extra argument.  Returns the spectral
    norm of (left side - right side).
    """
    m = len(operators)
    if len(arguments) != m:
        raise ValidationError(f"need {m} arguments, got {len(arguments)}")
    if not 1 <= insert_index <= m + 1:
        raise ParameterError(f"insert index must lie in 1..{m + 1}")
    j = insert_index - 1
    dd_m = divided_difference_integrand(f, m)
    dd_m1 = divided_difference_integrand(f, m + 1)
    with_c = list(operators[:j]) + [c_op] + list(operators[j:])
    with_d = list(operators[:j]) + [d_op] + list(operators[j:])
    lhs = moi_core(with_c, dd_m, arguments) - moi_core(with_d, dd_m, arguments)
    both = list(operators[:j]) + [c_op, d_op] + list(operators[j:])
    gap = c_op.matrix - d_op.matrix
    rhs_args = list(arguments[:j]) + [gap] + list(arguments[j:])
    rhs = moi_core(both, dd_m1, rhs_args)
    return operator_norm(lhs - rhs)


def continuity_modulus(
    f: ScalarFunction,
    order: int,
    operators: Sequence[AnyOperator],
    perturbed: Sequence[AnyOperator],
    arguments: Sequence[np.ndarray],
) -> tuple[float, float]:
    """Measured drift of an evaluation under operator perturbation, with the
    certified modulus-of-continuity bound.

    lhs = || T(perturbed list) - T(base list) || for the order-n divided
    difference integrand; bound = (order-(n+1) surrogate norm over the union
    of both spectra) * sum_i ||A'_i - A_i|| * prod_j ||X_j||.  For a
    non-polynomial ``f`` the surrogate is the sup over every multiset of the
    union's distinct nodes, each read once, with no grid.
    """
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
    argument_product = 1.0
    for arg in arguments:
        argument_product *= operator_norm(arg)
    return lhs, surrogate * drift * argument_product
