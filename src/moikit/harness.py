"""Monte Carlo verification of the tail bounds and mean-convergence results.

Each experiment draws random operators (Haar eigenbasis, configurable
eigenvalue law), computes a left-hand-side statistic exactly through the
other modules, estimates the expectation terms on the same sample stream,
and compares the empirical exceedance frequency against the Markov-type
right-hand side at every point of a theta grid.

A range of samples is evaluated in chunks.  The samples draw their random
operators in blocks of :data:`SAMPLE_BLOCK` = 256: block b (samples 256 b to
256 b + 255) draws from the stream ``np.random.default_rng((seed, b))``, model
by model in order, first the law variates of all 256 samples, then their
Ginibre normals.  A chunk holds whole blocks when it holds at least one; a
chunk or worker range that starts or ends inside a block draws that block
whole and keeps its own samples.  The draws are stacked along a leading
sample axis, and one batched statistic function per theorem computes the
chunk's statistics and terms with stacked QR, eigendecompositions, factored
engine sums, sup surrogates and SVD norms.  The sup surrogates never hold a
chunk's grid: a one-term real integrand's sup is the ordered product of its
per-slot maxima (exact, as rounding is monotone), and any other separable
integrand's grid is summed in cache-sized blocks of samples, each reduced to
its maxima at once (see ``integrands._sup_norms``).  Batched arithmetic
gives each sample the same bits as a call on that sample alone, so a
sample's values do not depend on the chunk or worker range it falls in.  A
sample whose arithmetic fails is aborted through a per-sample mask; a chunk
that raises one of the abort errors is evaluated again one sample at a time,
so that exactly the samples that fail alone are aborted.

Reproducibility contract: a sample's draws depend on the seed and its index
alone, per-sample values land in arrays indexed by sample, and aggregation
is a fixed-order pairwise sum, so results are byte-identical for a fixed
seed regardless of how samples are partitioned across workers and chunks.
:func:`convergence_in_mean_check` and :func:`estimate_expectation` keep one
stream per sample: sample i draws from
``np.random.default_rng(mix64(seed, i))`` (:func:`sample_stream`).

The norm of an integrand over random spectra is measured by the sup of its
absolute value over all tuples drawn from the union of the realized spectra
(recorded in every report).
"""

from __future__ import annotations

import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    _binomial_sum,
    _exp_term_cache,
    _unitary_taylor_term,
    composition_weight_sum,
    polynomial_of_matrix,
    unitary_exponential,
)
from .errors import (
    CapabilityError,
    FunctionDomainError,
    NumericalError,
    ParameterError,
    ValidationError,
    _integer,
)
from .integrands import (
    ScalarFunction,
    SeparableIntegrand,
    _sup_norms,
    divided_difference_integrand,
)
from .moi import (
    _stacked_moi,
    continuity_modulus,
    holder_reciprocal_sum,
    holder_result_exponent,
)
from .operators import (
    HermitianOperator,
    RandomOperatorModel,
    _draw,
    _hermitian_spectra,
    _hermitian_sum,
    _random_spectra,
    _shifted,
    _spectral_matrices,
    _stacked_norms,
    as_square_complex,
    operator_norm,
    random_hermitian,
    sample_random_hermitian,
    schatten_norm,
)

__all__ = [
    "THEOREM_IDS",
    "TailBoundExperiment",
    "TailBoundReport",
    "mix64",
    "sample_stream",
    "estimate_expectation",
    "run_tail_bound",
    "convergence_parameters",
    "convergence_in_mean_check",
]

THEOREM_IDS = (
    "moi_norm_a",
    "moi_norm_schatten_b",
    "first_derivative",
    "kth_derivative",
    "higher_difference",
    "sa_remainder",
    "unitary_remainder",
)

SURROGATE_NOTE = "sup of |integrand| over tuples from the union of realized spectra"

# Samples per RNG stream of a tail-bound run.
SAMPLE_BLOCK = 256
SAMPLER_NOTE = (
    f"block b of {SAMPLE_BLOCK} samples draws from np.random.default_rng((seed, b)), "
    "model by model: law variates, then Ginibre normals"
)

_MASK64 = (1 << 64) - 1


def mix64(seed: int, index: int) -> int:
    """SplitMix64-style stream derivation: independent 64-bit stream seeds
    from a base seed and a sample index."""
    z = (int(seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """The RNG stream owned by one sample; execution order never matters."""
    return np.random.default_rng(mix64(seed, index))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean (0.0 for a single value)."""
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def estimate_expectation(
    sample_fn: Callable[[np.random.Generator], float], n_samples: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of a per-stream scalar statistic."""
    if n_samples < 100:
        raise ParameterError("expectation estimates need at least 100 samples")
    values = np.empty(n_samples)
    for i in range(n_samples):
        values[i] = sample_fn(sample_stream(seed, i))
    return _mean_stderr(values)


# ---------------------------------------------------------------------------
# Experiment definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailBoundExperiment:
    """One tail-bound verification task.

    ``fixed_inputs`` holds the deterministic matrices the theorem requires:
    ``arguments`` (norm bounds), ``direction`` (derivatives), ``step``
    (higher differences), ``perturbations`` (remainders), all square of the
    models' common dimension; ``step`` and ``perturbations`` are Hermitian.
    ``integrand`` is a SeparableIntegrand for the norm-bound theorems, a
    ScalarFunction for the derivative/difference theorems, and a tuple of
    per-slot ScalarFunctions for the remainder theorems.  Every input is
    checked here, once.
    """

    theorem_id: str
    operator_models: tuple[RandomOperatorModel, ...]
    fixed_inputs: dict
    integrand: object
    theta_grid: tuple[float, ...]
    samples: int
    seed: int
    order: int | None = None
    schatten_p: tuple[float, ...] | None = None
    eigengap_bound: float | None = None

    def __post_init__(self):
        for name, value in _checked_fields(self).items():
            object.__setattr__(self, name, value)


_SCALAR_THEOREMS = ("first_derivative", "kth_derivative", "higher_difference")


def _checked_fields(exp: TailBoundExperiment) -> dict:
    """Check every input of ``exp``; return the normalized field values (the
    fixed matrices the theorem uses become read-only complex arrays)."""
    tid, models = exp.theorem_id, tuple(exp.operator_models)
    if tid not in THEOREM_IDS:
        raise ValidationError(f"unknown theorem id {tid!r}")
    thetas = tuple(float(t) for t in exp.theta_grid)
    if not thetas or any(t <= 0 for t in thetas):
        raise ValidationError("theta grid entries must be positive")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValidationError("theta grid must be strictly increasing")
    samples = _integer(exp.samples, "tail-bound runs need at least 10^3 samples", "", 1000)
    seed = _integer(exp.seed, "seed must be an unsigned 64-bit integer", "", 0, 2**64)
    dims = {model.dim for model in models}
    if len(dims) != 1:
        raise ValidationError("operator models must be given and share one dimension")
    m = len(models)
    fields = {"theta_grid": thetas, "operator_models": models, "samples": samples,
              "seed": seed}
    # the name the order and model-count messages use
    name = tid.replace("_", "-") if tid in _SCALAR_THEOREMS else "remainder"
    if tid not in ("moi_norm_a", "moi_norm_schatten_b", "first_derivative"):
        order = exp.order
        if (not isinstance(order, numbers.Integral) or isinstance(order, bool)
                or order < 1):
            raise ValidationError(f"{name} experiments need order >= 1")
        fields["order"] = int(order)
    if tid in ("moi_norm_a", "moi_norm_schatten_b"):
        if m < 2:
            raise ValidationError("norm-bound experiments need at least two operators")
        if not isinstance(exp.integrand, SeparableIntegrand):
            raise ValidationError("norm-bound experiments need a separable integrand")
        if exp.integrand.arity != m:
            raise ValidationError("integrand arity must equal the operator count")
        if tid == "moi_norm_schatten_b":
            if exp.schatten_p is None or len(exp.schatten_p) != m - 1:
                raise ValidationError("schatten mode needs one exponent per argument")
            fields["schatten_p"] = tuple(float(p) for p in exp.schatten_p)
            holder_reciprocal_sum(fields["schatten_p"])
        key, count = "arguments", m - 1
    elif tid in _SCALAR_THEOREMS:
        if m != 1:
            raise ValidationError(f"{name} experiments use one operator model")
        if not isinstance(exp.integrand, ScalarFunction):
            raise ValidationError(f"theorem {tid} needs a scalar function")
        key, count = ("step" if tid == "higher_difference" else "direction"), None
    else:
        functions = exp.integrand
        if isinstance(functions, ScalarFunction):
            functions = (functions,)
        if not (isinstance(functions, (list, tuple)) and functions
                and all(isinstance(f, ScalarFunction) for f in functions)):
            raise ValidationError("remainder experiments need per-slot scalar functions")
        if m != len(functions):
            raise ValidationError("one operator model per slot is required")
        if tid == "unitary_remainder" and any(f.kind != "polynomial" for f in functions):
            raise CapabilityError("unitary remainder slots must be polynomials")
        fields["integrand"] = tuple(functions)
        key, count = "perturbations", m
    fields["fixed_inputs"] = {
        **exp.fixed_inputs, key: _checked_matrices(exp, key, count, dims.pop())
    }
    return fields


def _checked_matrices(exp: TailBoundExperiment, key: str, count, dim: int):
    """The fixed input ``key`` as read-only complex (dim, dim) arrays: one
    array when ``count`` is None, else a tuple of ``count``."""
    raw = exp.fixed_inputs.get(key)
    if raw is None:
        raise ValidationError(f"theorem {exp.theorem_id} needs fixed input {key!r}")
    single = count is None
    mats = [raw] if single else list(raw)
    if not single and len(mats) != count:
        raise ValidationError(
            f"fixed input {key!r} needs {count} matrices, got {len(mats)}"
        )
    checked = []
    for i, matrix in enumerate(mats):
        try:
            if key in ("step", "perturbations"):
                matrix = HermitianOperator(matrix).matrix
            else:
                matrix = as_square_complex(matrix)
            if len(matrix) != dim:
                raise ValidationError(
                    f"dimension {len(matrix)} differs from the models' dimension {dim}"
                )
        except ValidationError as err:
            index = "" if single else f"[{i}]"
            raise ValidationError(f"fixed input {key!r}{index}: {err}") from err
        checked.append(matrix)
    return checked[0] if single else tuple(checked)


@dataclass(frozen=True)
class TailBoundReport:
    theorem_id: str
    rows: tuple[dict, ...]
    expectation_estimates: tuple[dict, ...]
    metadata: dict
    wall_time_s: float

    @property
    def all_satisfied(self) -> bool:
        return all(row["satisfied"] for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "tail_bound_report",
            "theorem_id": self.theorem_id,
            "rows": list(self.rows),
            "expectation_estimates": list(self.expectation_estimates),
            "metadata": self.metadata,
            "wall_time_s": self.wall_time_s,
        }


# ---------------------------------------------------------------------------
# Per-theorem preparation and batched statistics.  The experiment is checked
# already, so nothing here raises on its inputs.
# ---------------------------------------------------------------------------

# The errors that abort a sample instead of the run.
_ABORTS = (CapabilityError, FunctionDomainError, NumericalError)

# Chunks hold as many samples as keep the arrays of their factored engine
# sums within about this many bytes.
_CHUNK_BYTES = 32 * 2**20


@dataclass
class _Context:
    """A prepared experiment.  ``statistic`` maps the random operators of a
    chunk of N samples -- per operator model, the stacked eigenvalues (N, n),
    bases (N, n, n) and, when ``matrices``, the matrices U diag(l) U* (N, n,
    n) -- to the N statistics, the N values of each term label, and the mask
    of aborted samples.  A chunk holds at most ``chunk`` samples; ``unitary``
    says which random operators the models define.  Only the theorems whose
    statistics read the matrices have them built."""

    labels: tuple[str, ...]
    coefficients: dict[str, float]
    statistic: Callable[[list], tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]]
    constants: dict
    chunk: int
    extra_labels: tuple[str, ...] = ()
    unitary: bool = False
    matrices: bool = False


def _prepare(exp: TailBoundExperiment) -> _Context:
    maker = {
        "moi_norm_a": _prepare_moi_norm,
        "moi_norm_schatten_b": _prepare_moi_norm,
        "first_derivative": _prepare_derivative,
        "kth_derivative": _prepare_derivative,
        "higher_difference": _prepare_higher_difference,
        "sa_remainder": _prepare_sa_remainder,
        "unitary_remainder": _prepare_unitary_remainder,
    }[exp.theorem_id]
    return maker(exp)


def _chunk_samples(dim: int, surrogates) -> int:
    """Samples per chunk for the (integrand, union length) pairs whose sup
    surrogates a sample computes; each integrand also goes through the
    engine at dimension ``dim``.

    Per sample, the engine returns one n x n complex matrix.  A separable
    integrand's factored sum holds one such matrix per node of its widest
    :attr:`~moikit.integrands.SeparableIntegrand.suffix_tree` level, next
    to its factor values on the union (the surrogate sums those in blocks
    of its own size).  Any other integrand's engine grid is built one sample
    at a time, and a divided difference's sup reads one sample's multisets
    of union nodes at a time, with no grid."""
    largest = dim * dim
    for psi, union in surrogates:
        if psi.separable is not None:
            _, levels = psi.separable.suffix_tree
            width = max(len(factor) for factor, *_ in levels)
            factors = sum(int(index.max()) + 1 for index in psi.separable.factor_index)
            largest = max(largest, width * dim * dim + factors * union)
    return max(1, _CHUNK_BYTES // (16 * largest))


def _aborted(count: int, *errors: dict) -> np.ndarray:
    """The mask of the samples with an entry in any of the error dicts."""
    mask = np.zeros(count, dtype=bool)
    for failed in errors:
        mask[list(failed)] = True
    return mask


def _prepare_moi_norm(exp: TailBoundExperiment) -> _Context:
    models = exp.operator_models
    arguments = exp.fixed_inputs["arguments"]
    schatten = exp.theorem_id == "moi_norm_schatten_b"
    constants: dict = {"operator_count": len(models)}
    q = np.inf
    if schatten:
        p = exp.schatten_p
        recip = holder_reciprocal_sum(p)
        q = holder_result_exponent(recip)
        variant = None if recip >= 1.0 else 1.0 / (1.0 - recip)
        constants.update(
            {
                "schatten_p": list(p),
                "result_exponent_q": q,
                "exponent_rule": "1/q = sum_i 1/p_i over the argument slots",
                "result_exponent_variant_one_minus_sum": variant,
            }
        )
        coeff = math.prod(schatten_norm(arg, pv) for arg, pv in zip(arguments, p))
    else:
        coeff = math.prod(operator_norm(arg) for arg in arguments)
    multivariate = exp.integrand.as_multivariate()
    m = len(models)

    def statistic(spectra):
        eigenvalues = [w for w, _ in spectra]
        values, errors = _stacked_moi(
            multivariate, eigenvalues, [v for _, v in spectra], arguments
        )
        aborted = _aborted(len(values), errors)
        union = np.concatenate(eigenvalues, axis=1)
        surrogate = _sup_norms(multivariate, [union] * m)
        return _stacked_norms(values, q, skip=aborted), {"integrand_norm": surrogate}, aborted

    chunk = _chunk_samples(models[0].dim, [(multivariate, m * models[0].dim)])
    return _Context(
        ("integrand_norm",), {"integrand_norm": coeff}, statistic, constants, chunk
    )


def _prepare_derivative(exp: TailBoundExperiment) -> _Context:
    """The k-th derivative theorem; ``first_derivative`` is its k = 1 case."""
    dim = exp.operator_models[0].dim
    direction = exp.fixed_inputs["direction"]
    dnorm = operator_norm(direction)
    if exp.theorem_id == "first_derivative":
        k, constants = 1, {"direction_norm_bound": dnorm}
    else:
        k, constants = exp.order, {"order": exp.order, "direction_norm": dnorm}
    k_factorial = math.factorial(k)
    dd_k = divided_difference_integrand(exp.integrand, k)

    def statistic(spectra):
        ((eigenvalues, bases),) = spectra
        values, errors = _stacked_moi(
            dd_k, [eigenvalues] * (k + 1), [bases] * (k + 1), [direction] * k
        )
        aborted = _aborted(len(values), errors)
        surrogate = _sup_norms(dd_k, [eigenvalues] * (k + 1))
        norms = _stacked_norms(k_factorial * values, skip=aborted)
        return norms, {"integrand_norm": surrogate}, aborted

    coeff = k_factorial * dnorm**k
    chunk = _chunk_samples(dim, [(dd_k, dim)])
    return _Context(
        ("integrand_norm",), {"integrand_norm": coeff}, statistic, constants, chunk
    )


def _prepare_higher_difference(exp: TailBoundExperiment) -> _Context:
    dim = exp.operator_models[0].dim
    k = exp.order
    f = exp.integrand
    step = exp.fixed_inputs["step"]
    snorm = operator_norm(step)
    dd_k = divided_difference_integrand(f, k)
    constants = {
        "order": k,
        "step_norm": snorm,
        "eigengap_bound": exp.eigengap_bound,
        # the gap factor couples independent integration variables of two
        # adjacent operators, so its sup runs over all eigenvalue pairs
        "eigengap_definition": (
            "max over j of max |l - u| for l in spec(A+(j+1)B), u in spec(A+jB)"
        ),
    }

    def statistic(spectra):
        ((eigenvalues, bases, matrices),) = spectra
        ladder, errors = [eigenvalues], []
        ladder_bases = [bases]
        for i in range(1, k + 1):
            w, v, failed = _hermitian_spectra(_hermitian_sum(matrices, i * step))
            ladder.append(w)
            ladder_bases.append(v)
            errors.append(failed)
        total, failed = _binomial_sum(f, ladder, ladder_bases)
        aborted = _aborted(len(total), failed, *errors)
        gap = np.max(
            [np.max(np.abs(upper[:, :, None] - lower[:, None, :]), axis=(1, 2))
             for lower, upper in zip(ladder, ladder[1:])],
            axis=0,
        )
        surrogate = _sup_norms(dd_k, [np.concatenate(ladder, axis=1)] * (k + 1))
        return _stacked_norms(total, skip=aborted), {
            "gap_weighted_integrand_norm": gap * surrogate,
            "integrand_norm": surrogate,
            "eigengap": gap,
        }, aborted

    return _Context(
        ("gap_weighted_integrand_norm",),
        {"gap_weighted_integrand_norm": k * snorm**k},
        statistic,
        constants,
        _chunk_samples(dim, [(dd_k, (k + 1) * dim)]),
        extra_labels=("integrand_norm", "eigengap"),
        matrices=True,
    )


def _remainder_slots(exp: TailBoundExperiment):
    """What both remainder theorems share: slot functions, dimension, order,
    perturbations, and the constants built from the perturbation norms."""
    perturbations = exp.fixed_inputs["perturbations"]
    norms = [operator_norm(h) for h in perturbations]
    constants = {
        "order": exp.order,
        "slot_count": len(perturbations),
        "perturbation_norms": norms,
    }
    dim = exp.operator_models[0].dim
    return exp.integrand, dim, exp.order, perturbations, constants


def _prepare_sa_remainder(exp: TailBoundExperiment) -> _Context:
    functions, dim, k, perturbations, constants = _remainder_slots(exp)
    n = len(functions)
    dd = [divided_difference_integrand(f, k) for f in functions]
    labels = tuple(f"slot{j}_integrand_norm" for j in range(n))
    norms = constants["perturbation_norms"]
    coefficients = {labels[j]: n * norms[j] ** k for j in range(n)}

    def statistic(spectra):
        total = None
        terms = {}
        errors = []
        for j, (eigenvalues, bases, matrices) in enumerate(spectra):
            shifted, shifted_bases, failed = _hermitian_spectra(
                _hermitian_sum(matrices, perturbations[j])
            )
            value, moi_failed = _stacked_moi(
                dd[j],
                [shifted] + [eigenvalues] * k,
                [shifted_bases] + [bases] * k,
                [perturbations[j]] * k,
            )
            errors += [failed, moi_failed]
            total = value if total is None else total + value
            union = np.concatenate([shifted, eigenvalues], axis=1)
            terms[labels[j]] = _sup_norms(dd[j], [union] * (k + 1))
        aborted = _aborted(len(total), *errors)
        return _stacked_norms(total, skip=aborted), terms, aborted

    chunk = _chunk_samples(dim, [(psi, 2 * dim) for psi in dd])
    return _Context(labels, coefficients, statistic, constants, chunk, matrices=True)


def _prepare_unitary_remainder(exp: TailBoundExperiment) -> _Context:
    functions, dim, k, perturbations, constants = _remainder_slots(exp)
    n = len(functions)
    generators = [HermitianOperator._trusted(h) for h in perturbations]
    rotators = [unitary_exponential(g) for g in generators]
    g_caches = [_exp_term_cache(h, k) for h in perturbations]
    dd = [
        [divided_difference_integrand(f, ell) for ell in range(1, k + 1)]
        for f in functions
    ]
    norms = constants["perturbation_norms"]
    weight_totals = {
        f"slot{j}_order{ell}": composition_weight_sum(norms[j], k, ell)
        for j in range(n)
        for ell in range(1, k + 1)
    }
    labels = tuple(f"{slot_order}_integrand_norm" for slot_order in weight_totals)
    coefficients = {
        f"{slot_order}_integrand_norm": k * n * total
        for slot_order, total in weight_totals.items()
    }
    constants["composition_weight_totals"] = weight_totals

    def statistic(spectra):
        total = None
        terms = {}
        for j, (eigenvalues, _, matrices) in enumerate(spectra):
            rotated = rotators[j] @ matrices
            value = polynomial_of_matrix(functions[j], rotated)
            for ell in range(k):
                value = value - _unitary_taylor_term(
                    functions[j], matrices, g_caches[j], ell
                )
            total = value if total is None else total + value
            rotated_eigs = np.linalg.eigvals(rotated)
            union = np.concatenate(
                [rotated_eigs / np.abs(rotated_eigs), eigenvalues], axis=1
            )
            for ell in range(1, k + 1):
                terms[f"slot{j}_order{ell}_integrand_norm"] = _sup_norms(
                    dd[j][ell - 1], [union] * (ell + 1)
                )
        return _stacked_norms(total), terms, np.zeros(len(total), dtype=bool)

    chunk = _chunk_samples(dim, [(psi, 2 * dim) for row in dd for psi in row])
    return _Context(labels, coefficients, statistic, constants, chunk, unitary=True,
                    matrices=True)


# ---------------------------------------------------------------------------
# Execution and aggregation
# ---------------------------------------------------------------------------


def _sampled_spectra(exp: TailBoundExperiment, lo: int, hi: int, unitary: bool) -> list:
    """The spectra of the random operators of samples lo..hi-1, per model
    stacked over the samples as (eigenvalues, bases).  Block b of
    :data:`SAMPLE_BLOCK` samples draws from ``np.random.default_rng((seed,
    b))``, model by model in order, all of its samples at once; a block that
    lo or hi cuts is drawn whole and sliced."""
    drawn = [([], []) for _ in exp.operator_models]
    for block in range(lo // SAMPLE_BLOCK, -(-hi // SAMPLE_BLOCK)):
        rng = np.random.default_rng((exp.seed, block))
        first = block * SAMPLE_BLOCK
        rows = slice(max(lo - first, 0), min(hi - first, SAMPLE_BLOCK))
        for model, (values, normals) in zip(exp.operator_models, drawn):
            block_values, block_normals = _draw(model, rng, SAMPLE_BLOCK)
            values.append(block_values[rows])
            normals.append(block_normals[rows])
    return [_random_spectra(np.concatenate(values), np.concatenate(normals), unitary)
            for values, normals in drawn]


def _simulate_block(exp: TailBoundExperiment, lo: int, hi: int, ctx=None):
    """Per-sample statistics and terms of samples lo..hi-1, plus an abort
    mask; aborted samples read NaN.  The samples are evaluated in chunks of
    ``ctx.chunk``, rounded down to whole blocks of :data:`SAMPLE_BLOCK` when
    it holds one.  Without ``ctx`` the experiment is prepared here (pool
    workers do this: the statistic closures do not pickle)."""
    if ctx is None:
        ctx = _prepare(exp)
    count = hi - lo
    stats = np.full(count, np.nan)
    all_labels = ctx.labels + ctx.extra_labels
    terms = {label: np.full(count, np.nan) for label in all_labels}
    aborted = np.zeros(count, dtype=bool)
    # chunks of whole blocks draw each block once
    chunk = ctx.chunk // SAMPLE_BLOCK * SAMPLE_BLOCK or ctx.chunk
    for start in range(0, count, chunk):
        spectra = _sampled_spectra(exp, lo + start, lo + min(count, start + chunk),
                                   ctx.unitary)
        if ctx.matrices:
            spectra = [(w, v, _spectral_matrices(w, v, ctx.unitary)) for w, v in spectra]
        # the arithmetic of the samples that abort may warn; they are masked
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            try:
                parts = [(start, ctx.statistic(spectra))]
            except _ABORTS:
                parts = []
                for s in range(len(spectra[0][0])):
                    single = [tuple(a[s : s + 1] for a in model) for model in spectra]
                    try:
                        parts.append((start + s, ctx.statistic(single)))
                    except _ABORTS:
                        aborted[start + s] = True
        for offset, (chunk_stats, chunk_terms, chunk_aborted) in parts:
            rows = slice(offset, offset + len(chunk_stats))
            aborted[rows] = chunk_aborted
            stats[rows] = np.where(chunk_aborted, np.nan, chunk_stats)
            for label in all_labels:
                terms[label][rows] = np.where(chunk_aborted, np.nan, chunk_terms[label])
    return stats, terms, aborted


def run_tail_bound(exp: TailBoundExperiment, workers: int = 1) -> TailBoundReport:
    """Run the experiment and report per-theta empirical frequencies against
    the Markov right-hand side with 3-sigma Monte Carlo slack."""
    if (not isinstance(workers, numbers.Integral) or isinstance(workers, bool)
            or workers < 1):
        raise ParameterError(f"workers must be a positive integer, got {workers!r}")
    start = time.perf_counter()
    ctx = _prepare(exp)
    n = exp.samples
    workers = int(workers)
    all_labels = ctx.labels + ctx.extra_labels
    bounds = [round(i * n / workers) for i in range(workers + 1)]
    ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    if len(ranges) == 1:
        blocks = [_simulate_block(exp, 0, n, ctx)]
    else:
        # the blocks follow the requested worker count, the processes the cores
        processes = min(len(ranges), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(_simulate_block, exp, lo, hi) for lo, hi in ranges]
            blocks = [future.result() for future in futures]
    stats = np.concatenate([block[0] for block in blocks])
    terms = {
        label: np.concatenate([block[1][label] for block in blocks])
        for label in all_labels
    }
    aborted = np.concatenate([block[2] for block in blocks])
    aborted_count = int(np.sum(aborted))
    if aborted_count > 0.01 * n:
        raise NumericalError(
            f"{aborted_count} of {n} samples aborted (limit is 1%)"
        )
    valid = ~aborted
    estimates = {label: _mean_stderr(terms[label][valid]) for label in all_labels}
    stat_valid = stats[valid]
    rows = [
        _markov_row(
            theta,
            stat_valid,
            [ctx.coefficients[label] for label in ctx.labels],
            [estimates[label][0] for label in ctx.labels],
            [estimates[label][1] for label in ctx.labels],
        )
        for theta in exp.theta_grid
    ]
    metadata = {
        "seed": int(exp.seed),
        "samples": int(n),
        "workers": workers,
        "aborted_samples": aborted_count,
        "surrogate": SURROGATE_NOTE,
        "sampler": SAMPLER_NOTE,
        "coefficients": {k: float(v) for k, v in ctx.coefficients.items()},
        "constants": ctx.constants,
    }
    if exp.theorem_id == "higher_difference":
        metadata["fixed_eigengap"] = _fixed_eigengap_report(
            exp, ctx, stats, terms, valid
        )
    expectation_rows = tuple(
        {"label": label, "mean": estimates[label][0], "stderr": estimates[label][1]}
        for label in all_labels
    )
    elapsed = time.perf_counter() - start
    return TailBoundReport(
        theorem_id=exp.theorem_id,
        rows=tuple(rows),
        expectation_estimates=expectation_rows,
        metadata=metadata,
        wall_time_s=elapsed,
    )


def _markov_row(theta, stat, coeffs, means, stderrs) -> dict:
    """One theta row: the exceedance frequency of ``stat`` against the
    Markov right-hand side sum_i coeffs_i * means_i / theta, satisfied when
    within 3 combined Monte Carlo standard errors."""
    p_hat = float(np.mean(stat >= theta))
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / len(stat))
    rhs = sum(c * mean for c, mean in zip(coeffs, means)) / theta
    se_rhs = math.sqrt(sum((c * se / theta) ** 2 for c, se in zip(coeffs, stderrs)))
    mc_stderr = math.sqrt(se_p**2 + se_rhs**2)
    return {
        "theta": float(theta),
        "empirical_prob": p_hat,
        "mc_stderr": mc_stderr,
        "bound_rhs": rhs,
        "satisfied": bool(p_hat <= rhs + 3.0 * mc_stderr),
    }


def _fixed_eigengap_report(exp, ctx, stats, terms, valid):
    """Secondary reading of the higher-difference bound: a fixed eigengap
    constant, with samples violating the hypothesis excluded.  When no
    constant is configured, the run's own maximum is used (no exclusions)."""
    if ctx.constants["eigengap_bound"] is not None:
        gap_cfg = float(ctx.constants["eigengap_bound"])
        gap_source = "configured"
    else:
        gap_cfg = float(np.max(terms["eigengap"][valid])) * (1.0 + 1e-12)
        gap_source = "max_observed"
    k = int(ctx.constants["order"])
    snorm = float(ctx.constants["step_norm"])
    included = valid & (terms["eigengap"] < gap_cfg)
    excluded = int(np.sum(valid) - np.sum(included))
    n_inc = int(np.sum(included))
    rows = []
    if n_inc > 1:
        mean, stderr = _mean_stderr(terms["integrand_norm"][included])
        coeff = k * gap_cfg * snorm**k
        rows = [
            _markov_row(theta, stats[included], [coeff], [mean], [stderr])
            for theta in exp.theta_grid
        ]
    return {
        "eigengap_bound": gap_cfg,
        "eigengap_source": gap_source,
        "excluded_samples": excluded,
        "included_samples": n_inc,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Convergence in the r-th mean
# ---------------------------------------------------------------------------


def convergence_parameters(
    epsilon0, steps, r, order, arguments, samples, seed, path: str = ""
) -> tuple:
    """Check the inputs of :func:`convergence_in_mean_check` other than the
    model and the function; return (epsilon0, steps, r, order, arguments,
    samples, seed) as float, ints and complex arrays.

    A value of the wrong type raises ValidationError, a value out of range
    ParameterError; either message starts with the field ``path.<name>``.
    """
    def field(name):
        return f"{path}.{name}" if path else name

    def integer(value, name):
        return _integer(value, "expected an integer", field(name), low=None)

    if not isinstance(epsilon0, numbers.Real) or isinstance(epsilon0, bool):
        raise ValidationError("expected a number", path=field("epsilon0"))
    steps, r, order = integer(steps, "steps"), integer(r, "r"), integer(order, "order")
    samples, seed = integer(samples, "samples"), integer(seed, "seed")
    if r not in (1, 2):
        raise ParameterError(f"{field('r')}: the mean exponent must be 1 or 2")
    if not 1 <= steps <= 64:
        raise ParameterError(f"{field('steps')}: step count must lie in 1..64")
    if samples < 1:
        raise ParameterError(f"{field('samples')}: at least one sample is required")
    if order < 0:
        raise ParameterError(f"{field('order')}: order must be nonnegative")
    arguments = [np.asarray(a, dtype=np.complex128) for a in arguments]
    if len(arguments) != order:
        raise ValidationError(f"need {order} argument matrices, got {len(arguments)}",
                              path=field("arguments"))
    return float(epsilon0), steps, r, order, arguments, samples, seed


def convergence_in_mean_check(
    base_model: RandomOperatorModel,
    epsilon0: float,
    steps: int,
    r: int,
    f: ScalarFunction,
    order: int,
    arguments: Sequence[np.ndarray],
    samples: int,
    seed: int,
) -> dict:
    """Estimate E || T(perturbed) - T(base) ||^r along the schedule
    eps_m = eps0 / m and compare each step against the continuity bound.

    Per sample the base operators and the unit-norm Hermitian perturbation
    directions are fixed; every step only rescales the perturbation, so the
    per-step means are directly comparable.  The bound domination is pathwise
    (it is the continuity modulus of the same instance), hence exact for the
    Monte Carlo means as well.
    """
    epsilon0, steps, r, order, arguments, samples, seed = convergence_parameters(
        epsilon0, steps, r, order, arguments, samples, seed
    )
    n_ops = order + 1
    dim = base_model.dim
    start = time.perf_counter()
    diff_pow = np.zeros((steps, samples))
    bound_pow = np.zeros((steps, samples))
    for s in range(samples):
        rng = sample_stream(seed, s)
        base_ops = [sample_random_hermitian(base_model, rng) for _ in range(n_ops)]
        directions = [random_hermitian(dim, rng, norm=1.0) for _ in range(n_ops)]
        for step_idx in range(steps):
            eps = epsilon0 / (step_idx + 1)
            if eps == 0.0:
                perturbed = base_ops  # identical objects: difference exactly 0
            else:
                perturbed = [
                    _shifted(op, eps * d)
                    for op, d in zip(base_ops, directions)
                ]
            lhs, bound = continuity_modulus(f, order, base_ops, perturbed, arguments)
            diff_pow[step_idx, s] = lhs**r
            bound_pow[step_idx, s] = bound**r
    step_rows = []
    for step_idx in range(steps):
        mean, stderr = _mean_stderr(diff_pow[step_idx])
        bound_mean = float(np.mean(bound_pow[step_idx]))
        step_rows.append(
            {
                "m": step_idx + 1,
                "epsilon": epsilon0 / (step_idx + 1),
                "mean_diff_pow_r": mean,
                "stderr": stderr,
                "bound_mean": bound_mean,
                "dominated": bool(mean <= bound_mean * (1.0 + 1e-12) + 1e-300),
            }
        )
    initial = step_rows[0]["mean_diff_pow_r"]
    final = step_rows[-1]["mean_diff_pow_r"]
    converged = initial == 0.0 or final <= 1e-3 * initial
    return {
        "schema_version": 1,
        "kind": "convergence_report",
        "r": r,
        "epsilon0": epsilon0,
        "order": order,
        "samples": samples,
        "seed": seed,
        "steps": step_rows,
        "initial_mean": initial,
        "final_mean": final,
        "final_ratio": (final / initial) if initial > 0 else 0.0,
        "dominated_all": all(row["dominated"] for row in step_rows),
        "converged": bool(converged),
        "wall_time_s": time.perf_counter() - start,
    }
