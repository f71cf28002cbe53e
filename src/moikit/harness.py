"""Monte Carlo verification of the tail bounds and mean-convergence results.

Each experiment draws random operators (Haar eigenbasis, configurable
eigenvalue law), computes a left-hand-side statistic exactly through the
other modules, estimates the expectation terms on the same sample stream,
and compares the empirical exceedance frequency against the Markov-type
right-hand side at every point of a theta grid.

A run prepares its experiment once and evaluates its samples in chunks,
up to ``workers`` threads at a time.  The samples draw their random
operators in blocks of :data:`SAMPLE_BLOCK` = 256: block b (samples 256 b to
256 b + 255) draws from the stream ``sample_stream(seed, b)``, model by model
in order, first the law variates of all 256 samples, then their Ginibre
normals.  A chunk holds whole blocks when it holds at least one; a
range that starts or ends inside a block draws that block whole and keeps
its own samples.  The draws are stacked along a leading sample axis, and one
batched statistic function per theorem computes the chunk's statistics and
terms with stacked Haar bases, eigendecompositions, engine sums, sup
surrogates and operator norms from Gram matrices.  The sup surrogates never
hold a chunk's grid (see ``integrands._sup_norms``).
Batched arithmetic gives each sample the same bits as a call on that sample
alone, so a sample's values do not depend on the chunk it falls in.  A sample
whose arithmetic fails is aborted: the batched kernels raise the abort
error of their first failing sample, and a chunk that raises one is halved,
each half evaluated the same way, until every failing sample stands alone,
so that exactly the samples that fail alone are aborted.

Reproducibility contract: a sample's draws depend on the seed and its index
alone, per-sample values land in arrays indexed by sample, and aggregation
is a fixed-order pairwise sum, so results are byte-identical for a fixed
seed whatever the chunks and however many threads evaluate them.  Every
stream is one of :func:`sample_stream`'s: block b draws from stream b, and
sample i of :func:`convergence_in_mean_check` from stream i.

The norm of an integrand over random spectra is measured by the sup of its
absolute value over all tuples drawn from the union of the realized spectra
(recorded in every report).
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .calculus import (
    _binomial_sum,
    _exp_term_cache,
    _taylor_coefficients,
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
    MAX_ORDER,
    MAX_UNITARY_ORDER,
    _finite,
    _integer,
    _schatten_exponent,
    _seed,
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

SURROGATE_NOTE = "sup of |integrand| over tuples from the union of realized spectra"

# Samples per RNG stream of a tail-bound run.
SAMPLE_BLOCK = 256
SAMPLER_NOTE = (
    f"block b of {SAMPLE_BLOCK} samples draws from np.random.default_rng("
    "np.random.SeedSequence(seed, spawn_key=(b,))), "
    "model by model: law variates, then Ginibre normals"
)


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """Stream ``index`` of ``seed``: numpy's child stream
    ``SeedSequence(seed).spawn(index + 1)[index]``.  numpy pads the seed's
    words before the spawn key, so no two (seed, index) pairs share a stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean (0.0 for a single value).
    Where the squared deviations of finite values overflow, the standard
    deviation is that of the values over their largest magnitude, scaled
    back."""
    with np.errstate(over="ignore", invalid="ignore"):  # the callers check the results
        mean = float(np.mean(values))
        if len(values) < 2:
            return mean, 0.0
        std = np.std(values, ddof=1)
        if not np.isfinite(std) and np.isfinite(values).all():
            scale = np.max(np.abs(values))
            std = np.std(values / scale, ddof=1) * scale
    return mean, float(std / math.sqrt(len(values)))


# ---------------------------------------------------------------------------
# Experiment definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailBoundExperiment:
    """One tail-bound verification task.

    ``fixed_inputs`` holds just the deterministic matrices the theorem reads:
    ``arguments`` (norm bounds), ``direction`` (derivatives), ``step``
    (higher differences) or ``perturbations`` (remainders), all square of the
    models' common dimension; ``step`` and ``perturbations`` are Hermitian.
    ``integrand`` is a SeparableIntegrand for the norm-bound theorems, a
    ScalarFunction for the derivative/difference theorems, and a tuple of
    per-slot ScalarFunctions for the remainder theorems.  ``order``,
    ``schatten_p`` and ``eigengap_bound`` stay None for a theorem that does
    not read them.  Every input is checked here, once.
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


def _theorem(theorem_id) -> _Theorem:
    """The row of ``theorem_id`` in :data:`_THEOREMS`, else ValidationError."""
    if theorem_id not in THEOREM_IDS:
        raise ValidationError(f"unknown theorem id {theorem_id!r}")
    return _THEOREMS[theorem_id]


def _checked_fields(exp: TailBoundExperiment) -> dict:
    """Check every input of ``exp``; return the normalized field values (the
    theorem's fixed input becomes read-only complex arrays; others are rejected)."""
    tid, models = exp.theorem_id, tuple(exp.operator_models)
    theorem = _theorem(tid)
    for field in ("order", "schatten_p", "eigengap_bound"):
        if field not in theorem.optional and getattr(exp, field) is not None:
            raise ValidationError(f"theorem {tid} takes no field {field!r}")
    thetas = tuple(_finite(t, "theta grid entries must be finite") for t in exp.theta_grid)
    if not thetas or any(t <= 0 for t in thetas):
        raise ValidationError("theta grid entries must be positive")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ValidationError("theta grid must be strictly increasing")
    samples = _integer(exp.samples, "tail-bound runs need at least 10^3 samples", "", 1000)
    seed = _seed(exp.seed)
    dims = {model.dim for model in models}
    if len(dims) != 1:
        raise ValidationError("operator models must be given and share one dimension")
    m = len(models)
    fields = {"theta_grid": thetas, "operator_models": models, "samples": samples,
              "seed": seed}
    # the name the order and model-count messages use
    name = tid.replace("_", "-") if theorem.integrand == "scalar" else "remainder"
    if "order" in theorem.optional:
        high = MAX_UNITARY_ORDER if theorem.unitary else MAX_ORDER
        fields["order"] = _integer(exp.order, f"{name} experiments need order in 1..{high}",
                                   "", 1, high + 1)
    if exp.eigengap_bound is not None:
        message = "eigengap_bound must be a finite positive number"
        fields["eigengap_bound"] = _finite(exp.eigengap_bound, message)
        if not fields["eigengap_bound"] > 0:
            raise ValidationError(message)
    if theorem.integrand == "separable":
        if m < 2:
            raise ValidationError("norm-bound experiments need at least two operators")
        if not isinstance(exp.integrand, SeparableIntegrand):
            raise ValidationError("norm-bound experiments need a separable integrand")
        if exp.integrand.arity != m:
            raise ValidationError("integrand arity must equal the operator count")
        if "schatten_p" in theorem.optional:
            if exp.schatten_p is None or len(exp.schatten_p) != m - 1:
                raise ValidationError("schatten mode needs one exponent per argument")
            fields["schatten_p"] = tuple(map(_schatten_exponent, exp.schatten_p))
            holder_reciprocal_sum(fields["schatten_p"])
        count = m - 1
    elif theorem.integrand == "scalar":
        if m != 1:
            raise ValidationError(f"{name} experiments use one operator model")
        if not isinstance(exp.integrand, ScalarFunction):
            raise ValidationError(f"theorem {tid} needs a scalar function")
        count = None
    else:
        functions = exp.integrand
        if not (isinstance(functions, tuple) and functions
                and all(isinstance(f, ScalarFunction) for f in functions)):
            raise ValidationError("remainder experiments need per-slot scalar functions")
        if m != len(functions):
            raise ValidationError("one operator model per slot is required")
        if theorem.unitary and any(f.kind != "polynomial" for f in functions):
            raise CapabilityError("unitary remainder slots must be polynomials")
        fields["integrand"] = tuple(functions)
        count = m
    key = theorem.fixed
    fields["fixed_inputs"] = {key: _checked_matrices(exp, theorem, count, dims.pop())}
    extra = [other for other in exp.fixed_inputs if other != key]
    if extra:
        raise ValidationError(f"theorem {tid} takes no fixed input {extra[0]!r}")
    return fields


def _checked_matrices(exp: TailBoundExperiment, theorem: _Theorem, count, dim: int):
    """The theorem's fixed input as read-only complex (dim, dim) arrays, each
    checked Hermitian where its statistic reads the matrices it perturbs:
    one array when ``count`` is None, else a tuple of ``count``."""
    key = theorem.fixed
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
            if theorem.matrices:
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
    bases (N, n, n) and, where the theorem's statistic reads them (see
    :class:`_Theorem`), the matrices U diag(l) U* (N, n, n) -- to the N
    statistics and the N values of each term label, or raises the abort
    error of its first sample that fails.  The labels of the Markov
    right-hand side are the keys of ``coefficients``; ``extra_labels`` are
    estimated and reported too.  A chunk holds at most ``chunk`` samples."""

    coefficients: dict[str, float]
    statistic: Callable[[list], tuple[np.ndarray, dict[str, np.ndarray]]]
    constants: dict
    chunk: int
    extra_labels: tuple[str, ...] = ()


def _prepare(exp: TailBoundExperiment) -> _Context:
    """The theorem's :class:`_Context`; NumericalError if a coefficient is past the floats."""
    try:
        ctx = _THEOREMS[exp.theorem_id].prepare(exp)
        finite = all(map(math.isfinite, ctx.coefficients.values()))
    except OverflowError:
        finite = False
    if not finite:
        raise NumericalError("a Markov coefficient overflows the floats")
    return ctx


def _chunk_samples(dim: int, surrogates) -> int:
    """Samples per chunk for the (integrand, union length) pairs whose sup
    surrogates a sample computes; each integrand also goes through the
    engine at dimension ``dim``.

    Per sample, the engine returns one n x n complex matrix.  A polynomial's
    divided difference sums its words on two stacks of Q + 1 of them, and
    Q + 1 copies of the union are counted for its sup, which reads one copy
    and no factor values, in blocks of about
    :data:`~moikit.integrands._SUP_BLOCK_BYTES` over the chunk's samples.
    Any other separable integrand's factored sum holds one such matrix per
    node of its widest
    :attr:`~moikit.integrands.SeparableIntegrand.suffix_tree` level, next
    to its factor values on the union (the surrogate sums its grid in
    blocks of its own size from at most one complex copy of real values).
    Any other integrand's engine grid is built one sample at a time, and a
    divided difference's sup reads one sample's multisets of union nodes at
    a time, with no grid."""
    largest = dim * dim
    for psi, union in surrogates:
        separable = psi.separable
        if separable is not None and separable._polynomial is not None:
            largest = max(largest, len(separable._polynomial[0]) * (2 * dim * dim + union))
        elif separable is not None:
            _, levels = separable.suffix_tree
            width = max(len(factor) for factor, *_ in levels)
            factors = sum(int(index.max()) + 1 for index in separable.factor_index)
            largest = max(largest, width * dim * dim + factors * union)
    return max(1, _CHUNK_BYTES // (16 * largest))


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
    psi = exp.integrand
    m = len(models)

    def statistic(spectra):
        eigenvalues = [w for w, _ in spectra]
        values = _stacked_moi(psi, eigenvalues, [v for _, v in spectra], arguments)
        union = np.concatenate(eigenvalues, axis=1)
        surrogate = _sup_norms(psi, [union] * m)
        return _stacked_norms(values, q), {"integrand_norm": surrogate}

    chunk = _chunk_samples(models[0].dim, [(psi, m * models[0].dim)])
    return _Context({"integrand_norm": coeff}, statistic, constants, chunk)


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
        values = _stacked_moi(
            dd_k, [eigenvalues] * (k + 1), [bases] * (k + 1), [direction] * k
        )
        surrogate = _sup_norms(dd_k, [eigenvalues] * (k + 1))
        return _stacked_norms(k_factorial * values), {"integrand_norm": surrogate}

    coeff = k_factorial * dnorm**k
    chunk = _chunk_samples(dim, [(dd_k, dim)])
    return _Context({"integrand_norm": coeff}, statistic, constants, chunk)


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
        ladder, ladder_bases = [eigenvalues], [bases]
        for i in range(1, k + 1):
            w, v = _hermitian_spectra(_hermitian_sum(matrices, i * step))
            ladder.append(w)
            ladder_bases.append(v)
        total = _binomial_sum(f, ladder, ladder_bases)
        gap = np.max(
            [np.max(np.abs(upper[:, :, None] - lower[:, None, :]), axis=(1, 2))
             for lower, upper in zip(ladder, ladder[1:])],
            axis=0,
        )
        surrogate = _sup_norms(dd_k, [np.concatenate(ladder, axis=1)] * (k + 1))
        return _stacked_norms(total), {
            "gap_weighted_integrand_norm": gap * surrogate,
            "integrand_norm": surrogate,
            "eigengap": gap,
        }

    return _Context(
        {"gap_weighted_integrand_norm": k * snorm**k},
        statistic,
        constants,
        _chunk_samples(dim, [(dd_k, (k + 1) * dim)]),
        extra_labels=("integrand_norm", "eigengap"),
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
        for j, (eigenvalues, bases, matrices) in enumerate(spectra):
            shifted, shifted_bases = _hermitian_spectra(
                _hermitian_sum(matrices, perturbations[j])
            )
            value = _stacked_moi(
                dd[j],
                [shifted] + [eigenvalues] * k,
                [shifted_bases] + [bases] * k,
                [perturbations[j]] * k,
            )
            total = value if total is None else total + value
            union = np.concatenate([shifted, eigenvalues], axis=1)
            terms[labels[j]] = _sup_norms(dd[j], [union] * (k + 1))
        return _stacked_norms(total), terms

    chunk = _chunk_samples(dim, [(psi, 2 * dim) for psi in dd])
    return _Context(coefficients, statistic, constants, chunk)


def _prepare_unitary_remainder(exp: TailBoundExperiment) -> _Context:
    functions, dim, k, perturbations, constants = _remainder_slots(exp)
    n = len(functions)
    generators = [HermitianOperator._trusted(h) for h in perturbations]
    rotators = [unitary_exponential(g) for g in generators]
    g_caches = [_exp_term_cache(h, k - 1)[1:] for h in perturbations]
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
            series = [matrices] + [g @ matrices for g in g_caches[j]]
            value = functools.reduce(
                np.subtract, _taylor_coefficients(functions[j], series),
                polynomial_of_matrix(functions[j], rotated))
            total = value if total is None else total + value
            rotated_eigs = np.linalg.eigvals(rotated)
            union = np.concatenate(
                [rotated_eigs / np.abs(rotated_eigs), eigenvalues], axis=1
            )
            for ell in range(1, k + 1):
                terms[f"slot{j}_order{ell}_integrand_norm"] = _sup_norms(
                    dd[j][ell - 1], [union] * (ell + 1)
                )
        return _stacked_norms(total), terms

    chunk = _chunk_samples(dim, [(psi, 2 * dim) for row in dd for psi in row])
    return _Context(coefficients, statistic, constants, chunk)


class _Theorem(NamedTuple):
    """What one tail-bound theorem reads, and how its runs are prepared.

    ``integrand`` is the form of the experiment's integrand: ``separable``
    (a SeparableIntegrand), ``scalar`` (a ScalarFunction) or ``slots`` (a
    tuple of per-slot ScalarFunctions).  ``fixed`` names its fixed input:
    one matrix for a scalar integrand, else one per argument (separable) or
    per slot (slots).  ``optional`` lists the optional experiment fields it
    reads, and it rejects the others; ``order`` and ``schatten_p`` are
    required where read.  ``prepare`` builds its :class:`_Context`.
    ``unitary`` says its random operators are unitaries, and ``matrices``
    that its statistic reads their matrices U diag(l) U*, which its fixed
    input perturbs: that input is then checked Hermitian."""

    fixed: str
    integrand: str
    prepare: Callable[[TailBoundExperiment], _Context]
    optional: tuple[str, ...] = ()
    unitary: bool = False
    matrices: bool = False


# Every theorem, in the order of THEOREM_IDS.
_THEOREMS = {
    "moi_norm_a": _Theorem("arguments", "separable", _prepare_moi_norm),
    "moi_norm_schatten_b": _Theorem("arguments", "separable", _prepare_moi_norm,
                                    ("schatten_p",)),
    "first_derivative": _Theorem("direction", "scalar", _prepare_derivative),
    "kth_derivative": _Theorem("direction", "scalar", _prepare_derivative, ("order",)),
    "higher_difference": _Theorem("step", "scalar", _prepare_higher_difference,
                                  ("order", "eigengap_bound"), matrices=True),
    "sa_remainder": _Theorem("perturbations", "slots", _prepare_sa_remainder, ("order",),
                             matrices=True),
    "unitary_remainder": _Theorem("perturbations", "slots", _prepare_unitary_remainder,
                                  ("order",), unitary=True, matrices=True),
}
THEOREM_IDS = tuple(_THEOREMS)


# ---------------------------------------------------------------------------
# Execution and aggregation
# ---------------------------------------------------------------------------


def _sampled_spectra(exp: TailBoundExperiment, lo: int, hi: int, unitary: bool) -> list:
    """The spectra of the random operators of samples lo..hi-1, per model
    stacked over the samples as (eigenvalues, bases).  Block b of
    :data:`SAMPLE_BLOCK` samples draws from ``sample_stream(seed, b)``, model
    by model in order, all of its samples at once; a block that lo or hi cuts
    is drawn whole and sliced."""
    drawn = [([], []) for _ in exp.operator_models]
    for block in range(lo // SAMPLE_BLOCK, -(-hi // SAMPLE_BLOCK)):
        rng = sample_stream(exp.seed, block)
        first = block * SAMPLE_BLOCK
        rows = slice(max(lo - first, 0), min(hi - first, SAMPLE_BLOCK))
        for model, (values, normals) in zip(exp.operator_models, drawn):
            block_values, block_normals = _draw(model, rng, SAMPLE_BLOCK)
            values.append(block_values[rows])
            normals.append(block_normals[rows])
    return [_random_spectra(np.concatenate(values), np.concatenate(normals), unitary)
            for values, normals in drawn]


def _simulate_block(exp: TailBoundExperiment, lo: int, hi: int, ctx=None, workers=1):
    """Per-sample statistics and terms of samples lo..hi-1, plus an abort
    mask; aborted samples read NaN.  A chunk holds ``ctx.chunk`` samples at
    most, rounded down to whole blocks of :data:`SAMPLE_BLOCK` when it holds
    one, and ceil(count / workers) at most, rounded up to whole blocks; up to
    ``workers`` threads, at most one per CPU, evaluate the chunks, each writing
    its own rows.  A chunk that raises an abort error is halved until each
    failing sample is evaluated alone.  Without ``ctx`` it prepares ``exp``."""
    if ctx is None:
        ctx = _prepare(exp)
    theorem = _THEOREMS[exp.theorem_id]
    count = hi - lo
    stats = np.full(count, np.nan)
    all_labels = (*ctx.coefficients, *ctx.extra_labels)
    terms = {label: np.full(count, np.nan) for label in all_labels}
    aborted = np.zeros(count, dtype=bool)

    def evaluate(spectra, offset):
        try:
            chunk_stats, chunk_terms = ctx.statistic(spectra)
        except _ABORTS:
            half = len(spectra[0][0]) // 2
            if half == 0:
                aborted[offset] = True
            else:
                evaluate([tuple(a[:half] for a in model) for model in spectra], offset)
                evaluate([tuple(a[half:] for a in model) for model in spectra], offset + half)
            return
        rows = slice(offset, offset + len(chunk_stats))
        stats[rows] = chunk_stats
        for label in all_labels:
            terms[label][rows] = chunk_terms[label]

    def run(start):
        spectra = _sampled_spectra(exp, lo + start, lo + min(count, start + chunk),
                                   theorem.unitary)
        if theorem.matrices:
            spectra = [(w, v, _spectral_matrices(w, v, theorem.unitary)) for w, v in spectra]
        # the arithmetic of the samples that abort may warn
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            evaluate(spectra, start)

    # chunks of whole blocks draw each block once, and the workers share them
    chunk = min(ctx.chunk // SAMPLE_BLOCK * SAMPLE_BLOCK or ctx.chunk,
                -(-count // (workers * SAMPLE_BLOCK)) * SAMPLE_BLOCK)
    starts = range(0, count, chunk)
    threads = min(workers, len(starts), os.cpu_count() or 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    else:
        for start in starts:
            run(start)
    return stats, terms, aborted


def run_tail_bound(exp: TailBoundExperiment, workers: int = 1) -> TailBoundReport:
    """Run the experiment and report per-theta empirical frequencies against
    the Markov right-hand side with 3-sigma Monte Carlo slack.  With
    ``workers`` > 1, threads call the integrand's functions concurrently."""
    if (not isinstance(workers, numbers.Integral) or isinstance(workers, bool)
            or workers < 1):
        raise ParameterError(f"workers must be a positive integer, got {workers!r}")
    start = time.perf_counter()
    ctx = _prepare(exp)
    n = exp.samples
    workers = int(workers)
    all_labels = (*ctx.coefficients, *ctx.extra_labels)
    stats, terms, aborted = _simulate_block(exp, 0, n, ctx, workers)
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
            list(ctx.coefficients.values()),
            [estimates[label][0] for label in ctx.coefficients],
            [estimates[label][1] for label in ctx.coefficients],
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
    se_rhs = _root_sum_squares([c * se / theta for c, se in zip(coeffs, stderrs)])
    mc_stderr = _root_sum_squares([se_p, se_rhs])
    if not (math.isfinite(rhs) and math.isfinite(mc_stderr)):
        raise NumericalError("a Markov bound or its standard error overflows the floats")
    return {
        "theta": float(theta),
        "empirical_prob": p_hat,
        "mc_stderr": mc_stderr,
        "bound_rhs": rhs,
        "satisfied": bool(p_hat <= rhs + 3.0 * mc_stderr),
    }


def _root_sum_squares(terms: list) -> float:
    """sqrt of the sum of the squares of the terms, in order; by
    ``math.hypot`` where a square or the sum overflows."""
    try:
        root = math.sqrt(sum(t**2 for t in terms))
    except OverflowError:
        return math.hypot(*terms)
    return root if math.isfinite(root) else math.hypot(*terms)


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
    epsilon0, steps, r, order, arguments, samples, seed, dim: int, path: str = ""
) -> tuple:
    """Check the inputs of :func:`convergence_in_mean_check` other than the
    model and the function, each argument against the model's dimension
    ``dim``; return (epsilon0, steps, r, order, arguments, samples, seed) as
    float, ints and complex arrays.

    A value of the wrong type raises ValidationError, a value out of range
    ParameterError, but a seed outside [0, 2^64) ValidationError, as an
    experiment's does; either message starts with the field ``path.<name>``.
    """
    def field(name):
        return f"{path}.{name}" if path else name

    def integer(value, name):
        return _integer(value, "expected an integer", field(name), low=None)

    if not isinstance(epsilon0, numbers.Real) or isinstance(epsilon0, bool):
        raise ValidationError("expected a number", path=field("epsilon0"))
    steps, r, order = integer(steps, "steps"), integer(r, "r"), integer(order, "order")
    samples = integer(samples, "samples")
    seed = _seed(seed, field("seed"))
    if not abs(epsilon0) <= sys.float_info.max:  # NaN, an infinity or past the floats
        raise ParameterError(f"{field('epsilon0')}: epsilon0 must be a finite number")
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
    for i, argument in enumerate(arguments):
        if argument.shape != (dim, dim):
            raise ValidationError(
                f"shape {argument.shape} differs from the model's {(dim, dim)}",
                path=field(f"arguments[{i}]"),
            )
    return float(epsilon0), steps, r, order, arguments, samples, seed


_CONVERGENCE_OVERFLOW = "a convergence statistic or bound overflows the floats"


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
    Monte Carlo means as well when ``f`` is a polynomial, whose surrogate is
    an upper bound.  For any other ``f`` the surrogate is a sup over the
    spectra, only a lower bound on the integrand's Schur-multiplier norm, so
    the domination is not certified (see :func:`moikit.moi.continuity_modulus`).
    """
    epsilon0, steps, r, order, arguments, samples, seed = convergence_parameters(
        epsilon0, steps, r, order, arguments, samples, seed, base_model.dim
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
            try:
                diff_pow[step_idx, s] = lhs**r
                bound_pow[step_idx, s] = bound**r
            except OverflowError:
                raise NumericalError(_CONVERGENCE_OVERFLOW) from None
    step_rows = []
    for step_idx in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
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
    ratio = (final / initial) if initial > 0 else 0.0
    reported = [row[key] for row in step_rows
                for key in ("mean_diff_pow_r", "stderr", "bound_mean")]
    if not all(map(math.isfinite, reported + [ratio])):
        raise NumericalError(_CONVERGENCE_OVERFLOW)
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
        "final_ratio": ratio,
        "dominated_all": all(row["dominated"] for row in step_rows),
        "converged": bool(converged),
        "wall_time_s": time.perf_counter() - start,
    }
