"""Monte Carlo verification of the tail bounds and mean-convergence results.

Each experiment draws random operators (Haar eigenbasis, configurable
eigenvalue law), computes a left-hand-side statistic exactly through the
other modules, estimates the expectation terms on the same sample stream,
and compares the empirical exceedance frequency against the Markov-type
right-hand side at every point of a theta grid.

Reproducibility contract: per-sample RNG streams are derived as
``mix64(seed, index)``, per-sample values land in arrays indexed by sample,
and aggregation is a fixed-order pairwise sum, so results are byte-identical
for a fixed seed regardless of how samples are partitioned across workers.

The norm of an integrand over random spectra is measured by the sup of its
absolute value over all tuples drawn from the union of the realized spectra
(recorded in every report).
"""

from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calculus import (
    _exp_term_cache,
    _unitary_taylor_term,
    composition_weight_sum,
    higher_difference,
    polynomial_of_matrix,
    unitary_exponential,
)
from .errors import (
    CapabilityError,
    FunctionDomainError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .integrands import (
    MultivariateFunction,
    ScalarFunction,
    SeparableIntegrand,
    divided_difference_integrand,
)
from .moi import (
    continuity_modulus,
    holder_reciprocal_sum,
    holder_result_exponent,
    moi_core,
)
from .operators import (
    HermitianOperator,
    RandomOperatorModel,
    operator_norm,
    random_hermitian,
    sample_random_hermitian,
    sample_random_unitary,
    schatten_norm,
    shifted_operator,
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


def estimate_expectation(
    sample_fn: Callable[[np.random.Generator], float], n_samples: int, seed: int
) -> tuple[float, float]:
    """Sample mean and standard error of a per-stream scalar statistic."""
    if n_samples < 100:
        raise ParameterError("expectation estimates need at least 100 samples")
    values = np.empty(n_samples)
    for i in range(n_samples):
        values[i] = sample_fn(sample_stream(seed, i))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return mean, stderr


# ---------------------------------------------------------------------------
# Experiment definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailBoundExperiment:
    """One tail-bound verification task.

    ``fixed_inputs`` holds the deterministic matrices the theorem requires:
    ``arguments`` (norm bounds), ``direction`` (derivatives), ``step``
    (higher differences), ``perturbations`` (remainders).  ``integrand`` is a
    SeparableIntegrand for the norm-bound theorems, a ScalarFunction for the
    derivative/difference theorems, and a tuple of per-slot ScalarFunctions
    for the remainder theorems.
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
        if self.theorem_id not in THEOREM_IDS:
            raise ValidationError(f"unknown theorem id {self.theorem_id!r}")
        thetas = tuple(float(t) for t in self.theta_grid)
        if not thetas or any(t <= 0 for t in thetas):
            raise ValidationError("theta grid entries must be positive")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise ValidationError("theta grid must be strictly increasing")
        if self.samples < 1000:
            raise ValidationError("tail-bound runs need at least 10^3 samples")
        object.__setattr__(self, "theta_grid", thetas)
        object.__setattr__(self, "operator_models", tuple(self.operator_models))
        _prepare(self)  # fail fast on malformed payloads


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
# Per-theorem preparation and sampling
# ---------------------------------------------------------------------------


@dataclass
class _Context:
    labels: tuple[str, ...]
    coefficients: dict[str, float]
    sample: Callable[[np.random.Generator], tuple[float, dict[str, float]]]
    constants: dict
    extra_labels: tuple[str, ...] = ()


def _sup_on_union(integrand: MultivariateFunction, union: np.ndarray) -> float:
    grid = integrand.eval_grid([union] * integrand.arity)
    return float(np.max(np.abs(grid)))


def _fixed_matrices(exp: TailBoundExperiment, key: str, count: int | None = None):
    raw = exp.fixed_inputs.get(key)
    if raw is None:
        raise ValidationError(f"theorem {exp.theorem_id} needs fixed input {key!r}")
    if isinstance(raw, np.ndarray) and raw.ndim == 2:
        raw = [raw]
    mats = [np.asarray(m, dtype=np.complex128) for m in raw]
    if count is not None and len(mats) != count:
        raise ValidationError(
            f"fixed input {key!r} needs {count} matrices, got {len(mats)}"
        )
    return mats


def _prepare(exp: TailBoundExperiment) -> _Context:
    maker = {
        "moi_norm_a": _prepare_moi_norm,
        "moi_norm_schatten_b": _prepare_moi_norm,
        "first_derivative": _prepare_first_derivative,
        "kth_derivative": _prepare_kth_derivative,
        "higher_difference": _prepare_higher_difference,
        "sa_remainder": _prepare_sa_remainder,
        "unitary_remainder": _prepare_unitary_remainder,
    }[exp.theorem_id]
    return maker(exp)


def _prepare_moi_norm(exp: TailBoundExperiment) -> _Context:
    models = exp.operator_models
    m = len(models)
    if m < 2:
        raise ValidationError("norm-bound experiments need at least two operators")
    integrand = exp.integrand
    if not isinstance(integrand, SeparableIntegrand):
        raise ValidationError("norm-bound experiments need a separable integrand")
    if integrand.arity != m:
        raise ValidationError("integrand arity must equal the operator count")
    arguments = _fixed_matrices(exp, "arguments", m - 1)
    schatten = exp.theorem_id == "moi_norm_schatten_b"
    constants: dict = {"operator_count": m}
    if schatten:
        if exp.schatten_p is None or len(exp.schatten_p) != m - 1:
            raise ValidationError("schatten mode needs one exponent per argument")
        p = tuple(float(v) for v in exp.schatten_p)
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
        coeff = 1.0
        for arg, pv in zip(arguments, p):
            coeff *= schatten_norm(arg, pv)
    else:
        q = None
        coeff = 1.0
        for arg in arguments:
            coeff *= operator_norm(arg)
    multivariate = integrand.as_multivariate()

    def sample(rng: np.random.Generator):
        ops = [sample_random_hermitian(model, rng) for model in models]
        value = moi_core(ops, multivariate, arguments)
        stat = schatten_norm(value, q) if schatten else operator_norm(value)
        union = np.concatenate([np.asarray(op.decomposition.eigenvalues) for op in ops])
        return stat, {"integrand_norm": _sup_on_union(multivariate, union)}

    return _Context(("integrand_norm",), {"integrand_norm": coeff}, sample, constants)


def _scalar_integrand(exp: TailBoundExperiment) -> ScalarFunction:
    if not isinstance(exp.integrand, ScalarFunction):
        raise ValidationError(f"theorem {exp.theorem_id} needs a scalar function")
    return exp.integrand


def _prepare_first_derivative(exp: TailBoundExperiment) -> _Context:
    if len(exp.operator_models) != 1:
        raise ValidationError("first-derivative experiments use one operator model")
    model = exp.operator_models[0]
    f = _scalar_integrand(exp)
    (direction,) = _fixed_matrices(exp, "direction", 1)
    direction_bound = operator_norm(direction)
    dd1 = divided_difference_integrand(f, 1)
    constants = {"direction_norm_bound": direction_bound}

    def sample(rng: np.random.Generator):
        op = sample_random_hermitian(model, rng)
        value = moi_core([op, op], dd1, [direction])
        union = np.asarray(op.decomposition.eigenvalues)
        return operator_norm(value), {"integrand_norm": _sup_on_union(dd1, union)}

    return _Context(
        ("integrand_norm",), {"integrand_norm": direction_bound}, sample, constants
    )


def _prepare_kth_derivative(exp: TailBoundExperiment) -> _Context:
    if len(exp.operator_models) != 1:
        raise ValidationError("kth-derivative experiments use one operator model")
    if not exp.order or exp.order < 1:
        raise ValidationError("kth-derivative experiments need order >= 1")
    model = exp.operator_models[0]
    k = int(exp.order)
    f = _scalar_integrand(exp)
    (direction,) = _fixed_matrices(exp, "direction", 1)
    dnorm = operator_norm(direction)
    coeff = math.factorial(k) * dnorm**k
    dd_k = divided_difference_integrand(f, k)
    constants = {"order": k, "direction_norm": dnorm}

    def sample(rng: np.random.Generator):
        op = sample_random_hermitian(model, rng)
        value = math.factorial(k) * moi_core(
            [op] * (k + 1), dd_k, [direction] * k
        )
        union = np.asarray(op.decomposition.eigenvalues)
        return operator_norm(value), {"integrand_norm": _sup_on_union(dd_k, union)}

    return _Context(("integrand_norm",), {"integrand_norm": coeff}, sample, constants)


def _prepare_higher_difference(exp: TailBoundExperiment) -> _Context:
    if len(exp.operator_models) != 1:
        raise ValidationError("higher-difference experiments use one operator model")
    if not exp.order or exp.order < 1:
        raise ValidationError("higher-difference experiments need order >= 1")
    model = exp.operator_models[0]
    k = int(exp.order)
    f = _scalar_integrand(exp)
    (step,) = _fixed_matrices(exp, "step", 1)
    snorm = operator_norm(step)
    dd_k = divided_difference_integrand(f, k)
    gap_cfg = exp.eigengap_bound
    constants = {
        "order": k,
        "step_norm": snorm,
        "eigengap_bound": gap_cfg,
        # the gap factor couples independent integration variables of two
        # adjacent operators, so its sup runs over all eigenvalue pairs
        "eigengap_definition": (
            "max over j of max |l - u| for l in spec(A+(j+1)B), u in spec(A+jB)"
        ),
    }
    coeff = k * snorm**k

    def sample(rng: np.random.Generator):
        op = sample_random_hermitian(model, rng)
        stat = operator_norm(higher_difference(f, op, step, k))
        ops = [op] + [shifted_operator(op, i * step) for i in range(1, k + 1)]
        spectra = [np.asarray(o.decomposition.eigenvalues) for o in ops]
        gap = max(
            float(np.max(np.abs(spectra[j + 1][:, None] - spectra[j][None, :])))
            for j in range(k)
        )
        union = np.concatenate(spectra)
        surrogate = _sup_on_union(dd_k, union)
        return stat, {
            "gap_weighted_integrand_norm": gap * surrogate,
            "integrand_norm": surrogate,
            "eigengap": gap,
        }

    return _Context(
        ("gap_weighted_integrand_norm",),
        {"gap_weighted_integrand_norm": coeff},
        sample,
        constants,
        extra_labels=("integrand_norm", "eigengap"),
    )


def _slot_functions(exp: TailBoundExperiment) -> list[ScalarFunction]:
    raw = exp.integrand
    if isinstance(raw, ScalarFunction):
        raw = [raw]
    functions = list(raw)
    if not functions or not all(isinstance(f, ScalarFunction) for f in functions):
        raise ValidationError("remainder experiments need per-slot scalar functions")
    return functions


def _prepare_sa_remainder(exp: TailBoundExperiment) -> _Context:
    functions = _slot_functions(exp)
    n = len(functions)
    if len(exp.operator_models) != n:
        raise ValidationError("one operator model per slot is required")
    if not exp.order or exp.order < 1:
        raise ValidationError("remainder experiments need order >= 1")
    k = int(exp.order)
    perturbations = _fixed_matrices(exp, "perturbations", n)
    dd = [divided_difference_integrand(f, k) for f in functions]
    labels = tuple(f"slot{j}_integrand_norm" for j in range(n))
    coefficients = {
        labels[j]: n * operator_norm(perturbations[j]) ** k for j in range(n)
    }
    constants = {
        "order": k,
        "slot_count": n,
        "perturbation_norms": [operator_norm(h) for h in perturbations],
    }
    models = exp.operator_models

    def sample(rng: np.random.Generator):
        total = None
        terms = {}
        for j in range(n):
            op = sample_random_hermitian(models[j], rng)
            shifted = shifted_operator(op, perturbations[j])
            value = moi_core(
                [shifted] + [op] * k, dd[j], [perturbations[j]] * k
            )
            total = value if total is None else total + value
            union = np.concatenate(
                [
                    np.asarray(shifted.decomposition.eigenvalues),
                    np.asarray(op.decomposition.eigenvalues),
                ]
            )
            terms[labels[j]] = _sup_on_union(dd[j], union)
        return operator_norm(total), terms

    return _Context(labels, coefficients, sample, constants)


def _prepare_unitary_remainder(exp: TailBoundExperiment) -> _Context:
    functions = _slot_functions(exp)
    n = len(functions)
    if len(exp.operator_models) != n:
        raise ValidationError("one operator model per slot is required")
    if not exp.order or exp.order < 1:
        raise ValidationError("remainder experiments need order >= 1")
    k = int(exp.order)
    for f in functions:
        if f.kind != "polynomial":
            raise CapabilityError("unitary remainder slots must be polynomials")
    perturbations = _fixed_matrices(exp, "perturbations", n)
    generators = [HermitianOperator(h) for h in perturbations]
    rotators = [unitary_exponential(g) for g in generators]
    g_caches = [_exp_term_cache(g.matrix, k) for g in generators]
    dd = [
        [divided_difference_integrand(f, ell) for ell in range(1, k + 1)]
        for f in functions
    ]
    weight_totals = {
        (j, ell): composition_weight_sum(operator_norm(perturbations[j]), k, ell)
        for j in range(n)
        for ell in range(1, k + 1)
    }
    labels = tuple(
        f"slot{j}_order{ell}_integrand_norm"
        for j in range(n)
        for ell in range(1, k + 1)
    )
    coefficients = {
        f"slot{j}_order{ell}_integrand_norm": k * n * weight_totals[(j, ell)]
        for j in range(n)
        for ell in range(1, k + 1)
    }
    constants = {
        "order": k,
        "slot_count": n,
        "perturbation_norms": [operator_norm(h) for h in perturbations],
        "composition_weight_totals": {
            f"slot{j}_order{ell}": weight_totals[(j, ell)]
            for j in range(n)
            for ell in range(1, k + 1)
        },
    }
    models = exp.operator_models

    def sample(rng: np.random.Generator):
        total = None
        terms = {}
        for j in range(n):
            base = sample_random_unitary(models[j], rng)
            rotated = rotators[j] @ base.matrix
            value = polynomial_of_matrix(functions[j], rotated)
            for ell in range(k):
                value = value - _unitary_taylor_term(
                    functions[j], base.matrix, g_caches[j], ell
                )
            total = value if total is None else total + value
            rotated_eigs = np.linalg.eigvals(rotated)
            rotated_eigs = rotated_eigs / np.abs(rotated_eigs)
            union = np.concatenate(
                [rotated_eigs, np.asarray(base.decomposition.eigenvalues)]
            )
            for ell in range(1, k + 1):
                terms[f"slot{j}_order{ell}_integrand_norm"] = _sup_on_union(
                    dd[j][ell - 1], union
                )
        return operator_norm(total), terms

    return _Context(labels, coefficients, sample, constants)


# ---------------------------------------------------------------------------
# Execution and aggregation
# ---------------------------------------------------------------------------


def _simulate_block(exp: TailBoundExperiment, lo: int, hi: int):
    ctx = _prepare(exp)
    count = hi - lo
    stats = np.full(count, np.nan)
    all_labels = ctx.labels + ctx.extra_labels
    terms = {label: np.full(count, np.nan) for label in all_labels}
    aborted = np.zeros(count, dtype=bool)
    for offset in range(count):
        rng = sample_stream(exp.seed, lo + offset)
        try:
            stat, term_values = ctx.sample(rng)
        except (CapabilityError, FunctionDomainError, NumericalError):
            aborted[offset] = True
            continue
        stats[offset] = stat
        for label in all_labels:
            terms[label][offset] = term_values[label]
    return stats, terms, aborted


def run_tail_bound(exp: TailBoundExperiment, workers: int = 1) -> TailBoundReport:
    """Run the experiment and report per-theta empirical frequencies against
    the Markov right-hand side with 3-sigma Monte Carlo slack."""
    start = time.perf_counter()
    ctx = _prepare(exp)
    n = exp.samples
    workers = max(1, int(workers))
    all_labels = ctx.labels + ctx.extra_labels
    stats = np.full(n, np.nan)
    terms = {label: np.full(n, np.nan) for label in all_labels}
    aborted = np.zeros(n, dtype=bool)
    if workers == 1:
        block = _simulate_block(exp, 0, n)
        stats, terms, aborted = block
    else:
        bounds = [round(i * n / workers) for i in range(workers + 1)]
        ranges = [
            (bounds[i], bounds[i + 1])
            for i in range(workers)
            if bounds[i + 1] > bounds[i]
        ]
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [
                pool.submit(_simulate_block, exp, lo, hi) for lo, hi in ranges
            ]
            for (lo, hi), future in zip(ranges, futures):
                b_stats, b_terms, b_aborted = future.result()
                stats[lo:hi] = b_stats
                aborted[lo:hi] = b_aborted
                for label in all_labels:
                    terms[label][lo:hi] = b_terms[label]
    aborted_count = int(np.sum(aborted))
    if aborted_count > 0.01 * n:
        raise NumericalError(
            f"{aborted_count} of {n} samples aborted (limit is 1%)"
        )
    valid = ~aborted
    n_valid = int(np.sum(valid))
    estimates = {}
    for label in all_labels:
        vals = terms[label][valid]
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n_valid))
        estimates[label] = (mean, stderr)
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
        surr = terms["integrand_norm"][included]
        mean = float(np.mean(surr))
        stderr = float(np.std(surr, ddof=1) / math.sqrt(n_inc))
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
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValidationError("expected an integer", path=field(name))
        return int(value)

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
                    shifted_operator(op, eps * d)
                    for op, d in zip(base_ops, directions)
                ]
            lhs, bound = continuity_modulus(f, order, base_ops, perturbed, arguments)
            diff_pow[step_idx, s] = lhs**r
            bound_pow[step_idx, s] = bound**r
    step_rows = []
    for step_idx in range(steps):
        mean = float(np.mean(diff_pow[step_idx]))
        stderr = float(
            np.std(diff_pow[step_idx], ddof=1) / math.sqrt(samples)
        ) if samples > 1 else 0.0
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
