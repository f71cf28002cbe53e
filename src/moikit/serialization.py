"""JSON schemas for every value that crosses the CLI boundary.

Every payload carries ``schema_version`` and a ``kind`` tag.  Parsers raise
:class:`ValidationError` with the field path of the offending entry; the
CLI's ``validate`` command reports those diagnostics as data instead of
exiting.
Serialization is deterministic (fixed key order, shortest float repr), so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ValidationError, _integer
from .harness import _SCALAR_THEOREMS, TailBoundExperiment
from .integrands import (
    MultivariateFunction,
    ScalarFunction,
    SeparableIntegrand,
    divided_difference_integrand,
)
from .operators import (
    HermitianOperator,
    RandomOperatorModel,
    UnitaryOperator,
)
from .polyapprox import InnerPowerForm, LinearProductForm, MonomialPolynomial
from .tensors import HermitianTensor

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _expect(condition: bool, message: str, path: str):
    if not condition:
        raise ValidationError(message, path=path)


def _get(obj: dict, key: str, path: str):
    _expect(isinstance(obj, dict), "expected an object", path)
    if key not in obj:
        raise ValidationError(f"missing field {key!r}", path=path)
    return obj[key]


def _items(value, parse, message: str, path: str, least: int = 0,
           exact: int | None = None) -> list:
    """``parse(item, f"{path}[{i}]")`` for each item of ``value``, in order.
    ``value`` must be a list of at least ``least`` items (of exactly
    ``exact`` items when given), else ValidationError(message) at ``path``.
    Every list a payload holds is read here."""
    _expect(isinstance(value, list) and len(value) >= least
            and (exact is None or len(value) == exact), message, path)
    return [parse(item, f"{path}[{i}]") for i, item in enumerate(value)]


def _number(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            "expected a number", path)
    return float(value)


def _re_im_pair(value, message: str, path: str) -> complex:
    """An [re, im] pair of numbers, else ValidationError(message) at ``path``."""
    re, im = _items(value, _number, message, path, exact=2)
    return complex(re, im)


def _complex_from(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    return _re_im_pair(value, "expected a number or an [re, im] pair", path)


def _complex_pair(value: complex) -> list[float]:
    return [float(np.real(value)), float(np.imag(value))]


def matrix_to_json(matrix) -> dict:
    arr = np.asarray(matrix, dtype=np.complex128)
    return {
        "dim": int(arr.shape[0]),
        "entries": [[_complex_pair(v) for v in row] for row in arr],
    }


def parse_matrix(obj, path: str = "matrix") -> np.ndarray:
    dim = _integer(_get(obj, "dim", path), "dim must be a positive integer",
                   path + ".dim", 1)

    def entry(cell, cell_path):
        return _re_im_pair(cell, "entry must be an [re, im] pair", cell_path)

    def row(value, row_path):
        return _items(value, entry, f"row must hold {dim} entries", row_path, exact=dim)

    out = np.array(_items(_get(obj, "entries", path), row, f"entries must hold {dim} rows",
                          path + ".entries", exact=dim), dtype=np.complex128)
    if not np.all(np.isfinite(out.view(np.float64))):
        raise ValidationError("entries must be finite", path=path + ".entries")
    return out


def parse_hermitian(obj, path: str = "matrix") -> HermitianOperator:
    matrix = parse_matrix(obj, path)
    try:
        return HermitianOperator(matrix)
    except ValidationError as err:
        raise ValidationError(str(err), path=path) from err


def parse_unitary(obj, path: str = "matrix") -> UnitaryOperator:
    matrix = parse_matrix(obj, path)
    try:
        return UnitaryOperator(matrix)
    except ValidationError as err:
        raise ValidationError(str(err), path=path) from err


def scalar_function_to_json(f: ScalarFunction) -> dict:
    if f.kind != "polynomial":
        raise ValidationError("only polynomial scalar functions serialize")
    coeffs = []
    for c in f.coefficients:
        c = complex(c)
        coeffs.append(c.real if c.imag == 0.0 else _complex_pair(c))
    return {"coeffs": coeffs}


def parse_scalar_function(obj, path: str = "f") -> ScalarFunction:
    values = _items(_get(obj, "coeffs", path), _complex_from,
                    "coeffs must be a non-empty list", path + ".coeffs", least=1)
    if all(v.imag == 0.0 for v in values):
        return ScalarFunction.polynomial([v.real for v in values])
    return ScalarFunction.polynomial(values)


def separable_to_json(psi: SeparableIntegrand) -> dict:
    return {
        "arity": psi.arity,
        "terms": [[scalar_function_to_json(f) for f in term] for term in psi.terms],
    }


def parse_separable(obj, path: str = "integrand") -> SeparableIntegrand:
    arity = _integer(_get(obj, "arity", path), "arity must be a positive integer",
                     path + ".arity", 1)

    def term(value, term_path):
        return tuple(_items(value, parse_scalar_function, f"term must hold {arity} factors",
                            term_path, exact=arity))

    terms = _items(_get(obj, "terms", path), term, "terms must be a non-empty list",
                   path + ".terms", least=1)
    return SeparableIntegrand(arity, tuple(terms))


def parse_integrand(obj, path: str = "integrand") -> MultivariateFunction:
    """Either a separable integrand or a divided-difference construction."""
    _expect(isinstance(obj, dict), "expected an object", path)
    if obj.get("kind") == "divided_difference":
        f = parse_scalar_function(_get(obj, "f", path), path + ".f")
        order = _integer(_get(obj, "order", path),
                         "order must be a nonnegative integer", path + ".order")
        return divided_difference_integrand(f, order)
    return parse_separable(obj, path).as_multivariate()


def model_to_json(model: RandomOperatorModel) -> dict:
    kind = model.law[0]
    if kind == "uniform":
        law = {"kind": "uniform", "a": model.law[1], "b": model.law[2]}
    elif kind == "gaussian":
        law = {"kind": "gaussian", "mean": model.law[1], "sd": model.law[2]}
    else:
        law = {"kind": "fixed", "values": list(model.law[1])}
    return {"dim": model.dim, "law": law, "seed": int(model.seed)}


def parse_model(obj, path: str = "model") -> RandomOperatorModel:
    dim = _integer(_get(obj, "dim", path), "dim must be a positive integer",
                   path + ".dim", 1)
    law_json = _get(obj, "law", path)
    kind = _get(law_json, "kind", path + ".law")
    if kind == "uniform":
        law = ("uniform", _number(_get(law_json, "a", path + ".law"), path + ".law.a"),
               _number(_get(law_json, "b", path + ".law"), path + ".law.b"))
    elif kind == "gaussian":
        law = ("gaussian",
               _number(_get(law_json, "mean", path + ".law"), path + ".law.mean"),
               _number(_get(law_json, "sd", path + ".law"), path + ".law.sd"))
    elif kind == "fixed":
        law = ("fixed", tuple(_items(_get(law_json, "values", path + ".law"), _number,
                                     "values must be a list", path + ".law.values")))
    else:
        raise ValidationError(f"unknown law kind {kind!r}", path=path + ".law.kind")
    seed = _integer(obj.get("seed", 0), "seed must be an unsigned 64-bit integer",
                    path + ".seed", 0, 2**64)
    try:
        return RandomOperatorModel(dim, law, seed)
    except ValidationError as err:
        raise ValidationError(str(err), path=path) from err


def monomial_polynomial_to_json(poly: MonomialPolynomial) -> dict:
    return {
        "arity": poly.arity,
        "terms": [{"exp": list(exp), "coef": coef} for exp, coef in poly.terms],
    }


def parse_monomial_polynomial(obj, path: str = "polynomial") -> MonomialPolynomial:
    arity = _integer(_get(obj, "arity", path), "arity must be a positive integer",
                     path + ".arity", 1)
    exp_message = "exp must be a list of nonnegative integers of length arity"

    def term(value, term_path):
        exp_path = term_path + ".exp"

        def exponent(e, _):  # reported at the list, not the item
            return _integer(e, exp_message, exp_path)

        exp = _items(_get(value, "exp", term_path), exponent, exp_message, exp_path,
                     exact=arity)
        return tuple(exp), _number(_get(value, "coef", term_path), term_path + ".coef")

    terms = _items(_get(obj, "terms", path), term, "terms must be a list", path + ".terms")
    try:
        return MonomialPolynomial(arity, tuple(terms))
    except ValidationError as err:
        raise ValidationError(str(err), path=path) from err


def inner_power_form_to_json(form: InnerPowerForm) -> dict:
    return {
        "arity": form.arity,
        "terms": [
            {"degree": d, "coef": c, "direction": list(v)} for d, c, v in form.terms
        ],
    }


def linear_product_form_to_json(form: LinearProductForm) -> dict:
    return {
        "arity": form.arity,
        "terms": [[list(u) for u in factors] for factors in form.terms],
    }


def tensor_to_json(tensor: HermitianTensor) -> dict:
    return tensor_argument_to_json(tensor.entries, tensor.mode_dims)


def parse_tensor(obj, path: str = "tensor") -> HermitianTensor:
    entries = parse_tensor_argument(obj, path)
    try:
        return HermitianTensor(entries.shape[: entries.ndim // 2], entries)
    except ValidationError as err:
        raise ValidationError(str(err), path=path) from err


def parse_tensor_argument(obj, path: str) -> np.ndarray:
    """A general (not necessarily Hermitian) tensor argument."""
    dims_path = path + ".mode_dims"
    dims_message = "mode_dims must be a list of positive integers"

    def dim(d, _):  # reported at the list, not the item
        return _integer(d, dims_message, dims_path, 1)

    dims = tuple(_items(_get(obj, "mode_dims", path), dim, dims_message, dims_path,
                        least=1))
    total = int(np.prod(dims)) ** 2
    flat = _items(_get(obj, "entries", path), _complex_from,
                  f"entries must hold {total} [re, im] pairs", path + ".entries", exact=total)
    return np.array(flat, dtype=np.complex128).reshape(dims + dims)


def tensor_argument_to_json(entries: np.ndarray, mode_dims) -> dict:
    arr = np.asarray(entries, dtype=np.complex128).reshape(-1)
    return {
        "mode_dims": list(mode_dims),
        "entries": [_complex_pair(v) for v in arr],
    }


# ---------------------------------------------------------------------------
# Tail-bound experiments
# ---------------------------------------------------------------------------

_SLOT_FUNCTION_THEOREMS = ("sa_remainder", "unitary_remainder")


def experiment_to_json(exp: TailBoundExperiment) -> dict:
    fixed = {}
    for key, value in exp.fixed_inputs.items():
        if key in ("arguments", "perturbations"):
            fixed[key] = [matrix_to_json(m) for m in value]
        else:
            fixed[key] = matrix_to_json(value)
    if isinstance(exp.integrand, SeparableIntegrand):
        integrand = separable_to_json(exp.integrand)
    elif isinstance(exp.integrand, ScalarFunction):
        integrand = scalar_function_to_json(exp.integrand)
    else:
        integrand = {
            "slot_functions": [scalar_function_to_json(f) for f in exp.integrand]
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tail_bound_experiment",
        "theorem_id": exp.theorem_id,
        "operator_models": [model_to_json(m) for m in exp.operator_models],
        "fixed_inputs": fixed,
        "integrand": integrand,
        "theta_grid": [float(t) for t in exp.theta_grid],
        "samples": int(exp.samples),
        "seed": int(exp.seed),
    }
    if exp.order is not None:
        payload["order"] = int(exp.order)
    if exp.schatten_p is not None:
        payload["schatten_p"] = [float(p) for p in exp.schatten_p]
    if exp.eigengap_bound is not None:
        payload["eigengap_bound"] = float(exp.eigengap_bound)
    return payload


def parse_experiment(obj, path: str = "") -> TailBoundExperiment:
    root = path or "experiment"
    theorem_id = _get(obj, "theorem_id", root)
    models = tuple(_items(_get(obj, "operator_models", root), parse_model,
                          "operator_models must be a non-empty list",
                          root + ".operator_models", least=1))
    fixed_json = _get(obj, "fixed_inputs", root)
    _expect(isinstance(fixed_json, dict), "fixed_inputs must be an object",
            root + ".fixed_inputs")
    fixed = {}
    for key, value in fixed_json.items():
        fpath = f"{root}.fixed_inputs.{key}"
        if key in ("arguments", "perturbations"):
            fixed[key] = _items(value, parse_matrix, "expected a list of matrices", fpath)
        elif key in ("direction", "step"):
            fixed[key] = parse_matrix(value, fpath)
        else:
            raise ValidationError(f"unknown fixed input {key!r}", path=fpath)
    integrand_json = _get(obj, "integrand", root)
    if theorem_id in _SLOT_FUNCTION_THEOREMS:
        integrand = tuple(_items(
            _get(integrand_json, "slot_functions", root + ".integrand"),
            parse_scalar_function, "slot_functions must be a non-empty list",
            root + ".integrand.slot_functions", least=1))
    elif theorem_id in _SCALAR_THEOREMS:
        integrand = parse_scalar_function(integrand_json, root + ".integrand")
    else:
        integrand = parse_separable(integrand_json, root + ".integrand")
    thetas = tuple(_items(_get(obj, "theta_grid", root), _number,
                          "theta_grid must be a non-empty list", root + ".theta_grid",
                          least=1))
    samples = _integer(_get(obj, "samples", root), "samples must be a positive integer",
                       root + ".samples", 1)
    seed = _integer(_get(obj, "seed", root), "seed must be an unsigned 64-bit integer",
                    root + ".seed", 0, 2**64)
    kwargs = {}
    if "order" in obj:
        kwargs["order"] = _integer(obj["order"], "order must be a positive integer",
                                   root + ".order", 1)
    if "schatten_p" in obj:
        kwargs["schatten_p"] = tuple(_items(obj["schatten_p"], _number,
                                            "schatten_p must be a list", root + ".schatten_p"))
    if "eigengap_bound" in obj:
        kwargs["eigengap_bound"] = _number(
            obj["eigengap_bound"], root + ".eigengap_bound"
        )
    try:
        return TailBoundExperiment(
            theorem_id=theorem_id,
            operator_models=models,
            fixed_inputs=fixed,
            integrand=integrand,
            theta_grid=thetas,
            samples=samples,
            seed=seed,
            **kwargs,
        )
    except (ValidationError, ValueError) as err:
        raise ValidationError(str(err), path=root) from err


# ---------------------------------------------------------------------------
# Deterministic output
# ---------------------------------------------------------------------------


def dumps_deterministic(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=True, allow_nan=False) + "\n"


def write_text_atomic(path: str, text: str):
    """Write through a temporary file in the target directory, then
    atomically replace the target."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def write_json_atomic(path: str, obj):
    """Serialize and atomically replace the target file."""
    write_text_atomic(path, dumps_deterministic(obj))


def load_json(path: str):
    with open(path, "r") as handle:
        return json.load(handle)
