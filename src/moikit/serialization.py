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

from .errors import ValidationError
from .harness import _SCALAR_THEOREMS, TailBoundExperiment, _integer
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


def _number(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            "expected a number", path)
    return float(value)


def _complex_from(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    _expect(
        isinstance(value, (list, tuple)) and len(value) == 2,
        "expected a number or an [re, im] pair",
        path,
    )
    return complex(_number(value[0], path + "[0]"), _number(value[1], path + "[1]"))


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
    entries = _get(obj, "entries", path)
    _expect(isinstance(entries, list) and len(entries) == dim,
            f"entries must hold {dim} rows", path + ".entries")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(entries):
        _expect(isinstance(row, list) and len(row) == dim,
                f"row must hold {dim} entries", f"{path}.entries[{i}]")
        for j, cell in enumerate(row):
            _expect(isinstance(cell, (list, tuple)) and len(cell) == 2,
                    "entry must be an [re, im] pair", f"{path}.entries[{i}][{j}]")
            out[i, j] = complex(
                _number(cell[0], f"{path}.entries[{i}][{j}][0]"),
                _number(cell[1], f"{path}.entries[{i}][{j}][1]"),
            )
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
    coeffs = _get(obj, "coeffs", path)
    _expect(isinstance(coeffs, list) and coeffs, "coeffs must be a non-empty list",
            path + ".coeffs")
    values = [_complex_from(c, f"{path}.coeffs[{i}]") for i, c in enumerate(coeffs)]
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
    terms_json = _get(obj, "terms", path)
    _expect(isinstance(terms_json, list) and terms_json,
            "terms must be a non-empty list", path + ".terms")
    terms = []
    for n, term in enumerate(terms_json):
        _expect(isinstance(term, list) and len(term) == arity,
                f"term must hold {arity} factors", f"{path}.terms[{n}]")
        terms.append(tuple(
            parse_scalar_function(fac, f"{path}.terms[{n}][{i}]")
            for i, fac in enumerate(term)
        ))
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
        values = _get(law_json, "values", path + ".law")
        _expect(isinstance(values, list), "values must be a list", path + ".law.values")
        law = ("fixed", tuple(
            _number(v, f"{path}.law.values[{i}]") for i, v in enumerate(values)
        ))
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
    terms_json = _get(obj, "terms", path)
    _expect(isinstance(terms_json, list), "terms must be a list", path + ".terms")
    terms = []
    for i, t in enumerate(terms_json):
        exp = _get(t, "exp", f"{path}.terms[{i}]")
        exp_message = "exp must be a list of nonnegative integers of length arity"
        _expect(isinstance(exp, list) and len(exp) == arity, exp_message,
                f"{path}.terms[{i}].exp")
        for e in exp:
            _integer(e, exp_message, f"{path}.terms[{i}].exp")
        coef = _number(_get(t, "coef", f"{path}.terms[{i}]"), f"{path}.terms[{i}].coef")
        terms.append((tuple(exp), coef))
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
    flat = tensor.entries.reshape(-1)
    return {
        "mode_dims": list(tensor.mode_dims),
        "entries": [_complex_pair(v) for v in flat],
    }


def parse_tensor(obj, path: str = "tensor") -> HermitianTensor:
    entries = parse_tensor_argument(obj, path)
    try:
        return HermitianTensor(entries.shape[: entries.ndim // 2], entries)
    except ValidationError as err:
        raise ValidationError(str(err), path=path) from err


def parse_tensor_argument(obj, path: str) -> np.ndarray:
    """A general (not necessarily Hermitian) tensor argument."""
    dims = _get(obj, "mode_dims", path)
    dims_message = "mode_dims must be a list of positive integers"
    _expect(isinstance(dims, list) and dims, dims_message, path + ".mode_dims")
    dims = tuple(_integer(d, dims_message, path + ".mode_dims", 1) for d in dims)
    total = int(np.prod(dims)) ** 2
    entries = _get(obj, "entries", path)
    _expect(isinstance(entries, list) and len(entries) == total,
            f"entries must hold {total} [re, im] pairs", path + ".entries")
    flat = np.empty(total, dtype=np.complex128)
    for i, cell in enumerate(entries):
        flat[i] = _complex_from(cell, f"{path}.entries[{i}]")
    return flat.reshape(dims + dims)


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
    models_json = _get(obj, "operator_models", root)
    _expect(isinstance(models_json, list) and models_json,
            "operator_models must be a non-empty list", root + ".operator_models")
    models = tuple(
        parse_model(m, f"{root}.operator_models[{i}]")
        for i, m in enumerate(models_json)
    )
    fixed_json = _get(obj, "fixed_inputs", root)
    _expect(isinstance(fixed_json, dict), "fixed_inputs must be an object",
            root + ".fixed_inputs")
    fixed = {}
    for key, value in fixed_json.items():
        fpath = f"{root}.fixed_inputs.{key}"
        if key in ("arguments", "perturbations"):
            _expect(isinstance(value, list), "expected a list of matrices", fpath)
            fixed[key] = [
                parse_matrix(m, f"{fpath}[{i}]") for i, m in enumerate(value)
            ]
        elif key in ("direction", "step"):
            fixed[key] = parse_matrix(value, fpath)
        else:
            raise ValidationError(f"unknown fixed input {key!r}", path=fpath)
    integrand_json = _get(obj, "integrand", root)
    if theorem_id in _SLOT_FUNCTION_THEOREMS:
        slots = _get(integrand_json, "slot_functions", root + ".integrand")
        _expect(isinstance(slots, list) and slots,
                "slot_functions must be a non-empty list",
                root + ".integrand.slot_functions")
        integrand = tuple(
            parse_scalar_function(s, f"{root}.integrand.slot_functions[{i}]")
            for i, s in enumerate(slots)
        )
    elif theorem_id in _SCALAR_THEOREMS:
        integrand = parse_scalar_function(integrand_json, root + ".integrand")
    else:
        integrand = parse_separable(integrand_json, root + ".integrand")
    thetas = _get(obj, "theta_grid", root)
    _expect(isinstance(thetas, list) and thetas, "theta_grid must be a non-empty list",
            root + ".theta_grid")
    samples = _integer(_get(obj, "samples", root), "samples must be a positive integer",
                       root + ".samples", 1)
    seed = _integer(_get(obj, "seed", root), "seed must be an unsigned 64-bit integer",
                    root + ".seed", 0, 2**64)
    kwargs = {}
    if "order" in obj:
        kwargs["order"] = _integer(obj["order"], "order must be a positive integer",
                                   root + ".order", 1)
    if "schatten_p" in obj:
        _expect(isinstance(obj["schatten_p"], list),
                "schatten_p must be a list", root + ".schatten_p")
        kwargs["schatten_p"] = tuple(
            _number(p, f"{root}.schatten_p[{i}]")
            for i, p in enumerate(obj["schatten_p"])
        )
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
            theta_grid=tuple(
                _number(t, f"{root}.theta_grid[{i}]") for i, t in enumerate(thetas)
            ),
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
