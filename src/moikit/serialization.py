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
import math
import os
import tempfile

import numpy as np

from .errors import MAX_ORDER, MAX_UNITARY_ORDER, ValidationError, _integer, _seed
from .harness import _THEOREMS, TailBoundExperiment, _theorem
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
    _LAW_KINDS,
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
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError("number is too large for a float", path=path) from None


def _re_im_pair(value, message: str, path: str) -> complex:
    """An [re, im] pair of numbers, else ValidationError(message) at ``path``."""
    re, im = _items(value, _number, message, path, exact=2)
    return complex(re, im)


def _complex_from(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, path))
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


def parse_integrand(
    obj, path: str = "integrand"
) -> SeparableIntegrand | MultivariateFunction:
    """Either a separable integrand or a divided-difference construction."""
    _expect(isinstance(obj, dict), "expected an object", path)
    if obj.get("kind") == "divided_difference":
        f = parse_scalar_function(_get(obj, "f", path), path + ".f")
        order = _integer(_get(obj, "order", path),
                         "order must be a nonnegative integer", path + ".order")
        return divided_difference_integrand(f, order)
    return parse_separable(obj, path)


def model_to_json(model: RandomOperatorModel) -> dict:
    kind, *params = model.law
    law = {"kind": kind}
    for name, value in zip(_LAW_KINDS[kind], params):
        law[name] = list(value) if isinstance(value, tuple) else value
    return {"dim": model.dim, "law": law}


def parse_model(obj, path: str = "model") -> RandomOperatorModel:
    dim = _integer(_get(obj, "dim", path), "dim must be a positive integer",
                   path + ".dim", 1)
    law_json, lpath = _get(obj, "law", path), path + ".law"
    kind = _get(law_json, "kind", lpath)
    # searched as a tuple, so that a kind that is not hashable is unknown
    if kind not in tuple(_LAW_KINDS):
        raise ValidationError(f"unknown law kind {kind!r}", path=lpath + ".kind")

    def param(name):
        value, ppath = _get(law_json, name, lpath), f"{lpath}.{name}"
        if kind == "fixed":
            return tuple(_items(value, _number, "values must be a list", ppath))
        return _number(value, ppath)

    law = (kind, *map(param, _LAW_KINDS[kind]))
    try:
        return RandomOperatorModel(dim, law)
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
        coef = _number(_get(value, "coef", term_path), term_path + ".coef")
        _expect(math.isfinite(coef), "coef must be a finite number", term_path + ".coef")
        return tuple(exp), coef

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

def experiment_to_json(exp: TailBoundExperiment) -> dict:
    theorem = _THEOREMS[exp.theorem_id]
    fixed = exp.fixed_inputs[theorem.fixed]
    if theorem.integrand == "scalar":
        fixed, integrand = matrix_to_json(fixed), scalar_function_to_json(exp.integrand)
    else:
        fixed = [matrix_to_json(m) for m in fixed]
        integrand = (separable_to_json(exp.integrand) if theorem.integrand == "separable"
                     else {"slot_functions": [scalar_function_to_json(f)
                                              for f in exp.integrand]})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tail_bound_experiment",
        "theorem_id": exp.theorem_id,
        "operator_models": [model_to_json(m) for m in exp.operator_models],
        "fixed_inputs": {theorem.fixed: fixed},
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
    """The experiment of a payload.  Its theorem is looked up first, and
    only that theorem's fixed input is parsed: any other reaches the
    experiment's check, which rejects it."""
    root = path or "experiment"
    theorem_id = _get(obj, "theorem_id", root)
    try:
        theorem = _theorem(theorem_id)
    except ValidationError as err:
        raise ValidationError(str(err), path=root) from err
    models = tuple(_items(_get(obj, "operator_models", root), parse_model,
                          "operator_models must be a non-empty list",
                          root + ".operator_models", least=1))
    fixed = _get(obj, "fixed_inputs", root)
    _expect(isinstance(fixed, dict), "fixed_inputs must be an object", root + ".fixed_inputs")
    fixed, key = dict(fixed), theorem.fixed
    if key in fixed:
        fpath = f"{root}.fixed_inputs.{key}"
        fixed[key] = (parse_matrix(fixed[key], fpath) if theorem.integrand == "scalar" else
                      _items(fixed[key], parse_matrix, "expected a list of matrices", fpath))
    integrand_json, ipath = _get(obj, "integrand", root), root + ".integrand"
    if theorem.integrand == "slots":
        integrand = tuple(_items(
            _get(integrand_json, "slot_functions", ipath), parse_scalar_function,
            "slot_functions must be a non-empty list", ipath + ".slot_functions", least=1))
    elif theorem.integrand == "scalar":
        integrand = parse_scalar_function(integrand_json, ipath)
    else:
        integrand = parse_separable(integrand_json, ipath)
    thetas = tuple(_items(_get(obj, "theta_grid", root), _number,
                          "theta_grid must be a non-empty list", root + ".theta_grid",
                          least=1))
    samples = _integer(_get(obj, "samples", root), "samples must be a positive integer",
                       root + ".samples", 1)
    seed = _seed(_get(obj, "seed", root), root + ".seed")
    kwargs = {}
    if "order" in obj:
        high = MAX_UNITARY_ORDER if theorem.unitary else MAX_ORDER
        kwargs["order"] = _integer(obj["order"], f"order must be an integer in 1..{high}",
                                   root + ".order", 1, high + 1)
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
