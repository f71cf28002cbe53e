"""Command-line front end: JSON in, JSON/CSV out.

One subcommand per task; all numeric parameters live in the input file
(seed/paths/format/workers are flags, plus the dim/count flags of ``haar``).
Results are written atomically.  Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 tail-bound violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys

import numpy as np

from . import serialization as ser
from .calculus import (
    RemainderSpec,
    SlotFunctionSum,
    frechet_derivative,
    higher_difference,
    higher_difference_moi_diagnostic,
    kth_derivative,
    taylor_remainder_self_adjoint,
    taylor_remainder_unitary,
)
from .errors import (
    CapabilityError,
    DecompositionFailureError,
    FunctionDomainError,
    MoikitError,
    NumericalError,
    ParameterError,
    ValidationError,
    _integer,
)
from .harness import (
    convergence_in_mean_check,
    convergence_parameters,
    run_tail_bound,
)
from .moi import MoiRequest, moi_evaluate
from .operators import sample_haar_unitary
from .polyapprox import decompose_inner_powers, to_linear_products
from .tensors import shared_mode_dims, unfold, unfold_array

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_BOUND_VIOLATION = 4

logger = logging.getLogger("moikit")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging():
    level = os.environ.get("MOIKIT_LOG", "warn").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _require_schema_version(payload, path="input"):
    if not isinstance(payload, dict):
        raise ValidationError("expected an object", path=path)
    version = payload.get("schema_version")
    if version != ser.SCHEMA_VERSION:
        raise ValidationError(
            f"schema_version must be {ser.SCHEMA_VERSION}, got {version!r}",
            path=path + ".schema_version",
        )


# ---------------------------------------------------------------------------
# Command handlers: handler(payload, args) parses and validates the
# payload, then returns a zero-argument ``run`` that does the computation and
# returns (output dict, exit code).  ``validate`` calls the parse step only.
# ---------------------------------------------------------------------------


def _positive_order(payload) -> int:
    return _integer(payload.get("order"), "order must be a positive integer",
                    "input.order", 1)


def _matrix_output(value) -> tuple[dict, int]:
    return {
        "schema_version": ser.SCHEMA_VERSION,
        "kind": "matrix_result",
        "value": ser.matrix_to_json(value),
    }, EXIT_OK


def _handle_moi_eval(payload, args):
    _require_schema_version(payload)
    ops_json = payload.get("operators")
    if not isinstance(ops_json, list) or len(ops_json) < 2:
        raise ValidationError("operators must list at least two matrices",
                              path="input.operators")
    operator_kind = payload.get("operator_kind", "hermitian")
    parse_op = {
        "hermitian": ser.parse_hermitian,
        "unitary": ser.parse_unitary,
    }.get(operator_kind)
    if parse_op is None:
        raise ValidationError(f"unknown operator_kind {operator_kind!r}",
                              path="input.operator_kind")
    operators = tuple(
        parse_op(m, f"input.operators[{i}]") for i, m in enumerate(ops_json)
    )
    integrand = ser.parse_integrand(payload.get("integrand", {}), "input.integrand")
    args_json = payload.get("arguments")
    if not isinstance(args_json, list):
        raise ValidationError("arguments must be a list of matrices",
                              path="input.arguments")
    arguments = tuple(
        ser.parse_matrix(m, f"input.arguments[{i}]") for i, m in enumerate(args_json)
    )
    request = MoiRequest(operators, integrand, arguments)

    def run():
        result = moi_evaluate(request)
        return {
            "schema_version": ser.SCHEMA_VERSION,
            "kind": "moi_result",
            "value": ser.matrix_to_json(result.value),
            "eigen_tuple_count": result.eigen_tuple_count,
            "wall_time_s": result.wall_time,
        }, EXIT_OK

    return run


def _handle_frechet(payload, args):
    _require_schema_version(payload)
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    operator = ser.parse_hermitian(payload.get("operator", {}), "input.operator")
    direction = ser.parse_matrix(payload.get("direction", {}), "input.direction")
    return lambda: _matrix_output(frechet_derivative(f, operator, direction))


def _handle_kth_deriv(payload, args):
    _require_schema_version(payload)
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    operator = ser.parse_hermitian(payload.get("operator", {}), "input.operator")
    direction = ser.parse_matrix(payload.get("direction", {}), "input.direction")
    order = _positive_order(payload)
    return lambda: _matrix_output(kth_derivative(f, operator, direction, order))


def _handle_higher_diff(payload, args):
    _require_schema_version(payload)
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    operator = ser.parse_hermitian(payload.get("operator", {}), "input.operator")
    step = ser.parse_hermitian(payload.get("step", {}), "input.step").matrix
    order = _positive_order(payload)
    include_diagnostic = payload.get("include_moi_diagnostic", False)
    if not isinstance(include_diagnostic, bool):
        raise ValidationError("include_moi_diagnostic must be a boolean",
                              path="input.include_moi_diagnostic")

    def run():
        out = {
            "schema_version": ser.SCHEMA_VERSION,
            "kind": "higher_difference_result",
            "value": ser.matrix_to_json(higher_difference(f, operator, step, order)),
        }
        if include_diagnostic:
            diag = higher_difference_moi_diagnostic(f, operator, step, order)
            out["moi_diagnostic"] = {
                "abs_deviation": diag["abs_deviation"],
                "rel_deviation": diag["rel_deviation"],
            }
        return out, EXIT_OK

    return run


def _handle_remainder(payload, args):
    _require_schema_version(payload)
    order = _positive_order(payload)
    flavor = payload.get("flavor")
    if flavor not in ("self_adjoint", "unitary"):
        raise ValidationError("flavor must be self_adjoint or unitary",
                              path="input.flavor")
    slots_json = payload.get("slots")
    if not isinstance(slots_json, list) or not slots_json:
        raise ValidationError("slots must be a non-empty list", path="input.slots")
    parse_base = ser.parse_hermitian if flavor == "self_adjoint" else ser.parse_unitary
    functions, bases, perturbations = [], [], []
    for i, slot in enumerate(slots_json):
        spath = f"input.slots[{i}]"
        if not isinstance(slot, dict):
            raise ValidationError("slot must be an object", path=spath)
        functions.append(ser.parse_scalar_function(slot.get("f", {}), spath + ".f"))
        bases.append(parse_base(slot.get("base", {}), spath + ".base"))
        perturbation = ser.parse_hermitian(slot.get("perturbation", {}),
                                           spath + ".perturbation")
        if perturbation.dim != bases[-1].dim:
            raise ValidationError(f"dimension {perturbation.dim} differs from the "
                                  f"base dimension {bases[-1].dim}",
                                  path=spath + ".perturbation")
        perturbations.append(perturbation)
    spec = RemainderSpec(
        order,
        SlotFunctionSum.from_slot_functions(functions),
        tuple(bases),
        tuple(perturbations),
        flavor,
    )
    evaluate = (
        taylor_remainder_self_adjoint if flavor == "self_adjoint"
        else taylor_remainder_unitary
    )
    method = payload.get("method", "both")
    if method not in ("direct", "moi", "both"):
        raise ValidationError("method must be direct, moi, or both",
                              path="input.method")

    def run():
        out = {"schema_version": ser.SCHEMA_VERSION, "kind": "remainder_result"}
        if method == "both":
            direct = evaluate(spec, "direct")
            moi = evaluate(spec, "moi")
            out["value"] = ser.matrix_to_json(moi)
            out["method_deviation"] = float(np.max(np.abs(direct - moi)))
        else:
            out["value"] = ser.matrix_to_json(evaluate(spec, method))
        return out, EXIT_OK

    return run


def _handle_tailbound(payload, args):
    _require_schema_version(payload)
    if args.workers < 1:
        raise ValidationError("--workers must be a positive integer", path="flags.workers")
    if args.seed is not None:
        payload = {**payload, "seed": args.seed}
    experiment = ser.parse_experiment(payload, "input")

    def run():
        report = run_tail_bound(experiment, workers=args.workers)
        code = EXIT_OK if report.all_satisfied else EXIT_BOUND_VIOLATION
        return report.to_dict(), code

    return run


def _handle_conv_mean(payload, args):
    _require_schema_version(payload)
    model = ser.parse_model(payload.get("base_model", {}), "input.base_model")
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    args_json = payload.get("arguments", [])
    if not isinstance(args_json, list):
        raise ValidationError("arguments must be a list of matrices",
                              path="input.arguments")
    arguments = [
        ser.parse_matrix(m, f"input.arguments[{i}]") for i, m in enumerate(args_json)
    ]
    for key in ("epsilon0", "steps", "r", "order", "samples", "seed"):
        if key not in payload:
            raise ValidationError(f"missing field {key!r}", path="input")
    seed = args.seed if args.seed is not None else payload["seed"]
    epsilon0, steps, r, order, arguments, samples, seed = convergence_parameters(
        payload["epsilon0"], payload["steps"], payload["r"], payload["order"],
        arguments, payload["samples"], seed, path="input",
    )

    def run():
        report = convergence_in_mean_check(
            model, epsilon0, steps, r, f, order, arguments, samples, seed
        )
        return report, EXIT_OK

    return run


def _handle_poly_decompose(payload, args):
    _require_schema_version(payload)
    poly = ser.parse_monomial_polynomial(payload.get("polynomial", {}),
                                         "input.polynomial")
    seed = args.seed if args.seed is not None else payload.get("seed", 0)
    _integer(seed, "seed must be a nonnegative integer",
             "input.seed" if args.seed is None else "flags.seed")

    def run():
        rng = np.random.default_rng(seed)
        form = decompose_inner_powers(poly, rng)
        products = to_linear_products(form)
        probe_rng = np.random.default_rng(12345)
        probes = probe_rng.uniform(-1.0, 1.0, size=(100, poly.arity))
        residual = float(
            np.max(np.abs(form.evaluate_many(probes) - poly.evaluate_many(probes)))
        )
        product_residual = float(
            np.max(np.abs(products.evaluate_many(probes) - form.evaluate_many(probes)))
        )
        return {
            "schema_version": ser.SCHEMA_VERSION,
            "kind": "polynomial_decomposition_result",
            "inner_power_form": ser.inner_power_form_to_json(form),
            "linear_product_form": ser.linear_product_form_to_json(products),
            "probe_residual": residual,
            "product_form_residual": product_residual,
        }, EXIT_OK

    return run


def _handle_mti_eval(payload, args):
    _require_schema_version(payload)
    tensors_json = payload.get("tensors")
    if not isinstance(tensors_json, list) or len(tensors_json) < 2:
        raise ValidationError("tensors must list at least two Hermitian tensors",
                              path="input.tensors")
    tensors = [
        ser.parse_tensor(t, f"input.tensors[{i}]") for i, t in enumerate(tensors_json)
    ]
    dims = shared_mode_dims(tensors)
    integrand = ser.parse_integrand(payload.get("integrand", {}), "input.integrand")
    args_json = payload.get("arguments", [])
    if not isinstance(args_json, list):
        raise ValidationError("arguments must be a list of tensors",
                              path="input.arguments")
    arguments = [
        ser.parse_tensor_argument(t, f"input.arguments[{i}]")
        for i, t in enumerate(args_json)
    ]
    # the unfolded request checks arity, argument count and argument modes
    request = MoiRequest(
        tuple(unfold(t) for t in tensors),
        integrand,
        tuple(unfold_array(a, dims) for a in arguments),
    )

    def run():
        result = moi_evaluate(request)
        return {
            "schema_version": ser.SCHEMA_VERSION,
            "kind": "mti_result",
            "value": ser.tensor_argument_to_json(result.value, dims),
            "eigen_tuple_count": result.eigen_tuple_count,
        }, EXIT_OK

    return run


def _handle_haar(args):
    if args.dim is None or args.dim < 1:
        raise ValidationError("--dim must be a positive integer", path="flags.dim")
    count = args.count if args.count is not None else 1
    if count < 1:
        raise ValidationError("--count must be a positive integer", path="flags.count")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(int(seed))
    samples = [sample_haar_unitary(args.dim, rng) for _ in range(count)]
    return {
        "schema_version": ser.SCHEMA_VERSION,
        "kind": "haar_samples",
        "dim": args.dim,
        "count": count,
        "seed": int(seed),
        "samples": [ser.matrix_to_json(u.matrix) for u in samples],
    }, EXIT_OK


_HANDLERS = {
    "moi-eval": _handle_moi_eval,
    "frechet": _handle_frechet,
    "kth-deriv": _handle_kth_deriv,
    "higher-diff": _handle_higher_diff,
    "remainder": _handle_remainder,
    "tailbound": _handle_tailbound,
    "conv-mean": _handle_conv_mean,
    "poly-decompose": _handle_poly_decompose,
    "mti-eval": _handle_mti_eval,
}

# The commands whose reports are tables, each with the key of its rows and
# their columns: the only reports that ``--format csv`` can write.
_CSV_COLUMNS = {
    "tailbound": ("rows", ["theta", "empirical_prob", "mc_stderr", "bound_rhs", "satisfied"]),
    "conv-mean": ("steps", ["m", "epsilon", "mean_diff_pow_r", "stderr", "bound_mean",
                            "dominated"]),
}

_KIND_TO_COMMAND = {
    "moi_request": "moi-eval",
    "frechet_request": "frechet",
    "kth_derivative_request": "kth-deriv",
    "higher_difference_request": "higher-diff",
    "remainder_request": "remainder",
    "tail_bound_experiment": "tailbound",
    "convergence_request": "conv-mean",
    "polynomial_decomposition_request": "poly-decompose",
    "mti_request": "mti-eval",
}

_OUTPUT_KINDS = (
    "moi_result",
    "matrix_result",
    "higher_difference_result",
    "remainder_result",
    "tail_bound_report",
    "convergence_report",
    "polynomial_decomposition_result",
    "mti_result",
    "haar_samples",
)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_payload(payload, command: str | None, args) -> dict:
    """Structured diagnostics for a payload, never raising.  A command
    payload goes through exactly that command's parse step."""
    diagnostics: list[str] = []
    matched = None
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if isinstance(payload, dict) and payload.get("schema_version") != ser.SCHEMA_VERSION:
        diagnostics.append(
            f"schema_version: expected {ser.SCHEMA_VERSION}, "
            f"got {payload.get('schema_version')!r}"
        )
    if command is None and kind in _KIND_TO_COMMAND:
        command = _KIND_TO_COMMAND[kind]
    if command is not None:
        try:
            _HANDLERS[command](payload, args)
            matched = command
        except MoikitError as err:
            diagnostics.append(str(err))
    elif kind in _OUTPUT_KINDS:
        matched = kind
    else:
        diagnostics.append(
            "kind: cannot infer the schema; provide --command or a 'kind' field"
        )
    summary = {}
    if isinstance(payload, dict):
        for key in ("operators", "arguments", "tensors", "theta_grid", "rows"):
            if isinstance(payload.get(key), list):
                summary[f"{key}_count"] = len(payload[key])
        if "samples" in payload and isinstance(payload["samples"], int):
            summary["samples"] = payload["samples"]
    return {
        "schema_version": ser.SCHEMA_VERSION,
        "kind": "validation_report",
        "ok": not diagnostics,
        "matched": matched,
        "diagnostics": diagnostics,
        "summary": summary,
    }


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def _rows_to_csv(rows, fieldnames) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fieldnames})
    return buffer.getvalue()


def _write_output(output: dict, args):
    if args.format == "csv":
        key, columns = _CSV_COLUMNS[args.command]
        text = _rows_to_csv(output[key], columns)
        if args.output:
            ser.write_text_atomic(args.output, text)
        else:
            sys.stdout.write(text)
        return
    if args.output:
        ser.write_json_atomic(args.output, output)
    else:
        sys.stdout.write(ser.dumps_deterministic(output))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moikit",
        description="Operator-integral engine: spectral-sum evaluation, "
        "operator calculus, and randomized tail-bound verification.",
    )
    sub = parser.add_subparsers(dest="command")
    commands = [
        ("moi-eval", "evaluate an operator integral"),
        ("frechet", "directional derivative of a matrix function"),
        ("kth-deriv", "k-th directional derivative"),
        ("higher-diff", "higher-order operator difference"),
        ("remainder", "operator Taylor remainder (both flavors)"),
        ("tailbound", "run a tail-bound experiment"),
        ("conv-mean", "convergence-in-mean experiment"),
        ("poly-decompose", "inner-power and linear-product decomposition"),
        ("haar", "sample Haar-random unitaries"),
        ("mti-eval", "evaluate a tensor integral"),
        ("validate", "schema and invariant diagnostics for a payload"),
    ]
    for name, help_text in commands:
        cmd = sub.add_parser(name, help=help_text)
        if name != "haar":
            cmd.add_argument("--input", required=True)
        cmd.add_argument("--output", default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--format", choices=["json", "csv"], default="json")
        cmd.add_argument("--workers", type=int, default=1)
        if name == "haar":
            cmd.add_argument("--dim", type=int, default=None)
            cmd.add_argument("--count", type=int, default=None)
        if name == "validate":
            cmd.add_argument("--command", dest="target_command", default=None,
                             choices=sorted(_HANDLERS))
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.format == "csv" and args.command not in _CSV_COLUMNS:
            # rejected before any computation
            raise ValidationError("csv output is only available for tabular reports",
                                  path="flags.format")
        if args.command == "haar":
            output, code = _handle_haar(args)
        elif args.command == "validate":
            try:
                payload = ser.load_json(args.input)
            except (OSError, json.JSONDecodeError) as err:
                output, code = {
                    "schema_version": ser.SCHEMA_VERSION,
                    "kind": "validation_report",
                    "ok": False,
                    "matched": None,
                    "diagnostics": [f"file: {err}"],
                    "summary": {},
                }, EXIT_OK
            else:
                output = _validate_payload(payload, args.target_command, args)
                code = EXIT_OK
        else:
            handler = _HANDLERS[args.command]
            try:
                payload = ser.load_json(args.input)
            except OSError as err:
                raise ValidationError(f"cannot read input: {err}", path="flags.input")
            except json.JSONDecodeError as err:
                raise ValidationError(f"input is not valid JSON: {err}",
                                      path="flags.input")
            output, code = handler(payload, args)()
        _write_output(output, args)
        return code
    except (ValidationError, ParameterError, CapabilityError) as err:
        logger.error("validation error: %s", err)
        sys.stderr.write(f"error: {err}\n")
        return EXIT_VALIDATION
    except (NumericalError, FunctionDomainError, DecompositionFailureError) as err:
        logger.error("numerical failure: %s", err)
        sys.stderr.write(f"error: {err}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
