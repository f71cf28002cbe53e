"""Command-line front end: JSON in, JSON/CSV out.

One subcommand per task; all numeric parameters live in the input file
(paths and format are flags, ``--seed``/``--workers`` only where a command
reads them, plus the dim/count flags of ``haar``).
Results are written atomically.  Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 tail-bound violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Callable, NamedTuple

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
    MAX_ORDER,
    MAX_UNITARY_ORDER,
    _integer,
    _seed,
)
from .harness import (
    convergence_in_mean_check,
    convergence_parameters,
    run_tail_bound,
)
from .moi import MoiRequest, moi_evaluate
from .operators import sample_haar_unitary
from .polyapprox import (
    DECOMPOSITION_LIMITS,
    _past_decomposition_limits,
    decompose_inner_powers,
    to_linear_products,
)
from .tensors import shared_mode_dims, unfold, unfold_array

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_BOUND_VIOLATION = 4


def _require_schema_version(payload):
    if not isinstance(payload, dict):
        raise ValidationError("expected an object", path="input")
    version = payload.get("schema_version")
    if version != ser.SCHEMA_VERSION:
        raise ValidationError(
            f"schema_version must be {ser.SCHEMA_VERSION}, got {version!r}",
            path="input.schema_version",
        )


# ---------------------------------------------------------------------------
# Command handlers: handler(payload, args) parses and validates a payload
# whose schema version ``_parse`` has checked, then returns a zero-argument
# ``run`` that does the computation and returns (output dict, exit code).
# ``validate`` calls the parse step only.
# Each handler has its row in ``_COMMANDS``, the one table of the commands.
# ---------------------------------------------------------------------------


def _positive_order(payload) -> int:
    return _integer(payload.get("order"), f"order must be an integer in 1..{MAX_ORDER}",
                    "input.order", 1, MAX_ORDER + 1)


def _operator_sized(matrix, operator, path: str) -> np.ndarray:
    if len(matrix) != operator.dim:
        raise ValidationError(
            f"dimension {len(matrix)} differs from the operator's dimension {operator.dim}",
            path=path,
        )
    return matrix


def _matrix_output(value) -> tuple[dict, int]:
    return {
        "schema_version": ser.SCHEMA_VERSION,
        "kind": "matrix_result",
        "value": ser.matrix_to_json(value),
    }, EXIT_OK


def _handle_moi_eval(payload, args):
    operator_kind = payload.get("operator_kind", "hermitian")
    parse_op = {
        "hermitian": ser.parse_hermitian,
        "unitary": ser.parse_unitary,
    }.get(operator_kind) if isinstance(operator_kind, str) else None

    def parse_operator(matrix, path):
        # an unknown kind is reported after the list check, at the first item
        if parse_op is None:
            raise ValidationError(f"unknown operator_kind {operator_kind!r}",
                                  path="input.operator_kind")
        return parse_op(matrix, path)

    operators = ser._items(payload.get("operators"), parse_operator,
                           "operators must list at least two matrices", "input.operators",
                           least=2)
    integrand = ser.parse_integrand(payload.get("integrand", {}), "input.integrand")
    arguments = ser._items(payload.get("arguments"), ser.parse_matrix,
                           "arguments must be a list of matrices", "input.arguments")
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
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    operator = ser.parse_hermitian(payload.get("operator", {}), "input.operator")
    direction = ser.parse_matrix(payload.get("direction", {}), "input.direction")
    direction = _operator_sized(direction, operator, "input.direction")
    return lambda: _matrix_output(frechet_derivative(f, operator, direction))


def _handle_kth_deriv(payload, args):
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    operator = ser.parse_hermitian(payload.get("operator", {}), "input.operator")
    direction = ser.parse_matrix(payload.get("direction", {}), "input.direction")
    direction = _operator_sized(direction, operator, "input.direction")
    order = _positive_order(payload)
    return lambda: _matrix_output(kth_derivative(f, operator, direction, order))


def _handle_higher_diff(payload, args):
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    operator = ser.parse_hermitian(payload.get("operator", {}), "input.operator")
    step = ser.parse_hermitian(payload.get("step", {}), "input.step").matrix
    step = _operator_sized(step, operator, "input.step")
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
    order = _positive_order(payload)
    flavor = payload.get("flavor")
    if flavor not in ("self_adjoint", "unitary"):
        raise ValidationError("flavor must be self_adjoint or unitary",
                              path="input.flavor")
    if flavor == "unitary" and order > MAX_UNITARY_ORDER:
        raise ValidationError(f"order must be an integer in 1..{MAX_UNITARY_ORDER}",
                              path="input.order")
    parse_base = ser.parse_hermitian if flavor == "self_adjoint" else ser.parse_unitary

    def parse_slot(slot, spath):
        if not isinstance(slot, dict):
            raise ValidationError("slot must be an object", path=spath)
        f = ser.parse_scalar_function(slot.get("f", {}), spath + ".f")
        base = parse_base(slot.get("base", {}), spath + ".base")
        perturbation = ser.parse_hermitian(slot.get("perturbation", {}),
                                           spath + ".perturbation")
        if perturbation.dim != base.dim:
            raise ValidationError(f"dimension {perturbation.dim} differs from the "
                                  f"base dimension {base.dim}",
                                  path=spath + ".perturbation")
        return f, base, perturbation

    slots = ser._items(payload.get("slots"), parse_slot, "slots must be a non-empty list",
                       "input.slots", least=1)
    functions, bases, perturbations = zip(*slots)
    spec = RemainderSpec(
        order,
        SlotFunctionSum.from_slot_functions(functions),
        bases,
        perturbations,
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


def _with_seed_flag(payload, args):
    """``payload`` with ``--seed``, if given, as its seed, checked at ``flags.seed``."""
    if args.seed is None:
        return payload
    return {**payload, "seed": _seed(args.seed, "flags.seed")}


def _handle_tailbound(payload, args):
    if args.workers < 1:
        raise ValidationError("--workers must be a positive integer", path="flags.workers")
    experiment = ser.parse_experiment(_with_seed_flag(payload, args), "input")

    def run():
        report = run_tail_bound(experiment, workers=args.workers)
        code = EXIT_OK if report.all_satisfied else EXIT_BOUND_VIOLATION
        return report.to_dict(), code

    return run


def _handle_conv_mean(payload, args):
    model = ser.parse_model(payload.get("base_model", {}), "input.base_model")
    f = ser.parse_scalar_function(payload.get("f", {}), "input.f")
    arguments = ser._items(payload.get("arguments", []), ser.parse_matrix,
                           "arguments must be a list of matrices", "input.arguments")
    payload = _with_seed_flag(payload, args)
    for key in ("epsilon0", "steps", "r", "order", "samples", "seed"):
        if key not in payload:
            raise ValidationError(f"missing field {key!r}", path="input")
    epsilon0, steps, r, order, arguments, samples, seed = convergence_parameters(
        payload["epsilon0"], payload["steps"], payload["r"], payload["order"],
        arguments, payload["samples"], payload["seed"], model.dim, path="input",
    )

    def run():
        report = convergence_in_mean_check(
            model, epsilon0, steps, r, f, order, arguments, samples, seed
        )
        return report, EXIT_OK

    return run


def _handle_poly_decompose(payload, args):
    poly = ser.parse_monomial_polynomial(payload.get("polynomial", {}),
                                         "input.polynomial")
    field = _past_decomposition_limits(poly)
    if field is not None:
        raise ValidationError(DECOMPOSITION_LIMITS, path=f"input.polynomial.{field}")
    seed = _seed(_with_seed_flag(payload, args).get("seed", 0), "input.seed")

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
    tensors = ser._items(payload.get("tensors"), ser.parse_tensor,
                         "tensors must list at least two Hermitian tensors", "input.tensors",
                         least=2)
    dims = shared_mode_dims(tensors)
    integrand = ser.parse_integrand(payload.get("integrand", {}), "input.integrand")
    arguments = ser._items(payload.get("arguments", []), ser.parse_tensor_argument,
                           "arguments must be a list of tensors", "input.arguments")
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
    seed = _seed(args.seed if args.seed is not None else 0, "flags.seed")
    rng = np.random.default_rng(seed)
    samples = [sample_haar_unitary(args.dim, rng) for _ in range(count)]
    return {
        "schema_version": ser.SCHEMA_VERSION,
        "kind": "haar_samples",
        "dim": args.dim,
        "count": count,
        "seed": seed,
        "samples": [ser.matrix_to_json(u.matrix) for u in samples],
    }, EXIT_OK


class _Command(NamedTuple):
    """A subcommand: its help text; ``handler(payload, args)``, the parse step
    that returns ``run`` once ``_parse`` has checked the schema version
    (``haar`` and ``validate`` read no command payload and have none); the
    ``kind`` of the payload it reads and of the report it writes, which
    ``validate`` recognizes (its own reports included); for a report that is
    a table, the key of its rows and their columns, since only those reports
    can be written with ``--format csv``; and which of the flags ``seed`` and
    ``workers`` it reads (``validate`` runs the parse steps that read them)."""

    help: str
    handler: Callable | None = None
    request: str | None = None
    result: str | None = None
    table: tuple[str, list[str]] | None = None
    flags: tuple[str, ...] = ()


# Every subcommand, in the order ``--help`` lists them.
_COMMANDS = {
    "moi-eval": _Command("evaluate an operator integral", _handle_moi_eval,
                         "moi_request", "moi_result"),
    "frechet": _Command("directional derivative of a matrix function", _handle_frechet,
                        "frechet_request", "matrix_result"),
    "kth-deriv": _Command("k-th directional derivative", _handle_kth_deriv,
                          "kth_derivative_request", "matrix_result"),
    "higher-diff": _Command("higher-order operator difference", _handle_higher_diff,
                            "higher_difference_request", "higher_difference_result"),
    "remainder": _Command("operator Taylor remainder (both flavors)", _handle_remainder,
                          "remainder_request", "remainder_result"),
    "tailbound": _Command(
        "run a tail-bound experiment", _handle_tailbound,
        "tail_bound_experiment", "tail_bound_report",
        ("rows", ["theta", "empirical_prob", "mc_stderr", "bound_rhs", "satisfied"]),
        flags=("seed", "workers")),
    "conv-mean": _Command(
        "convergence-in-mean experiment", _handle_conv_mean,
        "convergence_request", "convergence_report",
        ("steps", ["m", "epsilon", "mean_diff_pow_r", "stderr", "bound_mean", "dominated"]),
        flags=("seed",)),
    "poly-decompose": _Command("inner-power and linear-product decomposition",
                               _handle_poly_decompose, "polynomial_decomposition_request",
                               "polynomial_decomposition_result", flags=("seed",)),
    "haar": _Command("sample Haar-random unitaries", result="haar_samples",
                     flags=("seed",)),
    "mti-eval": _Command("evaluate a tensor integral", _handle_mti_eval,
                         "mti_request", "mti_result"),
    "validate": _Command("schema and invariant diagnostics for a payload",
                         result="validation_report", flags=("seed", "workers")),
}


def _parse(command: str, payload, args):
    """The parse step of a command that reads a payload: the schema version,
    then the command's handler, which returns ``run``."""
    _require_schema_version(payload)
    return _COMMANDS[command].handler(payload, args)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_payload(payload, command: str | None, args) -> dict:
    """Structured diagnostics for a payload, never raising.  A command
    payload goes through exactly that command's parse step."""
    diagnostics: list[str] = []
    matched = None
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if command is None and kind is not None:
        command = next((name for name, c in _COMMANDS.items() if c.request == kind), None)
    try:
        if command is not None:
            _parse(command, payload, args)
            matched = command
        elif kind is not None and any(c.result == kind for c in _COMMANDS.values()):
            _require_schema_version(payload)  # a report, which no parse step reads
            matched = kind
        else:
            diagnostics.append(
                "kind: cannot infer the schema; provide --command or a 'kind' field"
            )
    except MoikitError as err:
        diagnostics.append(str(err))
    summary = {}
    if isinstance(payload, dict):
        for key in ("operators", "arguments", "tensors", "theta_grid", "rows"):
            if isinstance(payload.get(key), list):
                summary[f"{key}_count"] = len(payload[key])
        if isinstance(payload.get("samples"), int) and not isinstance(payload["samples"], bool):
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
        key, columns = _COMMANDS[args.command].table
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
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        if name != "haar":
            cmd.add_argument("--input", required=True)
        cmd.add_argument("--output", default=None)
        if "seed" in command.flags:
            cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--format", choices=["json", "csv"], default="json")
        if "workers" in command.flags:
            cmd.add_argument("--workers", type=int, default=1)
        if name == "haar":
            cmd.add_argument("--dim", type=int, default=None)
            cmd.add_argument("--count", type=int, default=None)
        if name == "validate":
            cmd.add_argument("--command", dest="target_command", default=None,
                             choices=sorted(n for n, c in _COMMANDS.items() if c.handler))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        # every command checks its results, so a numpy warning would only
        # print lines before its one error line
        with np.errstate(all="ignore"):
            if args.format == "csv" and _COMMANDS[args.command].table is None:
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
                try:
                    payload = ser.load_json(args.input)
                except OSError as err:
                    raise ValidationError(f"cannot read input: {err}", path="flags.input")
                except json.JSONDecodeError as err:
                    raise ValidationError(f"input is not valid JSON: {err}",
                                          path="flags.input")
                output, code = _parse(args.command, payload, args)()
            _write_output(output, args)
            return code
    except (ValidationError, ParameterError, CapabilityError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_VALIDATION
    except (NumericalError, FunctionDomainError, DecompositionFailureError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
