#!/usr/bin/env python3
"""Regenerate the shipped experiment configs and CLI demo inputs.

Everything is seeded, so rerunning this script reproduces the configs/ tree
byte for byte.  Theta grids are calibrated from a short pilot run per
experiment so the reports show the transition from frequent to rare
exceedance.
"""

import dataclasses
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import moikit as mk
from moikit import serialization as ser

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SAMPLES = 10_000
PILOT = 1_500


def theta_grid_from_pilot(experiment_payload) -> list[float]:
    exp = ser.parse_experiment(experiment_payload)
    pilot = dataclasses.replace(exp, samples=PILOT)
    from moikit.harness import _simulate_block

    stats, _, aborted = _simulate_block(pilot, 0, PILOT)
    values = stats[~aborted]
    lo = float(np.quantile(values, 0.30))
    hi = float(np.max(values)) * 2.0
    grid = np.geomspace(max(lo, 1e-6), hi, 8)
    return [float(f"{t:.6g}") for t in grid]


def hermitian_json(dim, rng, norm):
    return ser.matrix_to_json(mk.random_hermitian(dim, rng, norm=norm))


def model_json(dim, law):
    return ser.model_to_json(mk.RandomOperatorModel(dim, law))


def finish(payload):
    payload["theta_grid"] = theta_grid_from_pilot(payload)
    return payload


def monomial_json(degree, coefficient=1.0):
    coeffs = [0.0] * degree + [float(coefficient)]
    return {"coeffs": coeffs}


def build_tailbound_configs():
    rng = np.random.default_rng(20260401)
    uniform4 = model_json(4, ("uniform", -1.0, 1.0))
    gaussian4 = model_json(4, ("gaussian", 0.0, 0.6))
    phases3 = model_json(3, ("uniform", -np.pi, np.pi))

    x1 = hermitian_json(4, rng, 1.0)
    x2 = hermitian_json(4, rng, 0.8)
    direction = hermitian_json(4, rng, 0.7)
    step = hermitian_json(4, rng, 0.3)
    h_sa_1 = hermitian_json(4, rng, 0.4)
    h_sa_2 = hermitian_json(4, rng, 0.3)
    h_u_1 = hermitian_json(3, rng, 0.5)
    h_u_2 = hermitian_json(3, rng, 0.4)

    base = {"schema_version": 1, "kind": "tail_bound_experiment",
            "samples": SAMPLES}

    configs = {}
    configs["tailbound_moi_norm_a"] = finish({
        **base,
        "theorem_id": "moi_norm_a",
        "operator_models": [uniform4, uniform4, uniform4],
        "fixed_inputs": {"arguments": [x1, x2]},
        "integrand": {
            "arity": 3,
            "terms": [[monomial_json(1), monomial_json(1), monomial_json(1)]],
        },
        "theta_grid": [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8],
        "seed": 101,
    })
    configs["tailbound_moi_norm_schatten_b"] = finish({
        **base,
        "theorem_id": "moi_norm_schatten_b",
        "operator_models": [uniform4, gaussian4, uniform4],
        "fixed_inputs": {"arguments": [x1, x2]},
        "integrand": {
            "arity": 3,
            "terms": [[monomial_json(2), monomial_json(1), monomial_json(1)]],
        },
        "theta_grid": [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8],
        "schatten_p": [2.0, 2.0],
        "seed": 102,
    })
    configs["tailbound_first_derivative"] = finish({
        **base,
        "theorem_id": "first_derivative",
        "operator_models": [uniform4],
        "fixed_inputs": {"direction": direction},
        "integrand": monomial_json(3),
        "theta_grid": [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8],
        "seed": 103,
    })
    configs["tailbound_kth_derivative"] = finish({
        **base,
        "theorem_id": "kth_derivative",
        "operator_models": [uniform4],
        "fixed_inputs": {"direction": step},
        "integrand": monomial_json(3),
        "theta_grid": [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4],
        "order": 2,
        "seed": 104,
    })
    hd_payload = finish({
        **base,
        "theorem_id": "higher_difference",
        "operator_models": [uniform4],
        "fixed_inputs": {"step": step},
        "integrand": monomial_json(3),
        "theta_grid": [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4],
        "order": 2,
        "seed": 105,
    })
    # fix the eigengap hypothesis just above the pilot's largest measurement
    from moikit.harness import _simulate_block

    hd_pilot = ser.parse_experiment({**hd_payload, "samples": PILOT})
    _, pilot_terms, pilot_aborted = _simulate_block(hd_pilot, 0, PILOT)
    max_gap = float(np.max(pilot_terms["eigengap"][~pilot_aborted]))
    hd_payload["eigengap_bound"] = float(f"{max_gap * 1.05:.6g}")
    configs["tailbound_higher_difference"] = hd_payload
    configs["tailbound_sa_remainder"] = finish({
        **base,
        "theorem_id": "sa_remainder",
        "operator_models": [uniform4, gaussian4],
        "fixed_inputs": {"perturbations": [h_sa_1, h_sa_2]},
        "integrand": {"slot_functions": [monomial_json(4), monomial_json(3)]},
        "theta_grid": [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4],
        "order": 2,
        "seed": 106,
    })
    configs["tailbound_unitary_remainder"] = finish({
        **base,
        "theorem_id": "unitary_remainder",
        "operator_models": [phases3, phases3],
        "fixed_inputs": {"perturbations": [h_u_1, h_u_2]},
        "integrand": {"slot_functions": [monomial_json(4), monomial_json(3)]},
        "theta_grid": [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4],
        "order": 2,
        "seed": 107,
    })
    return configs


def build_demo_configs():
    rng = np.random.default_rng(20260402)
    x1 = mk.random_hermitian(3, rng, norm=1.0)
    a1 = mk.sample_random_hermitian(
        mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0)), rng
    )
    a2 = mk.sample_random_hermitian(
        mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0)), rng
    )
    demos = {}
    demos["demo_moi_eval"] = {
        "schema_version": 1,
        "kind": "moi_request",
        "operators": [ser.matrix_to_json(a1.matrix), ser.matrix_to_json(a2.matrix)],
        "integrand": {"arity": 2, "terms": [[{"coeffs": [1.0]}, {"coeffs": [1.0]}]]},
        "arguments": [ser.matrix_to_json(x1)],
    }
    demos["demo_frechet"] = {
        "schema_version": 1,
        "kind": "frechet_request",
        "f": {"coeffs": [0.0, 0.0, 0.0, 1.0]},
        "operator": ser.matrix_to_json(np.diag([1.0, 2.0]).astype(complex)),
        "direction": ser.matrix_to_json(np.array([[0, 1], [1, 0]], dtype=complex)),
    }
    demos["demo_kth_deriv"] = {
        "schema_version": 1,
        "kind": "kth_derivative_request",
        "f": {"coeffs": [0.0, 0.0, 0.0, 0.0, 1.0]},
        "operator": ser.matrix_to_json(a1.matrix),
        "direction": ser.matrix_to_json(0.5 * x1),
        "order": 2,
    }
    demos["demo_higher_diff"] = {
        "schema_version": 1,
        "kind": "higher_difference_request",
        "f": {"coeffs": [0.0, 0.0, 0.0, 1.0]},
        "operator": ser.matrix_to_json(a1.matrix),
        "step": ser.matrix_to_json(0.3 * x1),
        "order": 2,
        "include_moi_diagnostic": True,
    }
    demos["demo_remainder_sa"] = {
        "schema_version": 1,
        "kind": "remainder_request",
        "order": 2,
        "flavor": "self_adjoint",
        "method": "both",
        "slots": [
            {
                "f": {"coeffs": [0.0, 0.0, 0.0, 0.0, 1.0]},
                "base": ser.matrix_to_json(a1.matrix),
                "perturbation": ser.matrix_to_json(0.4 * x1),
            }
        ],
    }
    u = mk.sample_random_unitary(
        mk.RandomOperatorModel(3, ("uniform", -np.pi, np.pi)), rng
    )
    demos["demo_remainder_unitary"] = {
        "schema_version": 1,
        "kind": "remainder_request",
        "order": 2,
        "flavor": "unitary",
        "method": "both",
        "slots": [
            {
                "f": {"coeffs": [0.0, 1.0, 0.0, 1.0]},
                "base": ser.matrix_to_json(u.matrix),
                "perturbation": ser.matrix_to_json(
                    mk.random_hermitian(3, rng, norm=0.4)
                ),
            }
        ],
    }
    demos["demo_poly_decompose"] = {
        "schema_version": 1,
        "kind": "polynomial_decomposition_request",
        "polynomial": {
            "arity": 2,
            "terms": [
                {"exp": [1, 1], "coef": 1.0},
                {"exp": [2, 0], "coef": 0.5},
                {"exp": [0, 0], "coef": -0.25},
            ],
        },
        "seed": 7,
    }
    tensor = mk.HermitianTensor(
        (2, 2),
        mk.fold(
            mk.sample_random_hermitian(
                mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0)), rng
            ).matrix,
            (2, 2),
        ).entries,
    )
    tensor2 = mk.fold(
        mk.sample_random_hermitian(
            mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0)), rng
        ).matrix,
        (2, 2),
    )
    arg = mk.fold(mk.random_hermitian(4, rng), (2, 2))
    demos["demo_mti_eval"] = {
        "schema_version": 1,
        "kind": "mti_request",
        "tensors": [ser.tensor_to_json(tensor), ser.tensor_to_json(tensor2)],
        "integrand": {
            "arity": 2,
            "terms": [
                [{"coeffs": [0.0, 1.0]}, {"coeffs": [1.0]}],
                [{"coeffs": [1.0]}, {"coeffs": [0.0, 1.0]}],
            ],
        },
        "arguments": [ser.tensor_to_json(arg)],
    }
    demos["convmean_default"] = {
        "schema_version": 1,
        "kind": "convergence_request",
        "base_model": model_json(4, ("uniform", -1.0, 1.0)),
        "epsilon0": 0.05,
        "steps": 64,
        "r": 2,
        "f": {"coeffs": [0.0, 0.0, 0.0, 1.0]},
        "order": 2,
        "arguments": [
            ser.matrix_to_json(mk.random_hermitian(4, rng, norm=1.0)),
            ser.matrix_to_json(mk.random_hermitian(4, rng, norm=1.0)),
        ],
        "samples": 150,
        "seed": 2026,
    }
    return demos


def main():
    os.makedirs(CONFIG_DIR, exist_ok=True)
    for name, payload in {**build_tailbound_configs(), **build_demo_configs()}.items():
        path = os.path.join(CONFIG_DIR, f"{name}.json")
        ser.write_json_atomic(path, payload)
        print("wrote", os.path.relpath(path))


if __name__ == "__main__":
    main()
