#!/usr/bin/env python3
"""Regenerate the shipped experiment configs and CLI demo inputs.

Everything is seeded, so rerunning this script reproduces the configs/ tree
byte for byte.  Each tail-bound config gets one short pilot run: its theta
grid runs from the pilot's 30 % quantile to twice its largest statistic, so
the reports show the transition from frequent to rare exceedance, and the
higher-difference eigengap bound is 1.05 times the pilot's largest gap.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import moikit as mk
from moikit import serialization as ser
from moikit.harness import _simulate_block

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SAMPLES = 10_000
PILOT = 1_500


def pilot(payload):
    """Statistics and terms of the samples that did not abort, in a run of
    the payload's experiment at PILOT samples."""
    experiment = ser.parse_experiment({**payload, "samples": PILOT})
    stats, terms, aborted = _simulate_block(experiment, 0, PILOT)
    return stats[~aborted], {label: values[~aborted] for label, values in terms.items()}


def hermitian_json(dim, rng, norm):
    return ser.matrix_to_json(mk.random_hermitian(dim, rng, norm=norm))


def model_json(dim, law):
    return ser.model_to_json(mk.RandomOperatorModel(dim, law))


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

    def products(*degrees):
        return {"arity": len(degrees), "terms": [[monomial_json(d) for d in degrees]]}

    def slots(*degrees):
        return {"slot_functions": [monomial_json(d) for d in degrees]}

    # theorem, operator models, fixed inputs, integrand, optional fields, seed
    rows = [
        ("moi_norm_a", [uniform4, uniform4, uniform4], {"arguments": [x1, x2]},
         products(1, 1, 1), {}, 101),
        ("moi_norm_schatten_b", [uniform4, gaussian4, uniform4], {"arguments": [x1, x2]},
         products(2, 1, 1), {"schatten_p": [2.0, 2.0]}, 102),
        ("first_derivative", [uniform4], {"direction": direction},
         monomial_json(3), {}, 103),
        ("kth_derivative", [uniform4], {"direction": step},
         monomial_json(3), {"order": 2}, 104),
        ("higher_difference", [uniform4], {"step": step},
         monomial_json(3), {"order": 2}, 105),
        ("sa_remainder", [uniform4, gaussian4], {"perturbations": [h_sa_1, h_sa_2]},
         slots(4, 3), {"order": 2}, 106),
        ("unitary_remainder", [phases3, phases3], {"perturbations": [h_u_1, h_u_2]},
         slots(4, 3), {"order": 2}, 107),
    ]
    configs = {}
    for theorem_id, models, fixed_inputs, integrand, optional, seed in rows:
        payload = {
            "schema_version": 1,
            "kind": "tail_bound_experiment",
            "samples": SAMPLES,
            "theorem_id": theorem_id,
            "operator_models": models,
            "fixed_inputs": fixed_inputs,
            "integrand": integrand,
            "theta_grid": [1.0],  # the pilot's grid replaces it in this place
            **optional,
            "seed": seed,
        }
        stats, terms = pilot(payload)
        lo = float(np.quantile(stats, 0.30))
        hi = float(np.max(stats)) * 2.0
        grid = np.geomspace(max(lo, 1e-6), hi, 8)
        payload["theta_grid"] = [float(f"{t:.6g}") for t in grid]
        if theorem_id == "higher_difference":
            # fix the eigengap hypothesis just above the pilot's largest measurement
            max_gap = float(np.max(terms["eigengap"]))
            payload["eigengap_bound"] = float(f"{max_gap * 1.05:.6g}")
        configs[f"tailbound_{theorem_id}"] = payload
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
