"""What the benchmark under ``perfbench/`` reads of moikit, checked in the
package's own suite: its tracer, loaded from its file unedited, wraps every
public function it traces and ``MultivariateFunction.eval_grid``, and
restores them all, and it sees a tail-bound run draw one stream per block;
the engine sweep's oracle reads the terms of a polynomial divided
difference."""

import importlib.util
import math
import os
import sys

import numpy as np
import pytest

import moikit as mk
from moikit import serialization

from conftest import config_path

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_moikit_and_uninstalls():
    tracer_module = load_tracer()
    homes = {(home, attr): sys.modules[f"moikit.{home}"]
             for home, spans in tracer_module.SPANS.items() for attr in spans}
    originals = {key: getattr(module, key[1]) for key, module in homes.items()}
    eval_grid = mk.MultivariateFunction.eval_grid
    tracer = tracer_module.Tracer()
    tracer.install(mk)
    try:
        for key, module in homes.items():
            assert getattr(module, key[1]) is not originals[key], key
        assert mk.MultivariateFunction.eval_grid is not eval_grid
        exp = mk.ScalarFunction.from_callable(np.exp, (np.exp,))
        operator = mk.HermitianOperator(np.diag([0.1, 0.4, 0.9]).astype(complex))
        tracer.active = True
        mk.moi_core([operator] * 2, mk.divided_difference_integrand(exp, 1), [np.eye(3)])
        tracer.active = False
        assert tracer.totals["moi.core"][0] == 1
        assert tracer.counts["integrands.grid_contract.points"] == 9
    finally:
        tracer.uninstall()
    for key, module in homes.items():
        assert getattr(module, key[1]) is originals[key], key
    assert mk.MultivariateFunction.eval_grid is eval_grid


def test_the_tracer_sees_one_stream_per_block():
    # 1000 samples fill blocks 0..3 of 256, and each block is drawn once
    payload = serialization.load_json(config_path("tailbound_first_derivative.json"))
    exp = serialization.parse_experiment({**payload, "samples": 1000})
    tracer = load_tracer().Tracer()
    tracer.install(mk)
    try:
        tracer.active = True
        mk.run_tail_bound(exp)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert tracer.totals["harness.stream"][0] == 4
    assert tracer.totals["harness.run"][0] == 1


def test_a_polynomial_divided_difference_lists_its_terms():
    poly = mk.ScalarFunction.polynomial([0.5, -1.0, 2.0, 1.0, 0.25])
    terms = mk.divided_difference_integrand(poly, 2).separable.terms
    assert all(len(term) == 3 and all(isinstance(fn, mk.ScalarFunction) for fn in term)
               for term in terms)
    point = (0.3, -0.2, 0.7)
    total = sum(math.prod(fn(x) for fn, x in zip(term, point)) for term in terms)
    expected = mk.divided_difference(mk.DividedDifferenceSpec(poly, 2, point))
    assert total == pytest.approx(expected, rel=1e-12)
