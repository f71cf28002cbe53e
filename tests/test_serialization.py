"""JSON schema round trips and field-path diagnostics."""

import numpy as np
import pytest

import moikit as mk
from moikit import serialization as ser
from moikit.errors import ValidationError

from conftest import config_path


class TestMatrixSchema:
    def test_round_trip(self, rng):
        matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        parsed = ser.parse_matrix(ser.matrix_to_json(matrix))
        np.testing.assert_array_equal(parsed, matrix)

    def test_missing_field_path(self):
        with pytest.raises(ValidationError) as err:
            ser.parse_matrix({"dim": 2}, "input.operators[0]")
        assert "input.operators[0]" in str(err.value)

    def test_bad_entry_path(self):
        payload = {"dim": 1, "entries": [[42]]}
        with pytest.raises(ValidationError) as err:
            ser.parse_matrix(payload, "m")
        assert "m.entries[0][0]" in str(err.value)

    def test_hermitian_check_names_entry(self):
        payload = ser.matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="asymmetry"):
            ser.parse_hermitian(payload)


class TestScalarAndIntegrand:
    def test_polynomial_round_trip(self):
        f = mk.ScalarFunction.polynomial([1.0, -2.0, 0.0, 0.5])
        parsed = ser.parse_scalar_function(ser.scalar_function_to_json(f))
        np.testing.assert_array_equal(parsed.coefficients, f.coefficients)

    def test_complex_coefficients(self):
        parsed = ser.parse_scalar_function({"coeffs": [[0.0, 1.0], 2.0]})
        assert parsed(1.0) == pytest.approx(2.0 + 1.0j)

    def test_separable_round_trip(self, rng):
        psi = mk.SeparableIntegrand(
            2,
            (
                (mk.ScalarFunction.monomial(1), mk.ScalarFunction.monomial(2)),
                (mk.ScalarFunction.constant(0.5), mk.ScalarFunction.monomial(1)),
            ),
        )
        parsed = ser.parse_separable(ser.separable_to_json(psi))
        for point in rng.uniform(-1, 1, size=(10, 2)):
            assert parsed.evaluate(point) == pytest.approx(psi.evaluate(point))

    def test_divided_difference_integrand_payload(self):
        payload = {"kind": "divided_difference", "f": {"coeffs": [0, 0, 1]}, "order": 1}
        integrand = ser.parse_integrand(payload)
        assert integrand.arity == 2
        assert integrand(1.0, 3.0) == pytest.approx(4.0)

    def test_term_arity_mismatch_path(self):
        payload = {"arity": 2, "terms": [[{"coeffs": [1.0]}]]}
        with pytest.raises(ValidationError) as err:
            ser.parse_separable(payload, "input.integrand")
        assert "input.integrand.terms[0]" in str(err.value)


class TestModelSchema:
    def test_round_trips(self):
        for law in (("uniform", -1.0, 1.0), ("gaussian", 0.0, 2.0),
                     ("fixed", (1.0, 2.0))):
            model = mk.RandomOperatorModel(2, law)
            parsed = ser.parse_model(ser.model_to_json(model))
            assert parsed == model

    def test_model_seed_is_ignored(self):
        # models hold no seed; one in an older model object is an unread key
        payload = {"dim": 2, "law": {"kind": "uniform", "a": -1.0, "b": 1.0}}
        model = ser.parse_model(payload)
        for seed in (9, -1, "x", True):
            assert ser.parse_model({**payload, "seed": seed}) == model
        assert "seed" not in ser.model_to_json(model)

    def test_unknown_law_path(self):
        with pytest.raises(ValidationError) as err:
            ser.parse_model({"dim": 2, "law": {"kind": "cauchy"}, "seed": 0})
        assert "law.kind" in str(err.value)


class TestPolynomialSchema:
    def test_round_trip(self):
        poly = mk.MonomialPolynomial(2, (((1, 1), 1.0), ((2, 0), -0.5)))
        parsed = ser.parse_monomial_polynomial(ser.monomial_polynomial_to_json(poly))
        assert parsed == poly

    def test_exponent_validation_path(self):
        payload = {"arity": 2, "terms": [{"exp": [1], "coef": 1.0}]}
        with pytest.raises(ValidationError) as err:
            ser.parse_monomial_polynomial(payload)
        assert "terms[0].exp" in str(err.value)


class TestTensorSchema:
    def test_round_trip(self, rng):
        tensor = mk.fold(mk.random_hermitian(6, rng), (2, 3))
        parsed = ser.parse_tensor(ser.tensor_to_json(tensor))
        np.testing.assert_array_equal(parsed.entries, tensor.entries)

    def test_length_validation(self):
        with pytest.raises(ValidationError, match="entries"):
            ser.parse_tensor({"mode_dims": [2], "entries": [[0.0, 0.0]]})


class TestExperimentSchema:
    def test_round_trip_preserves_report(self):
        payload = ser.load_json(config_path("tailbound_first_derivative.json"))
        exp = ser.parse_experiment(payload)
        rebuilt = ser.experiment_to_json(exp)
        exp2 = ser.parse_experiment(rebuilt)
        small = {**rebuilt, "samples": 1000}
        report_a = mk.run_tail_bound(ser.parse_experiment(small)).to_dict()
        small_again = {**ser.experiment_to_json(exp2), "samples": 1000}
        report_b = mk.run_tail_bound(ser.parse_experiment(small_again)).to_dict()
        report_a.pop("wall_time_s")
        report_b.pop("wall_time_s")
        assert ser.dumps_deterministic(report_a) == ser.dumps_deterministic(report_b)

    def test_unknown_theorem_path(self):
        payload = ser.load_json(config_path("tailbound_first_derivative.json"))
        payload = {**payload, "theorem_id": "bogus"}
        with pytest.raises(ValidationError):
            ser.parse_experiment(payload)

    def test_bad_theta_item_is_reported_at_its_own_path(self):
        # the item is read with the list, before the later fields
        payload = ser.load_json(config_path("tailbound_kth_derivative.json"))
        payload = {**payload, "theta_grid": ["x", *payload["theta_grid"][1:]],
                   "samples": "many"}
        with pytest.raises(ValidationError) as err:
            ser.parse_experiment(payload)
        assert str(err.value) == "experiment.theta_grid[0]: expected a number"
