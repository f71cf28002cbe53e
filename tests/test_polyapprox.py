"""Inner-power decompositions, linear-product forms, and the polynomials they
rewrite."""

import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import moikit as mk
from moikit.errors import DecompositionFailureError, ParameterError, ValidationError


def poly_xy():
    return mk.MonomialPolynomial(2, (((1, 1), 1.0),))


class TestDecomposeInnerPowers:
    def test_xy_reconstructs(self):
        rng = np.random.default_rng(4)
        form = mk.decompose_inner_powers(poly_xy(), rng)
        pts = np.random.default_rng(5).uniform(-1, 1, size=(200, 2))
        np.testing.assert_allclose(
            form.evaluate_many(pts), pts[:, 0] * pts[:, 1], atol=1e-9
        )

    def test_fails_after_every_direction_draw_is_singular(self):
        class Ones:  # every normal 1: all directions equal, every system singular
            def standard_normal(self, size):
                return np.ones(size)

        with pytest.raises(DecompositionFailureError,
                           match="^no acceptable direction system after 10 attempts"):
            mk.decompose_inner_powers(poly_xy(), Ones())

    def test_constant_polynomial(self):
        poly = mk.MonomialPolynomial(2, (((0, 0), 3.5),))
        form = mk.decompose_inner_powers(poly, np.random.default_rng(1))
        assert form.degree_term_counts() == {0: 1}
        assert form.evaluate([0.3, -0.7]) == pytest.approx(3.5)

    def test_random_degree_three(self):
        rng = np.random.default_rng(8)
        exponents = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
        coeffs = np.random.default_rng(9).standard_normal(len(exponents))
        poly = mk.MonomialPolynomial(
            2, tuple((exp, float(c)) for exp, c in zip(exponents, coeffs))
        )
        form = mk.decompose_inner_powers(poly, rng)
        pts = np.random.default_rng(10).uniform(-1, 1, size=(500, 2))
        scale = 1.0 + np.max(np.abs(poly.evaluate_many(pts)))
        assert np.max(np.abs(form.evaluate_many(pts) - poly.evaluate_many(pts))) <= (
            1e-8 * scale
        )

    def test_degree_term_counts(self):
        rng = np.random.default_rng(12)
        poly = mk.MonomialPolynomial(
            3, (((0, 0, 0), 1.0), ((1, 1, 0), 2.0), ((0, 2, 2), -1.0))
        )
        form = mk.decompose_inner_powers(poly, rng)
        counts = form.degree_term_counts()
        for degree in range(poly.degree + 1):
            assert counts[degree] == math.comb(3 + degree - 1, degree)
        total = sum(counts.values())
        assert total == sum(
            math.comb(3 + i - 1, i) for i in range(poly.degree + 1)
        )

    def test_scale_limits(self):
        poly = mk.MonomialPolynomial(2, (((5, 4), 1.0),))
        with pytest.raises(ParameterError):
            mk.decompose_inner_powers(poly, np.random.default_rng(0))

    def test_directions_unit_norm(self):
        rng = np.random.default_rng(2)
        form = mk.decompose_inner_powers(poly_xy(), rng)
        for degree, _, direction in form.terms:
            if degree > 0:
                assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-9)


class TestToLinearProducts:
    def test_single_linear_term(self):
        form = mk.InnerPowerForm(2, ((1, 2.0, (0.6, 0.8)),))
        product = mk.to_linear_products(form)
        assert len(product.terms) == 1
        assert len(product.terms[0]) == 1
        np.testing.assert_allclose(product.terms[0][0], [1.2, 1.6, 0.0])

    @pytest.mark.parametrize("degree", [2.5, True])
    def test_degree_that_is_not_an_integer_is_rejected(self, degree):
        with pytest.raises(ValidationError, match="term degrees must be nonnegative integers"):
            mk.InnerPowerForm(2, ((degree, 1.0, (1.0, 0.0)),))

    @pytest.mark.parametrize("build, message", [
        (lambda: mk.InnerPowerForm(2, ((1, math.nan, (1.0, 0.0)),)),
         "term coefficients must be finite numbers"),
        (lambda: mk.InnerPowerForm(2, ((1, 10**400, (1.0, 0.0)),)),
         "term coefficients must be finite numbers"),
        (lambda: mk.InnerPowerForm(2, ((1, 1.0, (True, 0.0)),)),
         "direction entries must be finite numbers"),
        (lambda: mk.InnerPowerForm(2, ((1, 1.0, (math.nan, 0.0)),)),
         "direction entries must be finite numbers"),
        (lambda: mk.InnerPowerForm(2, ((-1, 1.0, (1.0, 0.0)),)),
         "term degrees must be nonnegative integers"),
        (lambda: mk.InnerPowerForm(1.5, ((1, 1.0, (1.0,)),)),
         "form arity must be a positive integer"),
        (lambda: mk.LinearProductForm(1, (((math.nan, 1.0),),)),
         "factor entries must be finite numbers"),
        (lambda: mk.LinearProductForm(1, (((False, 1.0),),)),
         "factor entries must be finite numbers"),
        (lambda: mk.LinearProductForm(1, (((10**400, 1.0),),)),
         "factor entries must be finite numbers"),
        (lambda: mk.LinearProductForm(0, (((1.0,),),)),
         "form arity must be a positive integer"),
        (lambda: mk.LinearProductForm(1.5, (((1.0, 1.0),),)),
         "form arity must be a positive integer"),
    ], ids=["nan-coefficient", "huge-coefficient", "boolean-direction", "nan-direction",
            "negative-degree", "float-arity", "nan-factor", "boolean-factor", "huge-factor",
            "zero-arity-product", "float-arity-product"])
    def test_counts_and_numbers_are_checked(self, build, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()

    def test_degree_zero_constant(self):
        form = mk.InnerPowerForm(2, ((0, -2.5, (1.0, 0.0)),))
        product = mk.to_linear_products(form)
        np.testing.assert_allclose(product.terms[0][0], [0.0, 0.0, -2.5])

    def test_xy_round_trip(self):
        rng = np.random.default_rng(44)
        form = mk.decompose_inner_powers(poly_xy(), rng)
        product = mk.to_linear_products(form)
        pts = np.random.default_rng(45).uniform(-1, 1, size=(100, 2))
        np.testing.assert_allclose(
            product.evaluate_many(pts), form.evaluate_many(pts), atol=1e-10
        )

    def test_triangular_factor_counts(self):
        rng = np.random.default_rng(3)
        poly = mk.MonomialPolynomial(2, (((0, 0), 1.0), ((1, 0), 2.0), ((0, 2), 1.0)))
        product = mk.to_linear_products(mk.decompose_inner_powers(poly, rng))
        for position, factors in enumerate(product.terms, start=1):
            assert len(factors) == position

    def test_degree_ahead_of_position_gets_fillers(self):
        form = mk.InnerPowerForm(1, ((3, 2.0, (1.0,)),))
        product = mk.to_linear_products(form)
        pts = np.linspace(-1, 1, 11).reshape(-1, 1)
        np.testing.assert_allclose(
            product.evaluate_many(pts), 2.0 * pts[:, 0] ** 3, atol=1e-12
        )

    def test_homogenization_expansion_1d(self):
        # expand the product form symbolically in one variable and compare
        # coefficient-by-coefficient against the power form
        rng = np.random.default_rng(77)
        poly = mk.MonomialPolynomial(
            1, (((0,), 0.5), ((1,), -1.0), ((2,), 2.0), ((3,), 0.25))
        )
        form = mk.decompose_inner_powers(poly, rng)
        product = mk.to_linear_products(form)
        total = np.zeros(1)
        for factors in product.terms:
            term_poly = np.array([1.0])
            for u in factors:
                term_poly = npoly.polymul(term_poly, np.array([u[1], u[0]]))
            padded = np.zeros(max(len(total), len(term_poly)))
            padded[: len(total)] += total
            padded[: len(term_poly)] += term_poly
            total = padded
        expected = np.zeros(4)
        for exp, coef in poly.terms:
            expected[exp[0]] = coef
        np.testing.assert_allclose(total[:4], expected, atol=1e-9)
        assert np.max(np.abs(total[4:])) <= 1e-9 if len(total) > 4 else True


class TestMonomialPolynomial:
    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValidationError):
            mk.MonomialPolynomial(1, (((1,), 1.0), ((1,), 2.0)))

    @pytest.mark.parametrize("arity, terms, message", [
        (2, (((1.5, 0), 1.0),), r"bad exponent tuple \(1\.5, 0\)"),
        (2, (((True, 0), 1.0),), r"bad exponent tuple \(True, 0\)"),
        (2, (((-1, 0), 1.0),), r"bad exponent tuple \(-1, 0\)"),
        (2, (((1,), 1.0),), r"bad exponent tuple \(1,\)"),
        (2, (((1, 0), math.nan),), r"coefficient of \(1, 0\) must be a finite number"),
        (2, (((1, 0), math.inf),), r"coefficient of \(1, 0\) must be a finite number"),
        (2, (((1, 0), 10**400),), r"coefficient of \(1, 0\) must be a finite number"),
        (2, (((1, 0), True),), r"coefficient of \(1, 0\) must be a finite number"),
        (2.0, (((1, 0), 1.0),), "polynomial arity must be a positive integer"),
        (True, (((1,), 1.0),), "polynomial arity must be a positive integer"),
        (0, (), "polynomial arity must be a positive integer"),
    ], ids=["float-exponent", "boolean-exponent", "negative-exponent", "short-exponent",
            "nan", "inf", "huge", "boolean-coefficient", "float-arity", "boolean-arity",
            "zero-arity"])
    def test_counts_and_coefficients_are_checked(self, arity, terms, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            mk.MonomialPolynomial(arity, terms)

    def test_numpy_counts_and_coefficients_are_read_as_python_numbers(self):
        poly = mk.MonomialPolynomial(np.int64(2), (((np.int64(1), 0), np.float64(0.5)),
                                                   ((0, 2), 3)))
        assert poly.arity == 2 and type(poly.arity) is int
        assert poly.terms == (((1, 0), 0.5), ((0, 2), 3.0))
        assert all(type(e) is int for exp, _ in poly.terms for e in exp)
        assert all(type(c) is float for _, c in poly.terms)
