"""Divided differences, separable integrands, and norm surrogates."""

import cmath
import functools
import itertools
import math
import warnings

import numpy as np
import pytest

import moikit as mk
from moikit import integrands
from moikit.errors import CapabilityError, ValidationError
from moikit.integrands import multiply_by_slot_variable

import identities
import oracles


def dd(f, order, nodes):
    return mk.divided_difference(mk.DividedDifferenceSpec(f, order, tuple(nodes)))


class TestDividedDifference:
    def test_power_two_nodes(self):
        # (l1^m - l2^m) / (l1 - l2) at m = 2 collapses to l1 + l2
        value = dd(mk.ScalarFunction.monomial(2), 1, (0.3, 1.7))
        assert value == pytest.approx(2.0)

    def test_constant_annihilated(self):
        for order in (1, 2, 3):
            nodes = tuple(float(i) for i in range(order + 1))
            assert dd(mk.ScalarFunction.constant(4.2), order, nodes) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_confluent_pair_is_derivative(self):
        value = dd(mk.ScalarFunction.monomial(3), 1, (2.0, 2.0))
        assert value == pytest.approx(12.0)

    def test_frozen_recursion_example(self):
        # x^4 at (1, 2, 3): first order gives 15 and 65, second order 25
        f = mk.ScalarFunction.monomial(4)
        assert dd(f, 1, (1.0, 2.0)) == pytest.approx(15.0)
        assert dd(f, 1, (2.0, 3.0)) == pytest.approx(65.0)
        assert dd(f, 2, (1.0, 2.0, 3.0)) == pytest.approx(25.0)

    def test_symmetry_under_permutation(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            degree = int(rng.integers(1, 7))
            coeffs = rng.standard_normal(degree + 1)
            f = mk.ScalarFunction.polynomial(coeffs)
            order = int(rng.integers(1, 4))
            nodes = rng.uniform(-2, 2, size=order + 1)
            base = dd(f, order, tuple(nodes))
            perm = rng.permutation(nodes)
            other = dd(f, order, tuple(perm))
            assert abs(base - other) <= 1e-9 * max(1.0, abs(base))

    def test_top_order_of_monomial_is_one(self):
        rng = np.random.default_rng(3)
        for degree in (1, 2, 3, 4):
            f = mk.ScalarFunction.monomial(degree)
            nodes = rng.uniform(-1, 1, size=degree + 1)
            assert dd(f, degree, tuple(nodes)) == pytest.approx(1.0, abs=1e-9)

    def test_matches_plain_recursion_on_separated_nodes(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            coeffs = rng.standard_normal(6)
            f = mk.ScalarFunction.polynomial(coeffs)
            order = int(rng.integers(1, 5))
            nodes = np.sort(rng.uniform(-3, 3, size=order + 1))
            if np.min(np.diff(nodes)) < 1e-3:
                continue
            expected = oracles.divided_difference_recursive(f, nodes)
            assert dd(f, order, tuple(nodes)) == pytest.approx(expected, rel=1e-9)

    def test_callable_only_numeric_confluence(self):
        f = mk.ScalarFunction.from_callable(math.sin)
        value = dd(f, 1, (0.5, 0.5))
        assert value == pytest.approx(math.cos(0.5), rel=1e-7)

    def test_callable_only_capability_limit(self):
        f = mk.ScalarFunction.from_callable(math.sin)
        assert f.derivative_order_available == 1
        with pytest.raises(CapabilityError, match="needs derivative order 2, available 1"):
            dd(f, 2, (1.0,) * 3)

    def test_callable_only_first_derivative_is_the_richardson_rule(self):
        # central differences at h, h/2 and h/4, h = eps^(1/3) max(1, |x|),
        # and two Richardson levels: bit for bit
        f = mk.ScalarFunction.from_callable(np.sin)
        for x in np.linspace(-5, 5, 101):
            h = float(np.finfo(float).eps) ** (1.0 / 3) * max(1.0, abs(x))
            d0, d1, d2 = ((np.sin(x + s) - np.sin(x - s)) / (2.0 * s)
                          for s in (h, h / 2.0, h / 4.0))
            r0 = (4.0 * d1 - d0) / 3.0
            r1 = (4.0 * d2 - d1) / 3.0
            assert same_bits(f.derivative(x, 1), (16.0 * r1 - r0) / 15.0)
        assert f.kind == "callable_with_derivatives"
        assert repr(f) == "ScalarFunction(callable_with_derivatives)"

    def test_supplied_derivative_limit(self):
        f = mk.ScalarFunction.from_callable(math.sin, derivatives=[math.cos])
        assert dd(f, 1, (0.7, 0.7)) == pytest.approx(math.cos(0.7), abs=1e-12)
        with pytest.raises(CapabilityError):
            dd(f, 2, (0.7, 0.7, 0.7))

    def test_equal_nodes_read_the_hermite_limit_at_the_node(self):
        # three copies of 0.1 give f''(0.1) / 2, read at 0.1 itself: their
        # left-to-right mean is 0.10000000000000002
        calls = []

        def second(x):
            calls.append(x)
            return np.exp(x)

        f = mk.ScalarFunction.from_callable(np.exp, (np.exp, second))
        assert same_bits(dd(f, 2, (0.1, 0.1, 0.1)), np.exp(0.1) / 2)
        assert calls == [0.1]
        calls.clear()
        grid = integrands._divided_difference_grid(f, 2, [np.array([0.1, 0.5])] * 3)
        assert same_bits(np.diagonal(np.diagonal(grid)), np.exp([0.1, 0.5]) / 2)
        assert sorted(calls) == [0.1, 0.5]

    def test_complex_nodes(self):
        f = mk.ScalarFunction.monomial(2)
        a, b = np.exp(0.3j), np.exp(1.1j)
        assert dd(f, 1, (a, b)) == pytest.approx(a + b)

    def test_node_count_validation(self):
        with pytest.raises(ValidationError):
            mk.DividedDifferenceSpec(mk.ScalarFunction.monomial(1), 2, (1.0, 2.0))

    @pytest.mark.parametrize("coefficients", [
        ["1", "2"], [None], [True, False], [[1.0], [2.0, 3.0]],
        # a boolean among numbers, which numpy would read as 0 or 1
        [True, 1.0], [2, np.False_], [1j, True], [1.0, np.array(True)],
    ])
    def test_polynomial_coefficients_must_be_numbers(self, coefficients):
        with pytest.raises(ValidationError, match="^polynomial coefficients must be numbers$"):
            mk.ScalarFunction.polynomial(coefficients)

    def test_integer_float_and_complex_coefficients_are_numbers(self):
        for coefficients in ([1, 2], np.array([1, 2], dtype=np.uint8), [0.5, 1j]):
            f = mk.ScalarFunction.polynomial(coefficients)
            assert f.coefficients.dtype in (np.float64, np.complex128)


class TestDividedDifferenceIntegrand:
    def test_square_first_order(self):
        psi = mk.divided_difference_integrand(mk.ScalarFunction.monomial(2), 1)
        assert psi(0.4, 1.1) == pytest.approx(1.5)

    def test_linear_first_order_is_one(self):
        psi = mk.divided_difference_integrand(mk.ScalarFunction.monomial(1), 1)
        assert psi(3.0, -2.0) == pytest.approx(1.0)

    def test_fourth_power_second_order(self):
        psi = mk.divided_difference_integrand(mk.ScalarFunction.monomial(4), 2)
        assert psi(1.0, 2.0, 3.0) == pytest.approx(25.0)

    def test_matches_recursion_at_random_nodes(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            coeffs = rng.standard_normal(7)
            f = mk.ScalarFunction.polynomial(coeffs)
            order = int(rng.integers(1, 4))
            psi = mk.divided_difference_integrand(f, order)
            nodes = np.sort(rng.uniform(-2, 2, size=order + 1))
            if np.min(np.diff(nodes)) < 1e-3:
                continue
            expected = oracles.divided_difference_recursive(f, nodes)
            assert psi(*nodes) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(29)
        psi = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial([0.0, 1.0, -0.5, 0.25, 2.0]), 2
        )
        for _ in range(40):
            nodes = rng.uniform(-2, 2, size=3)
            base = psi(*nodes)
            for perm in itertools.permutations(nodes):
                assert psi(*perm) == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_separable_representation_consistent(self):
        psi = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial([1.0, 0.0, 2.0, 0.0, 1.0]), 2
        )
        assert isinstance(psi, mk.SeparableIntegrand) and psi.separable is psi
        axes = [np.linspace(-1.5, 1.5, 5)] * 3
        grid = psi.eval_grid(axes)
        for idx in np.ndindex(grid.shape):
            direct = psi(*(axis[i] for axis, i in zip(axes, idx)))
            assert abs(direct - grid[idx]) <= 1e-10 * (1.0 + abs(direct))

    def test_stable_at_clustered_nodes(self):
        # the rank-one-sum path has no divisions, so near-coincident nodes
        # evaluate to the confluent limit without cancellation
        psi = mk.divided_difference_integrand(mk.ScalarFunction.monomial(3), 1)
        x = 0.75
        assert psi(x, x + 1e-14) == pytest.approx(3 * x**2, rel=1e-12)

    def test_polynomial_integrands_are_built_once(self):
        coefficients = [0.5, -1.0, 0.0, 2.0, 1.5]
        first = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial(coefficients), 2
        )
        again = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial(np.array(coefficients)), 2
        )
        assert again is first
        assert mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial(coefficients), 1
        ) is not first
        complex_coefficients = np.array(coefficients, dtype=complex)
        assert mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial(complex_coefficients), 2
        ) is not first

    def test_terms_share_one_factor_object_per_slot_and_exponent(self):
        # x^2 + 2x^3 + 3x^4 + 4x^5 at order 2: 1 + 3 + 6 + 10 terms
        psi = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial([0.0, 0.0, 1.0, 2.0, 3.0, 4.0]), 2
        )
        assert len(psi.terms) == 20
        for slot in range(psi.arity):
            # a leading factor c_p x^e is told apart by its coefficients,
            # since each c_p differs; every other factor is x^e
            objects: dict = {}
            for term in psi.terms:
                key = term[slot].coefficients.tobytes()
                assert objects.setdefault(key, term[slot]) is term[slot]
        assert len({id(term[0]) for term in psi.terms}) == 1 + 2 + 3 + 4
        assert len({id(term[1]) for term in psi.terms}) == 4

    def test_callable_integrands_are_never_cached(self):
        before = integrands._polynomial_dd_integrand.cache_info()
        f = mk.ScalarFunction.from_callable(math.sin, derivatives=[math.cos])
        g = mk.ScalarFunction.from_callable(math.sin, derivatives=[math.cos])
        first = mk.divided_difference_integrand(f, 1)
        assert mk.divided_difference_integrand(f, 1) is not first
        assert mk.divided_difference_integrand(g, 1) is not first
        assert integrands._polynomial_dd_integrand.cache_info() == before

    def test_callable_integrand_has_no_separable(self):
        psi = mk.divided_difference_integrand(
            mk.ScalarFunction.from_callable(math.sin, derivatives=[math.cos]), 1
        )
        assert psi.separable is None
        assert psi(0.2, 0.9) == pytest.approx(
            (math.sin(0.9) - math.sin(0.2)) / 0.7, rel=1e-12
        )


class TestBlockProduct:
    def test_single_factor_product(self):
        p = mk.SeparableIntegrand(1, ((mk.ScalarFunction.monomial(1),),))
        q = mk.SeparableIntegrand(1, ((mk.ScalarFunction.monomial(1),),))
        joined = identities.block_product(p, q)
        assert joined.arity == 2
        assert len(joined.terms) == 1
        assert joined.evaluate((2.0, 3.0)) == pytest.approx(6.0)

    def test_term_count_multiplies(self, rng):
        def random_sep(arity, n_terms):
            terms = tuple(
                tuple(
                    mk.ScalarFunction.polynomial(rng.standard_normal(3))
                    for _ in range(arity)
                )
                for _ in range(n_terms)
            )
            return mk.SeparableIntegrand(arity, terms)

        p = random_sep(2, 2)
        q = random_sep(1, 3)
        assert len(identities.block_product(p, q).terms) == 6

    def test_evaluation_is_pointwise_product(self, rng):
        def random_sep(arity, n_terms):
            return mk.SeparableIntegrand(
                arity,
                tuple(
                    tuple(
                        mk.ScalarFunction.polynomial(rng.standard_normal(3))
                        for _ in range(arity)
                    )
                    for _ in range(n_terms)
                ),
            )

        p, q = random_sep(2, 2), random_sep(2, 2)
        joined = identities.block_product(p, q)
        for point in rng.uniform(-1, 1, size=(25, 4)):
            expected = p.evaluate(point[:2]) * q.evaluate(point[2:])
            assert joined.evaluate(point) == pytest.approx(expected, abs=1e-12)


class TestNormSurrogates:
    def test_constant_projective(self):
        psi = mk.SeparableIntegrand.constant(2, 1.0)
        assert mk.projective_norm_bound(psi, [[0.0], [0.0]]) == pytest.approx(1.0)

    def test_product_projective(self):
        psi = mk.SeparableIntegrand(
            2, ((mk.ScalarFunction.monomial(1), mk.ScalarFunction.monomial(1)),)
        )
        assert mk.projective_norm_bound(psi, [[1.0, 2.0], [3.0]]) == pytest.approx(6.0)

    def test_two_term_projective_vs_scan(self, rng):
        terms = tuple(
            (mk.ScalarFunction.polynomial(rng.standard_normal(3)),
             mk.ScalarFunction.polynomial(rng.standard_normal(3)))
            for _ in range(2)
        )
        psi = mk.SeparableIntegrand(2, terms)
        spectra = [rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 5)]
        expected = sum(
            max(abs(t[0](x)) for x in spectra[0]) * max(abs(t[1](y)) for y in spectra[1])
            for t in terms
        )
        assert mk.projective_norm_bound(psi, spectra) == pytest.approx(expected)

    def test_sup_norm_constant(self):
        psi = mk.MultivariateFunction(2, lambda pt: -3.5)
        assert mk.sup_norm_on_grid(psi, [[0.0, 1.0], [2.0]]) == pytest.approx(3.5)

    def test_sup_norm_difference(self):
        psi = mk.MultivariateFunction(2, lambda pt: pt[0] - pt[1])
        assert mk.sup_norm_on_grid(psi, [[0.0, 1.0], [0.0, 1.0]]) == pytest.approx(1.0)

    @pytest.mark.parametrize("spectrum, message", [
        ([], "spectrum 1 is empty"),
        ([[0.0, 1.0], [2.0, 3.0]], "spectrum 1 must be one-dimensional"),
        (["a"], "spectrum 1 must hold numbers"),
        (["1", "2j"], "spectrum 1 must hold numbers"),
        ([True, False], "spectrum 1 must hold numbers"),
        ([None], "spectrum 1 must hold numbers"),
        ([[0.5], [1.0, 2.0]], "spectrum 1 must hold numbers"),
        ([True, 0.5], "spectrum 1 must hold numbers"),
        ([0.5, np.True_], "spectrum 1 must hold numbers"),
        ([np.array(False), 1j], "spectrum 1 must hold numbers"),
    ])
    def test_spectra_are_checked_at_the_boundary(self, spectrum, message):
        psi = mk.SeparableIntegrand.constant(2, 1.0)
        norms = (
            lambda spectra: mk.projective_norm_bound(psi, spectra),
            lambda spectra: mk.sup_norm_on_grid(psi, spectra),
            lambda spectra: mk.sup_norm_on_grid(mk.MultivariateFunction(2, abs), spectra),
        )
        for norm in norms:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                norm([[0.5], spectrum])

    def test_a_divided_difference_rejects_spectra_of_strings(self):
        dd = mk.divided_difference_integrand(mk.ScalarFunction.monomial(3), 2)
        for norm in (mk.sup_norm_on_grid, mk.projective_norm_bound):
            with pytest.raises(ValidationError, match="^spectrum 0 must hold numbers$"):
                norm(dd, [["a"]] * 3)

    @pytest.mark.parametrize("kind", ["separable", "multivariate_grid",
                                      "multivariate_pointwise"])
    def test_sup_norm_takes_every_integrand_kind(self, kind, rng):
        f = mk.ScalarFunction.polynomial(rng.standard_normal(5))
        psi = mk.divided_difference_integrand(f, 2).separable
        given = {
            "separable": psi,
            "multivariate_grid": mk.divided_difference_integrand(
                mk.ScalarFunction.from_callable(f), 2),
            "multivariate_pointwise": mk.MultivariateFunction(3, psi.evaluate),
        }[kind]
        spectra = [rng.uniform(-1, 1, 4) for _ in range(3)]
        expected = oracles.exhaustive_grid_max(psi.evaluate, spectra)
        assert mk.sup_norm_on_grid(given, spectra) == pytest.approx(expected, rel=1e-12)

    def test_sup_norm_rejects_other_integrands(self):
        with pytest.raises(ValidationError, match="MultivariateFunction or SeparableIntegrand"):
            mk.sup_norm_on_grid(lambda pt: 1.0, [[0.0], [1.0]])

    def test_sup_norm_matches_enumeration(self, rng):
        psi = mk.MultivariateFunction(
            3, lambda pt: pt[0] ** 2 - 0.3 * pt[1] * pt[2] + 0.1
        )
        spectra = [rng.uniform(-1, 1, 4) for _ in range(3)]
        expected = oracles.exhaustive_grid_max(psi.evaluate, spectra)
        assert mk.sup_norm_on_grid(psi, spectra) == pytest.approx(expected)

    def test_block_product_submultiplicative(self, rng):
        def random_sep(arity, n_terms):
            return mk.SeparableIntegrand(
                arity,
                tuple(
                    tuple(
                        mk.ScalarFunction.polynomial(rng.standard_normal(3))
                        for _ in range(arity)
                    )
                    for _ in range(n_terms)
                ),
            )

        p, q = random_sep(2, 3), random_sep(1, 2)
        joined = identities.block_product(p, q)
        sp = [rng.uniform(-1, 1, 4) for _ in range(3)]
        left = mk.projective_norm_bound(joined, sp)
        right = mk.projective_norm_bound(p, sp[:2]) * mk.projective_norm_bound(
            q, sp[2:]
        )
        assert left <= right + 1e-12 * right

    def test_sup_below_projective(self, rng):
        for _ in range(20):
            terms = tuple(
                (mk.ScalarFunction.polynomial(rng.standard_normal(3)),
                 mk.ScalarFunction.polynomial(rng.standard_normal(3)))
                for _ in range(3)
            )
            psi = mk.SeparableIntegrand(2, terms)
            spectra = [rng.uniform(-2, 2, 5) for _ in range(2)]
            sup = mk.sup_norm_on_grid(psi, spectra)
            proj = mk.projective_norm_bound(psi, spectra)
            assert sup <= proj + 1e-12 * max(1.0, proj)


class TestFactorTables:
    """A slot's distinct factors are each evaluated once per axis by their
    own ``__call__``, rows stacked by ``np.array``: a polynomial's value
    keeps the bits of its own ``npoly.polyval``."""

    @staticmethod
    def assert_rows_have_polyval_bits(psi, axes):
        values = psi.factor_values(axes)
        for slot, (distinct, _) in enumerate(psi._slot_factors):
            expected = np.array([fn(axes[slot]) for _, fn in distinct])
            assert values[slot].dtype == expected.dtype
            assert values[slot].tobytes() == expected.tobytes()

    @staticmethod
    def mixed_degrees(rng, arity, complex_coefficients=False):
        pool = []
        for degree in (0, 1, 3, 6, 11):
            c = rng.standard_normal(degree + 1)
            if complex_coefficients:
                c = c + 1j * rng.standard_normal(degree + 1)
            pool.append(mk.ScalarFunction.polynomial(c))
        pool.append(mk.ScalarFunction.polynomial([0.0, 0.0, -0.0]))
        terms = tuple(tuple(pool[int(k)] for k in rng.integers(len(pool), size=arity))
                      for _ in range(12))
        return mk.SeparableIntegrand(arity, terms)

    @pytest.mark.parametrize("circle", [False, True])
    @pytest.mark.parametrize("shape", [(7,), (5, 7)])
    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_mixed_degrees(self, rng, circle, shape, complex_coefficients):
        psi = self.mixed_degrees(rng, 3, complex_coefficients)
        axes = [rng.uniform(-1.5, 1.5, shape) for _ in range(3)]
        axes[0][..., 0] = -0.0
        if circle:
            axes = [np.exp(1j * np.pi * a) for a in axes]
        self.assert_rows_have_polyval_bits(psi, axes)

    @pytest.mark.parametrize("circle", [False, True])
    @pytest.mark.parametrize("shape", [(6,), (4, 6)])
    def test_real_and_complex_rows_of_one_slot(self, rng, circle, shape):
        # a linear combination with a complex coefficient scales the first
        # slot of some terms only, so that slot holds real and complex rows
        phi = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial(rng.standard_normal(7)), 2)
        chi = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial(rng.standard_normal(5)), 2)
        psi = identities.linear_combination(phi, chi, 0.5 - 1.5j, 2.0).separable
        kinds = {fn.coefficients.dtype for fn, *_ in psi.terms}
        assert kinds == {np.dtype(np.complex128), np.dtype(np.float64)}
        axis = rng.uniform(-1.0, 1.0, shape)
        if circle:
            axis = np.exp(1j * np.pi * axis)
        self.assert_rows_have_polyval_bits(psi, [axis] * 3)

    def test_zero_polynomials_keep_the_signs_of_their_zeros(self):
        # -0.0 + x*0 is -0.0 only where x is negative
        zero = mk.ScalarFunction.constant(-0.0)
        psi = mk.SeparableIntegrand(2, ((zero, mk.ScalarFunction.polynomial([0.0, -0.0])),))
        axis = np.array([-1.0, -0.0, 0.0, 2.0])
        self.assert_rows_have_polyval_bits(psi, [axis, axis])
        assert np.signbit(psi.factor_values([axis, axis])[0][0]).tolist() == [
            True, True, False, False]

    def test_callables_between_polynomials(self, rng):
        cos = mk.ScalarFunction.from_callable(np.cos)
        square = mk.ScalarFunction.monomial(2)
        psi = mk.SeparableIntegrand(2, ((square, cos), (cos, square),
                                        (mk.ScalarFunction.constant(2.0), cos)))
        axis = rng.uniform(-1.0, 1.0, (3, 5))
        self.assert_rows_have_polyval_bits(psi, [axis, axis])

    def test_slots_with_the_same_factors_share_one_evaluation(self, rng):
        f = mk.ScalarFunction.polynomial(rng.standard_normal(7))
        psi = mk.divided_difference_integrand(f, 3).separable
        axis = rng.uniform(-1.0, 1.0, (2, 5))
        values = psi.factor_values([axis] * 4)
        assert values[1] is values[2] is values[3]
        assert values[0] is not values[1]
        other = psi.factor_values([axis, axis, axis.copy(), axis])
        assert other[2] is not other[1]
        assert other[2].tobytes() == other[1].tobytes()


class TestHelpers:
    def test_multiply_by_slot_variable(self):
        psi = mk.SeparableIntegrand(
            2, ((mk.ScalarFunction.monomial(1), mk.ScalarFunction.constant(1.0)),)
        )
        bumped = multiply_by_slot_variable(psi, 1)
        assert bumped.evaluate((2.0, 3.0)) == pytest.approx(6.0)

    def test_scaled_moves_into_first_factor(self):
        psi = mk.SeparableIntegrand(
            2, ((mk.ScalarFunction.monomial(1), mk.ScalarFunction.monomial(1)),)
        )
        assert psi.scaled(-2.0).evaluate((1.0, 3.0)) == pytest.approx(-6.0)

    @pytest.mark.parametrize("arity", [2.0, True, 0, np.float64(2.0)],
                             ids=["float", "boolean", "zero", "numpy-float"])
    @pytest.mark.parametrize("kind", ["separable", "constant", "multivariate"])
    def test_arity_must_be_a_positive_integer(self, kind, arity):
        one = mk.ScalarFunction.constant(1.0)
        build = {
            "separable": lambda: mk.SeparableIntegrand(arity, ((one, one),)),
            "constant": lambda: mk.SeparableIntegrand.constant(arity),
            "multivariate": lambda: mk.MultivariateFunction(arity, lambda pt: 0.0),
        }[kind]
        with pytest.raises(ValidationError, match="^integrand arity must be a positive integer$"):
            build()

    def test_numpy_arities_are_read_as_ints(self):
        one = mk.ScalarFunction.constant(1.0)
        for psi in (mk.SeparableIntegrand(np.int64(2), ((one, one),)),
                    mk.MultivariateFunction(np.int64(2), lambda pt: 0.0)):
            assert psi.arity == 2 and type(psi.arity) is int


# arrays of every kind a callable meets, and callables returning Python
# floats, Python complex numbers, numpy scalars and Python ints (math.exp and
# round raise on complex arguments)
ARRAYS = {
    "float64": np.array([-0.5, -0.0, 1.25]),
    "float32": np.array([-0.5, 0.1, 2.0], dtype=np.float32),
    "int": np.array([-2, 0, 3]),
    "complex": np.array([0.5 - 1j, -0.0 + 2j]),
    "empty": np.array([]),
    "two_by_three": np.linspace(-1.0, 1.0, 6).reshape(2, 3),
}
VALUE_FNS = {"math_exp": math.exp, "cmath_exp": cmath.exp, "np_exp": np.exp, "round": round}


class TestCallablesOnArrays:
    @pytest.mark.parametrize("array", sorted(ARRAYS))
    @pytest.mark.parametrize("name", sorted(VALUE_FNS))
    def test_values_and_errors_are_those_of_vectorize(self, name, array):
        f = mk.ScalarFunction.from_callable(VALUE_FNS[name])
        results = []
        for evaluate in (f, functools.partial(oracles.scalar_function_on_array, f)):
            try:
                value = evaluate(ARRAYS[array])
                results.append((value.dtype, value.shape, value.tobytes()))
            except Exception as err:  # the same error, whatever it is
                results.append((type(err), str(err)))
        assert results[0] == results[1]


def exp_with_derivatives(order=4):
    return mk.ScalarFunction.from_callable(np.exp, (np.exp,) * order)


SCALAR_FUNCTIONS = {
    "polynomial": lambda: mk.ScalarFunction.polynomial([0.3, -1.0, 0.5, 2.0, 0.7, -0.1]),
    "callable_with_derivatives": exp_with_derivatives,
    # a bare callable: one numeric derivative
    "callable_only": lambda: mk.ScalarFunction.from_callable(np.sin),
    # values of Python type, divided as CPython divides complex numbers
    "python_complex": lambda: mk.ScalarFunction.from_callable(
        cmath.exp, (cmath.exp,) * 4
    ),
    # real values at some nodes and complex ones at others
    "mixed_real_complex": lambda: mk.ScalarFunction.from_callable(
        np.emath.sqrt,
        (lambda z: 0.5 * np.emath.power(z, -0.5), lambda z: -0.25 * np.emath.power(z, -1.5)),
    ),
    # numpy complex values at real nodes too
    "numpy_complex": lambda: mk.ScalarFunction.from_callable(
        lambda x: np.exp(1j * x),
        tuple((lambda x, _c=1j**k: _c * np.exp(1j * x)) for k in range(1, 5)),
    ),
}

# the arithmetic each function's table runs in, on the real axis and on the
# unit circle (see integrands._recursion)
ARITHMETIC = {
    "polynomial": (np.float64, np.complex128),
    "callable_with_derivatives": (np.float64, np.complex128),
    "callable_only": (np.float64, np.complex128),
    "python_complex": (object, object),
    "mixed_real_complex": (object, np.complex128),
    "numpy_complex": (np.complex128, np.complex128),
}


def awkward_axis(kind, rng):
    """Nodes on the real line or the unit circle holding a cluster (a pair
    1e-9 apart), an exact repeat, and a transitive chain: three nodes each
    within the merge radius of the next, the two ends not within it."""
    if kind == "real":  # one cluster left of 0 and one right of it
        base, step = rng.uniform([-1, 0], [0, 1]), 1.0
    else:
        base, step = np.exp(1j * rng.uniform(0, 2 * np.pi, 2)), 1j
    return np.array([base[0], base[0] + 1e-9 * step, base[0],
                     base[1], base[1] + 0.9e-7 * step, base[1] + 1.8e-7 * step])


def same_bits(a, b):
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and text of what it raised."""
    try:
        return fn(*args)
    except (CapabilityError, ValidationError) as err:
        return type(err), str(err)


def assert_same_outcome(got, expected):
    """The same error class and text, or values with the same bits."""
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert same_bits(got, expected)


def table_rows(monkeypatch):
    """The list that will hold the row count of every later call of the
    vectorized table."""
    rows = []
    table = integrands._divided_differences

    def spy(f, nodes):
        rows.append(len(nodes))
        return table(f, nodes)

    monkeypatch.setattr(integrands, "_divided_differences", spy)
    return rows


def spied_calls(monkeypatch, name):
    """The list that will hold the arguments of every later call of
    ``integrands.<name>``."""
    calls = []
    fn = getattr(integrands, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(integrands, name, spy)
    return calls


def snapped_rows(monkeypatch):
    """The list that will hold the row count of every later call of
    ``_snapped_nodes``, which a grid calls on the tuples that snapping may
    move, chunk by chunk."""
    rows = []
    snap = integrands._snapped_nodes

    def spy(nodes):
        rows.append(len(nodes))
        return snap(nodes)

    monkeypatch.setattr(integrands, "_snapped_nodes", spy)
    return rows


class TestVectorizedTable:
    """The vectorized divided-difference table against the scalar recursion
    of ``oracles.divided_difference_per_point``: not a bit may change."""

    @pytest.mark.parametrize("kind", ["real", "unit_circle"])
    @pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_grid_bits_match_the_per_point_recursion(self, name, kind, order):
        f = SCALAR_FUNCTIONS[name]()
        rng = np.random.default_rng(order)
        chain = awkward_axis(kind, rng)
        # at most 6^3 points: the higher orders take the cluster and the
        # repeat or the chain, slot by slot
        axes = [chain] * (order + 1) if order <= 2 else [
            chain[:3] if slot % 2 else chain[3:6] for slot in range(order + 1)
        ]
        expected = outcome(oracles.divided_difference_grid_per_point, f, order, axes)
        assert_same_outcome(outcome(integrands._divided_difference_grid, f, order, axes),
                            expected)
        if f.kind != "polynomial":  # polynomials take their separable grid
            psi = mk.divided_difference_integrand(f, order)
            assert psi.separable is None
            assert_same_outcome(outcome(psi.eval_grid, axes), expected)

    @pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
    def test_single_divided_differences_match_the_per_point_recursion(self, name):
        f = SCALAR_FUNCTIONS[name]()
        rng = np.random.default_rng(5)
        for kind in ("real", "unit_circle"):
            axis = awkward_axis(kind, rng)
            for order in range(5):
                for _ in range(10):
                    spec = mk.DividedDifferenceSpec(f, order, tuple(rng.choice(axis, order + 1)))
                    expected = outcome(oracles.divided_difference_per_point, spec)
                    got = outcome(mk.divided_difference, spec)
                    assert_same_outcome(got, expected)
                    assert np.iscomplexobj(got) == np.iscomplexobj(expected)

    @pytest.mark.parametrize("kind", ["real", "unit_circle"])
    @pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
    def test_each_table_runs_in_the_arithmetic_of_its_values(self, monkeypatch, name, kind):
        dtypes = []
        recursion = integrands._recursion

        def spy(*args):
            values = recursion(*args)
            dtypes.append(values.dtype)
            return values

        monkeypatch.setattr(integrands, "_recursion", spy)
        f = SCALAR_FUNCTIONS[name]()
        order = min(2, f.derivative_order_available)  # a bare callable: 1
        axis = awkward_axis(kind, np.random.default_rng(7))
        integrands._divided_difference_grid(f, order, [axis] * (order + 1))
        dd(f, order, axis[[0, 3, 5][: order + 1]])
        expected = np.dtype(ARITHMETIC[name][kind == "unit_circle"])
        assert dtypes == [expected, expected]

    def test_two_copies_of_an_overflowing_node_are_that_node(self):
        # z + z overflows, but a cluster of equal nodes is that node, in the
        # per-point recursion's clustering as in the vectorized one
        z = 1.7e308 * cmath.exp(0.4j)
        expected = oracles._cluster_nodes([z, z], 1e-7 * abs(z))
        assert expected == [z, z]
        with np.errstate(over="ignore"):
            cluster = integrands._cluster_means(np.array([[z, z]]), np.ones((1, 2, 2), bool))
        assert same_bits(cluster[0], expected)

    def test_capability_error_reports_the_first_failing_tuple(self):
        f = exp_with_derivatives(1)
        # the first tuple in grid order, (0.5, 0.5, 0.5, -0.25), holds a
        # triple; later ones hold four equal nodes
        axes = [np.array([0.5, -0.25])] * 3 + [np.array([-0.25, 0.5])]
        expected = outcome(oracles.divided_difference_grid_per_point, f, 3, axes)
        assert expected[0] is CapabilityError and "size 3" in expected[1]
        assert outcome(mk.divided_difference_integrand(f, 3).eval_grid, axes) == expected

    def test_non_finite_grids_name_the_same_tuple(self):
        from moikit.moi import _integrand_grid

        # x left of 0.2 and inf right of it; its derivatives are NaN there,
        # as differences of inf are
        f = mk.ScalarFunction.from_callable(
            lambda x: x if x.real < 0.2 else math.inf,
            (lambda x: 1.0 if x.real < 0.2 else math.nan,
             lambda x: 0.0 if x.real < 0.2 else math.nan))
        axis = np.array([-0.5, 0.3, 0.1, -0.5, 0.6])
        psi = mk.divided_difference_integrand(f, 2)
        per_point = mk.MultivariateFunction(
            3, lambda pt: oracles.divided_difference_per_point(mk.DividedDifferenceSpec(f, 2, pt))
        )
        messages = []
        for integrand in (per_point, psi):
            with pytest.raises(mk.FunctionDomainError) as err:
                _integrand_grid(integrand, [axis] * 3)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_chunks_give_the_same_bits(self, monkeypatch):
        calls = []

        def sin(z):
            calls.append(complex(z))
            return np.sin(z)

        f = mk.ScalarFunction.from_callable(sin, (np.cos, lambda z: -np.sin(z)))
        axes = [awkward_axis("unit_circle", np.random.default_rng(2))] * 3
        whole = integrands._divided_difference_grid(f, 2, axes)
        # 7 points a chunk, so the 56 canonical points span 8 chunks
        monkeypatch.setattr(integrands, "_GRID_CHUNK_BYTES", 16 * 9 * 7)
        calls.clear()
        chunked = integrands._divided_difference_grid(f, 2, axes)
        assert same_bits(chunked, whole)
        assert len(calls) == len(set(calls))  # once per node, across the chunks

    def test_infinite_nodes_of_both_signs_are_clustered(self):
        # under the infinite merge radius -inf and inf are near each other,
        # but neither is near itself (inf - inf is nan): their cluster labels
        # must still settle.  Only the NaN pattern is compared: the bits of
        # the scalar recursion exclude the sign and payload of a NaN result,
        # and np.sort writes every NaN node back as +NaN
        f = exp_with_derivatives(2)
        spec = mk.DividedDifferenceSpec(f, 2, (-math.inf, -math.inf, math.inf))
        axes = [np.array([-math.inf, 0.5, math.inf])] * 3
        with np.errstate(all="ignore"):
            assert np.isnan(mk.divided_difference(spec))
            assert np.isnan(oracles.divided_difference_per_point(spec))
            got = integrands._divided_difference_grid(f, 2, axes)
            expected = oracles.divided_difference_grid_per_point(f, 2, axes)
        assert np.array_equal(got, expected, equal_nan=True)

    def test_moduli_have_the_bits_of_python_abs(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        expected = [abs(complex(v)) for v in z]
        assert integrands._modulus(z).tolist() == expected

    def test_f_is_called_once_per_distinct_node(self):
        calls = []

        def counted(fn, level):
            def traced(x):
                calls.append((level, complex(x)))
                return fn(x)
            return traced

        f = mk.ScalarFunction.from_callable(
            counted(np.exp, 0), (counted(np.exp, 1), counted(np.exp, 2))
        )
        axis = awkward_axis("real", np.random.default_rng(4))
        grid = mk.divided_difference_integrand(f, 2).eval_grid([axis] * 3)
        assert np.all(np.isfinite(grid))
        used = set()  # the (order, node) pairs the per-point recursion used
        needed = set()  # those its entries read (see reads)
        for point in itertools.product(axis, repeat=3):
            spec = mk.DividedDifferenceSpec(f, 2, point)
            ordered = sorted(oracles._cluster_nodes(list(spec.nodes), spec.tolerance))
            used.update((0, complex(z)) for z in ordered)
            used.update((level, complex(ordered[i]))
                        for level in (1, 2) for i in range(3 - level)
                        if ordered[i] == ordered[i + level])
            needed |= reads(ordered)
        assert {level for level, _ in needed} == {0, 1, 2}
        # rows of three equal nodes read f'' / 2 at their node alone
        assert needed < used
        assert sorted(calls, key=str) == sorted(needed, key=str)

    @pytest.mark.parametrize("kind", ["real", "unit_circle"])
    @pytest.mark.parametrize("name", sorted(set(SCALAR_FUNCTIONS) - {"polynomial"}))
    @pytest.mark.parametrize("order", [3, 4])
    def test_equal_axes_match_the_per_point_recursion(self, name, kind, order):
        # every slot on one axis, so each point shares its value with all
        # the permutations of its indices
        f = SCALAR_FUNCTIONS[name]()
        axes = [awkward_axis(kind, np.random.default_rng(order))] * (order + 1)
        expected = outcome(oracles.divided_difference_grid_per_point, f, order, axes)
        assert_same_outcome(outcome(integrands._divided_difference_grid, f, order, axes),
                            expected)

    @pytest.mark.parametrize("kind", ["real", "unit_circle"])
    @pytest.mark.parametrize("name", sorted(set(SCALAR_FUNCTIONS) - {"polynomial"}))
    def test_mixed_equal_and_unequal_axes_match_the_per_point_recursion(self, name, kind):
        f = SCALAR_FUNCTIONS[name]()
        chain = awkward_axis(kind, np.random.default_rng(7))
        # slots 0, 2 and 3 hold equal values (one of them in a copy), slot 1
        # the same nodes in another order
        axes = [chain, chain[::-1], chain.copy(), chain]
        expected = outcome(oracles.divided_difference_grid_per_point, f, 3, axes)
        assert_same_outcome(outcome(integrands._divided_difference_grid, f, 3, axes),
                            expected)

    @pytest.mark.parametrize("axes, size", [
        ([awkward_axis("real", np.random.default_rng(8))] * 4, 4),
        # the first tuple in grid order, (0.5, 0.5, 0.5, -0.25), holds a
        # triple; the last, (-0.25,) * 4, four equal nodes
        ([np.array([0.5, -0.25])] * 3 + [np.array([-0.25])], 3),
    ])
    def test_equal_axes_report_the_first_failing_tuple(self, axes, size):
        f = exp_with_derivatives(1)
        expected = outcome(oracles.divided_difference_grid_per_point, f, 3, axes)
        assert expected[0] is CapabilityError and f"size {size}" in expected[1]
        assert outcome(mk.divided_difference_integrand(f, 3).eval_grid, axes) == expected

    def test_chunks_split_the_canonical_points(self, monkeypatch):
        calls = []

        def sin(z):
            calls.append(complex(z))
            return np.sin(z)

        f = mk.ScalarFunction.from_callable(sin, (np.cos, lambda z: -np.sin(z)))
        axes = [awkward_axis("unit_circle", np.random.default_rng(9))] * 3
        whole = integrands._divided_difference_grid(f, 2, axes)
        rows = snapped_rows(monkeypatch)
        monkeypatch.setattr(integrands, "_GRID_CHUNK_BYTES", 16 * 9 * 7)
        calls.clear()
        chunked = integrands._divided_difference_grid(f, 2, axes)
        # the C(7, 3) = 35 multisets of the axis's 5 distinct values, none
        # isolated, less the 5 of three equal nodes, which stay as they are
        assert rows == [7, 7, 7, 7, 2]
        assert same_bits(chunked, whole)
        assert len(calls) == len(set(calls))  # once per node, across the chunks

    def test_separated_axes_are_read_from_the_union_table(self, monkeypatch):
        rows = table_rows(monkeypatch)
        calls = []

        def exp(z):
            calls.append(z)
            return np.exp(z)

        f = mk.ScalarFunction.from_callable(exp, (np.exp, np.exp))
        axis = np.linspace(-1.0, 1.0, 24)
        # axis + 2.0 starts at 1.0, the last node of axis: 71 distinct nodes
        for axes, nodes in (([axis, axis.copy(), axis], 24), ([axis, axis + 1.0, axis + 2.0], 71)):
            calls.clear()
            grid = mk.divided_difference_integrand(f, 2).eval_grid(axes)
            assert rows == []
            assert len(calls) == len(set(calls)) == nodes
            assert same_bits(grid, oracles.divided_difference_grid_per_point(f, 2, axes))


# a node whose mean over three copies, summed left to right, is not the node
# (nor over five, on the circle), and on the line one whose mean over five is
# not: a run of equal nodes is its own cluster, and a grid that moved runs of
# these to their mean would read other values
INEXACT_MEANS = {
    "real": [0.1, -0.053],
    "unit_circle": [complex(np.exp(4.734462493192759j))],
}


def run_mean(z, count):
    """The mean of ``count`` copies of ``z`` as the per-point recursion's
    clustering takes it: summed left to right from 0, divided by parts."""
    total = 0.0
    for _ in range(count):
        total = total + z
    return complex(total.real / count, total.imag / count) if isinstance(z, complex) else total / count


def separated_axis(kind, size):
    """``size`` nodes, each value far from the others, with exact repeats
    of the nodes of inexact means."""
    if kind == "real":
        pool = INEXACT_MEANS["real"] + [0.62, -0.81, 0.37]
    else:
        pool = INEXACT_MEANS["unit_circle"] + [complex(np.exp(1j * t)) for t in (0.4, 2.2, -1.9)]
    return np.array([pool[i] for i in (0, 1, 0, 2, 1, 3)[:size]])


def separated_axes(shape, kind, order):
    """The axes of a grid of ``order + 1`` slots on separated nodes: one
    spectrum in every slot, a shifted spectrum next to ``order`` copies of a
    base one, or an axis next to a slice of it, slot by slot."""
    axis = separated_axis(kind, 6 if order <= 2 else 4)
    if shape == "single":
        return [axis] * (order + 1)
    if shape == "shifted_base":
        shift = 0.21 if kind == "real" else np.exp(0.3j)
        return [axis * shift] + [axis] * order
    return [axis if slot % 2 else axis[1:3] for slot in range(order + 1)]


def reads(nodes):
    """The (order, node) pairs whose values the recursion over this sorted
    tuple reads: ``f^(l) / l!`` at a window of ``l + 1`` equal nodes (``f``
    at a single node), else the reads of the two shorter windows it spans."""
    if nodes[0] == nodes[-1]:
        return {(len(nodes) - 1, complex(nodes[0]))}
    return reads(nodes[1:]) | reads(nodes[:-1])


def expected_calls(axes):
    """The (order, node) pairs a grid on separated axes calls: the reads of
    the recursion of each point at its own nodes, which no run of equal
    nodes moves (for a point of equal nodes, the top derivative at the
    node)."""
    return set().union(*(reads(sorted(point, key=lambda z: (complex(z).real, complex(z).imag)))
                         for point in itertools.product(*axes)))


class TestUnionTable:
    """Grids on separated nodes with exact repeats, which the table over the
    union serves, against the scalar recursion: not a bit may change."""

    def test_the_nodes_have_inexact_means(self):
        assert run_mean(0.1, 3) != 0.1 and run_mean(-0.053, 5) != -0.053
        assert all(run_mean(z, m) != z for z in INEXACT_MEANS["unit_circle"] for m in (3, 5))
        for nodes in INEXACT_MEANS.values():
            assert all(run_mean(z, 2) == z for z in nodes)

    @pytest.mark.parametrize("shape", ["single", "shifted_base", "overlapping"])
    @pytest.mark.parametrize("kind", ["real", "unit_circle"])
    @pytest.mark.parametrize("name", sorted(set(SCALAR_FUNCTIONS) - {"polynomial"}))
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_grid_bits_match_the_per_point_recursion(self, shape, kind, name, order):
        f = SCALAR_FUNCTIONS[name]()
        axes = separated_axes(shape, kind, order)
        expected = outcome(oracles.divided_difference_grid_per_point, f, order, axes)
        assert_same_outcome(outcome(integrands._divided_difference_grid, f, order, axes),
                            expected)

    def test_served_tuples_skip_the_per_point_table(self, monkeypatch):
        # runs of equal nodes are their own clusters, and every node is
        # isolated, so no tuple goes through _snapped_nodes
        rows = snapped_rows(monkeypatch)
        f = exp_with_derivatives(3)
        for kind in ("real", "unit_circle"):
            axes = separated_axes("single", kind, 2)
            assert same_bits(integrands._divided_difference_grid(f, 2, axes),
                             oracles.divided_difference_grid_per_point(f, 2, axes))
        # order 3: the triples of 0.1, whose mean is not 0.1, stay too
        axes = separated_axes("single", "real", 3)
        assert same_bits(integrands._divided_difference_grid(f, 3, axes),
                         oracles.divided_difference_grid_per_point(f, 3, axes))
        assert rows == []

    @pytest.mark.parametrize("shape", ["single", "shifted_base", "overlapping"])
    @pytest.mark.parametrize("kind", ["real", "unit_circle"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_each_value_read_is_called_once(self, shape, kind, order):
        calls = []

        def counted(fn, level):
            def traced(z):
                calls.append((level, complex(z)))
                return fn(z)
            return traced

        f = mk.ScalarFunction.from_callable(
            counted(np.exp, 0), tuple(counted(np.exp, level) for level in (1, 2, 3))
        )
        axes = separated_axes(shape, kind, order)
        integrands._divided_difference_grid(f, order, axes)
        assert len(calls) == len(set(calls))
        assert set(calls) == expected_calls(axes)

    def test_served_tuples_are_checked_without_snapping(self, monkeypatch):
        # order 2 with one derivative: a pair of equal nodes needs f', which
        # f has, and no point holds three equal nodes, so nothing fails and
        # the check reads the runs of equal indices alone
        f = exp_with_derivatives(1)
        axis = separated_axis("real", 6)
        axes = [axis, axis, axis + 3.0]
        expected = oracles.divided_difference_grid_per_point(f, 2, axes)
        snapped = []
        snap = integrands._snapped_nodes

        def spy(nodes):
            snapped.append(len(nodes))
            return snap(nodes)

        monkeypatch.setattr(integrands, "_snapped_nodes", spy)
        assert same_bits(integrands._divided_difference_grid(f, 2, axes), expected)
        assert snapped == []

    def test_unequal_axes_read_every_point_in_one_table(self, monkeypatch):
        # [shifted, base, base] on 6 + 6 values: the recursion runs once, on
        # the sorted tuple of each of the 216 points, in grid order, and
        # under a chunk of 63 complex values too
        f = exp_with_derivatives(2)
        rng = np.random.default_rng(10)
        base = np.append(rng.uniform(-1, 1, 5), 0.1)
        axes = [base + 2.0, base, base.copy()]
        tables = spied_calls(monkeypatch, "_recursion")
        whole = integrands._divided_difference_grid(f, 2, axes)
        monkeypatch.setattr(integrands, "_GRID_CHUNK_BYTES", 16 * 9 * 7)
        chunked = integrands._divided_difference_grid(f, 2, axes)
        assert len(tables) == 2
        union = np.unique(np.concatenate(axes))
        points = np.sort(np.stack(np.meshgrid(*axes, indexing="ij"), -1), -1).reshape(216, 3)
        for nodes, tuples, at in (t[1:] for t in tables):
            assert np.array_equal(nodes, union)
            assert np.array_equal(nodes[np.stack(tuples, -1)], points)
            assert np.array_equal(at, np.arange(216).reshape(6, 6, 6))
        expected = oracles.divided_difference_grid_per_point(f, 2, axes)
        assert same_bits(whole, expected) and same_bits(chunked, expected)
        # a missing derivative names the first failing point in grid order
        axes = [np.array([0.5, -0.25])] * 3 + [np.array([-0.25, 0.75, 1.5, 2.5])]
        f = exp_with_derivatives(1)
        expected = outcome(oracles.divided_difference_grid_per_point, f, 3, axes)
        assert expected[0] is CapabilityError
        assert outcome(integrands._divided_difference_grid, f, 3, axes) == expected

    def test_an_order_20_grid_on_unequal_axes(self):
        # a 40-node axis and 20 single nodes: 60 nodes, whose C(60 + 20, 21)
        # multisets of 21 outgrow 64 bits; the grid reads its 40 points
        f = mk.ScalarFunction.from_callable(np.exp)
        nodes = np.linspace(-1.0, 1.0, 60)
        axes = [nodes[:40]] + [nodes[39 + slot : 40 + slot] for slot in range(1, 21)]
        assert np.unique(np.concatenate(axes)).size == 60
        assert same_bits(integrands._divided_difference_grid(f, 20, axes),
                         oracles.divided_difference_grid_per_point(f, 20, axes))

    @pytest.mark.parametrize("axes, order", [
        # a served pair first in grid order, then three equal nodes
        ([np.array([0.5, -0.25])] * 2 + [np.array([0.75, 0.5])], 2),
        # a served triple of 0.5 first; then the triples of 0.1, and four
        # equal nodes last
        ([np.array([0.5, 0.1])] * 3 + [np.array([-0.25, 0.1])], 3),
        # such a triple of 0.1 first, then four equal nodes
        ([np.array([0.1, 0.5])] * 3 + [np.array([0.5, 0.1])], 3),
        # four equal nodes first, which stay as they are
        ([np.array([0.1, 0.5])] * 4, 3),
        # four nodes of one near cluster first in grid order, with tuples
        # near a cluster of three before them in order of rank
        ([np.array([0.5 + 1e-9 * slot, 1e-9 * slot - 0.3 * (slot == 0)]) for slot in range(4)],
         3),
    ])
    def test_a_missing_derivative_names_the_first_failing_tuple(self, axes, order):
        for available in (1, 2):
            f = exp_with_derivatives(available)
            expected = outcome(oracles.divided_difference_grid_per_point, f, order, axes)
            assert_same_outcome(outcome(integrands._divided_difference_grid, f, order, axes),
                                expected)
            assert expected[0] is CapabilityError or available == order

    @pytest.mark.parametrize("shape", ["single", "reversed"])
    @pytest.mark.parametrize("pool", ["isolated", "with_moderate_nodes"])
    @pytest.mark.parametrize("kind", ["real", "unit_circle"])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_near_overflow_and_signed_zero_nodes(self, shape, pool, kind, order):
        # runs of two copies of the nodes where v + v overflows are those
        # nodes, and -0.0 snaps to +0.0; alone in the union, the
        # huge nodes and zero are isolated, and moderate nodes merge with 0
        f = mk.ScalarFunction.from_callable(
            np.sin, (np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)))
        axis = np.array(OVERFLOWING[kind] + (MODERATE[kind] if pool != "isolated" else []))
        if order == 3:
            axis = axis[1::2]
        axes = [axis] * (order + 1) if shape == "single" else [
            axis[::-1] if slot == 1 else axis for slot in range(order + 1)]
        with np.errstate(all="ignore"):
            expected = oracles.divided_difference_grid_per_point(f, order, axes)
            got = integrands._divided_difference_grid(f, order, axes)
        # complex steps that overflow give NaN parts, whose signs the bits
        # of the scalar recursion exclude
        got, expected = (np.asarray(v, dtype=complex).view(np.float64) for v in (got, expected))
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_neighbours_an_infinite_gap_apart_raise_no_warning(self, dtype):
        # the gap between -1.7e308 and 1.7e308 overflows: not near, and no
        # overflow warning
        f = mk.ScalarFunction.from_callable(np.tanh, (lambda z: 1 - np.tanh(z) ** 2,))
        axes = [np.array([-1.7e308, 1.7e308], dtype=dtype)] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrands._divided_difference_grid(f, 1, axes)
            if dtype is np.float64:
                assert same_bits(got, oracles.divided_difference_grid_per_point(f, 1, axes))

    def test_an_overflowing_pair_reads_the_derivative_at_its_node(self):
        # two copies of 1.7e308 e^{0.4i}, or of 1.7e308 e^{-2.9i}, are that
        # node though their sum overflows, in the grid as in the recursion
        f = mk.ScalarFunction.from_callable(np.tanh, (lambda z: 1 - np.tanh(z) ** 2,))
        axes = [np.array(OVERFLOWING["unit_circle"])] * 2
        with np.errstate(all="ignore"):
            got = integrands._divided_difference_grid(f, 1, axes)
            expected = oracles.divided_difference_grid_per_point(f, 1, axes)
            assert same_bits(got[[0, 3], [0, 3]], f.derivative(axes[0][[0, 3]], 1))
        # complex steps that overflow give NaN parts, whose signs the bits
        # of the scalar recursion exclude
        got, expected = (v.view(np.float64) for v in (got, expected))
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()

    @pytest.mark.parametrize("nodes", [
        (-1.7e308, 1.7e308),  # the step overflows
        (math.inf, 0.5),  # inf - inf is NaN
        (1.7e308, 1.7e308 * (1 - 1e-9)),  # a near pair whose sum overflows
    ])
    def test_extreme_nodes_raise_no_warning(self, nodes):
        # the suite turns every RuntimeWarning into an error
        f = mk.ScalarFunction.from_callable(np.tanh, (lambda z: 1 - np.tanh(z) ** 2,))
        spec = mk.DividedDifferenceSpec(f, 1, nodes)
        assert same_bits(mk.divided_difference(spec), oracles.divided_difference_per_point(spec))
        axes = [np.array(nodes)] * 2
        assert same_bits(integrands._divided_difference_grid(f, 1, axes),
                         oracles.divided_difference_grid_per_point(f, 1, axes))

    def test_multisets_are_listed_lexicographically_read_only(self):
        for order in range(5):
            for size in range(1, 9):
                tuples = integrands._multisets(size, order)
                expected = itertools.combinations_with_replacement(range(size), order + 1)
                assert np.array_equal(np.stack(tuples, -1), np.array(list(expected)))
                assert all(not t.flags.writeable for t in tuples)
                assert integrands._multisets(size, order) is tuples

    def test_multisets_past_memory_fail_at_once(self):
        # C(60 + 20, 21) > 2**63 tuples: no level is built before it fails
        with pytest.raises(ValueError):
            integrands._multisets.__wrapped__(60, 20)

    def test_grid_ranks_are_cached_read_only(self):
        for order in range(4):
            for size in range(1, 9):
                ranks = integrands._grid_ranks(size, order)
                tuples = integrands._multisets(size, order)
                index = integrands._sorted_indices([np.arange(size)] * (order + 1))
                assert ranks.shape == (size,) * (order + 1)
                for t, s in zip(tuples, index):
                    assert np.array_equal(t[ranks], np.broadcast_to(s, ranks.shape))
                assert not ranks.flags.writeable
                assert integrands._grid_ranks(size, order) is ranks

    def test_only_small_ranks_and_multisets_are_cached(self, monkeypatch):
        f = exp_with_derivatives(3)
        axis = np.array([-0.81, -0.053, 0.1, 0.37, 0.62, 0.9])
        # a sixteenth of the budget is 1727 bytes: the 6**3 ranks of 8 bytes
        # outgrow it, the 56 multisets of three indices fit in it
        monkeypatch.setattr(integrands, "_GRID_CHUNK_BYTES", 16 * 1727)
        integrands._grid_ranks.cache_clear()
        integrands._multisets.cache_clear()
        got = integrands._divided_difference_grid(f, 2, [axis] * 3)
        assert integrands._grid_ranks.cache_info().currsize == 0
        assert integrands._multisets.cache_info().currsize == 1
        assert same_bits(got, oracles.divided_difference_grid_per_point(f, 2, [axis] * 3))

    @pytest.mark.parametrize("name, axis, unique", [
        ("ascending", np.array([-0.81, -0.053, 0.1, 0.37, 0.62]), False),
        ("zero_ascending", np.array([-0.81, -0.0, 0.37]), False),
        ("repeat", np.array([-0.81, 0.1, 0.1, 0.62]), True),
        ("descending", np.array([0.62, 0.37, -0.81]), True),
        ("signed_zeros", np.array([-0.81, -0.0, 0.0, 0.62]), True),
        ("nan", np.array([-0.81, np.nan, 0.62]), True),
        ("complex", np.exp(1j * np.array([0.4, 2.2, 2.9])), True),
    ])
    def test_only_a_strictly_ascending_real_axis_skips_unique(self, monkeypatch, name,
                                                             axis, unique):
        f = exp_with_derivatives(3)
        # the per-point recursion leaves a NaN node where Python's sort does,
        # and the grid sorts it last: an axis with a NaN is checked against
        # the grid on copies of it, which compare equal to no axis
        copies = [axis.copy() for _ in range(3)]
        with np.errstate(all="ignore"):
            expected = (integrands._divided_difference_grid(f, 2, copies) if name == "nan"
                        else oracles.divided_difference_grid_per_point(f, 2, copies))
        calls = []
        numpy_unique = np.unique

        def spy(*args, **kwargs):
            calls.append(args[0].size)
            return numpy_unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        with np.errstate(all="ignore"):
            got = mk.divided_difference_integrand(f, 2).eval_grid([axis] * 3)
            sup = mk.sup_norm_on_grid(mk.divided_difference_integrand(f, 2), [axis] * 3)
        assert bool(calls) == unique
        assert same_bits(got, expected)
        assert np.float64(sup).tobytes() == np.max(np.abs(expected)).tobytes()


# nodes where v + v overflows (in some part, on the circle), and both zeros
OVERFLOWING = {
    "real": [-1.7e308, -1e308, -0.0, 0.0, 1e308, 1.7e308],
    "unit_circle": [complex(r * cmath.exp(1j * t))
                    for r, t in ((1.7e308, 0.4), (1e308, 2.2), (1e308, -1.9), (1.7e308, -2.9))]
    + [complex(-0.0, -0.0), 0j],
}
MODERATE = {"real": [0.5], "unit_circle": [complex(np.exp(1j))]}


def grid_sups(psi, axes):
    """Per sample, max |psi| from the full stacked ``eval_grid``."""
    with np.errstate(over="ignore", invalid="ignore"):
        grid = psi.eval_grid(axes)
    return np.max(np.abs(grid.reshape(len(grid), -1)), axis=1)


def sample_sups(psi, axes):
    """Per sample, max |psi| from ``eval_grid`` on that sample alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([oracles.grid_sup(psi, [a[s] for a in axes])
                         for s in range(len(axes[0]))])


def surrogate(psi, axes):
    with np.errstate(over="ignore", invalid="ignore"):
        return integrands._sup_norms(psi, axes)


def assert_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def assert_near(got, expected, rtol=1e-13):
    """Finite exactly where ``expected`` is, and there within ``rtol`` of it,
    above or below."""
    assert got.dtype == expected.dtype == np.float64
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(got), finite)
    assert (np.abs(got[finite] - expected[finite]) <= rtol * expected[finite]).all()


class TestSupSurrogate:
    """The stacked sup surrogate has the bits of max |eval_grid| per sample,
    whichever path computes it."""

    def test_rank_one_signs_zeros_and_subnormals(self):
        psi = mk.SeparableIntegrand(3, ((
            mk.ScalarFunction.monomial(1, -1.5),
            mk.ScalarFunction.monomial(1),
            mk.ScalarFunction.monomial(2),
        ),))
        tiny = 5e-324
        axes = [
            np.array([[-0.0, 0.0, -2.0], [tiny, -3 * tiny, 0.0], [-1e-160, 2e-160, 0.5],
                      [-0.0, -0.0, -0.0], [1e-300, -7.0, 3.0]]),
            np.array([[0.0, -4.0], [-1e-10, 1.0], [1e-150, -3e-150], [0.0, -0.0],
                      [-2.2250738585072014e-308, 1e-5]]),
            np.array([[-1.0, 1e-3, 0.0, 2.0], [0.25, -0.0, 1.0, 1e100],
                      [1e-5, -1e-6, 2e-5, 3e-7], [-0.0, 0.0, 1.0, -1.0],
                      [tiny, 1e-20, -1e-30, 0.0]]),
        ]
        assert_bits(surrogate(psi, axes), grid_sups(psi, axes))

    def test_rank_one_matches_the_grid_across_exponents(self, rng):
        # products of three factors reach down into the subnormal range and
        # round at every step; none overflows, so the product of maxima is
        # the only path taken
        psi = mk.SeparableIntegrand(3, ((mk.ScalarFunction.monomial(1),) * 3,))
        exponents = rng.integers(-350, 340, (2000, 1))
        axes = [rng.choice([-1.0, 1.0], (2000, 5)) * rng.uniform(1, 2, (2000, 5))
                * np.exp2(exponents - rng.integers(0, 4, (2000, 5))) for _ in range(3)]
        sups = surrogate(psi, axes)
        assert np.count_nonzero((sups > 0) & (sups < 2.3e-308)) > 0
        assert_bits(sups, grid_sups(psi, axes))

    def test_rank_one_overflow_falls_back_to_the_complex_grid(self):
        big = mk.ScalarFunction.monomial(1)
        psi = mk.SeparableIntegrand(4, ((big,) * 4,))
        axes = [np.array([[1.0, -2.0], [1e200, 3.0], [1e100, -1e100]])] * 4
        sups = surrogate(psi, axes)
        assert np.isfinite(sups[0]) and not np.isfinite(sups[1:]).any()
        assert np.isnan(sups[1])
        assert_bits(sups, grid_sups(psi, axes))
        assert_bits(sups, sample_sups(psi, axes))

    @pytest.mark.parametrize("block_bytes", [1, 300, 2000])
    def test_multi_term_blocks_with_one_non_finite_sample(self, rng, block_bytes,
                                                          monkeypatch):
        monkeypatch.setattr(integrands, "_SUP_BLOCK_BYTES", block_bytes)
        dd = mk.divided_difference_integrand(mk.ScalarFunction.monomial(4), 2).separable
        # the same terms with no words to sum: the grid path
        twin = mk.SeparableIntegrand(dd.arity, dd.terms)
        mixed = mk.SeparableIntegrand(2, (
            (mk.ScalarFunction.polynomial([0.5, -1.0]), mk.ScalarFunction.constant(1.0)),
            (mk.ScalarFunction.monomial(2), mk.ScalarFunction.polynomial([0.0, 3.0, 1.0])),
        ))
        for psi in (dd, twin, mixed):
            axes = [rng.uniform(-2, 2, (11, 3 + i)) for i in range(psi.arity)]
            axes[0][7, 1] = 1e160
            sups = surrogate(psi, axes)
            assert not np.isfinite(sups[7])
            assert np.isfinite(np.delete(sups, 7)).all()
            if psi is dd:  # the words sum it (see TestWordSup)
                assert_near(sups, grid_sups(psi, axes))
                assert_near(sups, sample_sups(psi, axes))
            else:
                assert_bits(sups, grid_sups(psi, axes))
                assert_bits(sups, sample_sups(psi, axes))

    @pytest.mark.parametrize("block_bytes", [1, 5000, 2**20])
    def test_complex_values(self, rng, block_bytes, monkeypatch):
        monkeypatch.setattr(integrands, "_SUP_BLOCK_BYTES", block_bytes)
        union = np.exp(1j * rng.uniform(-np.pi, np.pi, (13, 6)))
        for k in (1, 2, 3):
            # a polynomial's divided difference takes the word recurrence
            dd = mk.divided_difference_integrand(mk.ScalarFunction.monomial(4), k)
            axes = [union] * (k + 1)
            assert_near(surrogate(dd.separable, axes), grid_sups(dd.separable, axes))
        # one term with complex values, and a sample whose complex sum overflows
        psi = mk.SeparableIntegrand(2, (
            (mk.ScalarFunction.polynomial([1j, 2.0]), mk.ScalarFunction.constant(1.0)),
            (mk.ScalarFunction.monomial(3), mk.ScalarFunction.monomial(1)),
        ))
        axes = [union.copy(), union * 2.0]
        axes[0][4, 2] = 1e150
        sups = surrogate(psi, axes)
        assert not np.isfinite(sups[4]) and np.isfinite(np.delete(sups, 4)).all()
        assert_bits(sups, grid_sups(psi, axes))
        assert_bits(sups, sample_sups(psi, axes))
        rank_one = mk.SeparableIntegrand(1, ((mk.ScalarFunction.polynomial([1j, 2.0]),),))
        assert_bits(surrogate(rank_one, [union]), grid_sups(rank_one, [union]))


def word_calls(monkeypatch):
    """The stacked axes that the word-recurrence sup is called with."""
    calls = []
    path = integrands._word_sup_norms

    def spy(coefficients, order, axes):
        calls.append(axes)
        return path(coefficients, order, axes)

    monkeypatch.setattr(integrands, "_word_sup_norms", spy)
    return calls


def monomial_dd(degree, order, coefficient=1.0):
    return mk.divided_difference_integrand(mk.ScalarFunction.monomial(degree, coefficient),
                                           order)


SAMPLED_AXES = {
    "real": lambda rng, shape: rng.uniform(-2, 2, shape),
    "unit_circle": lambda rng, shape: np.exp(1j * rng.uniform(-np.pi, np.pi, shape)),
}


class TestWordSup:
    """A polynomial's divided difference sums its words over each multiset
    of the axis's indices once when every slot holds one axis, else over
    every point of the grid: within 1e-13 relative of the grid's sup, above
    or below, finite exactly where it is, and with the bits of each sample
    on its own."""

    @pytest.mark.parametrize("block_bytes", [1, 300, 2**20])
    @pytest.mark.parametrize("kind", sorted(SAMPLED_AXES))
    def test_monomials_are_near_the_grid(self, rng, kind, block_bytes, monkeypatch):
        monkeypatch.setattr(integrands, "_SUP_BLOCK_BYTES", block_bytes)
        calls = word_calls(monkeypatch)
        cases = [(degree, order) for order in (1, 2, 3, 4) for degree in range(order + 1, 9)]
        for degree, order in cases:
            axis = SAMPLED_AXES[kind](rng, (5, 5 if order < 4 else 4))
            dd = monomial_dd(degree, order, -1.5 if degree % 2 else 1.0)
            axes = [axis] * (order + 1)
            sups = surrogate(dd, axes)
            assert_near(sups, grid_sups(dd, axes))
            # a batch of one, through the public function
            one = [axis[2]] * (order + 1)
            alone = np.array([mk.sup_norm_on_grid(dd, one)])
            assert alone.tobytes() == sups[2:3].tobytes()
            assert_near(alone, np.array([oracles.grid_sup(dd, one)]))
        assert len(calls) == 2 * len(cases)

    @pytest.mark.parametrize("kind", sorted(SAMPLED_AXES))
    def test_polynomials_are_near_the_grid(self, rng, kind, monkeypatch):
        calls = word_calls(monkeypatch)
        for order in (1, 2, 3):
            axis = SAMPLED_AXES[kind](rng, (300, 4))
            for _ in range(4):
                coefficients = rng.standard_normal(rng.integers(order + 2, 9))
                dd = mk.divided_difference_integrand(mk.ScalarFunction.polynomial(coefficients),
                                                     order)
                axes = [axis] * (order + 1)
                assert_near(surrogate(dd, axes), grid_sups(dd, axes))
        assert len(calls) == 12

    @pytest.mark.parametrize("block_bytes", [1, 300, 2**20])
    @pytest.mark.parametrize("kind", sorted(SAMPLED_AXES))
    def test_non_finite_samples_are_not_finite_where_the_grid_is(self, rng, kind,
                                                                   block_bytes, monkeypatch):
        monkeypatch.setattr(integrands, "_SUP_BLOCK_BYTES", block_bytes)
        calls = word_calls(monkeypatch)
        axis = SAMPLED_AXES[kind](rng, (9, 4))
        # x^3 overflows at 1e160, and a polynomial factor is NaN at an inf node
        axis[3] = [0.25, 1e160, 0.5, 1.0]
        axis[6, 2] = np.inf
        for order in (1, 2, 3):
            dd = monomial_dd(order + 3, order)
            axes = [axis] * (order + 1)
            sups = surrogate(dd, axes)
            assert np.isnan(sups[6]) and not np.isfinite(sups[3])
            assert np.isfinite(np.delete(sups, [3, 6])).all()
            assert_near(sups, grid_sups(dd, axes))
            assert_near(sups, sample_sups(dd, axes))
            one = [axis[3:4]] * (order + 1)
            assert surrogate(dd, one).tobytes() == sups[3:4].tobytes()
        assert len(calls) == 6

    def test_equal_copies_read_as_one_axis(self, rng, monkeypatch):
        calls = word_calls(monkeypatch)
        axis = rng.uniform(-1, 1, (7, 5))
        for order in (1, 2, 3):
            dd = monomial_dd(order + 3, order)
            shared = surrogate(dd, [axis] * (order + 1))
            assert_bits(surrogate(dd, [axis.copy() for _ in range(order + 1)]), shared)
            # one node of one copy moved: the words run over every grid point
            moved = [axis.copy() for _ in range(order + 1)]
            moved[-1][4, 0] += 0.5
            assert_near(surrogate(dd, moved), grid_sups(dd, moved))
            assert calls[-1] is moved
        assert len(calls) == 9

    def test_other_integrands_on_equal_axes_sum_the_grid(self, rng, monkeypatch):
        calls = word_calls(monkeypatch)
        axis = rng.uniform(-2, 2, (7, 4))
        asymmetric = mk.SeparableIntegrand(2, (
            (mk.ScalarFunction.polynomial([0.5, -1.0]), mk.ScalarFunction.constant(1.0)),
            (mk.ScalarFunction.monomial(2), mk.ScalarFunction.polynomial([0.0, 3.0, 1.0])),
        ))
        for psi in (asymmetric, monomial_dd(5, 2).scaled(2.0)):
            axes = [axis] * psi.arity
            assert_bits(surrogate(psi, axes), grid_sups(psi, axes))
        assert calls == []
