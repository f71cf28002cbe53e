"""Divided differences, separable integrands, and norm surrogates."""

import cmath
import itertools
import math

import numpy as np
import pytest

import moikit as mk
from moikit import integrands
from moikit.errors import CapabilityError, ValidationError
from moikit.integrands import add_scalar_functions, multiply_by_slot_variable

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
        with pytest.raises(CapabilityError):
            dd(f, 4, (1.0,) * 5)

    def test_supplied_derivative_limit(self):
        f = mk.ScalarFunction.from_callable(math.sin, derivatives=[math.cos])
        assert dd(f, 1, (0.7, 0.7)) == pytest.approx(math.cos(0.7), abs=1e-12)
        with pytest.raises(CapabilityError):
            dd(f, 2, (0.7, 0.7, 0.7))

    def test_complex_nodes(self):
        f = mk.ScalarFunction.monomial(2)
        a, b = np.exp(0.3j), np.exp(1.1j)
        assert dd(f, 1, (a, b)) == pytest.approx(a + b)

    def test_node_count_validation(self):
        with pytest.raises(ValidationError):
            mk.DividedDifferenceSpec(mk.ScalarFunction.monomial(1), 2, (1.0, 2.0))


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
        assert psi.separable is not None
        psi.check_separable_consistency([(-1.5, 1.5)] * 3)

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
        joined = mk.integrand_block_product(p, q)
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
        assert len(mk.integrand_block_product(p, q).terms) == 6

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
        joined = mk.integrand_block_product(p, q)
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
    ])
    def test_spectra_are_checked_at_the_boundary(self, spectrum, message):
        psi = mk.SeparableIntegrand.constant(2, 1.0)
        norms = (
            lambda spectra: mk.projective_norm_bound(psi, spectra),
            lambda spectra: mk.sup_norm_on_grid(psi.as_multivariate(), spectra),
            lambda spectra: mk.sup_norm_on_grid(mk.MultivariateFunction(2, abs), spectra),
        )
        for norm in norms:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                norm([[0.5], spectrum])

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
        joined = mk.integrand_block_product(p, q)
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
            sup = mk.sup_norm_on_grid(psi.as_multivariate(), spectra)
            proj = mk.projective_norm_bound(psi, spectra)
            assert sup <= proj + 1e-12 * max(1.0, proj)


class TestHelpers:
    def test_add_scalar_functions_polynomials(self):
        total = add_scalar_functions(
            mk.ScalarFunction.polynomial([1.0, 2.0]),
            mk.ScalarFunction.polynomial([0.0, -2.0, 3.0]),
        )
        np.testing.assert_allclose(total.coefficients, [1.0, 0.0, 3.0])

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


def exp_with_derivatives(order=4):
    return mk.ScalarFunction.from_callable(np.exp, (np.exp,) * order)


SCALAR_FUNCTIONS = {
    "polynomial": lambda: mk.ScalarFunction.polynomial([0.3, -1.0, 0.5, 2.0, 0.7, -0.1]),
    "callable_with_derivatives": exp_with_derivatives,
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

    def spy(f, nodes, memo):
        rows.append(len(nodes))
        return table(f, nodes, memo)

    monkeypatch.setattr(integrands, "_divided_differences", spy)
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

        f = mk.ScalarFunction.from_callable(lambda x: x if x.real < 0.2 else math.inf)
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
        needed = set()  # the (order, node) pairs the per-point recursion used
        for point in itertools.product(axis, repeat=3):
            spec = mk.DividedDifferenceSpec(f, 2, point)
            ordered = sorted(oracles._cluster_nodes(list(spec.nodes), spec.tolerance))
            needed.update((0, complex(z)) for z in ordered)
            needed.update((level, complex(ordered[i]))
                          for level in (1, 2) for i in range(3 - level)
                          if ordered[i] == ordered[i + level])
        assert {level for level, _ in needed} == {0, 1, 2}
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
        rows = table_rows(monkeypatch)
        monkeypatch.setattr(integrands, "_GRID_CHUNK_BYTES", 16 * 9 * 7)
        calls.clear()
        chunked = integrands._divided_difference_grid(f, 2, axes)
        assert rows == [7] * 8  # the C(8, 3) = 56 non-decreasing index tuples
        assert same_bits(chunked, whole)
        assert len(calls) == len(set(calls))  # once per node, across the chunks

    def test_rows_are_evaluated_once_per_multiset_of_equal_axes(self, monkeypatch):
        rows = table_rows(monkeypatch)
        f = exp_with_derivatives(2)
        axis = np.linspace(-1.0, 1.0, 24)
        grid = mk.divided_difference_integrand(f, 2).eval_grid([axis, axis.copy(), axis])
        assert np.all(np.isfinite(grid))
        assert sum(rows) == math.comb(24 + 2, 3) == 2600
        rows.clear()
        mk.divided_difference_integrand(f, 2).eval_grid([axis, axis + 1.0, axis + 2.0])
        assert sum(rows) == 24**3


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
        return integrands._sup_norms(psi.as_multivariate(), axes)


def assert_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


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
        mixed = mk.SeparableIntegrand(2, (
            (mk.ScalarFunction.polynomial([0.5, -1.0]), mk.ScalarFunction.constant(1.0)),
            (mk.ScalarFunction.monomial(2), mk.ScalarFunction.polynomial([0.0, 3.0, 1.0])),
        ))
        for psi in (dd, mixed):
            axes = [rng.uniform(-2, 2, (11, 3 + i)) for i in range(psi.arity)]
            axes[0][7, 1] = 1e160
            sups = surrogate(psi, axes)
            assert not np.isfinite(sups[7])
            assert np.isfinite(np.delete(sups, 7)).all()
            assert_bits(sups, grid_sups(psi, axes))
            assert_bits(sups, sample_sups(psi, axes))

    @pytest.mark.parametrize("block_bytes", [1, 5000, 2**20])
    def test_complex_values(self, rng, block_bytes, monkeypatch):
        monkeypatch.setattr(integrands, "_SUP_BLOCK_BYTES", block_bytes)
        union = np.exp(1j * rng.uniform(-np.pi, np.pi, (13, 6)))
        for k in (1, 2, 3):
            dd = mk.divided_difference_integrand(mk.ScalarFunction.monomial(4), k)
            axes = [union] * (k + 1)
            assert_bits(surrogate(dd.separable, axes), grid_sups(dd.separable, axes))
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
