"""Operator derivatives, differences, Taylor remainders, and the
composition-weight bookkeeping for the unitary remainder bound."""

import math

import numpy as np
import pytest

import moikit as mk
from moikit import calculus
from moikit.errors import CapabilityError, ParameterError, ValidationError

import oracles


def random_hermitian_op(rng, dim=4, scale=1.0):
    model = mk.RandomOperatorModel(dim, ("uniform", -scale, scale))
    return mk.sample_random_hermitian(model, rng)


class TestFrechetDerivative:
    def test_square_is_anticommutator(self, rng):
        x = random_hermitian_op(rng)
        v = mk.random_hermitian(4, rng)
        result = mk.frechet_derivative(mk.ScalarFunction.monomial(2), x, v)
        expected = x.matrix @ v + v @ x.matrix
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_cube_on_diagonal(self):
        x = mk.HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        v = np.array([[0, 1], [1, 0]], dtype=complex)
        result = mk.frechet_derivative(mk.ScalarFunction.monomial(3), x, v)
        np.testing.assert_allclose(result, [[0, 7], [7, 0]], atol=1e-10)

    def test_zero_direction(self, rng):
        x = random_hermitian_op(rng)
        result = mk.frechet_derivative(
            mk.ScalarFunction.monomial(4), x, np.zeros((4, 4))
        )
        np.testing.assert_allclose(result, np.zeros((4, 4)), atol=1e-14)

    def test_matches_central_difference(self):
        rng = np.random.default_rng(314)
        for trial in range(50):
            dim = int(rng.integers(2, 7))
            degree = int(rng.integers(1, 6))
            coeffs = rng.standard_normal(degree + 1)
            f = mk.ScalarFunction.polynomial(coeffs)
            x = random_hermitian_op(rng, dim=dim)
            v = mk.random_hermitian(dim, rng, norm=1.0)
            analytic = mk.frechet_derivative(f, x, v)
            numeric = (
                oracles.hermitian_function(f, x.matrix + 1e-5 * v)
                - oracles.hermitian_function(f, x.matrix - 1e-5 * v)
            ) / 2e-5
            scale = max(1.0, np.linalg.norm(analytic, 2))
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale


class TestKthDerivative:
    def test_square_second_derivative(self, rng):
        a = random_hermitian_op(rng)
        b = mk.random_hermitian(4, rng)
        result = mk.kth_derivative(mk.ScalarFunction.monomial(2), a, b, 2)
        np.testing.assert_allclose(result, 2 * b @ b, atol=1e-10)

    def test_first_order_equals_frechet(self, rng):
        a = random_hermitian_op(rng)
        b = mk.random_hermitian(4, rng)
        f = mk.ScalarFunction.polynomial([0.0, 1.0, 0.0, 2.0])
        np.testing.assert_allclose(
            mk.kth_derivative(f, a, b, 1),
            mk.frechet_derivative(f, a, b),
            atol=1e-12,
        )

    def test_third_derivative_matches_stencil(self):
        rng = np.random.default_rng(2718)
        f = mk.ScalarFunction.monomial(4)
        a = random_hermitian_op(rng, dim=3)
        b = mk.random_hermitian(3, rng, norm=1.0)
        analytic = mk.kth_derivative(f, a, b, 3)
        numeric = oracles.matrix_directional_derivative(f, a.matrix, b, 3, 1e-2)
        scale = max(1.0, np.linalg.norm(analytic, 2))
        assert np.max(np.abs(analytic - numeric)) <= 1e-4 * scale

    def test_hermitian_symmetry(self, rng):
        for _ in range(10):
            a = random_hermitian_op(rng)
            b = mk.random_hermitian(4, rng)
            result = mk.kth_derivative(
                mk.ScalarFunction.polynomial([0.5, -1.0, 0.0, 1.0, 0.2]), a, b, 2
            )
            assert np.max(np.abs(result - result.conj().T)) <= 1e-9

    def test_order_validation(self, rng):
        a = random_hermitian_op(rng)
        with pytest.raises(ParameterError):
            mk.kth_derivative(mk.ScalarFunction.monomial(2), a, np.eye(4), 0)


class TestHigherDifference:
    def test_first_order(self, rng):
        a = random_hermitian_op(rng)
        b = mk.random_hermitian(4, rng, norm=0.5)
        f = mk.ScalarFunction.monomial(3)
        result = mk.higher_difference(f, a, b, 1)
        shifted = mk.shifted_operator(a, b)
        expected = (
            oracles.hermitian_function(f, shifted.matrix)
            - oracles.hermitian_function(f, a.matrix)
        )
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_square_second_difference_exact(self, rng):
        a = random_hermitian_op(rng)
        b = mk.random_hermitian(4, rng)
        result = mk.higher_difference(mk.ScalarFunction.monomial(2), a, b, 2)
        np.testing.assert_allclose(result, 2 * b @ b, atol=1e-10)

    def test_commuting_diagonal_matches_scalar_differences(self, rng):
        eigs = rng.uniform(-1, 1, 4)
        steps = rng.uniform(0.1, 0.3, 4)
        a = mk.HermitianOperator(np.diag(eigs).astype(complex))
        b = np.diag(steps).astype(complex)
        f = mk.ScalarFunction.polynomial([0.0, 1.0, -0.5, 0.25])
        for k in (1, 2, 3):
            result = mk.higher_difference(f, a, b, k)
            expected = np.zeros(4, dtype=complex)
            for idx in range(4):
                expected[idx] = sum(
                    (-1) ** (k - i) * math.comb(k, i) * f(eigs[idx] + i * steps[idx])
                    for i in range(k + 1)
                )
            np.testing.assert_allclose(np.diag(result), expected, atol=1e-10)
            off_diag = result - np.diag(np.diag(result))
            assert np.max(np.abs(off_diag)) <= 1e-10

    def test_ladder_checks_step_once_and_keeps_the_rungs_bits(self, rng, monkeypatch):
        a = random_hermitian_op(rng)
        step = mk.random_hermitian(4, rng, norm=0.5)
        checks = []
        check = mk.HermitianOperator._check
        monkeypatch.setattr(mk.HermitianOperator, "_check",
                            staticmethod(lambda arr: checks.append(arr) or check(arr)))
        ladder = calculus._shift_ladder(a, step, 3)
        assert len(checks) == 1
        assert ladder[0] is a
        for i, rung in enumerate(ladder[1:], start=1):
            expected = mk.shifted_operator(a, i * np.asarray(step, dtype=complex))
            assert rung.matrix.tobytes() == expected.matrix.tobytes()

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_bad_step_rejected_at_every_order(self, rng, order):
        # order 0 reads no step, and rejects a bad one all the same
        a = random_hermitian_op(rng)
        skewed = np.zeros((4, 4), dtype=complex)
        skewed[0, 1] = 0.5
        with pytest.raises(ValidationError, match="^matrix is not Hermitian: "
                           r"max asymmetry 5\.000e-01 at entry \(0, 1\)$"):
            mk.higher_difference(mk.ScalarFunction.monomial(2), a, skewed, order)
        with pytest.raises(ValidationError, match="^shift has dimension 3, the operator 4$"):
            mk.higher_difference(mk.ScalarFunction.monomial(2), a, np.eye(3), order)

    def test_moi_diagnostic_reports_without_asserting_agreement(self, rng):
        a = random_hermitian_op(rng)
        b = mk.random_hermitian(4, rng, norm=0.3)
        diag = mk.higher_difference_moi_diagnostic(
            mk.ScalarFunction.monomial(3), a, b, 2
        )
        assert np.isfinite(diag["abs_deviation"])
        assert np.isfinite(diag["rel_deviation"])
        assert diag["binomial"].shape == (4, 4)
        assert diag["moi_form"].shape == (4, 4)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_moi_form_is_the_gap_weighted_projector_sum(self, rng, order):
        # the literal sum over eigenvalue tuples of (l_k - l_0) f^[k]
        a = random_hermitian_op(rng)
        step = mk.random_hermitian(4, rng, norm=0.3)
        f = mk.ScalarFunction.polynomial(rng.standard_normal(order + 3))
        dd = mk.divided_difference_integrand(f, order)
        ops = [a] + [mk.shifted_operator(a, i * step) for i in range(1, order + 1)]
        expected = oracles.direct_projector_moi(
            ops, lambda pt: (pt[-1] - pt[0]) * dd(pt), [step] * order)
        got = mk.higher_difference_moi_diagnostic(f, a, step, order)["moi_form"]
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestSelfAdjointRemainder:
    def make_spec(self, rng, functions, order, dim=4, pert_scale=0.4):
        base = tuple(random_hermitian_op(rng, dim=dim) for _ in functions)
        perts = tuple(
            mk.random_hermitian(dim, rng, norm=pert_scale) for _ in functions
        )
        return mk.RemainderSpec(
            order,
            mk.SlotFunctionSum.from_slot_functions(functions),
            base,
            perts,
            "self_adjoint",
        )

    def test_first_order_is_plain_difference(self, rng):
        f = mk.ScalarFunction.polynomial([1.0, 0.0, 0.5, 0.25])
        spec = self.make_spec(rng, [f], 1)
        result = mk.taylor_remainder_self_adjoint(spec, "direct")
        shifted = mk.shifted_operator(spec.base[0], spec.perturbations[0])
        expected = (
            oracles.hermitian_function(f, shifted.matrix)
            - oracles.hermitian_function(f, spec.base[0].matrix)
        )
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_low_degree_vanishes(self, rng):
        spec = self.make_spec(rng, [mk.ScalarFunction.monomial(2)], 3)
        for method in ("direct", "moi"):
            value = mk.taylor_remainder_self_adjoint(spec, method)
            assert np.max(np.abs(value)) <= 1e-10

    def test_scalar_case_matches_taylor_oracle(self):
        rng = np.random.default_rng(99)
        coeffs = rng.standard_normal(6)
        f = mk.ScalarFunction.polynomial(coeffs)
        x, h = 0.6, 0.3
        spec = mk.RemainderSpec(
            3,
            mk.SlotFunctionSum.from_slot_functions([f]),
            (mk.HermitianOperator([[x + 0j]]),),
            (np.array([[h + 0j]]),),
            "self_adjoint",
        )
        expected = oracles.scalar_taylor_remainder(coeffs, x, h, 3)
        for method in ("direct", "moi"):
            value = mk.taylor_remainder_self_adjoint(spec, method)[0, 0]
            assert value == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_methods_agree(self, rng):
        for _ in range(10):
            degree = int(rng.integers(3, 7))
            functions = [
                mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1)),
                mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1)),
            ]
            order = int(rng.integers(1, 4))
            spec = self.make_spec(rng, functions, order)
            direct = mk.taylor_remainder_self_adjoint(spec, "direct")
            moi = mk.taylor_remainder_self_adjoint(spec, "moi")
            scale = max(1.0, np.linalg.norm(direct, 2), np.linalg.norm(moi, 2))
            assert np.max(np.abs(direct - moi)) <= 1e-8 * scale

    def test_methods_agree_on_a_complex_valued_function(self, rng):
        f = mk.ScalarFunction.from_callable(
            lambda x: np.exp(1j * x),
            tuple((lambda x, _c=1j**k: _c * np.exp(1j * x)) for k in range(1, 4)),
        )
        spec = self.make_spec(rng, [f], 2, dim=3)
        direct = mk.taylor_remainder_self_adjoint(spec, "direct")
        moi = mk.taylor_remainder_self_adjoint(spec, "moi")
        assert np.max(np.abs(direct - moi)) <= 1e-12

    def test_one_function_per_slot(self, rng):
        f, g = mk.ScalarFunction.monomial(2), mk.ScalarFunction.monomial(3)
        assert mk.SlotFunctionSum.from_slot_functions([f, g]).functions == (f, g)
        with pytest.raises(ValidationError, match="^at least one slot function is required$"):
            mk.SlotFunctionSum.from_slot_functions([])
        with pytest.raises(ValidationError, match="^base/perturbation counts must match"):
            mk.RemainderSpec(1, mk.SlotFunctionSum((f, g)), (random_hermitian_op(rng),),
                             (np.zeros((4, 4)),), "self_adjoint")

    def test_flavor_validation(self, rng):
        f = mk.ScalarFunction.monomial(2)
        u = mk.sample_haar_unitary(3, rng)
        with pytest.raises(ValidationError):
            mk.RemainderSpec(
                1,
                mk.SlotFunctionSum.from_slot_functions([f]),
                (u,),
                (np.zeros((3, 3)),),
                "self_adjoint",
            )


class TestRemainderSpecChecks:
    """Each check of a remainder task's inputs, with its message."""

    @staticmethod
    def fields(rng):
        return {"order": 2, "function": mk.SlotFunctionSum((mk.ScalarFunction.monomial(3),)),
                "base": (random_hermitian_op(rng, dim=3),),
                "perturbations": (mk.random_hermitian(3, rng, norm=0.3),),
                "flavor": "self_adjoint"}

    @pytest.mark.parametrize("edit, error, message", [
        (lambda rng: {"order": 0}, ValidationError, r"^remainder order must lie in 1\.\.170$"),
        (lambda rng: {"order": 171}, ValidationError,
         r"^remainder order must lie in 1\.\.170$"),
        (lambda rng: {"order": 17, "flavor": "unitary",
                      "base": (mk.sample_haar_unitary(3, rng),)}, ValidationError,
         r"^remainder order must lie in 1\.\.16$"),
        (lambda rng: {"flavor": "skew"}, ValidationError, "^unknown flavor 'skew'$"),
        (lambda rng: {"perturbations": ()}, ValidationError,
         "^base/perturbation counts must match the slot count$"),
        (lambda rng: {"function": mk.SlotFunctionSum((mk.ScalarFunction.monomial(2),) * 2),
                      "base": (random_hermitian_op(rng, dim=3),
                               random_hermitian_op(rng, dim=4)),
                      "perturbations": (np.zeros((3, 3)), np.zeros((4, 4)))},
         ValidationError, "^base operators have mixed dimensions$"),
        (lambda rng: {"perturbations": (np.triu(np.ones((3, 3))),)}, ValidationError,
         "^perturbation 0: matrix is not Hermitian"),
        (lambda rng: {"perturbations": (np.zeros((2, 2)),)}, ValidationError,
         r"^perturbation 0 has shape \(2, 2\)$"),
        (lambda rng: {"flavor": "unitary"}, ValidationError,
         "^unitary flavor needs unitary base operators$"),
        (lambda rng: {"flavor": "unitary", "base": (mk.sample_haar_unitary(3, rng),),
                      "function": mk.SlotFunctionSum(
                          (mk.ScalarFunction.from_callable(np.exp, (np.exp,)),))},
         CapabilityError, "^unitary flavor is restricted to polynomial slot functions$"),
        (lambda rng: {"base": (mk.sample_haar_unitary(3, rng),)}, ValidationError,
         "^self-adjoint flavor needs Hermitian base operators$"),
    ])
    def test_each_check_rejects_its_input(self, rng, edit, error, message):
        with pytest.raises(error, match=message):
            mk.RemainderSpec(**{**self.fields(rng), **edit(rng)})


ORDER_SITES = {
    "kth_derivative": lambda f, a, b, e, order: mk.kth_derivative(f, a, e, order),
    "higher_difference": lambda f, a, b, e, order: mk.higher_difference(f, a, e, order),
    "higher_difference_moi_diagnostic":
        lambda f, a, b, e, order: mk.higher_difference_moi_diagnostic(f, a, e, order),
    "divided_difference_integrand":
        lambda f, a, b, e, order: mk.divided_difference_integrand(f, order),
    "DividedDifferenceSpec": lambda f, a, b, e, order: mk.DividedDifferenceSpec(
        f, order, (0.1, 0.2)),
    "RemainderSpec": lambda f, a, b, e, order: mk.RemainderSpec(
        order, mk.SlotFunctionSum((f,)), (a,), (e,), "self_adjoint"),
    "continuity_modulus":
        lambda f, a, b, e, order: mk.continuity_modulus(f, order, (a, a), (b, b), (e,)),
}


@pytest.mark.parametrize("order", [True, 1.0, 1.5])
@pytest.mark.parametrize("site", sorted(ORDER_SITES))
def test_orders_that_are_not_integers_are_rejected(rng, site, order):
    # each call is valid at order 1
    a, b = random_hermitian_op(rng, dim=3), random_hermitian_op(rng, dim=3)
    e = mk.random_hermitian(3, rng, norm=0.3)
    with pytest.raises(ValidationError, match="^orders must be integers$"):
        ORDER_SITES[site](mk.ScalarFunction.monomial(3), a, b, e, order)


@pytest.mark.parametrize("site", ["kth_derivative", "higher_difference",
                                  "higher_difference_moi_diagnostic"])
def test_orders_past_170_are_rejected(rng, site):
    # 171! is past the float64 range
    a, b = random_hermitian_op(rng, dim=3), random_hermitian_op(rng, dim=3)
    e = mk.random_hermitian(3, rng, norm=0.3)
    with pytest.raises(ParameterError, match=r" in [01]\.\.170$"):
        ORDER_SITES[site](mk.ScalarFunction.monomial(3), a, b, e, 171)


class TestExpSeriesTail:
    def test_first_tail_is_exponential_minus_identity(self, rng):
        h = mk.HermitianOperator(mk.random_hermitian(3, rng, norm=0.7))
        tail = mk.exp_series_tail(h, 1)
        expected = mk.unitary_exponential(h) - np.eye(3)
        np.testing.assert_allclose(tail, expected, atol=1e-13)

    def test_zero_generator(self):
        h = mk.HermitianOperator(np.zeros((3, 3), dtype=complex))
        for start in (1, 2, 4):
            np.testing.assert_allclose(
                mk.exp_series_tail(h, start), np.zeros((3, 3)), atol=1e-15
            )

    def test_matches_series_oracle(self, rng):
        h = mk.random_hermitian(3, rng, norm=0.9)
        op = mk.HermitianOperator(h)
        tail = mk.exp_series_tail(op, 3)
        expected = oracles.exp_series_partial(h, 60) - oracles.exp_series_partial(h, 3)
        assert np.max(np.abs(tail - expected)) <= 1e-12


class TestUnitaryRemainder:
    def make_spec(self, rng, functions, order, dim=3, pert_scale=0.5):
        model = mk.RandomOperatorModel(dim, ("uniform", -np.pi, np.pi))
        base = tuple(mk.sample_random_unitary(model, rng) for _ in functions)
        perts = tuple(
            mk.random_hermitian(dim, rng, norm=pert_scale) for _ in functions
        )
        return mk.RemainderSpec(
            order,
            mk.SlotFunctionSum.from_slot_functions(functions),
            base,
            perts,
            "unitary",
        )

    def test_first_order_base_case(self, rng):
        f = mk.ScalarFunction.polynomial([0.0, 1.0, 0.0, 1.0])
        spec = self.make_spec(rng, [f], 1)
        base = spec.base[0]
        gen = mk.HermitianOperator(spec.perturbations[0])
        rotated = mk.unitary_exponential(gen) @ base.matrix
        expected = mk.polynomial_of_matrix(f, rotated) - mk.polynomial_of_matrix(
            f, base.matrix
        )
        for method in ("direct", "moi"):
            value = mk.taylor_remainder_unitary(spec, method)
            assert np.max(np.abs(value - expected)) <= 1e-10

    def test_zero_perturbation_gives_zero(self, rng):
        f = mk.ScalarFunction.polynomial([0.5, 0.0, 1.0, 0.3])
        model = mk.RandomOperatorModel(3, ("uniform", -np.pi, np.pi))
        base = (mk.sample_random_unitary(model, rng),)
        spec = mk.RemainderSpec(
            2,
            mk.SlotFunctionSum.from_slot_functions([f]),
            base,
            (np.zeros((3, 3), dtype=complex),),
            "unitary",
        )
        for method in ("direct", "moi"):
            value = mk.taylor_remainder_unitary(spec, method)
            assert np.max(np.abs(value)) <= 1e-10

    def test_scalar_circle_case(self):
        z = np.exp(0.37j)
        h = 0.41
        spec = mk.RemainderSpec(
            2,
            mk.SlotFunctionSum.from_slot_functions([mk.ScalarFunction.monomial(3)]),
            (mk.UnitaryOperator([[z]]),),
            (np.array([[h + 0j]]),),
            "unitary",
        )
        exact = np.exp(3j * h) * z**3 - z**3 - 3j * h * z**3
        for method in ("direct", "moi"):
            value = mk.taylor_remainder_unitary(spec, method)[0, 0]
            assert value == pytest.approx(exact, abs=1e-10)

    def test_methods_agree(self, rng):
        for _ in range(8):
            degree = int(rng.integers(2, 5))
            functions = [
                mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1)),
            ]
            order = int(rng.integers(1, 3))
            spec = self.make_spec(rng, functions, order)
            direct = mk.taylor_remainder_unitary(spec, "direct")
            moi = mk.taylor_remainder_unitary(spec, "moi")
            scale = max(1.0, np.linalg.norm(direct, 2), np.linalg.norm(moi, 2))
            assert np.max(np.abs(direct - moi)) <= 1e-6 * scale

    @staticmethod
    def coefficients(rng, degree, kind):
        """Real, complex, or real with every other coefficient zero."""
        coeffs = rng.standard_normal(degree + 1)
        if kind == "complex":
            return coeffs + 1j * rng.standard_normal(degree + 1)
        if kind == "zeros":
            coeffs[degree % 2::2] = 0.0
        return coeffs

    @pytest.mark.parametrize("kind", ["real", "complex", "zeros"])
    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("order", range(4))
    def test_taylor_term_matches_the_per_tuple_loop(self, order, degree, kind):
        # the harness's term on a stack, and on one matrix as the direct
        # method takes it, against the loop that builds every product anew;
        # Horner sums in another order, so they agree to rounding
        rng = np.random.default_rng(100 * order + 10 * degree + len(kind))
        phi = mk.ScalarFunction.polynomial(self.coefficients(rng, degree, kind))
        model = mk.RandomOperatorModel(4, ("uniform", -np.pi, np.pi))
        stack = np.array([mk.sample_random_unitary(model, rng).matrix for _ in range(5)])
        g_terms = calculus._exp_term_cache(mk.random_hermitian(4, rng, norm=0.5), order)
        for x in (stack, stack[2]):
            value = calculus._taylor_coefficients(phi, [g @ x for g in g_terms])[order]
            ref = oracles.unitary_taylor_term_per_tuple(phi.coefficients, x, g_terms, order)
            assert np.max(np.abs(value - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["real", "complex", "zeros"])
    @pytest.mark.parametrize("degree", range(1, 6))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_direct_method_matches_the_per_tuple_loop(self, order, degree, kind):
        rng = np.random.default_rng(100 * order + 10 * degree + len(kind))
        phi = mk.ScalarFunction.polynomial(self.coefficients(rng, degree, kind))
        spec = self.make_spec(rng, [phi], order)
        base, gen = spec.base[0].matrix, spec._generators[0]
        g_terms = calculus._exp_term_cache(gen.matrix, order)
        rotated = mk.polynomial_of_matrix(phi, mk.unitary_exponential(gen) @ base)
        expected = rotated
        for ell in range(order):
            expected = expected - oracles.unitary_taylor_term_per_tuple(
                phi.coefficients, base, g_terms, ell)
        value = mk.taylor_remainder_unitary(spec, "direct")
        # the remainder is a difference of terms the size of phi(e^{iH} X),
        # so its rounding scales with that, not with the remainder itself
        assert np.max(np.abs(value - expected)) <= 1e-14 * np.max(np.abs(rotated))

    def test_taylor_coefficients_of_a_scalar_have_the_closed_form(self):
        # [t^l] phi(x e^{iht}) = sum_p c_p x^p (ihp)^l / l!
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        phi = mk.ScalarFunction.polynomial(coeffs)
        x, h = np.exp(0.7j), 0.6
        series = [np.array([[x * (1j * h) ** r / math.factorial(r)]]) for r in range(20)]
        value = calculus._taylor_coefficients(phi, series)
        for ell in range(20):
            exact = sum(c * x**p * (1j * h * p) ** ell for p, c in enumerate(coeffs))
            exact /= math.factorial(ell)
            assert abs(value[ell][0, 0] - exact) <= 1e-13 * max(1.0, abs(exact))

    @pytest.mark.parametrize("complex_coefficients", [False, True])
    def test_polynomial_of_matrix_keeps_the_horner_bits(self, rng, complex_coefficients):
        coeffs = rng.standard_normal(6)
        if complex_coefficients:
            coeffs = coeffs + 1j * rng.standard_normal(6)
        coeffs[2] = 0.0
        phi = mk.ScalarFunction.polynomial(coeffs)
        stack = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal((7, 3, 3))
        stack[:, 0, 1] = 0.0
        for x in (stack, stack[3], stack.real):
            np.testing.assert_array_equal(
                mk.polynomial_of_matrix(phi, x), oracles.horner_of_matrix(phi.coefficients, x))

    def test_non_polynomial_rejected(self, rng):
        model = mk.RandomOperatorModel(3, ("uniform", -np.pi, np.pi))
        base = (mk.sample_random_unitary(model, rng),)
        with pytest.raises(CapabilityError):
            mk.RemainderSpec(
                1,
                mk.SlotFunctionSum.from_slot_functions(
                    [mk.ScalarFunction.from_callable(math.sin)]
                ),
                base,
                (np.zeros((3, 3)),),
                "unitary",
            )


class TestScalarReduction:
    """Every operation at dimension one reproduces the scalar identity."""

    def test_frechet(self):
        f = mk.ScalarFunction.polynomial([1.0, -2.0, 0.0, 3.0])
        x, v = 0.8, 0.6
        value = mk.frechet_derivative(
            f, mk.HermitianOperator([[x + 0j]]), np.array([[v + 0j]])
        )[0, 0]
        assert value == pytest.approx(f.derivative(x, 1) * v, abs=1e-10)

    def test_kth_derivative(self):
        f = mk.ScalarFunction.monomial(5)
        x, b = 0.9, 0.4
        value = mk.kth_derivative(
            f, mk.HermitianOperator([[x + 0j]]), np.array([[b + 0j]]), 3
        )[0, 0]
        assert value == pytest.approx(f.derivative(x, 3) * b**3, rel=1e-10)

    def test_higher_difference(self):
        f = mk.ScalarFunction.monomial(4)
        x, b = 0.3, 0.2
        value = mk.higher_difference(
            f, mk.HermitianOperator([[x + 0j]]), np.array([[b + 0j]]), 2
        )[0, 0]
        expected = f(x + 2 * b) - 2 * f(x + b) + f(x)
        assert value == pytest.approx(expected, abs=1e-10)


class TestCompositionWeights:
    def test_zero_norm(self):
        assert mk.composition_weight(0.0, (1, 1)) == 0.0

    def test_single_part_is_exponential_tail(self):
        assert mk.composition_weight(1.0, (1,)) == pytest.approx(math.e - 1.0)
        assert mk.composition_weight(0.8, (2,)) == pytest.approx(
            math.exp(0.8) - 1.0 - 0.8, rel=1e-12
        )

    def test_two_part_product(self):
        assert mk.composition_weight(1.0, (1, 1)) == pytest.approx(
            (math.e - 1.0) * 1.0
        )

    def test_uneven_parts(self):
        weight = mk.composition_weight(0.5, (1, 2))
        expected = (math.exp(0.5) - 1.0) * 0.5**2 / 2
        assert weight == pytest.approx(expected, rel=1e-12)

    def test_sum_counts_compositions(self):
        for k in range(1, 6):
            for parts in range(1, k + 1):
                listed = list(mk.compositions(k, parts))
                assert len(listed) == math.comb(k - 1, parts - 1)
                assert sorted(listed) == sorted(oracles.positive_compositions(k, parts))

    def test_sum_at_full_parts_single_composition(self):
        h = 0.7
        expected = mk.composition_weight(h, (1, 1, 1))
        assert mk.composition_weight_sum(h, 3, 3) == pytest.approx(expected)

    def test_sum_matches_enumeration(self):
        h = 0.5
        expected = sum(
            mk.composition_weight(h, comp)
            for comp in oracles.positive_compositions(4, 2)
        )
        assert mk.composition_weight_sum(h, 4, 2) == pytest.approx(expected, rel=1e-12)

    def test_parts_range_validation(self):
        with pytest.raises(ParameterError):
            mk.composition_weight_sum(1.0, 2, 3)

    @pytest.mark.parametrize("composition", [(1.5, 1), (True, 1)])
    def test_parts_that_are_not_integers_are_rejected(self, composition):
        with pytest.raises(ValidationError, match="composition parts must be positive"):
            mk.composition_weight(0.5, composition)
