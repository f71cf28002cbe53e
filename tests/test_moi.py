"""Engine identities: evaluation, linearity, splits, partitions, bounds."""

import json
import math

import numpy as np
import pytest

import moikit as mk
from moikit import moi
from moikit.errors import (
    CapabilityError,
    FunctionDomainError,
    ParameterError,
    ValidationError,
)

import identities
import oracles
from conftest import assert_golden, config_path, golden_json, grid_path


def random_separable(rng, arity, n_terms=2, degree=2):
    return mk.SeparableIntegrand(
        arity,
        tuple(
            tuple(
                mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
                for _ in range(arity)
            )
            for _ in range(n_terms)
        ),
    )


def random_ops(rng, count, dim=4):
    model = mk.RandomOperatorModel(dim, ("uniform", -1.0, 1.0))
    return tuple(mk.sample_random_hermitian(model, rng) for _ in range(count))


def random_args(rng, count, dim=4):
    return tuple(mk.random_hermitian(dim, rng) for _ in range(count))


class TestMoiEvaluate:
    def test_constant_integrand_returns_argument(self, rng):
        a, b = random_ops(rng, 2)
        x = mk.random_hermitian(4, rng)
        req = mk.MoiRequest((a, b), mk.SeparableIntegrand.constant(2), (x,))
        result = mk.moi_evaluate(req)
        np.testing.assert_allclose(result.value, x, atol=1e-10)
        assert result.eigen_tuple_count == 16

    def test_first_slot_variable_left_multiplies(self, rng):
        a, b = random_ops(rng, 2)
        x = mk.random_hermitian(4, rng)
        psi = mk.SeparableIntegrand(
            2, ((mk.ScalarFunction.monomial(1), mk.ScalarFunction.constant(1.0)),)
        )
        result = mk.moi_evaluate(mk.MoiRequest((a, b), psi, (x,)))
        np.testing.assert_allclose(result.value, a.matrix @ x, atol=1e-10)

    def test_product_integrand_is_matrix_product(self, rng):
        ops = random_ops(rng, 3, dim=3)
        args = random_args(rng, 2, dim=3)
        psi = mk.SeparableIntegrand(
            3, ((mk.ScalarFunction.monomial(1),) * 3,)
        )
        result = mk.moi_evaluate(mk.MoiRequest(ops, psi, args))
        expected = (
            ops[0].matrix @ args[0] @ ops[1].matrix @ args[1] @ ops[2].matrix
        )
        np.testing.assert_allclose(result.value, expected, atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3])
    def test_rotated_equals_direct_projector_sum(self, dim, m):
        rng = np.random.default_rng(1000 + 10 * dim + m)
        for _ in range(5):
            model = mk.RandomOperatorModel(dim, ("uniform", -1.0, 1.0))
            ops = tuple(mk.sample_random_hermitian(model, rng) for _ in range(m))
            args = tuple(mk.random_hermitian(dim, rng) for _ in range(m - 1))
            psi = random_separable(rng, m)
            engine = mk.moi_core(ops, psi, args)
            direct = oracles.direct_projector_moi(ops, psi.evaluate, args)
            scale = max(1.0, np.linalg.norm(direct, 2))
            assert np.max(np.abs(engine - direct)) <= 1e-10 * scale

    def test_nan_integrand_names_tuple(self, rng):
        a, b = random_ops(rng, 2)
        psi = mk.MultivariateFunction(2, lambda pt: float("nan"))
        with pytest.raises(FunctionDomainError, match="tuple"):
            mk.moi_core((a, b), psi, (np.eye(4, dtype=complex),))

    def test_non_finite_factor_names_eigenvalue(self, rng):
        a, b = random_ops(rng, 2)
        bad = mk.ScalarFunction.from_callable(lambda x: float("nan"))
        psi = mk.SeparableIntegrand(2, ((mk.ScalarFunction.constant(1.0), bad),))
        with pytest.raises(FunctionDomainError, match="eigenvalue"):
            mk.moi_core((a, b), psi, (np.eye(4, dtype=complex),))

    def test_overflowing_factor_products_raise(self, rng):
        a, b = random_ops(rng, 2)
        big = mk.ScalarFunction.constant(1e200)
        psi = mk.SeparableIntegrand(2, ((big, big),))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FunctionDomainError):
                mk.moi_core((a, b), psi, (np.eye(4, dtype=complex),))
            with pytest.raises(FunctionDomainError):
                mk.moi_core((a, b), grid_path(psi), (np.eye(4, dtype=complex),))

    def test_dimension_mismatch_rejected(self, rng):
        a, _ = random_ops(rng, 2)
        c = random_ops(rng, 1, dim=3)[0]
        with pytest.raises(ValidationError):
            mk.MoiRequest((a, c), mk.SeparableIntegrand.constant(2), (np.eye(4),))

    def test_arity_mismatch_rejected(self, rng):
        a, b = random_ops(rng, 2)
        with pytest.raises(ValidationError):
            mk.MoiRequest((a, b), mk.SeparableIntegrand.constant(3), (np.eye(4),))

    @pytest.mark.parametrize("dims, argument_shape", [
        ((4, 3), (4, 4)),
        ((4, 4), (3, 3)),
        ((4, 4), (4, 3)),
    ], ids=["mixed-operator-dims", "argument-too-small", "argument-not-square"])
    def test_moi_core_checks_like_the_request(self, rng, dims, argument_shape):
        operators = tuple(random_ops(rng, 1, dim=d)[0] for d in dims)
        psi = mk.SeparableIntegrand.constant(2)
        arguments = (np.ones(argument_shape, dtype=complex),)
        with pytest.raises(ValidationError) as request_error:
            mk.MoiRequest(operators, psi, arguments)
        with pytest.raises(ValidationError) as core_error:
            mk.moi_core(operators, psi, arguments)
        assert str(core_error.value) == str(request_error.value)

    def test_basis_covariance(self, rng):
        ops = random_ops(rng, 3)
        args = random_args(rng, 2)
        psi = random_separable(rng, 3)
        v = mk.sample_haar_unitary(4, rng).matrix
        base = mk.moi_core(ops, psi, args)
        rotated_ops = tuple(
            mk.HermitianOperator(v @ op.matrix @ v.conj().T) for op in ops
        )
        rotated_args = tuple(v @ x @ v.conj().T for x in args)
        rotated = mk.moi_core(rotated_ops, psi, rotated_args)
        assert np.max(np.abs(rotated - v @ base @ v.conj().T)) <= 1e-10 * max(
            1.0, np.linalg.norm(base, 2)
        )

    def test_adjoint_symmetry_palindromic(self, rng):
        (a,) = random_ops(rng, 1)
        x = mk.random_hermitian(4, rng)
        psi = mk.divided_difference_integrand(mk.ScalarFunction.monomial(3), 1)
        value = mk.moi_core((a, a), psi, (x,))
        assert np.max(np.abs(value - value.conj().T)) <= 1e-10

    def test_linearity_in_argument_slot(self, rng):
        ops = random_ops(rng, 3)
        psi = random_separable(rng, 3)
        x1, x2, y = random_args(rng, 3)
        alpha = 1.7 - 0.3j
        left = mk.moi_core(ops, psi, (alpha * x1 + x2, y))
        right = alpha * mk.moi_core(ops, psi, (x1, y)) + mk.moi_core(
            ops, psi, (x2, y)
        )
        assert np.max(np.abs(left - right)) <= 1e-10 * max(
            1.0, np.linalg.norm(right, 2)
        )

    @pytest.mark.parametrize("name", ["polynomial", "exp"])
    def test_repeated_slots_are_rotated_once(self, rng, monkeypatch, name):
        (a,) = random_ops(rng, 1)
        direction = mk.random_hermitian(4, rng)
        f = {"polynomial": mk.ScalarFunction.polynomial([0.3, -1.0, 0.5, 2.0, 0.7]),
             "exp": mk.ScalarFunction.from_callable(np.exp, (np.exp,) * 3)}[name]
        adjoints = []
        adjoint = moi._adjoint

        def spy(matrices):
            adjoints.append(matrices)
            return adjoint(matrices)

        monkeypatch.setattr(moi, "_adjoint", spy)
        value = mk.kth_derivative(f, a, direction, 3)
        # one rotation of the direction, shared by the three slots, and the
        # rotation of the result back
        assert len(adjoints) == 2
        adjoints.clear()
        # distinct copies of the direction are rotated one by one, to the
        # same bits
        copies = [direction.copy() for _ in range(3)]
        separate = 6.0 * mk.moi_core([a] * 4, mk.divided_difference_integrand(f, 3), copies)
        assert len(adjoints) == 4
        assert value.tobytes() == separate.tobytes()

    @pytest.mark.parametrize("name", ["polynomial", "exp"])
    def test_stacked_arguments_are_rotated_one_by_one(self, rng, name):
        # the items of a stacked array are fresh views, which may take the
        # address of one freed before them: each slot keeps its own argument
        (a,) = random_ops(rng, 1)
        f = {"polynomial": mk.ScalarFunction.polynomial([0.3, -1.0, 0.5, 2.0, 0.7, 0.1]),
             "exp": mk.ScalarFunction.from_callable(np.exp, (np.exp,) * 4)}[name]
        for k in range(1, 5):
            psi = mk.divided_difference_integrand(f, k)
            arguments = np.stack(random_args(rng, k))
            stacked = mk.moi_core([a] * (k + 1), psi, arguments)
            copies = [np.array(d) for d in arguments]
            assert stacked.tobytes() == mk.moi_core([a] * (k + 1), psi, copies).tobytes()


class TestAlgebraicIdentities:
    def test_linear_combination_trivial_coefficients(self, rng):
        ops = random_ops(rng, 2)
        args = random_args(rng, 1)
        psi = random_separable(rng, 2)
        phi = random_separable(rng, 2)
        assert identities.linearity_residual(phi, psi, 1.0, 0.0, ops, args) <= 1e-10
        assert identities.linearity_residual(psi, psi, 1.0, 1.0, ops, args) <= 1e-10

    def test_linear_combination_random(self, rng):
        for _ in range(10):
            ops = random_ops(rng, 3)
            args = random_args(rng, 2)
            phi = random_separable(rng, 3)
            psi = random_separable(rng, 3)
            alpha, beta = rng.standard_normal(2)
            assert (
                identities.linearity_residual(phi, psi, alpha, beta, ops, args)
                <= 1e-10
            )

    def test_linear_combination_scales_callable_factors(self, rng):
        sin = mk.ScalarFunction.from_callable(np.sin, (np.cos,))
        cos = mk.ScalarFunction.from_callable(np.cos, (lambda x: -np.sin(x),))
        phi = mk.SeparableIntegrand(2, ((sin, cos),))
        psi = mk.SeparableIntegrand(2, ((cos, sin), (sin, sin)))
        scaled = sin.scaled(-1.5)
        assert scaled.kind == sin.kind and scaled(0.3) == -1.5 * np.sin(0.3)
        assert scaled.derivative(0.3, 1) == -1.5 * np.cos(0.3)
        ops, args = random_ops(rng, 2), random_args(rng, 1)
        assert identities.linearity_residual(phi, psi, 0.7, -1.3, ops, args) <= 1e-10

    def test_linear_combination_grid_matches_the_pointwise_combination(self, rng):
        exp = mk.ScalarFunction.from_callable(np.exp, (np.exp,))
        sin = mk.ScalarFunction.from_callable(np.sin, (np.cos,))
        phi = mk.divided_difference_integrand(exp, 1)
        # a separable psi's grid and its point values may differ in the last place
        for psi, rtol in ((mk.divided_difference_integrand(sin, 1), 0.0),
                          (random_separable(rng, 2), 1e-14)):
            combo = identities.linear_combination(phi, psi, 0.7, -1.3)
            assert combo.separable is None
            axes = [rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 5)]
            pointwise = np.array([[combo.evaluate((x, y)) for y in axes[1]] for x in axes[0]])
            np.testing.assert_allclose(combo.eval_grid(axes), pointwise, rtol=rtol, atol=0)
            ops, args = random_ops(rng, 2), random_args(rng, 1)
            assert identities.linearity_residual(phi, psi, 0.7, -1.3, ops, args) <= 1e-10

    def test_split_one_sided_function(self, rng):
        a, b = random_ops(rng, 2)
        x = mk.random_hermitian(4, rng)
        f_left = mk.SeparableIntegrand(1, ((mk.ScalarFunction.monomial(2),),))
        ones = mk.SeparableIntegrand.constant(1)
        value = identities.partition_evaluate([f_left, ones], (a, b), (x,))
        np.testing.assert_allclose(value, a.matrix @ a.matrix @ x, atol=1e-10)

    def test_split_two_linear_slots(self, rng):
        a, b = random_ops(rng, 2)
        x = mk.random_hermitian(4, rng)
        lin = mk.SeparableIntegrand(1, ((mk.ScalarFunction.monomial(1),),))
        value = identities.partition_evaluate([lin, lin], (a, b), (x,))
        np.testing.assert_allclose(value, a.matrix @ x @ b.matrix, atol=1e-10)

    def test_split_matches_block_product_evaluation(self, rng):
        for _ in range(10):
            ops = random_ops(rng, 4)
            args = random_args(rng, 3)
            left = random_separable(rng, 2)
            right = random_separable(rng, 2)
            split = identities.partition_evaluate([left, right], ops, args)
            joined = identities.block_product(left, right)
            full = mk.moi_core(ops, grid_path(joined), args)
            scale = max(1.0, np.linalg.norm(full, 2))
            assert np.max(np.abs(split - full)) <= 1e-10 * scale

    def test_partition_single_segment(self, rng):
        ops = random_ops(rng, 3)
        args = random_args(rng, 2)
        psi = random_separable(rng, 3)
        via_partition = identities.partition_evaluate([psi], ops, args)
        direct = mk.moi_core(ops, grid_path(psi), args)
        np.testing.assert_allclose(via_partition, direct, atol=1e-12)

    def test_partition_simple_factorization(self, rng):
        ops = random_ops(rng, 3)
        x1, x2 = random_args(rng, 2)
        lin = mk.SeparableIntegrand(1, ((mk.ScalarFunction.monomial(1),),))
        ones2 = mk.SeparableIntegrand.constant(2)
        value = identities.partition_evaluate([lin, ones2], ops, (x1, x2))
        np.testing.assert_allclose(value, ops[0].matrix @ x1 @ x2, atol=1e-10)

    def test_partition_2_1_2_on_five_operators(self, rng):
        ops = random_ops(rng, 5, dim=3)
        args = random_args(rng, 4, dim=3)
        segments = [
            random_separable(rng, 2, n_terms=1),
            random_separable(rng, 1, n_terms=1),
            random_separable(rng, 2, n_terms=1),
        ]
        factored = identities.partition_evaluate(segments, ops, args)
        product = identities.block_product(
            identities.block_product(segments[0], segments[1]), segments[2]
        )
        full = mk.moi_core(ops, grid_path(product), args)
        scale = max(1.0, np.linalg.norm(full, 2))
        assert np.max(np.abs(factored - full)) <= 1e-10 * scale



class TestNormBound:
    def test_constant_integrand_equality(self, rng):
        a, b = random_ops(rng, 2)
        x = mk.random_hermitian(4, rng)
        req = mk.MoiRequest((a, b), mk.SeparableIntegrand.constant(2), (x,))
        bound, actual = mk.moi_norm_bound(req)
        assert actual == pytest.approx(mk.operator_norm(x), abs=1e-12)
        assert bound == pytest.approx(mk.operator_norm(x), abs=1e-12)

    def test_zero_argument(self, rng):
        a, b = random_ops(rng, 2)
        req = mk.MoiRequest(
            (a, b), random_separable(rng, 2), (np.zeros((4, 4), dtype=complex),)
        )
        bound, actual = mk.moi_norm_bound(req)
        assert actual == 0.0
        assert actual <= bound

    def test_operator_mode_random(self, rng):
        for _ in range(20):
            ops = random_ops(rng, 3)
            args = random_args(rng, 2)
            req = mk.MoiRequest(ops, random_separable(rng, 3), args)
            bound, actual = mk.moi_norm_bound(req)
            assert actual <= bound + 1e-9 * max(1.0, bound)

    def test_schatten_mode_random(self, rng):
        for p in [(2.0, 2.0), (3.0, 1.5)]:
            for _ in range(10):
                ops = random_ops(rng, 3)
                args = random_args(rng, 2)
                req = mk.MoiRequest(ops, random_separable(rng, 3), args)
                bound, actual = mk.moi_norm_bound(req, schatten_p=p)
                assert actual <= bound + 1e-9 * max(1.0, bound)

    def test_schatten_validation(self, rng):
        ops = random_ops(rng, 3)
        args = random_args(rng, 2)
        req = mk.MoiRequest(ops, random_separable(rng, 3), args)
        with pytest.raises(ParameterError):
            mk.moi_norm_bound(req, schatten_p=(0.5, 2.0))
        with pytest.raises(ParameterError):
            mk.moi_norm_bound(req, schatten_p=(1.0, 1.0))

    @pytest.mark.parametrize("p", [math.nan, 10**400, -10**400, "x", True, None],
                             ids=["nan", "huge", "minus-huge", "string", "boolean", "none"])
    def test_schatten_exponents_must_be_real_numbers(self, rng, p):
        req = mk.MoiRequest(random_ops(rng, 3), random_separable(rng, 3), random_args(rng, 2))
        checks = (lambda: mk.moi_norm_bound(req, schatten_p=(p, 2.0)),
                  lambda: moi.holder_reciprocal_sum((2.0, p)),
                  lambda: mk.schatten_norm(np.eye(2), p))
        for check in checks:
            with pytest.raises(ValidationError,
                               match=r"^Schatten exponents must be real numbers in \[1, inf\]$"):
                check()

    def test_schatten_exponents_keep_infinity_and_reject_p_below_one(self):
        assert moi.holder_reciprocal_sum((math.inf, np.int64(2))) == 0.5
        assert mk.schatten_norm(np.eye(2), math.inf) == 1.0
        for p in (0.5, -math.inf):
            with pytest.raises(ParameterError,
                               match=f"^Schatten exponent must satisfy p >= 1, got {p}$"):
                moi.holder_reciprocal_sum((2.0, p))

    def test_requires_separable(self, rng):
        ops = random_ops(rng, 2)
        psi = mk.MultivariateFunction(2, lambda pt: pt[0] * pt[1])
        req = mk.MoiRequest(ops, psi, (np.eye(4, dtype=complex),))
        with pytest.raises(CapabilityError):
            mk.moi_norm_bound(req)


class TestPerturbationIdentity:
    def test_equal_inserts_cancel(self, rng):
        ops = random_ops(rng, 2)
        c = random_ops(rng, 1)[0]
        args = random_args(rng, 2)
        residual = identities.perturbation_residual(
            mk.ScalarFunction.monomial(3), ops, 2, c, c, args
        )
        assert residual <= 1e-12

    def test_scalar_case(self):
        f = mk.ScalarFunction.monomial(2)
        ops = (mk.HermitianOperator([[0.4 + 0j]]),)
        c = mk.HermitianOperator([[1.3 + 0j]])
        d = mk.HermitianOperator([[-0.2 + 0j]])
        args = (np.array([[0.7 + 0j]]),)
        assert identities.perturbation_residual(f, ops, 1, c, d, args) <= 1e-12

    def test_random_instances(self, rng):
        for _ in range(10):
            ops = random_ops(rng, 2)
            c, d = random_ops(rng, 2)
            args = random_args(rng, 2)
            j = int(rng.integers(1, 4))
            residual = identities.perturbation_residual(
                mk.ScalarFunction.monomial(4), ops, j, c, d, args
            )
            assert residual <= 1e-9


class TestContinuity:
    def test_zero_perturbation(self, rng):
        ops = random_ops(rng, 3)
        args = random_args(rng, 2)
        lhs, bound = mk.continuity_modulus(
            mk.ScalarFunction.monomial(3), 2, ops, ops, args
        )
        assert lhs == 0.0
        assert bound == 0.0

    @pytest.mark.parametrize("name", ["exp", "sin"])
    def test_non_polynomial_bound_is_the_sup_over_the_union(self, rng, name):
        f = {
            "exp": mk.ScalarFunction.from_callable(np.exp, (np.exp,) * 3),
            "sin": mk.ScalarFunction.from_callable(np.sin, (np.cos, lambda x: -np.sin(x))),
        }[name]
        ops = random_ops(rng, 2)
        args = random_args(rng, 1)
        perturbed = tuple(
            mk.shifted_operator(op, mk.random_hermitian(4, rng, norm=1e-3)) for op in ops
        )
        lhs, bound = mk.continuity_modulus(f, 1, ops, perturbed, args)
        union = np.concatenate([op.decomposition.eigenvalues for op in (*ops, *perturbed)])
        grid = oracles.divided_difference_grid_per_point(f, 2, [union] * 3)
        surrogate = float(np.max(np.abs(grid.reshape(1, -1)), axis=1)[0])
        drift = sum(mk.operator_norm(b.matrix - a.matrix) for a, b in zip(ops, perturbed))
        assert bound == surrogate * drift * mk.operator_norm(args[0])
        assert 0.0 < lhs <= bound
        assert mk.continuity_modulus(f, 1, ops, ops, args) == (0.0, 0.0)

    def test_a_bare_callable_lacks_the_second_derivative_of_the_sup(self, rng):
        # the order-1 sup reads f^[2] on the union, f'' at each triple
        ops = random_ops(rng, 2)
        perturbed = tuple(
            mk.shifted_operator(op, mk.random_hermitian(4, rng, norm=1e-3)) for op in ops
        )
        with pytest.raises(CapabilityError, match="needs derivative order 2, available 1"):
            mk.continuity_modulus(mk.ScalarFunction.from_callable(np.sin), 1, ops, perturbed,
                                  random_args(rng, 1))

    def test_linear_decay_in_epsilon(self, rng):
        ops = random_ops(rng, 3)
        args = random_args(rng, 2)
        deltas = [mk.random_hermitian(4, rng, norm=1.0) for _ in range(3)]
        f = mk.ScalarFunction.monomial(3)
        values = {}
        for eps in (1e-2, 1e-4):
            perturbed = tuple(
                mk.shifted_operator(op, eps * d) for op, d in zip(ops, deltas)
            )
            lhs, bound = mk.continuity_modulus(f, 2, ops, perturbed, args)
            assert lhs <= bound + 1e-9 * max(1.0, bound)
            values[eps] = lhs
        ratio = values[1e-2] / values[1e-4]
        assert 0.8 * 100 <= ratio <= 1.2 * 100

    def test_random_small_perturbations(self, rng):
        for _ in range(10):
            ops = random_ops(rng, 3)
            args = random_args(rng, 2)
            perturbed = tuple(
                mk.shifted_operator(op, mk.random_hermitian(4, rng, norm=1e-3))
                for op in ops
            )
            lhs, bound = mk.continuity_modulus(
                mk.ScalarFunction.polynomial([0.0, 1.0, 0.5, 0.25]),
                2,
                ops,
                perturbed,
                args,
            )
            assert lhs <= bound + 1e-9 * max(1.0, bound)


def continuity_values() -> dict:
    """(lhs, bound) of continuity_modulus at orders 1 and 2, and the sup of
    the next divided difference over the union of the spectra, for exp and
    sin with three derivatives each, at n = 6: operators drawn uniform on
    [-1, 1] with Haar bases, drifts and arguments of norm 1, the drifts
    scaled by the epsilon0 of configs/convmean_default.json."""
    with open(config_path("convmean_default.json")) as handle:
        eps = float(json.load(handle)["epsilon0"])
    functions = {
        "exp": mk.ScalarFunction.from_callable(np.exp, (np.exp, np.exp, np.exp)),
        "sin": mk.ScalarFunction.from_callable(
            np.sin, (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
        ),
    }
    rng = np.random.default_rng(20261)
    model = mk.RandomOperatorModel(6, ("uniform", -1.0, 1.0))
    values = {}
    for order in (1, 2):
        ops = [mk.sample_random_hermitian(model, rng) for _ in range(order + 1)]
        perturbed = [mk.shifted_operator(op, eps * mk.random_hermitian(6, rng, norm=1.0))
                     for op in ops]
        args = [mk.random_hermitian(6, rng, norm=1.0) for _ in range(order)]
        union = np.concatenate([op.decomposition.eigenvalues for op in (*ops, *perturbed)])
        values[f"order_{order}"] = {}
        for name, f in functions.items():
            lhs, bound = mk.continuity_modulus(f, order, ops, perturbed, args)
            sup = mk.sup_norm_on_grid(
                mk.divided_difference_integrand(f, order + 1), [union] * (order + 2)
            )
            values[f"order_{order}"][name] = {"lhs": lhs, "bound": bound, "sup": sup}
    return values


def test_continuity_modulus_is_pinned():
    # pinned so that changes to how the sup of a non-polynomial divided
    # difference is found keep every bit; the tuples of equal nodes in these
    # sups read their derivative at the node itself
    assert_golden({"continuity_modulus.json": golden_json(continuity_values())})
