"""Unfolding isomorphism, contraction under it, and tensor integrals."""

import numpy as np
import pytest

import moikit as mk
from moikit import operators
from moikit.errors import ValidationError
from moikit.tensors import fold_array, unfold_array

import oracles
from conftest import assert_golden, golden_json


def random_hermitian_tensor(rng, mode_dims):
    p = int(np.prod(mode_dims))
    matrix = mk.random_hermitian(p, rng)
    return mk.fold(matrix, mode_dims)


class TestContract:
    def test_unfolded_full_contraction_is_matrix_product(self, rng):
        dims = (2, 3)
        a = random_hermitian_tensor(rng, dims)
        b = random_hermitian_tensor(rng, dims)
        contracted = np.tensordot(a.entries, b.entries, axes=2)
        product = unfold_array(contracted, dims)
        expected = mk.unfold(a).matrix @ mk.unfold(b).matrix
        assert np.max(np.abs(product - expected)) <= 1e-12 * max(
            1.0, np.max(np.abs(expected))
        )


class TestUnfoldFold:
    def test_single_mode_is_identity(self, rng):
        tensor = random_hermitian_tensor(rng, (4,))
        np.testing.assert_array_equal(mk.unfold(tensor).matrix, tensor.entries)

    def test_round_trip_bitwise(self, rng):
        tensor = random_hermitian_tensor(rng, (2, 3))
        back = mk.fold(mk.unfold(tensor), (2, 3))
        assert back.entries.tobytes() == tensor.entries.tobytes()

    def test_rank_one_unfolds_to_outer_product(self, rng):
        u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u /= np.sqrt(np.sum(np.abs(u) ** 2))
        tensor = mk.HermitianTensor((2, 2), np.multiply.outer(u, u.conj()))
        vec = u.reshape(-1)
        np.testing.assert_allclose(
            mk.unfold(tensor).matrix, np.outer(vec, vec.conj()), atol=1e-12
        )

    def test_random_tensor_unfolds_hermitian(self, rng):
        tensor = random_hermitian_tensor(rng, (2, 2))
        matrix = mk.unfold(tensor).matrix
        assert np.max(np.abs(matrix - matrix.conj().T)) <= 1e-12

    def test_conjugate_symmetry_enforced(self, rng):
        entries = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        with pytest.raises(ValidationError):
            mk.HermitianTensor((2,), entries)

    def test_non_finite_entries_rejected(self):
        # unfold trusts the tensor's checks, so the tensor rejects NaN itself
        entries = np.eye(2, dtype=complex)
        entries[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            mk.HermitianTensor((2,), entries)

    @pytest.mark.parametrize("build", [
        lambda m: mk.HermitianTensor((2.5, 2), m.reshape(2, 2, 2, 2)),
        lambda m: mk.fold(m, (2.7, 2)),
        lambda m: mk.fold(m, (True, 4)),
        lambda m: unfold_array(m.reshape(2, 2, 2, 2), (2.5, 2)),
        lambda m: fold_array(m, (2.5, 2)),
    ], ids=["tensor", "fold", "fold-bool", "unfold-array", "fold-array"])
    def test_mode_dims_that_are_not_integers_are_rejected(self, rng, build):
        matrix = mk.random_hermitian(4, rng)
        with pytest.raises(ValidationError, match="mode dimensions must be integers"):
            build(matrix)


class TestConjugateSymmetryBoundary:
    """The tensor's check is its unfolding's Hermitian check: asymmetry above
    1e-12 max(1, max|entries|) is rejected, and up to it accepted."""

    @staticmethod
    def skewed(delta):
        # max|entries| is 3, and entry (0, 1) of the unfolding differs from
        # the conjugate of entry (1, 0) by exactly delta
        matrix = np.diag([3.0, -1.0, 0.5, 2.0]).astype(complex)
        matrix[0, 1] = delta
        return matrix.reshape(2, 2, 2, 2)

    @staticmethod
    def block_asymmetry(entries):
        """The deviation from conjugate symmetry, on the 2N-way array."""
        adjoint = np.conj(np.transpose(entries, (2, 3, 0, 1)))
        return np.max(np.abs(entries - adjoint))

    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_just_over_is_rejected_and_just_under_accepted(self, unit):
        bound = 1e-12 * 3.0
        over = self.skewed(np.nextafter(bound, np.inf) * unit)
        under = self.skewed(bound * unit)
        assert self.block_asymmetry(over) > bound >= self.block_asymmetry(under)
        with pytest.raises(ValidationError):
            mk.HermitianTensor((2, 2), over)
        tensor = mk.HermitianTensor((2, 2), under)
        assert tensor.entries.tobytes() == under.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entries_rejected(self, value):
        entries = self.skewed(0.0)
        entries[1, 0, 1, 0] = value
        with pytest.raises(ValidationError, match="non-finite"):
            mk.HermitianTensor((2, 2), entries)


class TestKeptUnfolding:
    def test_unfold_is_the_same_view_every_call(self, rng):
        tensor = random_hermitian_tensor(rng, (2, 3))
        operator = mk.unfold(tensor)
        assert mk.unfold(tensor) is operator
        assert np.shares_memory(operator.matrix, tensor.entries)
        assert not tensor.entries.flags.writeable
        assert not operator.matrix.flags.writeable

    def test_each_tensor_is_decomposed_once(self, rng, monkeypatch):
        decomposed = []
        decompose = operators.spectral_decompose

        def spy(op):
            decomposed.append(op)
            return decompose(op)

        monkeypatch.setattr(operators, "spectral_decompose", spy)
        dims = (2, 2)
        tensors = [random_hermitian_tensor(rng, dims) for _ in range(3)]
        arguments = [random_hermitian_tensor(rng, dims) for _ in range(2)]
        psi = mk.divided_difference_integrand(
            mk.ScalarFunction.polynomial([0.5, -1.0, 0.0, 2.0]), 2
        )
        for _ in range(5):
            mk.mti_evaluate(tensors, psi, arguments)
        mk.unfold(tensors[1]).decomposition
        assert sorted(map(id, decomposed)) == sorted(id(mk.unfold(t)) for t in tensors)


class TestNonTensorInputs:
    def test_array_in_mti_tensors(self, rng):
        t = random_hermitian_tensor(rng, (2, 2))
        psi = mk.SeparableIntegrand.constant(2)
        with pytest.raises(ValidationError, match="tensor 0 is a ndarray"):
            mk.mti_evaluate([np.eye(4), t], psi, [t])

    def test_operator_in_mti_tensors(self, rng):
        t = random_hermitian_tensor(rng, (2, 2))
        psi = mk.SeparableIntegrand.constant(2)
        with pytest.raises(ValidationError, match="tensor 1 is a HermitianOperator"):
            mk.mti_evaluate([t, mk.unfold(t)], psi, [t])

    def test_array_to_unfold(self):
        with pytest.raises(ValidationError, match="tensor 0 is a ndarray"):
            mk.unfold(np.eye(4))


class TestMtiEvaluate:
    def test_constant_integrand_returns_argument(self, rng):
        dims = (2, 2)
        tensors = [random_hermitian_tensor(rng, dims) for _ in range(2)]
        argument = random_hermitian_tensor(rng, dims)
        result = mk.mti_evaluate(
            tensors, mk.SeparableIntegrand.constant(2), [argument]
        )
        assert np.max(np.abs(result - argument.entries)) <= 1e-10

    def test_single_mode_reduces_to_matrix_engine(self, rng):
        dims = (3,)
        tensors = [random_hermitian_tensor(rng, dims) for _ in range(2)]
        argument = mk.random_hermitian(3, rng)
        psi = mk.SeparableIntegrand(
            2, ((mk.ScalarFunction.monomial(1), mk.ScalarFunction.monomial(1)),)
        )
        result = mk.mti_evaluate(tensors, psi, [mk.fold(argument, dims)])
        matrix_result = mk.moi_core(
            [mk.unfold(t) for t in tensors], psi, [argument]
        )
        entries = result.entries if hasattr(result, "entries") else result
        assert np.max(np.abs(entries - matrix_result)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_matches_unfold_moi_fold(self, dims, rng):
        tensors = [random_hermitian_tensor(rng, dims) for _ in range(2)]
        p = int(np.prod(dims))
        argument = mk.random_hermitian(p, rng)
        psi = mk.SeparableIntegrand(
            2,
            (
                (mk.ScalarFunction.monomial(1), mk.ScalarFunction.constant(1.0)),
                (mk.ScalarFunction.constant(1.0), mk.ScalarFunction.monomial(1)),
            ),
        )
        result = mk.mti_evaluate(tensors, psi, [mk.fold(argument, dims)])
        expected = oracles.direct_projector_moi(
            [mk.unfold(t) for t in tensors], psi.evaluate, [argument]
        )
        entries = result.entries if hasattr(result, "entries") else result
        folded_expected = expected.reshape(dims + dims)
        scale = max(1.0, np.max(np.abs(folded_expected)))
        assert np.max(np.abs(entries - folded_expected)) <= 1e-10 * scale

    def test_mode_mismatch_rejected(self, rng):
        t1 = random_hermitian_tensor(rng, (2, 2))
        t2 = random_hermitian_tensor(rng, (4,))
        with pytest.raises(ValidationError):
            mk.mti_evaluate([t1, t2], mk.SeparableIntegrand.constant(2), [t1])


def mti_results() -> dict:
    """The entries of mti_evaluate on three tensors per mode shape, with a
    polynomial and an exp divided-difference integrand of order 2, by mode
    shape and function."""
    rng = np.random.default_rng(20260)
    poly = mk.ScalarFunction.polynomial(rng.standard_normal(5))
    exp = mk.ScalarFunction.from_callable(np.exp, (np.exp, np.exp, np.exp))
    results = {}
    for dims in [(3,), (2, 3), (2, 1, 2)]:
        tensors = [random_hermitian_tensor(rng, dims) for _ in range(3)]
        arguments = [random_hermitian_tensor(rng, dims) for _ in range(2)]
        shape = results["x".join(map(str, dims))] = {}
        for name, f in (("poly", poly), ("exp", exp)):
            psi = mk.divided_difference_integrand(f, 2)
            result = mk.mti_evaluate(tensors, psi, arguments)
            shape[name] = np.asarray(getattr(result, "entries", result))
    return results


def test_mti_results_are_pinned():
    # pinned so that changes to how tensors hold their unfolding keep every
    # result bit-identical
    assert_golden({"mti_results.json": golden_json(mti_results())})
