"""Operator substrate: decompositions, norms, matrix functions, sampling."""

import numpy as np
import pytest
import scipy.stats

import moikit as mk
from moikit.errors import (
    FunctionDomainError,
    ParameterError,
    ValidationError,
)

import oracles


class TestSpectralDecompose:
    def test_identity(self):
        op = mk.HermitianOperator(np.eye(2, dtype=complex))
        decomp = mk.spectral_decompose(op)
        np.testing.assert_allclose(decomp.eigenvalues, [1.0, 1.0])

    def test_diagonal_sorted(self):
        op = mk.HermitianOperator(np.diag([3.0, -1.0]).astype(complex))
        decomp = mk.spectral_decompose(op)
        np.testing.assert_allclose(decomp.eigenvalues, [-1.0, 3.0])
        # basis is the permutation that undoes the diagonal order, up to phase
        np.testing.assert_allclose(np.abs(decomp.basis), [[0, 1], [1, 0]], atol=1e-12)

    def test_random_reconstruction(self, rng):
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        op = mk.HermitianOperator((raw + raw.conj().T) / 2)
        decomp = mk.spectral_decompose(op)
        residual = np.max(np.abs(decomp.reconstruct() - op.matrix))
        assert residual <= 1e-10 * max(1.0, np.linalg.norm(op.matrix, 2))

    def test_projector_completeness(self, rng, uniform_model):
        op = mk.sample_random_hermitian(uniform_model, rng)
        decomp = op.decomposition
        total = sum(decomp.projector(i) for i in range(op.dim))
        np.testing.assert_allclose(total, np.eye(op.dim), atol=1e-10)
        for i in range(op.dim):
            for j in range(op.dim):
                product = decomp.projector(i) @ decomp.projector(j)
                expected = decomp.projector(i) if i == j else np.zeros((4, 4))
                np.testing.assert_allclose(product, expected, atol=1e-10)

    def test_unitary_phases_sorted(self, rng):
        u = mk.sample_haar_unitary(5, rng)
        decomp = mk.spectral_decompose(u)
        phases = np.angle(decomp.eigenvalues)
        assert np.all(np.diff(phases) >= -1e-14)
        assert np.max(np.abs(np.abs(decomp.eigenvalues) - 1.0)) <= 1e-10
        residual = np.max(np.abs(decomp.reconstruct() - u.matrix))
        assert residual <= 1e-10

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError, match="asymmetry"):
            mk.HermitianOperator(bad)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitary"):
            mk.UnitaryOperator(np.diag([2.0, 1.0]).astype(complex))


class TestApplyScalarFunction:
    def test_square_diagonal(self):
        op = mk.HermitianOperator(np.diag([1.0, 2.0]).astype(complex))
        result = mk.apply_scalar_function(mk.ScalarFunction.monomial(2), op)
        np.testing.assert_allclose(result.matrix, np.diag([1.0, 4.0]), atol=1e-12)

    def test_constant_gives_identity(self, rng, uniform_model):
        op = mk.sample_random_hermitian(uniform_model, rng)
        result = mk.apply_scalar_function(mk.ScalarFunction.constant(1.0), op)
        np.testing.assert_allclose(result.matrix, np.eye(4), atol=1e-12)

    def test_cube_matches_matrix_product(self, rng):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = mk.HermitianOperator((raw + raw.conj().T) / 2)
        result = mk.apply_scalar_function(mk.ScalarFunction.monomial(3), op)
        expected = op.matrix @ op.matrix @ op.matrix
        np.testing.assert_allclose(result.matrix, expected, atol=1e-10)

    def test_hermitian_result_carries_its_spectrum(self, rng):
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        op = mk.HermitianOperator((raw + raw.conj().T) / 2)
        result = mk.apply_scalar_function(mk.ScalarFunction.monomial(3), op)
        spectral = result.spectral
        assert spectral is not None
        assert np.max(np.abs(spectral.reconstruct() - result.matrix)) <= 1e-10
        gram = spectral.basis.conj().T @ spectral.basis
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-10

    def test_domain_error_names_eigenvalue(self, rng, uniform_model):
        op = mk.sample_random_hermitian(uniform_model, rng)
        bad = mk.ScalarFunction.from_callable(lambda x: float("nan"))
        with pytest.raises(FunctionDomainError, match="eigenvalue"):
            mk.apply_scalar_function(bad, op)


class TestNorms:
    def test_operator_norm_diagonal(self):
        assert mk.operator_norm(np.diag([-5.0, 2.0]).astype(complex)) == 5.0

    def test_operator_norm_zero(self):
        assert mk.operator_norm(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_operator_norm_randomized_lower_bound(self, rng):
        matrix = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        norm = mk.operator_norm(matrix)
        vectors = rng.standard_normal((10_000, 5)) + 1j * rng.standard_normal(
            (10_000, 5)
        )
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        randomized = float(np.max(np.linalg.norm(vectors @ matrix.T, axis=1)))
        assert randomized <= norm + 1e-6
        assert abs(norm - oracles.power_iteration_norm(matrix)) <= 1e-6

    def test_schatten_identity(self):
        assert mk.schatten_norm(np.eye(4, dtype=complex), 1) == pytest.approx(4.0)

    def test_schatten_two_is_frobenius(self, rng):
        matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert mk.schatten_norm(matrix, 2) == pytest.approx(
            float(np.linalg.norm(matrix, "fro")), abs=1e-12
        )

    def test_schatten_three_vs_gram_oracle(self, rng):
        matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert mk.schatten_norm(matrix, 3) == pytest.approx(
            oracles.schatten_from_gram(matrix, 3), abs=1e-10
        )

    def test_schatten_infinity_equals_operator_norm(self, rng):
        matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert mk.schatten_norm(matrix, np.inf) == pytest.approx(
            mk.operator_norm(matrix), abs=1e-12
        )

    def test_schatten_monotone_in_p(self, rng):
        matrix = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        values = [mk.schatten_norm(matrix, p) for p in (1, 1.5, 2, 3, 5, np.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_schatten_rejects_small_p(self, rng):
        with pytest.raises(ParameterError):
            mk.schatten_norm(np.eye(2, dtype=complex), 0.5)


class TestHaarSampling:
    def test_dim_one_is_unit_phase(self):
        rng = np.random.default_rng(1)
        phases = [
            np.angle(mk.sample_haar_unitary(1, rng).matrix[0, 0]) for _ in range(2000)
        ]
        result = scipy.stats.kstest(phases, "uniform", args=(-np.pi, 2 * np.pi))
        assert result.pvalue > 0.01

    def test_unitarity_invariant(self, rng):
        for dim in (1, 2, 3, 5, 8):
            u = mk.sample_haar_unitary(dim, rng)
            departure = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(dim)))
            assert departure <= 1e-10

    def test_trace_second_moment(self):
        rng = np.random.default_rng(77)
        moments = [
            abs(np.trace(mk.sample_haar_unitary(4, rng).matrix)) ** 2
            for _ in range(10_000)
        ]
        assert 0.95 <= np.mean(moments) <= 1.05

    def test_rotated_trace_phase_uniform(self):
        rng = np.random.default_rng(5150)
        fixed = mk.sample_haar_unitary(4, rng).matrix
        phases = [
            np.angle(np.trace(fixed @ mk.sample_haar_unitary(4, rng).matrix))
            for _ in range(10_000)
        ]
        result = scipy.stats.kstest(phases, "uniform", args=(-np.pi, 2 * np.pi))
        assert result.pvalue > 0.01


class TestRandomHermitian:
    def test_fixed_law_is_scalar_operator(self, rng):
        model = mk.RandomOperatorModel(2, ("fixed", (2.0, 2.0)))
        op = mk.sample_random_hermitian(model, rng)
        np.testing.assert_allclose(op.matrix, 2.0 * np.eye(2), atol=1e-12)

    def test_spectrum_matches_drawn_eigenvalues(self):
        model = mk.RandomOperatorModel(3, ("uniform", 0.0, 1.0))
        drawn = np.sort(model.draw_eigenvalues(np.random.default_rng(99)))
        op = mk.sample_random_hermitian(model, np.random.default_rng(99))
        fresh = mk.spectral_decompose(mk.HermitianOperator(op.matrix))
        np.testing.assert_allclose(np.sort(fresh.eigenvalues), drawn, atol=1e-10)

    @pytest.mark.parametrize("law, draw", [
        (("uniform", -1.0, 1.0), lambda rng: rng.uniform(-1.0, 1.0, size=5)),
        (("uniform", -3, 0.7), lambda rng: rng.uniform(-3, 0.7, size=5)),
        (("gaussian", 0.0, 1.0), lambda rng: rng.normal(0.0, 1.0, size=5)),
        (("gaussian", 2, 0.3), lambda rng: rng.normal(2, 0.3, size=5)),
    ])
    def test_drawn_eigenvalues_have_the_bits_of_the_numpy_law(self, law, draw):
        model = mk.RandomOperatorModel(5, law)
        for seed in range(500):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            assert model.draw_eigenvalues(rng).tobytes() == draw(reference).tobytes()
            # the stream stands where the numpy law leaves it
            assert rng.random() == reference.random()

    def test_uniform_law_needs_a_finite_width(self):
        with pytest.raises(ValidationError, match="finite width"):
            mk.RandomOperatorModel(2, ("uniform", -1e308, 1e308))

    def test_seed_determinism(self):
        model = mk.RandomOperatorModel(4, ("gaussian", 0.0, 1.0))
        first = mk.sample_random_hermitian(model, np.random.default_rng(123))
        second = mk.sample_random_hermitian(model, np.random.default_rng(123))
        assert first.matrix.tobytes() == second.matrix.tobytes()

    def test_cached_decomposition_valid(self, rng, uniform_model):
        op = mk.sample_random_hermitian(uniform_model, rng)
        assert op.spectral is not None
        residual = np.max(np.abs(op.spectral.reconstruct() - op.matrix))
        assert residual <= 1e-10

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            mk.RandomOperatorModel(2, ("uniform", 1.0, 0.0))
        with pytest.raises(ValidationError):
            mk.RandomOperatorModel(2, ("gaussian", 0.0, 0.0))
        with pytest.raises(ValidationError):
            mk.RandomOperatorModel(2, ("fixed", (1.0,)))

    def test_random_unitary_spectrum_on_circle(self, rng):
        model = mk.RandomOperatorModel(3, ("uniform", -np.pi, np.pi))
        u = mk.sample_random_unitary(model, rng)
        assert np.max(np.abs(np.abs(u.spectral.eigenvalues) - 1.0)) <= 1e-12
        assert np.max(np.abs(u.spectral.reconstruct() - u.matrix)) <= 1e-10
        departure = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(3)))
        assert departure <= 1e-10


class TestShiftedOperator:
    def test_adds_hermitian_shift(self, rng, uniform_model):
        op = mk.sample_random_hermitian(uniform_model, rng)
        delta = mk.random_hermitian(4, rng, norm=0.3)
        shifted = mk.shifted_operator(op, delta)
        assert isinstance(shifted, mk.HermitianOperator)
        np.testing.assert_allclose(shifted.matrix, op.matrix + delta, atol=1e-14)
        assert not shifted.matrix.flags.writeable

    def test_rejects_non_hermitian_shift(self, rng, uniform_model):
        # the sum used to be symmetrized, which shifted by (B + B*)/2 instead
        op = mk.sample_random_hermitian(uniform_model, rng)
        delta = mk.random_hermitian(4, rng, norm=0.3)
        delta[0, 1] += 0.1
        with pytest.raises(ValidationError, match="not Hermitian"):
            mk.shifted_operator(op, delta)

    def test_rejects_wrong_dimension(self, rng, uniform_model):
        op = mk.sample_random_hermitian(uniform_model, rng)
        with pytest.raises(ValidationError, match="dimension"):
            mk.shifted_operator(op, np.eye(3, dtype=complex))
