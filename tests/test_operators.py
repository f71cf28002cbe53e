"""Operator substrate: decompositions, norms, matrix functions, sampling."""

import math
import re

import numpy as np
import pytest
import scipy.stats

import moikit as mk
from moikit import operators
from moikit import serialization as ser
from moikit.errors import (
    FunctionDomainError,
    NumericalError,
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

    def test_complex_images_give_the_raw_matrix(self, rng):
        op = mk.HermitianOperator(mk.random_hermitian(3, rng))
        f = mk.ScalarFunction.from_callable(lambda x: np.exp(1j * x))
        result = mk.apply_scalar_function(f, op)
        assert type(result) is np.ndarray
        expected = oracles.hermitian_function(lambda x: np.exp(1j * x), op.matrix)
        np.testing.assert_allclose(result, expected, atol=1e-12)

    def test_a_constant_callable_is_broadcast(self, rng):
        op = mk.HermitianOperator(mk.random_hermitian(3, rng))
        result = mk.apply_scalar_function(lambda x: 2.5, op)
        np.testing.assert_allclose(result.matrix, 2.5 * np.eye(3), atol=1e-12)

    def test_domain_error_names_eigenvalue(self, rng, uniform_model):
        op = mk.sample_random_hermitian(uniform_model, rng)
        bad = mk.ScalarFunction.from_callable(lambda x: float("nan"))
        with pytest.raises(FunctionDomainError, match="eigenvalue"):
            mk.apply_scalar_function(bad, op)


class TestMatrixInputs:
    """Every matrix entry point takes integer, float and complex entries only."""

    @pytest.mark.parametrize("matrix", [
        [["1", "2j"], ["-2j", "3"]], [["a"]], [[True, False], [False, True]], [[None]],
        [[1.0, 2.0], [3.0]], [[1.0, False], [0.0, 1.0]], [[1, 0], [0, np.True_]],
        [np.array([1j, 0]), np.array([False, True])],
    ])
    def test_entries_that_are_not_numbers_are_rejected(self, matrix):
        entry_points = (mk.HermitianOperator, mk.UnitaryOperator, mk.operator_norm,
                        lambda m: mk.schatten_norm(m, 2))
        for entry in entry_points:
            with pytest.raises(ValidationError, match="^matrix entries must be numbers$"):
                entry(matrix)

    def test_integer_float_and_complex_entries_are_numbers(self):
        for matrix in ([[1, 2], [2, 3]], np.eye(2, dtype=np.float32),
                       np.eye(2, dtype=np.uint8), [[1, 2j], [-2j, 3]]):
            assert mk.HermitianOperator(matrix).matrix.dtype == np.complex128


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


def largest_singular_values(matrices):
    return np.max(np.linalg.svd(matrices, compute_uv=False), axis=-1)


def relative_departure(norms, reference):
    return float(np.max(np.abs(norms - reference) / reference))


class TestStackedOperatorNorms:
    """Operator norms from the largest eigenvalue of each Gram matrix, against
    the largest singular value."""

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_random_graded_and_rank_deficient_stacks(self, dim):
        rng = np.random.default_rng(dim)
        grades = 10.0 ** -np.linspace(0.0, 8.0, dim)
        rank = max(1, dim // 2)
        stacks = {
            "random": complex_stack(rng, 200, dim, dim),
            "graded": grades[:, None] * complex_stack(rng, 200, dim, dim) * grades,
            "rank-deficient": complex_stack(rng, 200, dim, rank)
            @ complex_stack(rng, 200, rank, dim),
        }
        for kind, stack in stacks.items():
            norms = operators._stacked_norms(stack)
            assert relative_departure(norms, largest_singular_values(stack)) <= 4e-15, kind

    @pytest.mark.parametrize("scale", [2.0**700, 2.0**-700, 1e300, 1e-300])
    def test_entries_far_from_one(self, scale):
        stack = complex_stack(np.random.default_rng(7), 200, 4, 4) * scale
        norms = operators._stacked_norms(stack)
        assert np.all(np.isfinite(norms))
        assert relative_departure(norms, largest_singular_values(stack)) <= 4e-15

    def test_the_zero_matrix_has_norm_zero(self):
        norms = operators._stacked_norms(np.zeros((2, 3, 3), dtype=complex))
        assert norms.tolist() == [0.0, 0.0] and not np.signbit(norms).any()

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, -np.inf),
                                     complex(1.0, np.nan)])
    def test_a_matrix_with_an_entry_that_is_not_finite_has_norm_nan(self, bad):
        stack = complex_stack(np.random.default_rng(3), 6, 4, 4)
        expected = operators._stacked_norms(stack)
        stack[2, 1, 3] = bad
        norms = operators._stacked_norms(stack)  # raises no LinAlgError
        assert np.isnan(norms[2])
        keep = np.arange(6) != 2
        assert norms[keep].tobytes() == expected[keep].tobytes()

    def test_a_stack_gives_each_matrix_its_own_bits(self):
        stack = complex_stack(np.random.default_rng(11), 300, 4, 4)
        norms = operators._stacked_norms(stack)
        singles = [operators._stacked_norms(matrix[None])[0] for matrix in stack]
        assert norms.tobytes() == np.array(singles).tobytes()
        assert norms[37:101].tobytes() == operators._stacked_norms(stack[37:101]).tobytes()

    def test_finite_p_keeps_the_singular_values(self):
        stack = complex_stack(np.random.default_rng(5), 50, 4, 4)
        singular = np.linalg.svd(stack, compute_uv=False)
        for p in (1.0, 2.5):
            expected = np.sum(singular**p, axis=-1) ** (1.0 / p)
            assert operators._stacked_norms(stack, p).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("unitary", [False, True])
    @pytest.mark.parametrize("dim", [1, 3, 4, 16])
    def test_block_of_bases_is_unitary(self, dim, unitary):
        # the samplers do not check their bases, so this is the check
        rng = np.random.default_rng(256 * dim + unitary)
        values = rng.uniform(-np.pi, np.pi, (256, dim))
        normals = rng.standard_normal((256, 2, dim, dim))
        _, bases = operators._random_spectra(values, normals, unitary)
        departure = np.abs(operators._adjoint(bases) @ bases - np.eye(dim))
        assert np.max(departure) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gram_schmidt_bases_do_not_depend_on_the_stack(self, dim):
        normals = np.random.default_rng(dim).standard_normal((1000, 2, dim, dim))
        whole = operators._haar_bases(normals)
        singles = [(i, i + 1) for i in range(0, 1000, 37)]
        for lo, hi in singles + [(0, 2), (1, 37), (37, 300), (255, 257), (299, 1000)]:
            assert operators._haar_bases(normals[lo:hi]).tobytes() == whole[lo:hi].tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gram_schmidt_bases_are_orthonormal_and_the_qr_ones(self, dim):
        normals = np.random.default_rng(10 + dim).standard_normal((10_000, 2, dim, dim))
        bases = operators._haar_bases(normals)
        departure = np.abs(operators._adjoint(bases) @ bases - np.eye(dim))
        assert np.max(departure) <= 1e-14
        assert np.max(np.abs(bases - oracles.haar_bases_by_qr(normals))) <= 1e-13

    @pytest.mark.parametrize("dim", [5, 8])
    def test_larger_bases_keep_the_householder_bits(self, dim):
        normals = np.random.default_rng(dim).standard_normal((300, 2, dim, dim))
        expected = oracles.haar_bases_by_qr(normals)
        assert operators._haar_bases(normals).tobytes() == expected.tobytes()

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
        drawn = np.sort(operators._draw(model, np.random.default_rng(99))[0][0])
        op = mk.sample_random_hermitian(model, np.random.default_rng(99))
        fresh = mk.spectral_decompose(mk.HermitianOperator(op.matrix))
        np.testing.assert_allclose(np.sort(fresh.eigenvalues), drawn, atol=1e-10)

    @pytest.mark.parametrize("law, draw", [
        (("uniform", -1.0, 1.0), lambda rng, size: rng.uniform(-1.0, 1.0, size=size)),
        (("uniform", -3, 0.7), lambda rng, size: rng.uniform(-3, 0.7, size=size)),
        (("gaussian", 0.0, 1.0), lambda rng, size: rng.normal(0.0, 1.0, size=size)),
        (("gaussian", 2, 0.3), lambda rng, size: rng.normal(2, 0.3, size=size)),
    ])
    def test_drawn_eigenvalues_have_the_bits_of_the_numpy_law(self, law, draw):
        model = mk.RandomOperatorModel(5, law)
        for seed in range(500):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            eigenvalues, normals = operators._draw(model, rng, 2)
            assert eigenvalues.tobytes() == draw(reference, (2, 5)).tobytes()
            # the normals start where the numpy law leaves the stream
            assert normals.tobytes() == reference.standard_normal((2, 2, 5, 5)).tobytes()
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

    @pytest.mark.parametrize("law", [
        ("uniform", 0, 10**400), ("uniform", -10**400, 0.0), ("uniform", math.nan, 1.0),
        ("uniform", True, 2.0), ("gaussian", math.nan, 1.0), ("gaussian", 0.0, math.inf),
        ("gaussian", 0.0, 10**400), ("gaussian", "0", 1.0), ("fixed", (10**400, 0.0)),
        ("fixed", (math.nan, 0.0)), ("fixed", (0.0, -math.inf)),
    ])
    def test_law_parameters_must_be_finite_numbers(self, law):
        with pytest.raises(ValidationError,
                           match=f"^{law[0]} law parameters must be finite numbers$"):
            mk.RandomOperatorModel(2, law)

    @pytest.mark.parametrize("law, takes", [
        (("uniform", 0.0), "a, b"), (("uniform", 0.0, 1.0, 2.0), "a, b"),
        (("gaussian", 0.0, 1.0, 2.0), "mean, sd"), (("gaussian",), "mean, sd"),
        (("fixed",), "values"), (("fixed", (0.0, 1.0), (2.0,)), "values"),
    ])
    def test_law_tuples_hold_their_kinds_parameters(self, law, takes):
        with pytest.raises(ValidationError, match=re.escape(
                f"{law[0]} law takes the parameters ({takes}), got {len(law) - 1}")):
            mk.RandomOperatorModel(2, law)

    @pytest.mark.parametrize("law", [
        ("uniform", -3, np.float32(0.5)), ("gaussian", np.int64(2), 1), ("fixed", (1, 2.5)),
    ])
    def test_law_parameters_are_stored_as_floats(self, law):
        model = mk.RandomOperatorModel(2, law)
        params = model.law[1] if law[0] == "fixed" else model.law[1:]
        assert [type(p) for p in params] == [float, float]
        assert list(params) == [float(p) for p in (law[1] if law[0] == "fixed" else law[1:])]

    @pytest.mark.parametrize("dim", [2.5, 3.0, True, "3", None, 0, -1])
    def test_model_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValidationError,
                           match="^model dimension must be a positive integer$"):
            mk.RandomOperatorModel(dim, ("uniform", -1.0, 1.0))

    def test_model_integers_are_stored_as_python_ints(self):
        model = mk.RandomOperatorModel(np.int64(3), ("fixed", (0.0, 1.0, 2.0)))
        assert type(model.dim) is int
        assert ser.model_to_json(model) == {
            "dim": 3, "law": {"kind": "fixed", "values": [0.0, 1.0, 2.0]},
        }

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


RECONSTRUCTION_MESSAGE = (
    r"spectral data does not reconstruct the operator: residual \d\.\d{3}e[-+]\d\d"
)


def hermitian_stack(rng, count, dim, scale=1.0):
    raw = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return scale * (raw + operators._adjoint(raw)) / 2.0


def reconstruction_errors(matrices, eigenvalues, bases):
    """The NumericalError that ``_check_reconstruction`` raises for each
    sample checked alone, by sample index."""
    errors = {}
    for s in range(len(matrices)):
        try:
            operators._check_reconstruction(
                matrices[s : s + 1], eigenvalues[s : s + 1], bases[s : s + 1]
            )
        except NumericalError as err:
            errors[s] = err
    return errors


class TestReconstructionCheck:
    def test_one_corrupted_eigenvalue_gets_its_numerical_error(self, rng):
        matrices = hermitian_stack(rng, 3, 4)
        eigenvalues, bases = np.linalg.eigh(matrices)
        assert reconstruction_errors(matrices, eigenvalues, bases) == {}
        operators._check_reconstruction(matrices, eigenvalues, bases)
        eigenvalues[1, 2] += 1e-6
        errors = reconstruction_errors(matrices, eigenvalues, bases)
        assert list(errors) == [1]
        assert re.fullmatch(RECONSTRUCTION_MESSAGE, str(errors[1]))
        # the stack raises the error of its failing sample
        with pytest.raises(NumericalError) as raised:
            operators._check_reconstruction(matrices, eigenvalues, bases)
        assert str(raised.value) == str(errors[1])

    def test_one_corrupted_eigenphase_gets_its_numerical_error(self, rng):
        decomp = mk.sample_haar_unitary(4, rng).decomposition
        eigenvalues = decomp.eigenvalues.copy()
        eigenvalues[0] *= np.exp(1e-6j)
        errors = reconstruction_errors(
            decomp.reconstruct()[None], eigenvalues[None], decomp.basis[None]
        )
        assert list(errors) == [0]
        assert re.fullmatch(RECONSTRUCTION_MESSAGE, str(errors[0]))

    def test_spectral_decompose_raises_it(self, rng, monkeypatch):
        eigh = np.linalg.eigh

        def corrupted(matrices):
            eigenvalues, bases = eigh(matrices)
            eigenvalues[..., 0] -= 1e-6
            return eigenvalues, bases

        op = mk.HermitianOperator(mk.random_hermitian(4, rng))
        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(NumericalError, match=f"^{RECONSTRUCTION_MESSAGE}$"):
            mk.spectral_decompose(op)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 40.0, 1e6])
    def test_never_looser_than_the_check_scaled_by_the_norm(self, rng, scale):
        # eigenvalue errors around the threshold: every sample that a check
        # scaled by max(1, ||M||_2) rejects is rejected, and no other sample
        # unless its residual lies within a hair of that check's threshold
        matrices = hermitian_stack(rng, 400, 5, scale)
        eigenvalues, bases = np.linalg.eigh(matrices)
        size = max(1.0, scale) * 10.0 ** rng.uniform(-12, -8, (400, 1))
        eigenvalues = eigenvalues + size * rng.uniform(-1, 1, eigenvalues.shape)
        errors = reconstruction_errors(matrices, eigenvalues, bases)
        residual = np.max(np.abs(operators._from_spectrum(eigenvalues, bases) - matrices),
                          axis=(-2, -1))
        norms = np.maximum(1.0, np.linalg.norm(matrices, 2, axis=(-2, -1)))
        rejected = np.flatnonzero(residual > operators.RECONSTRUCTION_TOL * norms)
        assert 0 < len(rejected) < 400
        assert set(rejected.tolist()) <= set(errors)
        near = residual > operators.RECONSTRUCTION_TOL * norms * (1.0 - 1e-6)
        assert set(errors) <= set(np.flatnonzero(near).tolist())


def complex_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSharedOperandProduct:
    """A stack times one shared matrix as one product over the stacked rows
    has the bits of the per-matrix products: the golden tail-bound reports
    and the engine's bits depend on it."""

    @pytest.mark.parametrize("count", [1, 256, 1000])
    @pytest.mark.parametrize("dim", [3, 4])
    def test_harness_shapes(self, dim, count):
        rng = np.random.default_rng(100 * dim + count)
        stack, shared = complex_stack(rng, count, dim, dim), complex_stack(rng, dim, dim)
        np.testing.assert_array_equal(operators._times_shared(stack, shared), stack @ shared)
        np.testing.assert_array_equal(operators._times_shared(operators._adjoint(stack), shared),
                                      stack.conj().swapaxes(-1, -2) @ shared)

    @pytest.mark.parametrize("dim", [12, 32, 64])
    def test_engine_shapes_with_a_conjugate_transposed_left_factor(self, dim):
        # one matrix as a stack of one, and as the (n, n) rows it stacks
        rng = np.random.default_rng(dim)
        bases, argument = complex_stack(rng, 1, dim, dim), complex_stack(rng, dim, dim)
        adjoint = operators._adjoint(bases)
        expected = bases.conj().swapaxes(-1, -2) @ argument
        np.testing.assert_array_equal(operators._times_shared(adjoint, argument), expected)
        np.testing.assert_array_equal(operators._times_shared(adjoint[0], argument),
                                      expected[0])
