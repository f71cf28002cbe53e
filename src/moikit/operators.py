"""Dense complex operator substrate.

Hermitian and unitary operator types with cached spectral decompositions,
matrix norms, scalar functions of operators, and random-operator sampling
(Haar eigenbases plus configurable eigenvalue laws).

All values are immutable after construction; every operation here is a pure
function.  Random sampling takes an explicit ``numpy.random.Generator``.

One private builder, :func:`_random_spectra`, turns drawn arrays stacked over
samples into sorted spectra and Haar bases (Ginibre QR with the R-diagonal
phase fix, see Mezzadri, Notices AMS 54, 2007), and :func:`_spectral_matrices`
builds their matrices; the public samplers are their batch-of-one calls, and
the Monte Carlo harness calls them once per chunk of samples.  The other
private helpers that take stacks (:func:`_from_spectrum`,
:func:`_check_reconstruction`, :func:`_hermitian_spectra`,
:func:`_function_of_spectra`) likewise serve the public single-operator
functions with a batch of one.

Trust boundary: constructors and parsers check their input, and
:func:`spectral_decompose` checks what LAPACK returns.  Operators that moikit
builds from checked inputs (samplers, :func:`apply_scalar_function`,
:func:`shifted_operator`) are not checked again.  A Hermitian tensor is
checked by building its unfolded operator, once, through the constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    FunctionDomainError,
    NumericalError,
    ParameterError,
    ValidationError,
    _integer,
)

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10


def as_square_complex(matrix) -> np.ndarray:
    """Coerce to an immutable square complex128 array, checking finiteness."""
    arr = np.array(matrix, dtype=np.complex128, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValidationError("matrix must have positive dimension")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError("matrix contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _adjoint(matrices: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return matrices.conj().swapaxes(-1, -2)


def _times_shared(stack: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``stack @ matrix`` for a stack of (n, n) matrices and one shared (n, n)
    matrix, as one (N n, n) x (n, n) product over the stacked rows: one BLAS
    call instead of one per matrix, which at n = 3 or 4 costs more than the
    arithmetic.  On the pinned OpenBLAS its bits are the per-matrix ones (a
    unit test checks it).  A stack of one matrix takes the plain product."""
    if len(stack) == 1:
        return stack @ matrix
    return (stack.reshape(-1, stack.shape[-1]) @ matrix).reshape(stack.shape)


def _from_spectrum(values: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """``U diag(values) U*`` for a basis U, or for each in a stack: values of
    shape (..., n), bases of shape (..., n, n)."""
    return (bases * values[..., None, :]) @ _adjoint(bases)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues plus an orthonormal eigenbasis of a normal operator.

    ``eigenvalues[i]`` belongs to column ``i`` of ``basis``.  Eigenvalues of
    Hermitian operators are real and ascending; eigenvalues of unitary
    operators have unit modulus and ascend by principal phase in (-pi, pi].
    Storage only: the arrays are copied read-only, without checks.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        evs = np.asarray(self.eigenvalues)
        evs = np.array(evs, dtype=np.complex128 if np.iscomplexobj(evs) else np.float64)
        basis = np.array(self.basis, dtype=np.complex128, order="C")
        for name, arr in (("eigenvalues", evs), ("basis", basis)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def projector(self, index: int) -> np.ndarray:
        """Rank-one projector onto the ``index``-th eigenvector."""
        column = self.basis[:, index]
        return np.outer(column, column.conj())

    def reconstruct(self) -> np.ndarray:
        """Rebuild the operator as the eigenvalue-weighted projector sum."""
        return _from_spectrum(self.eigenvalues, self.basis)


class _NormalOperator:
    """A checked square matrix plus its spectral decomposition, computed on
    first access and cached.  Subclasses supply ``_check``."""

    def __init__(self, matrix):
        self._matrix = as_square_complex(matrix)
        self._check(self._matrix)
        self._spectral = None

    @classmethod
    def _trusted(cls, matrix: np.ndarray, eigenvalues=None, basis=None):
        """Wrap a square complex128 matrix that moikit built or checked
        itself, leaving it read-only, with the spectrum it was built from
        attached when given.  Nothing is checked."""
        op = cls.__new__(cls)
        matrix.setflags(write=False)
        op._matrix, op._spectral = matrix, None
        if basis is not None:
            op._spectral = SpectralDecomposition(eigenvalues, basis)
        return op

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def spectral(self) -> SpectralDecomposition | None:
        return self._spectral

    @property
    def decomposition(self) -> SpectralDecomposition:
        """Spectral decomposition, computed on first access and cached."""
        if self._spectral is None:
            self._spectral = spectral_decompose(self)
        return self._spectral

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class HermitianOperator(_NormalOperator):
    """A square complex matrix that is Hermitian to working precision."""

    @staticmethod
    def _check(arr: np.ndarray):
        asym = np.abs(arr - arr.conj().T)
        if asym.max() > HERMITIAN_TOL * max(1.0, _max_abs(arr)):
            idx = tuple(int(i) for i in np.unravel_index(np.argmax(asym), arr.shape))
            raise ValidationError(
                f"matrix is not Hermitian: max asymmetry {asym.max():.3e} at entry {idx}"
            )


class UnitaryOperator(_NormalOperator):
    """A square complex matrix with U*U = I to working precision."""

    @staticmethod
    def _check(arr: np.ndarray):
        """Raise unless ``arr``, or every matrix of a stack, is unitary."""
        departure = _max_abs(_adjoint(arr) @ arr - np.eye(arr.shape[-1]))
        if not departure <= UNITARY_TOL:
            raise ValidationError(
                f"matrix is not unitary: ||U*U - I||_max = {departure:.3e}"
            )


AnyOperator = Union[HermitianOperator, UnitaryOperator]


def _check_reconstruction(
    matrices: np.ndarray, eigenvalues: np.ndarray, bases: np.ndarray
) -> dict[int, NumericalError]:
    """Check spectral data stacked over samples against the matrices it
    decomposes.  A basis that is not orthonormal raises ValidationError; a
    sample whose data does not reconstruct its matrix gets a NumericalError,
    returned by sample index.

    A sample passes when its residual r = max |U diag(l) U* - M| is at most
    RECONSTRUCTION_TOL * max(1, L), where L is a lower bound on ||M||_2 read
    off the eigenvalues, so that no SVD of M is needed::

        L = max|l| (1 - 2 n UNITARY_TOL) - n r.

    Once U has passed its unitarity check, E = U*U - I has
    ||E||_2 <= n ||E||_max <= n UNITARY_TOL, so by Weyl's inequality every
    singular value of U has its square at least 1 - n UNITARY_TOL, and
    ||U diag(l) U*||_2 >= sigma_min(U)^2 max|l| >= (1 - n UNITARY_TOL) max|l|.
    The residual matrix has ||.||_2 <= ||.||_F <= n r, so ||M||_2 is at
    least that bound less n r.  The second n UNITARY_TOL max|l| covers the
    rounding of the computed products and of the unitarity check (of order
    n eps max|l|).  As L <= ||M||_2, the check is never looser than one
    scaled by max(1, ||M||_2).
    """
    UnitaryOperator._check(bases)  # an orthonormal basis is unitary
    residual = np.max(np.abs(_from_spectrum(eigenvalues, bases) - matrices), axis=(-2, -1))
    n = matrices.shape[-1]
    largest = np.max(np.abs(eigenvalues), axis=-1)
    scale = np.maximum(1.0, largest * (1.0 - 2 * n * UNITARY_TOL) - n * residual)
    return {
        int(s): NumericalError(
            f"spectral data does not reconstruct the operator: residual {residual[s]:.3e}"
        )
        for s in np.flatnonzero(residual > RECONSTRUCTION_TOL * scale)
    }


def _hermitian_spectra(matrices: np.ndarray):
    """Ascending eigenvalues and orthonormal eigenbases of a stack of
    Hermitian matrices, in one batched ``eigh``, with the
    :func:`_check_reconstruction` errors by sample index."""
    eigenvalues, bases = np.linalg.eigh(matrices)
    return eigenvalues, bases, _check_reconstruction(matrices, eigenvalues, bases)


def spectral_decompose(op: AnyOperator) -> SpectralDecomposition:
    """Eigenvalues and orthonormal eigenbasis of a Hermitian/unitary operator.

    Hermitian operators use the dense symmetric eigensolver and come back
    sorted ascending.  Unitary operators go through a complex Schur
    decomposition (diagonal for normal input), eigenvalues renormalized onto
    the unit circle and sorted by principal phase in (-pi, pi].

    The Schur decomposition is the one use of scipy in moikit, so scipy is
    imported here, on the first unitary given as a matrix, and never by
    ``import moikit``: sampled unitaries carry their spectra and do not
    reach this branch.
    """
    matrix = op.matrix
    if isinstance(op, HermitianOperator):
        eigenvalues, bases, errors = _hermitian_spectra(matrix[None])
        eigenvalues, basis = eigenvalues[0], bases[0]
    else:
        import scipy.linalg

        schur_t, schur_z = scipy.linalg.schur(matrix, output="complex")
        eigenvalues = np.diag(schur_t).copy()
        moduli = np.abs(eigenvalues)
        if np.any(moduli == 0.0):
            raise NumericalError("Schur decomposition produced a zero eigenvalue")
        eigenvalues = eigenvalues / moduli
        order = np.argsort(np.angle(eigenvalues), kind="stable")
        eigenvalues, basis = eigenvalues[order], schur_z[:, order]
        errors = _check_reconstruction(matrix[None], eigenvalues[None], basis[None])
    if errors:
        raise errors[0]
    return SpectralDecomposition(eigenvalues, basis)


def _function_of_spectra(f, eigenvalues: np.ndarray, bases: np.ndarray, hermitian: bool):
    """``f`` applied through spectra stacked over samples: eigenvalues of
    shape (N, n), bases of shape (N, n, n).

    Returns the eigenvalue images, the matrices ``U diag(f(l)) U*``, the mask
    of samples whose result was hermitized (``hermitian`` input with images
    real to 1e-13), and a FunctionDomainError by sample index wherever an
    image is not finite.
    """
    values = np.asarray(f(eigenvalues), dtype=np.complex128)
    if values.shape != eigenvalues.shape:
        values = np.broadcast_to(values, eigenvalues.shape).astype(np.complex128)
    bad = ~np.isfinite(values)
    errors = {
        int(s): FunctionDomainError(
            "function is not finite at eigenvalue "
            f"{complex(eigenvalues[s, np.argmax(bad[s])])}"
        )
        for s in np.flatnonzero(bad.any(axis=-1))
    }
    result = _from_spectrum(values, bases)
    real = np.zeros(len(values), dtype=bool)
    if hermitian:
        scale = np.maximum(1.0, np.max(np.abs(values), axis=-1))
        real = np.max(np.abs(values.imag), axis=-1) <= 1e-13 * scale
        result = np.where(real[:, None, None], (result + _adjoint(result)) / 2.0, result)
    return values, result, real, errors


def apply_scalar_function(
    f: Callable[[np.ndarray], np.ndarray], op: AnyOperator
) -> HermitianOperator | np.ndarray:
    """Evaluate ``f`` on an operator through its spectral decomposition.

    Returns ``U diag(f(lambda)) U*``.  When the input is Hermitian and the
    eigenvalue images are all real, the result is wrapped as a
    :class:`HermitianOperator`; otherwise the raw matrix is returned.
    """
    decomp = op.decomposition
    values, results, real, errors = _function_of_spectra(
        f, decomp.eigenvalues[None], decomp.basis[None],
        isinstance(op, HermitianOperator),
    )
    if errors:
        raise errors[0]
    if real[0]:
        return HermitianOperator._trusted(results[0], values[0].real, decomp.basis)
    return results[0]


def _stacked_norms(matrices: np.ndarray, p: float = np.inf, skip=None) -> np.ndarray:
    """Per matrix of a stack (N, n, n), the Schatten p-norm from one batched
    SVD; ``p = inf``, the default, is the operator norm.  Where the mask
    ``skip`` (N,) is set, the matrix (which may not be finite) reads 0."""
    if skip is not None:
        matrices = np.where(skip[:, None, None], 0.0, matrices)
    singular = np.linalg.svd(matrices, compute_uv=False)
    if p == np.inf:
        return np.max(singular, axis=-1)
    return np.sum(singular**p, axis=-1) ** (1.0 / p)


def operator_norm(matrix) -> float:
    """Largest singular value (spectral norm)."""
    return float(_stacked_norms(as_square_complex(matrix)[None])[0])


def schatten_norm(matrix, p) -> float:
    """Schatten p-norm: the l^p norm of the singular values.

    ``p = inf`` is :func:`operator_norm`.
    """
    if p != np.inf and p < 1:
        raise ParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
    return float(_stacked_norms(as_square_complex(matrix)[None], p)[0])


# ---------------------------------------------------------------------------
# Random operators: Haar eigenbases plus configurable eigenvalue laws
# ---------------------------------------------------------------------------

_LAW_KINDS = ("uniform", "gaussian", "fixed")


@dataclass(frozen=True)
class RandomOperatorModel:
    """Sampling model: i.i.d. eigenvalues plus an independent Haar basis.

    ``law`` is one of ``("uniform", a, b)``, ``("gaussian", mean, sd)`` or
    ``("fixed", values)``.  ``dim`` is a positive integer and ``seed`` an
    integer in [0, 2**64); booleans are neither.  ``seed`` is checked and
    serialized, but no sampler reads it: every draw comes from a generator
    the caller passes, and the Monte Carlo harness derives its streams from
    the experiment's seed alone.
    """

    dim: int
    law: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(
            self.dim, "model dimension must be a positive integer", "", 1))
        object.__setattr__(self, "seed", _integer(
            self.seed, "seed must be an unsigned 64-bit integer", "", 0, 2**64))
        if not self.law or self.law[0] not in _LAW_KINDS:
            raise ValidationError(f"unknown eigenvalue law {self.law!r}")
        kind = self.law[0]
        if kind == "uniform":
            _, a, b = self.law
            if not a < b:
                raise ValidationError("uniform law requires a < b")
            if not math.isfinite(float(b) - float(a)):
                raise ValidationError("uniform law requires a finite width b - a")
        elif kind == "gaussian":
            _, _, sd = self.law
            if not sd > 0:
                raise ValidationError("gaussian law requires sd > 0")
        else:
            values = tuple(float(v) for v in self.law[1])
            if len(values) != self.dim:
                raise ValidationError(
                    f"fixed law needs exactly {self.dim} values, got {len(values)}"
                )
            object.__setattr__(self, "law", ("fixed", values))

    def draw_eigenvalues(self, rng: np.random.Generator) -> np.ndarray:
        """``dim`` i.i.d. eigenvalues from the law, drawn from ``rng``: the
        same bits as ``rng.uniform(a, b, dim)`` or ``rng.normal(mean, sd,
        dim)``."""
        variates = np.empty((1, self.dim))
        self._draw_variates(rng, variates[0])
        return self._apply_law(variates)[0]

    def _draw_variates(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Draw law variates into ``out``, of shape (dim,) or stacked over
        samples as (N, dim): standard uniforms for the uniform law, standard
        normals for the gaussian law, nothing for the fixed law."""
        kind = self.law[0]
        if kind == "uniform":
            rng.random(out=out)
        elif kind == "gaussian":
            rng.standard_normal(out=out)

    def _apply_law(self, variates: np.ndarray) -> np.ndarray:
        """The eigenvalues that law variates stacked over samples, shape
        (N, dim), give: ``a + (b - a) u``, ``mean + sd z`` or the fixed
        values.  This is the arithmetic ``rng.uniform`` and ``rng.normal``
        apply to the same variates, so the bits are theirs."""
        kind = self.law[0]
        if kind == "uniform":
            a, b = float(self.law[1]), float(self.law[2])
            return a + (b - a) * variates
        if kind == "gaussian":
            return float(self.law[1]) + float(self.law[2]) * variates
        return np.full(variates.shape, self.law[1])


def _draw(model: RandomOperatorModel, rng: np.random.Generator, count: int = 1):
    """``count`` samples' draws for ``model``, in their fixed order: the law
    variates of the eigenvalues (eigenphases for unitaries) of all samples,
    then the real and imaginary Ginibre parts of all samples.  Returns the
    eigenvalues (count, dim) and the normals (count, 2, dim, dim)."""
    variates = np.empty((count, model.dim))
    model._draw_variates(rng, variates)
    normals = rng.standard_normal((count, 2, model.dim, model.dim))
    return model._apply_law(variates), normals


def _haar_bases(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normal pairs stacked over samples, shape
    (N, 2, n, n): complex Ginibre matrix -> batched QR -> column phases fixed
    by the sign of the R diagonal, which makes the factorization unique and
    the law exactly Haar (plain QR of Ginibre is not).  The results are
    not checked: Householder QR gives orthonormal columns to working
    precision."""
    ginibre = (normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _random_spectra(values: np.ndarray, normals: np.ndarray, unitary: bool = False):
    """The spectra of the random operators that draws stacked over samples define.

    ``values`` of shape (N, n) are the eigenvalues, or the eigenphases when
    ``unitary``; ``normals`` of shape (N, 2, n, n) give the Haar bases.
    Returns the eigenvalues sorted stably (ascending, or by principal phase)
    and the bases with their columns in the same order.
    """
    bases = _haar_bases(normals)
    eigenvalues = np.exp(1j * values) if unitary else values
    keys = np.angle(eigenvalues) if unitary else eigenvalues
    order = np.argsort(keys, axis=-1, kind="stable")
    eigenvalues = np.take_along_axis(eigenvalues, order, axis=-1)
    return eigenvalues, np.take_along_axis(bases, order[:, None, :], axis=-1)


def _spectral_matrices(eigenvalues: np.ndarray, bases: np.ndarray, unitary: bool = False):
    """The matrices ``U diag(l) U*`` of spectra stacked over samples,
    hermitized unless ``unitary``."""
    matrices = _from_spectrum(eigenvalues, bases)
    return matrices if unitary else (matrices + _adjoint(matrices)) / 2.0


def sample_haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Draw from the Haar measure on the unitary group U(dim) (see
    :func:`_haar_bases`)."""
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    normals = rng.standard_normal((2, dim, dim))
    return UnitaryOperator._trusted(_haar_bases(normals[None])[0])


def sample_random_hermitian(
    model: RandomOperatorModel, rng: np.random.Generator
) -> HermitianOperator:
    """Sample ``U diag(lambda) U*`` with ``lambda`` i.i.d. from the model law
    and ``U`` Haar, drawn independently (eigenvalues first, then the basis).

    The returned operator carries its spectral decomposition, already sorted.
    """
    eigenvalues, bases = _random_spectra(*_draw(model, rng))
    matrix = _spectral_matrices(eigenvalues, bases)[0]
    return HermitianOperator._trusted(matrix, eigenvalues[0], bases[0])


def sample_random_unitary(
    model: RandomOperatorModel, rng: np.random.Generator
) -> UnitaryOperator:
    """Sample a random unitary as ``U diag(exp(i phi)) U*``: eigenphases drawn
    from the model law (wrapped onto the circle), eigenbasis Haar."""
    eigenvalues, bases = _random_spectra(*_draw(model, rng), True)
    matrix = _spectral_matrices(eigenvalues, bases, True)[0]
    return UnitaryOperator._trusted(matrix, eigenvalues[0], bases[0])


def random_hermitian(
    dim: int, rng: np.random.Generator, *, norm: float | None = None
) -> np.ndarray:
    """A Gaussian Hermitian matrix, optionally rescaled to a given spectral
    norm.  Utility for building perturbations and fixed test inputs."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (raw + raw.conj().T) / 2.0
    if norm is not None:
        current = float(_stacked_norms(herm[None])[0])
        if current > 0:
            herm = herm * (norm / current)
    return herm


def shifted_operator(op: HermitianOperator, delta: np.ndarray) -> HermitianOperator:
    """Hermitian operator ``op + delta``; ``delta`` must be a Hermitian
    matrix of the same dimension."""
    delta = HermitianOperator(delta).matrix
    if delta.shape != op.matrix.shape:
        raise ValidationError(f"shift has dimension {len(delta)}, the operator {op.dim}")
    return _shifted(op, delta)


def _shifted(op: HermitianOperator, delta: np.ndarray) -> HermitianOperator:
    """:func:`shifted_operator` for a Hermitian complex ``delta`` of the
    operator's dimension that moikit checked already; nothing is checked."""
    return HermitianOperator._trusted(_hermitian_sum(op.matrix, delta))


def _hermitian_sum(matrices: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``matrices + delta`` symmetrized to exact Hermitian form; ``matrices``
    may be a stack."""
    shifted = matrices + delta
    return (shifted + _adjoint(shifted)) / 2.0
