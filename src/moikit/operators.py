"""Dense complex operator substrate.

Hermitian and unitary operator types with cached spectral decompositions,
matrix norms, scalar functions of operators, and random-operator sampling
(Haar eigenbases plus configurable eigenvalue laws).

All values are immutable after construction; every operation here is a pure
function.  Random sampling takes an explicit ``numpy.random.Generator``.

One private builder, :func:`_random_spectra`, turns drawn arrays stacked over
samples into sorted spectra and Haar bases (the Q factor of a Ginibre matrix
with a real positive R diagonal, see Mezzadri, Notices AMS 54, 2007: modified
Gram-Schmidt run twice at n <= 4, Householder QR above), and
:func:`_spectral_matrices` builds their matrices; the public samplers are
their batch-of-one calls, and the Monte Carlo harness calls them once per
chunk of samples.  The other private helpers that take stacks
(:func:`_from_spectrum`, :func:`_check_reconstruction`,
:func:`_hermitian_spectra`, :func:`_function_of_spectra`,
:func:`_stacked_norms`, whose operator norms come from one ``eigvalsh`` of
the Gram matrices) likewise serve the public single-operator functions with
a batch of one.

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
    _finite,
    _integer,
    _schatten_exponent,
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
) -> None:
    """Check spectral data stacked over samples against the matrices it
    decomposes.  A basis that is not orthonormal raises ValidationError; data
    that does not reconstruct its matrix raises the NumericalError of the
    first such sample.

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
    failed = residual > RECONSTRUCTION_TOL * scale
    if failed.any():
        raise NumericalError(
            "spectral data does not reconstruct the operator: "
            f"residual {residual[np.argmax(failed)]:.3e}"
        )


def _hermitian_spectra(matrices: np.ndarray):
    """Ascending eigenvalues and orthonormal eigenbases of a stack of
    Hermitian matrices, in one batched ``eigh``, checked by
    :func:`_check_reconstruction`."""
    eigenvalues, bases = np.linalg.eigh(matrices)
    _check_reconstruction(matrices, eigenvalues, bases)
    return eigenvalues, bases


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
        eigenvalues, bases = _hermitian_spectra(matrix[None])
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
        _check_reconstruction(matrix[None], eigenvalues[None], basis[None])
    return SpectralDecomposition(eigenvalues, basis)


def _function_of_spectra(f, eigenvalues: np.ndarray, bases: np.ndarray, hermitian: bool):
    """``f`` applied through spectra stacked over samples: eigenvalues of
    shape (N, n), bases of shape (N, n, n).

    Returns the eigenvalue images, the matrices ``U diag(f(l)) U*`` and the
    mask of samples whose result was hermitized (``hermitian`` input with
    images real to 1e-13).  Raises the FunctionDomainError of the first
    sample with an image that is not finite.
    """
    values = np.asarray(f(eigenvalues), dtype=np.complex128)
    if values.shape != eigenvalues.shape:
        values = np.broadcast_to(values, eigenvalues.shape).astype(np.complex128)
    bad = ~np.isfinite(values)
    if bad.any():
        s = np.argmax(bad.any(axis=-1))
        value = complex(eigenvalues[s, np.argmax(bad[s])])
        raise FunctionDomainError(f"function is not finite at eigenvalue {value}")
    result = _from_spectrum(values, bases)
    real = np.zeros(len(values), dtype=bool)
    if hermitian:
        scale = np.maximum(1.0, np.max(np.abs(values), axis=-1))
        real = np.max(np.abs(values.imag), axis=-1) <= 1e-13 * scale
        result = np.where(real[:, None, None], (result + _adjoint(result)) / 2.0, result)
    return values, result, real


def apply_scalar_function(
    f: Callable[[np.ndarray], np.ndarray], op: AnyOperator
) -> HermitianOperator | np.ndarray:
    """Evaluate ``f`` on an operator through its spectral decomposition.

    Returns ``U diag(f(lambda)) U*``.  When the input is Hermitian and the
    eigenvalue images are all real, the result is wrapped as a
    :class:`HermitianOperator`; otherwise the raw matrix is returned.
    """
    decomp = op.decomposition
    values, results, real = _function_of_spectra(
        f, decomp.eigenvalues[None], decomp.basis[None],
        isinstance(op, HermitianOperator),
    )
    if real[0]:
        return HermitianOperator._trusted(results[0], values[0].real, decomp.basis)
    return results[0]


def _stacked_norms(matrices: np.ndarray, p: float = np.inf) -> np.ndarray:
    """Per matrix of a stack (N, n, n), the Schatten p-norm; ``p = inf``, the
    default, is the operator norm.

    The operator norm is sqrt(lambda_max(M* M)), from one batched ``eigvalsh``
    of the Gram matrices, which is cheaper than an SVD per matrix.  Each
    matrix is first scaled by the power of two 2^-e that brings its largest
    real or imaginary part into [1/2, 1): the scaling is exact, the Gram
    matrix neither overflows nor underflows, and unless the matrix is zero
    its largest eigenvalue is at least 1/4, so the norm 2^e sqrt(lambda_max)
    keeps its relative accuracy.  A matrix with an entry that is not finite has norm NaN and
    never reaches ``eigvalsh``.  Finite p takes the SVD: the small singular
    values lose their relative accuracy in a Gram matrix.
    """
    if p != np.inf:
        singular = np.linalg.svd(matrices, compute_uv=False)
        return np.sum(singular**p, axis=-1) ** (1.0 / p)
    parts = np.ascontiguousarray(matrices, dtype=np.complex128).view(np.float64)
    largest = np.abs(parts).max(axis=(-2, -1))
    if not np.isfinite(largest).all():
        finite = np.isfinite(largest)
        norms = np.full(len(largest), np.nan)
        norms[finite] = _stacked_norms(matrices[finite])
        return norms
    exponent = np.frexp(largest)[1]
    scaled = np.ldexp(parts, -exponent[:, None, None]).view(np.complex128)
    top = np.linalg.eigvalsh(_adjoint(scaled) @ scaled)[:, -1]
    return np.ldexp(np.sqrt(top), exponent)


def operator_norm(matrix) -> float:
    """Largest singular value (spectral norm)."""
    return float(_stacked_norms(as_square_complex(matrix)[None])[0])


def schatten_norm(matrix, p) -> float:
    """Schatten p-norm: the l^p norm of the singular values.

    ``p = inf`` is :func:`operator_norm`.
    """
    p = _schatten_exponent(p)
    return float(_stacked_norms(as_square_complex(matrix)[None], p)[0])


# ---------------------------------------------------------------------------
# Random operators: Haar eigenbases plus configurable eigenvalue laws
# ---------------------------------------------------------------------------

# each eigenvalue law's kind and the names of the parameters it takes
_LAW_KINDS = {"uniform": ("a", "b"), "gaussian": ("mean", "sd"), "fixed": ("values",)}


@dataclass(frozen=True)
class RandomOperatorModel:
    """Sampling model: i.i.d. eigenvalues plus an independent Haar basis.

    ``law`` is one of ``("uniform", a, b)``, ``("gaussian", mean, sd)`` or
    ``("fixed", values)``, every parameter a finite number, stored as a
    float.  ``dim`` is a positive integer, not a boolean.
    A model holds no seed: every draw comes from a generator the caller
    passes, and the Monte Carlo harness derives its streams from the
    experiment's seed.
    """

    dim: int
    law: tuple

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(
            self.dim, "model dimension must be a positive integer", "", 1))
        # searched as a tuple, so that a kind that is not hashable is unknown
        if not self.law or self.law[0] not in tuple(_LAW_KINDS):
            raise ValidationError(f"unknown eigenvalue law {self.law!r}")
        kind, params = self.law[0], _LAW_KINDS[self.law[0]]
        if len(self.law) != 1 + len(params):
            raise ValidationError(f"{kind} law takes the parameters ({', '.join(params)}), "
                                  f"got {len(self.law) - 1}")
        message = f"{kind} law parameters must be finite numbers"
        if kind == "fixed":
            law = ("fixed", tuple(_finite(v, message) for v in self.law[1]))
            if len(law[1]) != self.dim:
                raise ValidationError(
                    f"fixed law needs exactly {self.dim} values, got {len(law[1])}"
                )
        else:
            law = (kind, *(_finite(v, message) for v in self.law[1:]))
            _, a, b = law
            if kind == "gaussian" and not b > 0:
                raise ValidationError("gaussian law requires sd > 0")
            if kind == "uniform" and not a < b:
                raise ValidationError("uniform law requires a < b")
            if kind == "uniform" and not math.isfinite(b - a):
                raise ValidationError("uniform law requires a finite width b - a")
        object.__setattr__(self, "law", law)


def _draw(model: RandomOperatorModel, rng: np.random.Generator, count: int = 1):
    """``count`` samples' draws for ``model``, in their fixed order: the law
    variates of the eigenvalues (eigenphases for unitaries) of all samples,
    then the real and imaginary Ginibre parts of all samples.  Returns the
    eigenvalues (count, dim) and the normals (count, 2, dim, dim).

    The eigenvalues are ``a + (b - a) u`` of standard uniforms u, ``mean +
    sd z`` of standard normals z, or the fixed values (which draw nothing):
    the arithmetic ``rng.uniform`` and ``rng.normal`` apply to the same
    variates, so the bits are theirs."""
    kind, *params = model.law
    shape = (count, model.dim)
    if kind == "uniform":
        a, b = params
        eigenvalues = a + (b - a) * rng.random(shape)
    elif kind == "gaussian":
        mean, sd = params
        eigenvalues = mean + sd * rng.standard_normal(shape)
    else:
        eigenvalues = np.full(shape, params[0])
    return eigenvalues, rng.standard_normal((count, 2, model.dim, model.dim))


def _haar_bases(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normal pairs stacked over samples, shape
    (N, 2, n, n): the Q factor of the complex Ginibre matrix with a real
    positive R diagonal, which makes the factorization unique and the law
    exactly Haar (plain QR of Ginibre is not; Mezzadri, Notices AMS 54,
    2007).  At n <= 4 it comes from :func:`_gram_schmidt_bases`, above from
    a batched Householder QR with the column phases fixed by the R diagonal.
    Neither result is checked: both give orthonormal columns to working
    precision."""
    ginibre = (normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0)
    if ginibre.shape[-1] <= _GRAM_SCHMIDT_DIM:
        return _gram_schmidt_bases(ginibre)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


# The largest n whose Haar bases come from Gram-Schmidt.  Microseconds per
# stack, Householder QR with its phase fix / Gram-Schmidt run twice (2-core
# x86-64 host, numpy 2.4 on OpenBLAS, one thread, best of 7):
#
#     stack           n = 3      n = 4      n = 5      n = 8
#     1000 matrices   1323/491   1971/1095  2821/1987  6517/5950
#     256 matrices    320/162    443/287    577/487    1169/1370
#     1 matrix        28/45      29/70      29/103     33/238
#
# The harness stacks whole blocks of 256 samples, the public samplers one.
# The choice reads n alone: a sample's bits may not depend on its stack.
_GRAM_SCHMIDT_DIM = 4


def _gram_schmidt_bases(ginibre: np.ndarray) -> np.ndarray:
    """The Q factors of a stack (N, n, n) by modified Gram-Schmidt run twice
    per column ("twice is enough": Giraud, Langou and Rozloznik, Comput.
    Math. Appl. 50, 2005), each column divided by its norm, so that R has a
    real positive diagonal.

    Only elementwise products and sums over each column's n rows touch the
    stack, so every matrix gets the bits it gets alone."""
    basis, conjugates = [], []
    for column in ginibre.transpose(2, 0, 1).copy():  # column j of each matrix, (N, n)
        for _ in range(2):
            for q, q_conj in zip(basis, conjugates):
                column -= q * (q_conj * column).sum(axis=-1, keepdims=True)
        parts = column.view(np.float64)
        parts /= np.sqrt((parts * parts).sum(axis=-1, keepdims=True))
        basis.append(column)
        conjugates.append(column.conj())
    return np.stack(basis, axis=-1)


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
    return _shifted(op, _checked_shift(op, delta))


def _checked_shift(op: HermitianOperator, delta) -> np.ndarray:
    """``delta`` as a complex matrix checked to be Hermitian of ``op``'s dimension."""
    delta = HermitianOperator(delta).matrix
    if delta.shape != op.matrix.shape:
        raise ValidationError(f"shift has dimension {len(delta)}, the operator {op.dim}")
    return delta


def _shifted(op: HermitianOperator, delta: np.ndarray) -> HermitianOperator:
    """:func:`shifted_operator` for a Hermitian complex ``delta`` of the
    operator's dimension that moikit checked already; nothing is checked."""
    return HermitianOperator._trusted(_hermitian_sum(op.matrix, delta))


def _hermitian_sum(matrices: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``matrices + delta`` symmetrized to exact Hermitian form; ``matrices``
    may be a stack."""
    shifted = matrices + delta
    return (shifted + _adjoint(shifted)) / 2.0
