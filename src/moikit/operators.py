"""Dense complex operator substrate.

Hermitian and unitary operator types with cached spectral decompositions,
matrix norms, scalar functions of operators, and random-operator sampling
(Haar eigenbases plus configurable eigenvalue laws).

All values are immutable after construction; every operation here is a pure
function.  Random sampling takes an explicit ``numpy.random.Generator``.

Trust boundary: constructors and parsers check their input, and
:func:`spectral_decompose` checks what LAPACK returns.  Operators that moikit
builds from checked inputs (samplers, :func:`apply_scalar_function`,
:func:`shifted_operator`, ``tensors.unfold``) are not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.linalg

from .errors import (
    FunctionDomainError,
    NumericalError,
    ParameterError,
    ValidationError,
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
        return (self.basis * np.asarray(self.eigenvalues)) @ self.basis.conj().T


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
        departure = _max_abs(arr.conj().T @ arr - np.eye(arr.shape[0]))
        if departure > UNITARY_TOL:
            raise ValidationError(
                f"matrix is not unitary: ||U*U - I||_max = {departure:.3e}"
            )


AnyOperator = Union[HermitianOperator, UnitaryOperator]


def _check_reconstruction(matrix: np.ndarray, spectral: SpectralDecomposition):
    UnitaryOperator._check(spectral.basis)  # an orthonormal basis is unitary
    residual = _max_abs(spectral.reconstruct() - matrix)
    scale = max(1.0, float(np.linalg.norm(matrix, 2)))
    if residual > RECONSTRUCTION_TOL * scale:
        raise NumericalError(
            f"spectral data does not reconstruct the operator: residual {residual:.3e}"
        )


def spectral_decompose(op: AnyOperator) -> SpectralDecomposition:
    """Eigenvalues and orthonormal eigenbasis of a Hermitian/unitary operator.

    Hermitian operators use the dense symmetric eigensolver and come back
    sorted ascending.  Unitary operators go through a complex Schur
    decomposition (diagonal for normal input), eigenvalues renormalized onto
    the unit circle and sorted by principal phase in (-pi, pi].
    """
    matrix = op.matrix
    if isinstance(op, HermitianOperator):
        decomp = SpectralDecomposition(*np.linalg.eigh(matrix))
    else:
        schur_t, schur_z = scipy.linalg.schur(matrix, output="complex")
        eigenvalues = np.diag(schur_t).copy()
        moduli = np.abs(eigenvalues)
        if np.any(moduli == 0.0):
            raise NumericalError("Schur decomposition produced a zero eigenvalue")
        eigenvalues = eigenvalues / moduli
        order = np.argsort(np.angle(eigenvalues), kind="stable")
        decomp = SpectralDecomposition(eigenvalues[order], schur_z[:, order])
    _check_reconstruction(matrix, decomp)
    return decomp


def apply_scalar_function(
    f: Callable[[np.ndarray], np.ndarray], op: AnyOperator
) -> HermitianOperator | np.ndarray:
    """Evaluate ``f`` on an operator through its spectral decomposition.

    Returns ``U diag(f(lambda)) U*``.  When the input is Hermitian and the
    eigenvalue images are all real, the result is wrapped as a
    :class:`HermitianOperator`; otherwise the raw matrix is returned.
    """
    decomp = op.decomposition
    values = np.asarray(f(decomp.eigenvalues), dtype=np.complex128)
    if values.shape != decomp.eigenvalues.shape:
        values = np.broadcast_to(values, decomp.eigenvalues.shape).astype(np.complex128)
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = int(np.argmax(bad))
        raise FunctionDomainError(
            f"function is not finite at eigenvalue {complex(decomp.eigenvalues[where])}"
        )
    result = (decomp.basis * values) @ decomp.basis.conj().T
    if isinstance(op, HermitianOperator) and _max_abs(values.imag) <= 1e-13 * max(
        1.0, _max_abs(values)
    ):
        hermitized = (result + result.conj().T) / 2.0
        return HermitianOperator._trusted(hermitized, values.real, decomp.basis)
    return result


def operator_norm(matrix) -> float:
    """Largest singular value (spectral norm)."""
    arr = as_square_complex(matrix)
    return float(np.linalg.norm(arr, 2))


def schatten_norm(matrix, p) -> float:
    """Schatten p-norm: the l^p norm of the singular values.

    ``p = inf`` coincides with :func:`operator_norm` on the computed
    singular values.
    """
    if p != np.inf and p < 1:
        raise ParameterError(f"Schatten exponent must satisfy p >= 1, got {p}")
    arr = as_square_complex(matrix)
    singular = scipy.linalg.svdvals(arr)
    if p == np.inf:
        return float(singular[0]) if singular.size else 0.0
    return float(np.sum(singular**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Random operators: Haar eigenbases plus configurable eigenvalue laws
# ---------------------------------------------------------------------------

_LAW_KINDS = ("uniform", "gaussian", "fixed")


@dataclass(frozen=True)
class RandomOperatorModel:
    """Sampling model: i.i.d. eigenvalues plus an independent Haar basis.

    ``law`` is one of ``("uniform", a, b)``, ``("gaussian", mean, sd)`` or
    ``("fixed", values)``.
    """

    dim: int
    law: tuple
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("model dimension must be positive")
        if not self.law or self.law[0] not in _LAW_KINDS:
            raise ValidationError(f"unknown eigenvalue law {self.law!r}")
        kind = self.law[0]
        if kind == "uniform":
            _, a, b = self.law
            if not a < b:
                raise ValidationError("uniform law requires a < b")
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
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")

    def draw_eigenvalues(self, rng: np.random.Generator) -> np.ndarray:
        kind = self.law[0]
        if kind == "uniform":
            return rng.uniform(self.law[1], self.law[2], size=self.dim)
        if kind == "gaussian":
            return rng.normal(self.law[1], self.law[2], size=self.dim)
        return np.array(self.law[1], dtype=float)


def sample_haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryOperator:
    """Draw from the Haar measure on the unitary group U(dim).

    Complex Ginibre matrix -> QR -> column phases fixed by the sign of the
    R diagonal, which makes the factorization unique and the law exactly
    Haar (plain QR of Ginibre is not).
    """
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    ginibre = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return UnitaryOperator(q * phases)


def sample_random_hermitian(
    model: RandomOperatorModel, rng: np.random.Generator
) -> HermitianOperator:
    """Sample ``U diag(lambda) U*`` with ``lambda`` i.i.d. from the model law
    and ``U`` Haar, drawn independently (eigenvalues first, then the basis).

    The returned operator carries its spectral decomposition, already sorted.
    """
    eigenvalues = model.draw_eigenvalues(rng)
    haar = sample_haar_unitary(model.dim, rng)
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    basis = haar.matrix[:, order]
    matrix = (basis * eigenvalues) @ basis.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    return HermitianOperator._trusted(matrix, eigenvalues, basis)


def sample_random_unitary(
    model: RandomOperatorModel, rng: np.random.Generator
) -> UnitaryOperator:
    """Sample a random unitary as ``U diag(exp(i phi)) U*``: eigenphases drawn
    from the model law (wrapped onto the circle), eigenbasis Haar."""
    phases = model.draw_eigenvalues(rng)
    haar = sample_haar_unitary(model.dim, rng)
    eigenvalues = np.exp(1j * phases)
    order = np.argsort(np.angle(eigenvalues), kind="stable")
    eigenvalues = eigenvalues[order]
    basis = haar.matrix[:, order]
    matrix = (basis * eigenvalues) @ basis.conj().T
    return UnitaryOperator._trusted(matrix, eigenvalues, basis)


def random_hermitian(
    dim: int, rng: np.random.Generator, *, norm: float | None = None
) -> np.ndarray:
    """A Gaussian Hermitian matrix, optionally rescaled to a given spectral
    norm.  Utility for building perturbations and fixed test inputs."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (raw + raw.conj().T) / 2.0
    if norm is not None:
        current = float(np.linalg.norm(herm, 2))
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
    shifted = op.matrix + delta
    shifted = (shifted + shifted.conj().T) / 2.0
    return HermitianOperator._trusted(shifted)


def _spectra_union(operators, *eigenvalues) -> np.ndarray:
    """``eigenvalues`` followed by every operator's eigenvalues, in one array."""
    return np.concatenate(
        [*eigenvalues, *(op.decomposition.eigenvalues for op in operators)]
    )
