"""Hermitian tensors, unfolding, and multiple tensor integrals.

A Hermitian tensor of mode dimensions (I_1..I_N) is a 2N-way array with
conjugate symmetry between its first and last N indices.  Row-major grouping
of those two index blocks is an isomorphism onto Hermitian matrices of size
prod(I); contraction over N common indices becomes the matrix product under
that grouping, so tensor integrals are evaluated by unfolding, running the
matrix engine, and folding back.

Each tensor builds its unfolding once, as a :class:`HermitianOperator` whose
finiteness and Hermitian checks are the tensor's only checks, and keeps it:
the operator's spectral decomposition is computed on first use and cached,
so a tensor is checked once and decomposed at most once over its lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _integer
from .moi import moi_core
from .operators import HermitianOperator


@dataclass(frozen=True)
class HermitianTensor:
    """2N-way complex array, conjugate-symmetric across its two index blocks.

    The entries are a read-only view of the matrix of the tensor's unfolded
    operator (see :func:`unfold`), which is built and checked here.
    """

    mode_dims: tuple[int, ...]
    entries: np.ndarray
    _unfolded: HermitianOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = _mode_dims(self.mode_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError("mode dimensions must be positive")
        unfolded = HermitianOperator(unfold_array(self.entries, dims))
        object.__setattr__(self, "mode_dims", dims)
        object.__setattr__(self, "entries", unfolded.matrix.reshape(dims + dims))
        object.__setattr__(self, "_unfolded", unfolded)


def unfold(tensor: HermitianTensor) -> HermitianOperator:
    """Row-major grouping of the two index blocks into a Hermitian matrix:
    the operator the tensor built and checked when it was made, the same
    object on every call, with its decomposition cached on first use."""
    shared_mode_dims([tensor])
    return tensor._unfolded


def _mode_dims(mode_dims) -> tuple[int, ...]:
    return tuple(_integer(d, "mode dimensions must be integers", "", None)
                 for d in mode_dims)


def unfold_array(entries, mode_dims) -> np.ndarray:
    """Unfold a general (not necessarily Hermitian) 2N-way array."""
    dims = _mode_dims(mode_dims)
    arr = np.asarray(entries, dtype=np.complex128)
    if arr.shape != dims + dims:
        raise ValidationError(f"array shape {arr.shape} does not match modes {dims}")
    p = math.prod(dims)
    return arr.reshape(p, p)


def fold(matrix, mode_dims) -> HermitianTensor:
    """Inverse of :func:`unfold`; exact (a reshape, no arithmetic)."""
    if isinstance(matrix, HermitianOperator):
        matrix = matrix.matrix
    return HermitianTensor(tuple(mode_dims), fold_array(matrix, mode_dims))


def fold_array(matrix, mode_dims) -> np.ndarray:
    """Inverse of :func:`unfold_array`."""
    dims = _mode_dims(mode_dims)
    arr = np.asarray(matrix, dtype=np.complex128)
    p = math.prod(dims)
    if arr.shape != (p, p):
        raise ValidationError(
            f"matrix shape {arr.shape} does not match mode product {p}"
        )
    return arr.reshape(dims + dims)


def shared_mode_dims(tensors) -> tuple[int, ...]:
    """The mode dimensions every tensor in the non-empty list shares; each
    must be a :class:`HermitianTensor`."""
    for i, t in enumerate(tensors):
        if not isinstance(t, HermitianTensor):
            raise ValidationError(
                f"tensor {i} is a {type(t).__name__}, not a HermitianTensor"
            )
        if t.mode_dims != tensors[0].mode_dims:
            raise ValidationError(
                f"tensor {i} has modes {t.mode_dims}, expected {tensors[0].mode_dims}"
            )
    return tensors[0].mode_dims


def mti_evaluate(tensors, integrand, arguments) -> np.ndarray:
    """Multiple tensor integral via unfold -> matrix engine -> fold.

    ``tensors`` are HermitianTensor instances sharing mode dimensions;
    ``arguments`` are 2N-way arrays (or HermitianTensor) of the same modes.
    The N-index contraction between projectors and arguments is the matrix
    product under unfolding, so this equals the matrix evaluation exactly.
    Returns the folded 2N-way array, whether or not it is Hermitian; wrap it
    in :class:`HermitianTensor` to check that it is.
    """
    tensors = list(tensors)
    if not tensors:
        raise ValidationError("at least one tensor is required")
    dims = shared_mode_dims(tensors)
    unfolded_args = [
        unfold_array(arg.entries if isinstance(arg, HermitianTensor) else arg, dims)
        for arg in arguments
    ]
    operators = [unfold(t) for t in tensors]
    return fold_array(moi_core(operators, integrand, unfolded_args), dims)
