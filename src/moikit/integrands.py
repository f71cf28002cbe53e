"""Scalar integrand functions and their multivariate combinations.

Covers scalar functions with derivative access (polynomials, callables with
supplied derivatives, plain callables with numerical differentiation),
divided differences with confluent-node handling, separable (rank-one-sum)
representations of multivariate integrands, and the computable projective
norm surrogate used by every certified bound in the package.

Every divided difference is read from one recursive table over a sorted
array of distinct nodes (:func:`_union_table`), whose level l holds f^[l] on
non-decreasing index tuples, each entry built from the two entries of level
l - 1 that it spans, or f^(l)/l! where its ends are equal.  Each tuple is
snapped first (:func:`_snapped_nodes`, which merges clustered nodes), and
then is a sorted tuple of indices into the nodes it snaps to.  The grid of a
non-polynomial divided-difference integrand (:func:`_divided_difference_grid`)
evaluates each distinct sorted tuple of indices into the union of the axes
once: on equal axes the multisets of the axis's nodes, listed by rank, else
those the ranks of the points find; :func:`divided_difference` is a stack of
one tuple.  Every value has the bits of the scalar recursion, but for the
sign and payload of a NaN.

A separable integrand evaluates the polynomial factors of each slot
together, by one Horner pass over a zero-padded coefficient table
(:class:`_FactorTable`), with the bits of each factor's own ``polyval``.

The sup surrogate (:func:`sup_norm_on_grid`, and :func:`_sup_norms` on
spectra stacked over samples) has the bits of ``max |eval_grid|`` without
keeping a stacked grid: a one-term integrand with real values takes the
ordered product of its per-slot maxima, exact because rounding to nearest
is monotone and symmetric in sign, and any other separable integrand is
summed in blocks of samples that fit in a core's L2 cache, each reduced to
its per-sample maxima at once.  A non-polynomial divided difference on equal
axes builds no grid: its sup is the max over its multisets' values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import CapabilityError, ParameterError, ValidationError

_MACHINE_EPS = float(np.finfo(float).eps)

POLYNOMIAL = "polynomial"
CALLABLE_WITH_DERIVATIVES = "callable_with_derivatives"
CALLABLE_ONLY = "callable_only"

MAX_NUMERIC_DERIVATIVE_ORDER = 3


def _central_difference(fn, x, order: int, h: float):
    if order == 1:
        return (fn(x + h) - fn(x - h)) / (2.0 * h)
    if order == 2:
        return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / h**2
    # order == 3
    return (fn(x + 2 * h) - 2.0 * fn(x + h) + 2.0 * fn(x - h) - fn(x - 2 * h)) / (
        2.0 * h**3
    )


def _richardson_derivative(fn, x, order: int):
    # Step balances the O(h^2) truncation of the central stencil against the
    # eps / h^order roundoff floor; two extrapolation levels on top.
    h = _MACHINE_EPS ** (1.0 / (order + 2)) * max(1.0, abs(x))
    d0 = _central_difference(fn, x, order, h)
    d1 = _central_difference(fn, x, order, h / 2.0)
    d2 = _central_difference(fn, x, order, h / 4.0)
    r0 = (4.0 * d1 - d0) / 3.0
    r1 = (4.0 * d2 - d1) / 3.0
    return (16.0 * r1 - r0) / 15.0


class ScalarFunction:
    """A scalar function of one variable with declared derivative access.

    Three kinds:

    * ``polynomial`` -- coefficients ascending by degree; derivatives of every
      order are exact.
    * ``callable_with_derivatives`` -- a value function plus derivative
      functions up to some order.
    * ``callable_only`` -- a bare value function; derivatives up to order 3
      come from Richardson-extrapolated central differences, higher orders
      raise :class:`CapabilityError`.
    """

    def __init__(
        self,
        kind: str,
        *,
        coefficients=None,
        value_fn: Callable | None = None,
        derivative_fns: Sequence[Callable] = (),
        domain_note: str = "",
    ):
        self.kind = kind
        self.domain_note = domain_note
        if kind == POLYNOMIAL:
            coeffs = np.atleast_1d(np.asarray(coefficients))
            if coeffs.ndim != 1 or coeffs.size == 0:
                raise ValidationError("polynomial needs a non-empty coefficient list")
            if not np.all(np.isfinite(coeffs)):
                raise ValidationError("polynomial coefficients must be finite")
            self.coefficients = np.array(
                coeffs,
                dtype=np.complex128 if np.iscomplexobj(coeffs) else np.float64,
            )
            self.coefficients.setflags(write=False)
            self.value_fn = None
            self.derivative_fns = ()
        elif kind in (CALLABLE_WITH_DERIVATIVES, CALLABLE_ONLY):
            if value_fn is None:
                raise ValidationError(f"{kind} needs a value function")
            self.coefficients = None
            self.value_fn = value_fn
            self.derivative_fns = tuple(derivative_fns)
            if kind == CALLABLE_ONLY and self.derivative_fns:
                raise ValidationError("callable_only takes no derivative functions")
        else:
            raise ValidationError(f"unknown scalar-function kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, coefficients, domain_note: str = "") -> "ScalarFunction":
        return cls(POLYNOMIAL, coefficients=coefficients, domain_note=domain_note)

    @classmethod
    def monomial(cls, degree: int, coefficient=1.0) -> "ScalarFunction":
        coeffs = np.zeros(degree + 1, dtype=np.result_type(type(coefficient), float))
        coeffs[degree] = coefficient
        return cls.polynomial(coeffs)

    @classmethod
    def constant(cls, value=1.0) -> "ScalarFunction":
        return cls.polynomial([value])

    @classmethod
    def from_callable(
        cls, value_fn, derivatives: Sequence[Callable] = (), domain_note: str = ""
    ) -> "ScalarFunction":
        kind = CALLABLE_WITH_DERIVATIVES if derivatives else CALLABLE_ONLY
        return cls(
            kind,
            value_fn=value_fn,
            derivative_fns=derivatives,
            domain_note=domain_note,
        )

    # -- evaluation --------------------------------------------------------

    @property
    def degree(self) -> int | None:
        if self.kind != POLYNOMIAL:
            return None
        nonzero = np.nonzero(self.coefficients)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    def __call__(self, x):
        if self.kind == POLYNOMIAL:
            return npoly.polyval(x, self.coefficients)
        arr = np.asarray(x)
        if arr.ndim == 0:
            return self.value_fn(arr[()])
        return np.vectorize(self.value_fn, otypes=[np.complex128])(arr)

    @property
    def derivative_order_available(self) -> float:
        if self.kind == POLYNOMIAL:
            return math.inf
        if self.kind == CALLABLE_WITH_DERIVATIVES:
            return len(self.derivative_fns)
        return MAX_NUMERIC_DERIVATIVE_ORDER

    def derivative(self, x, order: int = 1):
        """Value of the ``order``-th derivative at ``x``."""
        if order < 0:
            raise ParameterError("derivative order must be nonnegative")
        if order == 0:
            return self(x)
        if order > self.derivative_order_available:
            raise CapabilityError(
                f"derivative order {order} unavailable for {self.kind} "
                f"(available: {self.derivative_order_available})"
            )
        if self.kind == POLYNOMIAL:
            return npoly.polyval(x, npoly.polyder(self.coefficients, order))
        if self.kind == CALLABLE_WITH_DERIVATIVES:
            return self.derivative_fns[order - 1](x)
        return _richardson_derivative(self.value_fn, x, order)

    def scaled(self, factor) -> "ScalarFunction":
        """The function multiplied by a scalar."""
        if self.kind == POLYNOMIAL:
            return ScalarFunction.polynomial(self.coefficients * factor)
        fn = self.value_fn
        scaled_value = lambda x, _f=fn, _c=factor: _c * _f(x)  # noqa: E731
        scaled_derivs = tuple(
            (lambda x, _g=g, _c=factor: _c * _g(x)) for g in self.derivative_fns
        )
        return ScalarFunction(
            self.kind,
            value_fn=scaled_value,
            derivative_fns=scaled_derivs,
            domain_note=self.domain_note,
        )

    def __repr__(self):
        if self.kind == POLYNOMIAL:
            return f"ScalarFunction.polynomial({list(self.coefficients)})"
        return f"ScalarFunction({self.kind})"


def add_scalar_functions(a: ScalarFunction, b: ScalarFunction) -> ScalarFunction:
    """Pointwise sum; stays a polynomial when both inputs are polynomials."""
    if a.kind == POLYNOMIAL and b.kind == POLYNOMIAL:
        return ScalarFunction.polynomial(
            npoly.polyadd(a.coefficients, b.coefficients)
        )
    available = int(min(a.derivative_order_available, b.derivative_order_available))
    value = lambda x, _a=a, _b=b: _a(x) + _b(x)  # noqa: E731
    derivs = tuple(
        (lambda x, _a=a, _b=b, _o=o: _a.derivative(x, _o) + _b.derivative(x, _o))
        for o in range(1, available + 1)
    )
    return ScalarFunction.from_callable(value, derivs)


# ---------------------------------------------------------------------------
# Divided differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DividedDifferenceSpec:
    """Order-n divided difference of ``f`` at ``order + 1`` nodes.

    Nodes clustered within :attr:`tolerance` are merged and evaluated
    through derivatives (the Hermite limit), which is the unique continuous
    extension of the difference-quotient recursion.
    """

    f: ScalarFunction
    order: int
    nodes: tuple

    def __post_init__(self):
        if self.order < 0:
            raise ValidationError("divided-difference order must be nonnegative")
        nodes = tuple(complex(z) if np.iscomplexobj(np.asarray(self.nodes)) else float(z)
                      for z in self.nodes)
        if len(nodes) != self.order + 1:
            raise ValidationError(
                f"order {self.order} needs {self.order + 1} nodes, got {len(nodes)}"
            )
        object.__setattr__(self, "nodes", nodes)

    @property
    def tolerance(self) -> float:
        """Merge radius: 1e-7 relative to the largest node, at least 1e-7."""
        return float(self._merge_radius(np.array([self.nodes]))[0])

    @staticmethod
    def _merge_radius(nodes: np.ndarray) -> np.ndarray:
        """:attr:`tolerance` of each row of a (P, k+1) stack of node tuples."""
        return 1e-7 * np.maximum(1.0, _modulus(nodes).max(axis=-1))


# Bytes an intermediate array of a divided-difference grid may take when it
# outgrows the grid itself: the (P, k+1, k+1) node differences of the tuples
# snapped at a time, the index arrays that the levels of the table over the
# nodes holding every tuple keep, summed over those levels (see
# :func:`_union_levels_fit`), and the arrays over the ranks of a grid's
# tuples while the ranks number at most the grid's points or the complex
# values in this many bytes (see :func:`_distinct_tuples`).
_GRID_CHUNK_BYTES = 32 * 2**20


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| with the bits of Python's ``abs`` (numpy's complex ``abs`` on
    arrays may differ from it in the last place; ``hypot`` does not)."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _snapped_nodes(nodes: np.ndarray) -> np.ndarray:
    """Each row of ``nodes`` sorted by (real, imag), with every cluster of
    nodes joined by steps within the row's merge radius replaced by its
    mean, summed left to right over the sorted members; sorted again."""
    nodes = np.sort(nodes, axis=1)
    width = nodes.shape[1]
    radius = DividedDifferenceSpec._merge_radius(nodes)
    near = _modulus(nodes[:, :, None] - nodes[:, None, :]) <= radius[:, None, None]
    snapped = nodes + 0.0  # a node that merges with none is its own mean, 0 + z
    merging = np.flatnonzero(np.count_nonzero(near, axis=(1, 2)) > width)
    if merging.size:
        snapped[merging] = np.sort(_cluster_means(nodes[merging], near[merging]), axis=1)
    return snapped


def _cluster_means(nodes: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Each node replaced by the mean of its cluster: the connected
    component of the ``near`` graph over its row."""
    width = nodes.shape[1]
    # label propagation: every node takes the least label among itself and
    # its neighbours until the labels settle, one per cluster (a node that
    # is not finite is not near itself, and without its own label two such
    # nodes near each other could swap labels forever)
    labels = np.broadcast_to(np.arange(width), nodes.shape)
    while True:
        settled = np.minimum(labels, np.where(near, labels[:, None, :], width).min(axis=2))
        if np.array_equal(settled, labels):
            break
        labels = settled
    member = labels[:, :, None] == labels[:, None, :]
    total = np.zeros_like(nodes)
    for j in range(width):
        total += np.where(member[:, :, j], nodes[:, j, None], 0.0)
    return _by_parts(total, member.sum(axis=2))


def _by_parts(total: np.ndarray, count) -> np.ndarray:
    """``total / count`` component-wise, as Python's complex / int is:
    numpy's complex division by a count can differ from it in the last
    place."""
    if not np.iscomplexobj(total):
        return total / count
    mean = np.empty_like(total)
    mean.real = total.real / count
    mean.imag = total.imag / count
    return mean


def _derivative_fn(f: ScalarFunction, level: int) -> Callable:
    """``f^(level) / level!`` as a function of one node (``f`` at level 0):
    the entry of the divided-difference table at a window of ``level + 1``
    equal nodes."""
    if level == 0:
        return f
    return lambda z: f.derivative(z, level) / math.factorial(level)


def _is_complex(value) -> bool:
    """``np.iscomplexobj(value)``, without its cost for a real float."""
    return not isinstance(value, float) and np.iscomplexobj(value)


def _column(values: list, index, typed: bool):
    """The values at ``index``, real, or complex when ``typed``; then also,
    for each, whether it is complex and whether it is of Python type (not a
    numpy scalar or array), since the scalar recursion divided each kind its
    own way (see :func:`_quotient`)."""
    if not typed:
        return np.array(values, dtype=np.float64)[index], None
    kind = np.array(
        [(_is_complex(v), not isinstance(v, (np.generic, np.ndarray))) for v in values],
        dtype=bool,
    ).reshape(-1, 2)
    return np.array(values, dtype=np.complex128)[index], kind[index]


def _quotient(numerator: np.ndarray, step: np.ndarray, kind: np.ndarray | None) -> np.ndarray:
    """``numerator / step`` entry by entry, as the scalar recursion divided.
    ``kind`` is None for a real table, else ``kind[..., 0]`` marks complex
    quotients and ``kind[..., 1]`` numerators of Python type.  Real
    quotients are true divisions, complex ones of numpy numerators numpy's
    division, and complex ones of Python numerators CPython's, which divides
    where numpy multiplies by a reciprocal."""
    quotient = numerator / step
    if kind is None:
        return quotient
    real = ~kind[..., 0]
    if real.any():
        quotient[real] = numerator[real].real / step[real].real
    python = kind[..., 0] & kind[..., 1]
    if python.any():
        a, b = numerator[python], step[python].astype(np.complex128)
        wide = np.abs(b.real) >= np.abs(b.imag)
        ratio = np.where(wide, b.imag / b.real, b.real / b.imag)
        denominator = np.where(wide, b.real + b.imag * ratio, b.real * ratio + b.imag)
        exact = np.empty_like(a)
        exact.real = np.where(wide, a.real + a.imag * ratio, a.real * ratio + a.imag)
        exact.imag = np.where(wide, a.imag - a.real * ratio, a.imag * ratio - a.real)
        exact.real /= denominator
        exact.imag /= denominator
        quotient[python] = exact
    return quotient


def _divided_differences(f: ScalarFunction, nodes: np.ndarray):
    """``f^[k]`` at each row of a (P, k+1) stack of node tuples (float64, or
    complex128 for complex nodes), and whether each value is complex: every
    row snapped (see :func:`_snapped_nodes`), then read as sorted indices
    into the distinct snapped nodes from the table over them (see
    :func:`_union_table`)."""
    snapped = _snapped_nodes(nodes)
    union, inverse = np.unique(snapped, return_inverse=True, equal_nan=False)
    # sorted again, since values that sort as equal (NaN) need not keep order
    tuples = list(np.sort(inverse.reshape(snapped.shape), axis=1).T)
    return _union_table(f, union, tuples, np.arange(len(nodes)))


def divided_difference(spec: DividedDifferenceSpec):
    """Evaluate the divided difference by the standard recursive table.

    Separated nodes use the difference-quotient recursion; any run of
    coincident nodes of length r+1 contributes ``f^(r)(z) / r!``.  The result
    is symmetric in node order (nodes are sorted internally), with the bits
    of the scalar recursion except the sign and payload of a NaN result
    (sorting writes every NaN node back as +NaN).
    """
    values, is_complex = _divided_differences(spec.f, np.array([spec.nodes]))
    return values[0] if is_complex[0] else values[0].real


def _divided_difference_grid(
    f: ScalarFunction, order: int, axes: Sequence[np.ndarray]
) -> np.ndarray:
    """The grid of ``f^[order]`` on the Cartesian product of the axes: each
    point takes the value of its tuple (see :func:`_tuple_values`)."""
    values, at = _tuple_values(f, order, axes, True)
    return values[at]


def _tuple_values(f: ScalarFunction, order: int, axes: Sequence[np.ndarray], points: bool):
    """``f^[order]`` (complex) at the distinct tuples of the grid of the
    axes, and, when ``points``, the index of each point's tuple among them;
    some point holds each tuple, so ``max |values|`` is the grid's.

    ``f^[order]`` is symmetric in its nodes, and :func:`_snapped_nodes`
    sorts every tuple first, so a point's value is that of its nodes as a
    non-decreasing tuple of indices into the sorted union of the axes.
    When every axis holds the same values, none NaN, the distinct tuples
    are every multiset of k + 1 of the axis's distinct nodes, listed by
    rank (see :func:`_unrank`), and a point's rank is its tuple's index;
    else they are found by rank (see :func:`_distinct_tuples`).  Each one
    that snapping may move is snapped once (see :func:`_snapped`): its
    snapped values join the union, and its indices point at them.  Every
    tuple is then read from one recursive table over the nodes (see
    :func:`_union_table`), with the bits of the per-point recursion.
    """
    dtype = np.complex128 if any(np.iscomplexobj(a) for a in axes) else np.float64
    # every node snaps to at least z + 0.0, so -0.0 is +0.0 from here on
    axes = [np.asarray(a, dtype=dtype) + 0.0 for a in axes]
    shape = tuple(a.size for a in axes)
    if math.prod(shape) == 0:
        return np.empty(0, dtype=np.complex128), np.zeros(shape, dtype=np.intp)
    if all(np.array_equal(a, axes[0]) for a in axes[1:]):
        union, inverse = np.unique(axes[0], return_inverse=True)
        binomials = _binomials(union.size, order)
        count = binomials[order][union.size]
        tuples = (_multisets(union.size, order) if 8 * (order + 1) * count <= _GRID_CHUNK_BYTES
                  else _unrank(np.arange(count), binomials))
        # rank 0 is k + 1 copies of one node, like the grid's first point:
        # it fails whenever any tuple does
        at = (_rank(binomials, _sorted_indices([inverse] * len(axes))) if points
              else np.arange(len(tuples[0])))
    else:
        union, inverse = np.unique(np.concatenate(axes), return_inverse=True, equal_nan=False)
        ends = itertools.accumulate(shape)
        index = _sorted_indices([inverse[hi - n : hi] for n, hi in zip(shape, ends)])
        ranks = _rank(_binomials(union.size, order), index)
        first, at = _distinct_tuples(ranks, math.comb(union.size + order, order + 1))
        tuples = [s.ravel()[first] for s in index]
    union, tuples = _snapped(union, tuples)
    values, _ = _union_table(f, union, tuples, at)
    return values.astype(np.complex128, copy=False), at


@functools.lru_cache(maxsize=16)
def _binomials(size: int, order: int) -> list[np.ndarray]:
    """``B[j][x] = C(x + j, j + 1)`` for j = 0..order and x = 0..size.

    In the combinatorial number system, a non-decreasing tuple
    (s_0, ..., s_l) of indices below ``size`` has the rank
    ``sum_j B[j][s_j]`` among all such tuples (in colexicographic order),
    and there are ``B[l][size]`` of them.  Each row is the running sum of
    the one before (the hockey-stick identity).  The rows hold Python ints
    where ranks would outgrow 64 bits.  Cached, read-only.
    """
    wide = math.comb(size + order, order + 1) >= 2**63
    table = [np.arange(size + 1, dtype=object if wide else np.int64)]
    for _ in range(order):
        table.append(np.cumsum(table[-1]))
    for row in table:
        row.setflags(write=False)
    return table


def _rank(binomials: list, tuples: Sequence[np.ndarray]) -> np.ndarray:
    """The rank of each non-decreasing index tuple (see :func:`_binomials`),
    given as one array per position; the first term is the index itself."""
    rank = tuples[0]
    for b, s in zip(binomials[1:], tuples[1:]):
        rank = rank + b[s]
    return rank


def _unrank(ranks: np.ndarray, binomials: list) -> list[np.ndarray]:
    """The non-decreasing index tuples of these ranks, one array per
    position, for tuples as long as ``binomials``: greedily from the last
    position, the largest index whose term fits in what is left."""
    tuples = []
    for b in reversed(binomials):
        s = np.searchsorted(b, ranks, side="right") - 1
        ranks = ranks - b[s]
        tuples.append(s)
    return tuples[::-1]


def _sorted_indices(index: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per position, the sorted indices of every point of the grid whose
    axes hold these indices: an insertion-sort network of compare-exchanges
    on the axes broadcast against each other."""
    dims = len(index)
    s = [a.reshape((a.size,) + (1,) * (dims - 1 - i)) for i, a in enumerate(index)]
    for i in range(1, dims):
        for lo in range(i - 1, -1, -1):
            s[lo], s[lo + 1] = np.minimum(s[lo], s[lo + 1]), np.maximum(s[lo], s[lo + 1])
    return s


def _distinct_tuples(ranks: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """For ranks among the ``space`` ranks of tuples of one length (see
    :func:`_binomials`): the position of one of each distinct rank, in
    order of rank, and for every rank the index of its own among them.  By
    arrays over the ``space`` ranks while they number at most the given
    ranks or the complex values in :data:`_GRID_CHUNK_BYTES`; else by
    sorting the given ranks."""
    if space > max(ranks.size, _GRID_CHUNK_BYTES // 16):
        _, first, inverse = np.unique(ranks, return_index=True, return_inverse=True)
        return first, inverse.reshape(ranks.shape)
    ranks = ranks.astype(np.intp, copy=False)
    position = np.full(space, -1)
    position[ranks.ravel()] = np.arange(ranks.size)
    distinct = np.flatnonzero(position >= 0)
    first = position[distinct]
    position[distinct] = np.arange(distinct.size)
    return first, position[ranks]


def _run_means(values: np.ndarray, count: int) -> list[np.ndarray]:
    """Per M = 1..count, the mean that :func:`_cluster_means` gives M equal
    copies of each value: (0 + v + ... + v) / M, by parts.  It is v for M =
    1 and 2 (short of overflow), but often not from 3 on."""
    total = values + 0.0
    means = [total]
    with np.errstate(all="ignore"):
        for m in range(2, count + 1):
            total = total + values
            means.append(_by_parts(total, m))
    return means


def _isolated(union: np.ndarray) -> np.ndarray:
    """Whether each value of the sorted union is finite and farther than the
    union's merge radius from every other value.  No tuple of union values
    then merges it with a node of another value, since a tuple's own merge
    radius is at most the union's."""
    isolated = np.isfinite(union)
    values = union[isolated]
    if values.size == 0:
        return isolated
    radius = DividedDifferenceSpec._merge_radius(values)
    if np.iscomplexobj(values):
        near = np.empty(values.size, dtype=bool)
        rows = max(1, _GRID_CHUNK_BYTES // (16 * values.size))
        for lo in range(0, values.size, rows):
            close = _modulus(values[lo : lo + rows, None] - values) <= radius
            near[lo : lo + rows] = np.count_nonzero(close, axis=1) > 1  # itself, and another
    else:
        # rounding is monotone, so the nearest value is a neighbour
        close = values[1:] - values[:-1] <= radius
        near = np.zeros(values.size, dtype=bool)
        near[:-1] = close
        near[1:] |= close
    isolated[isolated] = ~near
    return isolated


def _snapped(union: np.ndarray, tuples: list) -> tuple[np.ndarray, list]:
    """The sorted index tuples into the sorted union as tuples of the nodes
    that :func:`_snapped_nodes` makes of them: the union with every node a
    tuple snaps to joined to it, sorted and distinct, and the tuples as
    indices into it.

    A tuple of k + 1 equal finite nodes snaps to their mean (see
    :func:`_run_means`).  Any other tuple stays as it is when its nodes are
    isolated in the union (see :func:`_isolated`) and each run of equal
    nodes is its own mean, and else goes through :func:`_snapped_nodes`, in
    chunks whose node differences take at most :data:`_GRID_CHUNK_BYTES`.
    """
    width = len(tuples)
    isolated = _isolated(union)
    means = _run_means(union, width)
    # by run length M = 1..k+1, whether M copies of each value snap to it
    # (row 0: whether it is isolated)
    exact = np.array([isolated] + [mean == union for mean in means])
    equal = tuples[0] == tuples[-1]
    rest = shifted = np.zeros(0, dtype=np.intp)
    if not exact[:width].all():  # a value near another, or moved by a run of up to k
        kept = np.logical_and.reduce([isolated[t] for t in tuples])
        if not exact[2:width, isolated].all():
            for t in tuples:
                kept &= exact[sum(t == other for other in tuples), t]
        rest = np.flatnonzero(~(equal | kept))
    # k + 1 equal nodes snap to their mean, unless they are not finite
    moving = np.isfinite(union) & ~exact[width]
    if moving.any():
        shifted = np.flatnonzero(equal & moving[tuples[0]])
    if shifted.size + rest.size == 0:
        return union, tuples
    rows = max(1, _GRID_CHUNK_BYTES // (16 * width**2))
    snapped = [means[-1][tuples[0][shifted]]] + [
        _snapped_nodes(union[np.stack([t[rest[lo : lo + rows]] for t in tuples], 1)]).ravel()
        for lo in range(0, rest.size, rows)
    ]
    nodes, inverse = np.unique(np.concatenate([union, *snapped]),
                               return_inverse=True, equal_nan=False)
    tuples = [inverse[t] for t in tuples]
    start = union.size + shifted.size
    # sorted again, since values that sort as equal (NaN) need not keep order
    for t, s in zip(tuples, np.sort(inverse[start:].reshape(-1, width), axis=1).T):
        t[shifted] = inverse[union.size : start]
        t[rest] = s
    return nodes, tuples


def _level(lower: np.ndarray, upper: np.ndarray, windows: list) -> tuple:
    """A level of the table over the nodes (see :func:`_union_table`), from
    its windows, one array of node indices per position, and the positions
    in the level below of the two windows each spans: those positions, the
    indices of each window's ends, and the positions and the node of its
    windows of equal ends."""
    confluent = np.flatnonzero(windows[0] == windows[-1])
    return lower, upper, windows[-1], windows[0], confluent, windows[0][confluent]


@functools.lru_cache(maxsize=16)
def _multisets(size: int, order: int) -> list[np.ndarray]:
    """Every non-decreasing index tuple of length ``order`` + 1 below
    ``size``, by rank (see :func:`_binomials`), one array per position.
    Cached, read-only; :func:`_tuple_values` asks only for lists that take at
    most :data:`_GRID_CHUNK_BYTES`."""
    binomials = _binomials(size, order)
    tuples = _unrank(np.arange(binomials[order][size]), binomials)
    for array in tuples:
        array.setflags(write=False)
    return tuples


@functools.lru_cache(maxsize=16)
def _union_levels(size: int, order: int) -> list:
    """Levels 1..order-1 of the table over ``size`` nodes holding every
    non-decreasing index tuple, at its rank (see :func:`_binomials` and
    :func:`_level`), shared by every table with that size and order.  All
    read-only."""
    binomials = _binomials(size, order)
    levels = []
    for level in range(1, order):
        windows = _unrank(np.arange(binomials[level][size]), binomials[: level + 1])
        levels.append(_level(_rank(binomials, windows[:-1]), _rank(binomials, windows[1:]),
                             windows))
    for array in [a for level in levels for a in level]:
        array.setflags(write=False)
    return levels


def _union_levels_fit(size: int, order: int) -> bool:
    """Whether the arrays :func:`_union_levels` keeps for ``size`` nodes take
    at most :data:`_GRID_CHUNK_BYTES`: per level l, four int64 arrays over
    its ``B[l][size]`` windows and two over its ``size`` windows of equal
    ends (see :func:`_level`).  The complex values of its largest level, at
    16 bytes an entry, then fit as well."""
    binomials = _binomials(size, order)
    kept = sum(4 * int(binomials[level][size]) + 2 * size for level in range(1, order))
    return 8 * kept <= _GRID_CHUNK_BYTES


def _window_levels(size: int, tuples: list) -> list:
    """Levels 1..k of the table over ``size`` nodes (see :func:`_level`)
    holding only the windows that the sorted index tuples contain: level k
    the tuples, and each level below the distinct windows that the level
    above spans, found by rank (see :func:`_distinct_tuples`)."""
    order = len(tuples) - 1
    binomials = _binomials(size, order)
    windows, levels = tuples, []
    for level in range(order - 1, 0, -1):
        spanned = [np.concatenate(pair) for pair in zip(windows[:-1], windows[1:])]
        first, position = _distinct_tuples(_rank(binomials, spanned), binomials[level][size])
        levels.append(_level(*np.split(position, 2), windows))
        windows = [w[first] for w in spanned]
    levels.append(_level(windows[0], windows[1], windows))
    return levels[::-1]


def _union_table(f: ScalarFunction, nodes: np.ndarray, tuples: list, at: np.ndarray):
    """``f^[k]`` at sorted index tuples into the sorted distinct ``nodes``,
    one array of indices per position, by the recursive table over the
    nodes: the value at each tuple, with the bits of the scalar recursion
    but for the sign and payload of a NaN, and whether it is complex.

    When a tuple's longest run of equal indices, less one, is a derivative
    order that ``f`` lacks, no value is computed: the error names the first
    such tuple among those that ``at`` lists, in its order.

    Level l holds ``f^[l]`` at non-decreasing (l+1)-tuples of indices:
    ``f^(l)(z) / l!`` where the tuple's ends are equal, else the difference
    of the two level-(l-1) entries it spans over the difference of its ends.
    The top level is evaluated at the given tuples.  The levels below hold
    every tuple, at its rank (see :func:`_union_levels`), while what they
    keep fits :data:`_GRID_CHUNK_BYTES` (see :func:`_union_levels_fit`), and
    beyond that only the windows the given tuples contain (see
    :func:`_window_levels`).

    ``f`` is called at the nodes of the tuples whose indices are not all
    equal, ``f^(l)`` for 0 < l < k at the nodes of their windows of l + 1
    equal indices, and ``f^(k)`` at the node of each tuple of k + 1 equal
    indices, once per node: the entries a tuple reads.  The other entries of
    equal ends hold 0, and no tuple reads them.  Real values are divided as
    reals, and complex ones as the scalar recursion divided them (see
    :func:`_quotient`).
    """
    order = len(tuples) - 1
    available = f.derivative_order_available
    if order > available:
        # the order of the highest derivative each tuple reads: its longest
        # run of equal indices, less one
        needed = np.zeros(len(tuples[0]), dtype=int)
        for level in range(1, order + 1):
            needed[np.logical_or.reduce([tuples[j] == tuples[j + level]
                                         for j in range(order + 1 - level)])] = level
        failing = needed > available
        if failing.any():  # name the first failing point
            size = int(needed[at.flat[np.argmax(failing[at])]]) + 1
            raise CapabilityError(
                f"confluent cluster of size {size} needs derivative order "
                f"{size - 1}, available {available}"
            )
    equal = tuples[0] == tuples[-1]
    unequal = [t[~equal] for t in tuples] if equal.any() else tuples
    read = np.zeros((order + 1, nodes.size), dtype=bool)
    read[0, np.concatenate(unequal)] = True
    for level in range(1, order):
        for j in range(order + 1 - level):
            read[level, unequal[j][unequal[j] == unequal[j + level]]] = True
    read[order, tuples[0][equal]] = True
    points = nodes.tolist()
    columns = []
    for level in range(order + 1):
        fn = _derivative_fn(f, level)
        columns.append([fn(z) if wanted else 0.0
                        for z, wanted in zip(points, read[level].tolist())])
    complex_nodes = np.iscomplexobj(nodes)
    typed = complex_nodes or any(map(_is_complex, itertools.chain(*columns)))
    if order == 0:
        table, kind = _column(columns[0], tuples[0], typed)
        levels = []
    else:
        table, kind = _column(columns[0], slice(None), typed)
        binomials = _binomials(nodes.size, order)
        if _union_levels_fit(nodes.size, order):
            levels = _union_levels(nodes.size, order) + [_level(
                _rank(binomials, tuples[:-1]), _rank(binomials, tuples[1:]), tuples)]
        else:
            levels = _window_levels(nodes.size, tuples)
    with np.errstate(all="ignore"):
        for level, (lower, upper, last, first, confluent, node) in enumerate(levels, 1):
            if typed:
                # complex when either value is; of Python type when both are
                kind = np.stack([kind[upper, 0] | kind[lower, 0] | complex_nodes,
                                 kind[upper, 1] & kind[lower, 1]], axis=-1)
            table = _quotient(table[upper] - table[lower], nodes[last] - nodes[first], kind)
            if confluent.size:
                derivative, derivative_kind = _column(columns[level], node, typed)
                table[confluent] = derivative
                if typed:
                    kind[confluent] = derivative_kind
    return table, kind[:, 0] if typed else np.zeros(len(table), dtype=bool)


# ---------------------------------------------------------------------------
# Multivariate integrands
# ---------------------------------------------------------------------------


def _factor_key(fn: ScalarFunction):
    """What makes two factors the same: equal coefficients for polynomials
    (the divided-difference expansions build a fresh object per monomial),
    identity for every other function."""
    if fn.kind == POLYNOMIAL:
        return (fn.coefficients.dtype.str, fn.coefficients.tobytes())
    return fn


def _horner(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Every column of a coefficient ``table`` (degree by row, ascending) as a
    polynomial at ``x``, shape (columns, *x.shape).

    These are the operations of ``npoly.polyval`` per column, ``c[-1] + x*0``
    and then ``c[k] + v*x``, so each value has its bits.  Zero rows above a
    column's own coefficients change none of them: at finite x they keep v
    at +0, and ``c + (+0)*x`` is ``c + x*0``.
    """
    coefficients = table.reshape(table.shape + (1,) * x.ndim)
    value = coefficients[-1] + x * 0
    for row in coefficients[-2::-1]:
        value *= x
        value += row
    return value


class _FactorTable:
    """The distinct factors of one slot, evaluated together: the polynomial
    factors as one zero-padded coefficient table per coefficient dtype, one
    Horner pass each (see :func:`_horner`), and every other factor on its
    own, once per axis and function however many slots hold it."""

    def __init__(self, factors: Sequence[ScalarFunction]):
        self.size = len(factors)
        by_dtype: dict = {}
        self.callables = []
        for row, fn in enumerate(factors):
            if fn.kind == POLYNOMIAL:
                by_dtype.setdefault(fn.coefficients.dtype, []).append((row, fn.coefficients))
            else:
                self.callables.append((row, fn))
        self.tables = []
        for dtype, members in by_dtype.items():
            table = np.zeros((max(c.size for _, c in members), len(members)), dtype=dtype)
            for column, (_, c) in enumerate(members):
                table[: c.size, column] = c
            self.tables.append((np.array([row for row, _ in members]), table))

    def __call__(self, axis: np.ndarray, done: dict) -> np.ndarray:
        """The factor values on ``axis``, one row per factor, as ``np.array``
        stacks the factors' own values; ``done`` keeps every callable's
        values by axis across slots."""
        parts = [(rows, _horner(table, axis)) for rows, table in self.tables]
        for row, fn in self.callables:
            key = (id(axis), fn)
            if key not in done:
                done[key] = fn(axis)
            parts.append(([row], np.asarray(done[key])[None]))
        if len(parts) == 1:
            return parts[0][1]
        values = np.empty((self.size,) + axis.shape,
                          dtype=np.result_type(*(v for _, v in parts)))
        for rows, v in parts:
            values[rows] = v
        return values


def _sibling_spans(starts: np.ndarray, count: int) -> tuple[tuple[int, int, int], ...]:
    """For each group of more than one of ``count`` consecutive rows whose
    groups begin at ``starts``: its index, and the range of its rows after
    the first."""
    ends = np.append(starts[1:], count)
    return tuple((g, lo + 1, hi) for g, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist()))
                 if hi - lo > 1)


def _pairwise_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of ``rows`` over axis 0 in the order of numpy's pairwise
    summation of a strided run of float64 or complex128 elements: below one
    unroll (8 real or 4 complex rows) left to right; up to 16 unrolls, one
    accumulator per lane of the unroll, summed as a balanced tree, then the
    remaining rows left to right; above that, the sum of the two halves,
    the first rounded down to whole unrolls.

    Works in place: overwrites ``rows`` and returns a view into it (or a
    scalar, for 1-D rows).
    """
    count = len(rows)
    unroll = 4 if np.iscomplexobj(rows) else 8
    if count < unroll:
        total = rows[0]
        for i in range(1, count):
            total += rows[i]
        return total
    if count <= 16 * unroll:
        whole = count - count % unroll
        lanes = rows[:unroll]
        for lo in range(unroll, whole, unroll):
            lanes += rows[lo : lo + unroll]
        step = 1
        while step < unroll:  # ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
            lanes[0::2 * step] += lanes[step::2 * step]
            step *= 2
        total = lanes[0]
        for i in range(whole, count):
            total += rows[i]
        return total
    half = count // 2
    half -= half % unroll
    total = _pairwise_sum(rows[:half])
    total += _pairwise_sum(rows[half:])
    return total


def _sibling_sums(rows: np.ndarray, starts: np.ndarray, spans: tuple) -> np.ndarray:
    """``np.add.reduceat(rows, starts, axis=0)``, bit for bit, with whole-row
    operations; ``spans`` is :func:`_sibling_spans` of ``starts``.
    Overwrites ``rows``.

    ``reduceat`` runs numpy's summation loop once per output element: it
    takes a group's first row and adds the pairwise sum of the rest (see
    :func:`_pairwise_sum`).  Here the first rows are gathered at once, and
    Python loops only over the groups with more rows, summing those in
    place.
    """
    if not spans:
        return rows
    sums = rows[starts]
    for group, lo, hi in spans:
        sums[group] += _pairwise_sum(rows[lo:hi])
    return sums


@dataclass(frozen=True)
class SeparableIntegrand:
    """A finite rank-one sum: psi(l_1..l_m) = sum_n prod_i f_{i,n}(l_i)."""

    arity: int
    terms: tuple[tuple[ScalarFunction, ...], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValidationError("integrand arity must be positive")
        terms = tuple(tuple(term) for term in self.terms)
        if not terms:
            raise ValidationError("separable integrand needs at least one term")
        for k, term in enumerate(terms):
            if len(term) != self.arity:
                raise ValidationError(
                    f"term {k} has {len(term)} factors, expected {self.arity}"
                )
        object.__setattr__(self, "terms", terms)

    @classmethod
    def constant(cls, arity: int, value=1.0) -> "SeparableIntegrand":
        factors = [ScalarFunction.constant(1.0)] * (arity - 1)
        return cls(arity, ((ScalarFunction.constant(value), *factors),))

    def evaluate(self, point: Sequence) -> complex:
        if len(point) != self.arity:
            raise ValidationError(
                f"point has {len(point)} coordinates, expected {self.arity}"
            )
        total = 0.0 + 0.0j
        for term in self.terms:
            prod = 1.0 + 0.0j
            for fn, x in zip(term, point):
                prod *= fn(x)
            total += prod
        return total

    @functools.cached_property
    def _slot_factors(self) -> tuple[tuple[tuple, np.ndarray], ...]:
        """Per slot: the distinct factors as (key, function) pairs, and for
        each term the index of its factor among them."""
        slots = []
        for i in range(self.arity):
            position: dict = {}
            distinct = []
            index = np.empty(len(self.terms), dtype=np.intp)
            for n, term in enumerate(self.terms):
                key = _factor_key(term[i])
                if key not in position:
                    position[key] = len(distinct)
                    distinct.append((key, term[i]))
                index[n] = position[key]
            slots.append((tuple(distinct), index))
        return tuple(slots)

    @functools.cached_property
    def factor_index(self) -> tuple[np.ndarray, ...]:
        """Per slot, the index of each term's factor among the rows that
        :meth:`factor_values` returns for that slot."""
        return tuple(index for _, index in self._slot_factors)

    @functools.cached_property
    def _factor_tables(self) -> tuple[_FactorTable, ...]:
        """Per slot, its distinct factors as a :class:`_FactorTable`; slots
        with the same distinct factors in the same order share one table."""
        tables: dict = {}
        slots = []
        for distinct, _ in self._slot_factors:
            key = tuple(key for key, _ in distinct)
            if key not in tables:
                tables[key] = _FactorTable([fn for _, fn in distinct])
            slots.append(tables[key])
        return tuple(slots)

    def factor_values(self, axes: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per slot i, the values of its distinct factors on ``axes[i]``, one
        row per factor, with the bits of each factor's own values.

        A slot's polynomial factors are evaluated together from its
        coefficient table (see :class:`_FactorTable`), and every other
        factor once per axis.  Polynomials with equal coefficients count as
        one factor, and slots given the same axis array and the same table
        share one array of values: callers must not write to it.
        """
        if len(axes) != self.arity:
            raise ValidationError("axis count must equal the integrand arity")
        done: dict = {}
        values = []
        for table, axis in zip(self._factor_tables, axes):
            key = (id(axis), id(table))
            if key not in done:
                done[key] = table(axis, done)
            values.append(done[key])
        return values

    @functools.cached_property
    def suffix_tree(self) -> tuple[np.ndarray, tuple[tuple, ...]]:
        """The terms grouped by the factors they share from each slot on.

        A node at level j is a distinct suffix (factors of slots j..m-1) of
        the terms; its parent is the suffix one slot shorter, and the root
        (level m) is the empty suffix.  Returns the multiplicity of each
        level-0 node (a distinct term) and, per level j, the factor index of
        each node in slot j (see :attr:`factor_index`), the offsets at which
        each parent's children start (nodes are ordered by parent), and the
        parents with more than one child with the range of their other
        children (see :func:`_sibling_spans`).  Given a level's values per
        node, :func:`_sibling_sums` sums siblings with the bits of
        ``np.add.reduceat`` over those offsets.
        """
        node_of_term = np.zeros(len(self.terms), dtype=np.intp)  # the root
        levels = []
        for distinct, index in reversed(self._slot_factors):
            code = node_of_term * len(distinct) + index
            nodes, node_of_term = np.unique(code, return_inverse=True)
            parent = nodes // len(distinct)
            starts = np.flatnonzero(np.diff(parent, prepend=-1))
            levels.append((nodes % len(distinct), starts, _sibling_spans(starts, len(nodes))))
        return np.bincount(node_of_term).astype(float), tuple(reversed(levels))

    def eval_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on the Cartesian product of the axes (broadcast sum of
        outer products, complex).

        Each axis has shape (..., n_i), with one leading shape shared by all
        axes, such as a sample axis; the grid has shape (..., n_1, ..., n_m).
        """
        return self._grid(axes).astype(np.complex128, copy=False)

    def _grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """:meth:`eval_grid`, in real arithmetic where every factor value is
        real and the real grid is finite.  The complex products and sums of
        real numbers then have the same real parts, and zero imaginary
        parts."""
        axes = [np.asarray(a) for a in axes]
        values = self.factor_values(axes)
        shape = axes[0].shape[:-1] + tuple(a.shape[-1] for a in axes)
        if not any(np.iscomplexobj(v) for v in values):
            grid = self._term_sum([v.astype(np.float64) for v in values], shape)
            if np.all(np.isfinite(grid)):
                return grid
        return self._term_sum([v.astype(np.complex128) for v in values], shape)

    def _term_sum(self, values: list[np.ndarray], shape: tuple, ones=None) -> np.ndarray:
        """Sum over the terms of the outer product of their factor values,
        each product formed factor by factor in slot order.

        ``ones``, per slot, marks the factor rows whose values all equal 1;
        the products leave those factors out.  Multiplying by 1 is exact in
        real arithmetic, and in complex arithmetic changes at most the sign
        of a zero part while every value is finite."""
        views = []
        for i in range(self.arity):
            view = [None] * self.arity
            view[i] = slice(None)
            views.append((Ellipsis, *view))
        total = np.zeros(shape, dtype=values[0].dtype)
        for term in zip(*self.factor_index):
            prod = None
            for i, row in enumerate(term):
                if ones is None or not ones[i][row]:
                    factor = values[i][row][views[i]]
                    prod = factor if prod is None else prod * factor
            total += 1.0 if prod is None else prod
        return total

    def scaled(self, factor) -> "SeparableIntegrand":
        terms = tuple((term[0].scaled(factor), *term[1:]) for term in self.terms)
        return SeparableIntegrand(self.arity, terms)

    def plus(self, other: "SeparableIntegrand") -> "SeparableIntegrand":
        if other.arity != self.arity:
            raise ValidationError("cannot add integrands of different arity")
        return SeparableIntegrand(self.arity, self.terms + other.terms)

    def as_multivariate(self) -> "MultivariateFunction":
        return MultivariateFunction(self.arity, self.evaluate, separable=self)


@dataclass(frozen=True)
class MultivariateFunction:
    """An arity-m scalar map with an optional separable representation.

    Without one, :meth:`eval_grid` evaluates the map point by point, unless
    the code that built it attached a whole-grid evaluation (``_grid``, see
    :func:`_with_grid`)."""

    arity: int
    evaluate: Callable
    separable: SeparableIntegrand | None = None
    _grid: Callable | None = field(default=None, init=False, repr=False, compare=False)
    _sup: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arity < 1:
            raise ValidationError("arity must be positive")
        if self.separable is not None and self.separable.arity != self.arity:
            raise ValidationError("separable representation has mismatched arity")

    def __call__(self, *point):
        if len(point) == 1 and isinstance(point[0], (tuple, list, np.ndarray)):
            point = tuple(point[0])
        return self.evaluate(point)

    def eval_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        if self.separable is not None:
            return self.separable.eval_grid(axes)
        axes = [np.asarray(a) for a in axes]
        if self._grid is not None:
            return self._grid(axes)
        shape = tuple(a.size for a in axes)
        out = np.empty(shape, dtype=np.complex128)
        for idx in np.ndindex(shape):
            out[idx] = self.evaluate(tuple(ax[i] for ax, i in zip(axes, idx)))
        return out

    def check_separable_consistency(self, box: Sequence[tuple], points_per_axis: int = 5):
        """Probe |evaluate - separable| on a grid over ``box``; raises when the
        declared representation disagrees beyond 1e-10 relative."""
        if self.separable is None:
            raise CapabilityError("no separable representation declared")
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in box]
        grid_sep = self.separable.eval_grid(axes)
        worst = 0.0
        for idx in np.ndindex(grid_sep.shape):
            point = tuple(ax[i] for ax, i in zip(axes, idx))
            direct = self.evaluate(point)
            err = abs(direct - grid_sep[idx])
            if err > 1e-10 * (1.0 + abs(direct)):
                raise ValidationError(
                    f"separable representation deviates by {err:.3e} at {point}"
                )
            worst = max(worst, err)
        return worst


def _as_integrand(integrand) -> MultivariateFunction:
    """The integrand as a :class:`MultivariateFunction`: a
    :class:`SeparableIntegrand` becomes one with that representation."""
    if isinstance(integrand, SeparableIntegrand):
        return integrand.as_multivariate()
    if isinstance(integrand, MultivariateFunction):
        return integrand
    raise ValidationError(
        "integrand must be a MultivariateFunction or SeparableIntegrand"
    )


def _with_grid(psi: MultivariateFunction, grid: Callable, sup=None) -> MultivariateFunction:
    """``psi``, whose :meth:`~MultivariateFunction.eval_grid` now returns
    ``grid(axes)``: the values ``psi.evaluate`` gives on the Cartesian
    product of the axes, as a complex array; ``sup(axes)``, when given, is
    ``max |grid(axes)|`` with its bits (see :func:`_sup_norms`)."""
    object.__setattr__(psi, "_grid", grid)
    object.__setattr__(psi, "_sup", sup)
    return psi


def integrand_block_product(
    p: SeparableIntegrand, q: SeparableIntegrand
) -> SeparableIntegrand:
    """Join two separable integrands on disjoint variable blocks.

    The result has arity ``p.arity + q.arity`` and evaluates to the pointwise
    product ``p(l_1..l_k) * q(l_{k+1}..l_m)``; its terms are all pairwise
    factor-tuple concatenations.
    """
    terms = tuple(tp + tq for tp in p.terms for tq in q.terms)
    return SeparableIntegrand(p.arity + q.arity, terms)


def multiply_by_slot_variable(
    psi: SeparableIntegrand, slot: int
) -> SeparableIntegrand:
    """The integrand ``l_slot * psi(l_1..l_m)`` (still separable)."""
    if not 0 <= slot < psi.arity:
        raise ParameterError(f"slot {slot} out of range for arity {psi.arity}")
    shift = ScalarFunction.polynomial([0.0, 1.0])
    terms = []
    for term in psi.terms:
        factor = term[slot]
        if factor.kind != POLYNOMIAL:
            raise CapabilityError("slot-variable multiplication needs polynomial factors")
        bumped = ScalarFunction.polynomial(
            npoly.polymul(factor.coefficients, shift.coefficients)
        )
        terms.append(term[:slot] + (bumped,) + term[slot + 1 :])
    return SeparableIntegrand(psi.arity, tuple(terms))


# ---------------------------------------------------------------------------
# Divided-difference integrands
# ---------------------------------------------------------------------------


def exponent_tuples(total: int, slots: int):
    """All nonnegative integer tuples of the given length summing to total."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in exponent_tuples(total - first, slots - 1):
            yield (first,) + rest


def _polynomial_dd_separable(coefficients: np.ndarray, order: int) -> SeparableIntegrand:
    """Separable representation of a polynomial's order-k divided difference.

    The order-k divided difference of x^p is the complete homogeneous
    symmetric polynomial of degree p-k in the k+1 nodes; expanding it
    monomial by monomial gives an exact rank-one sum with no divisions, so
    evaluation stays stable at clustered nodes.
    """
    slots = order + 1
    terms = []
    for p, c in enumerate(coefficients):
        if c == 0 or p < order:
            continue
        for exponents in exponent_tuples(p - order, slots):
            factors = [ScalarFunction.monomial(exponents[0], c)]
            factors.extend(ScalarFunction.monomial(e) for e in exponents[1:])
            terms.append(tuple(factors))
    if not terms:
        terms.append(tuple(ScalarFunction.constant(0.0) for _ in range(slots)))
    return SeparableIntegrand(slots, tuple(terms))


def divided_difference_integrand(f: ScalarFunction, order: int) -> MultivariateFunction:
    """The arity-(order+1) integrand ``(l_0..l_k) -> f^[k](l_0..l_k)``.

    Polynomials get an exact separable representation (used for grid
    evaluation and certified norm bounds), built once per coefficient array
    and order and then shared by every caller.  Other kinds evaluate the
    recursive divided-difference table: point by point through
    :func:`divided_difference`, and a whole grid through
    :func:`_divided_difference_grid`, which evaluates each sorted tuple of
    indices into the union of the axes once (the divided difference is
    symmetric in its nodes), reads every tuple, once snapped, from one table
    over the nodes, and calls ``f`` and each derivative once per node whose
    value the grid reads.  Its sup (see :func:`_sup_norms`) is the max over
    those tuples' values, with no grid.
    """
    if order < 0:
        raise ParameterError("divided-difference order must be nonnegative")
    if f.kind == POLYNOMIAL:
        coefficients = f.coefficients
        return _polynomial_dd_integrand(
            coefficients.dtype.str, coefficients.tobytes(), order
        )

    def evaluate(point, _f=f, _k=order):
        return divided_difference(DividedDifferenceSpec(_f, _k, tuple(point)))

    return _with_grid(
        MultivariateFunction(order + 1, evaluate),
        lambda axes, _f=f, _k=order: _divided_difference_grid(_f, _k, axes),
        lambda axes, _f=f, _k=order: np.max(np.abs(_tuple_values(_f, _k, axes, False)[0])),
    )


@functools.lru_cache(maxsize=256)
def _polynomial_dd_integrand(dtype: str, data: bytes, order: int) -> MultivariateFunction:
    """:func:`divided_difference_integrand` of the polynomial whose
    coefficient array has this dtype and these bytes."""
    separable = _polynomial_dd_separable(np.frombuffer(data, dtype=dtype), order)
    return MultivariateFunction(order + 1, separable.evaluate, separable=separable)


# ---------------------------------------------------------------------------
# Norm surrogates
# ---------------------------------------------------------------------------


def _checked_spectra(spectra: Sequence[Sequence], arity: int) -> list[np.ndarray]:
    """The spectra as arrays, one per integrand slot, each one-dimensional
    and non-empty; the same spectrum object given twice gives the same
    array, so that its evaluations stay shared (see
    :meth:`SeparableIntegrand.factor_values`)."""
    if len(spectra) != arity:
        raise ValidationError("spectra count must equal the integrand arity")
    arrays: dict = {}
    axes = [arrays.setdefault(id(s), np.asarray(s)) for s in spectra]
    for i, axis in enumerate(axes):
        if axis.ndim != 1:
            raise ValidationError(f"spectrum {i} must be one-dimensional")
        if axis.size == 0:
            raise ValidationError(f"spectrum {i} is empty")
    return axes


def projective_norm_bound(
    psi: SeparableIntegrand, spectra: Sequence[Sequence]
) -> float:
    """Certified norm surrogate: sum over terms of the per-factor maxima.

    ``sum_n prod_i max_{l in spectra_i} |f_{i,n}(l)|``.  Depends only on the
    given representation, not on the abstract function.
    """
    maxima = [np.max(np.abs(v), axis=1)
              for v in psi.factor_values(_checked_spectra(spectra, psi.arity))]
    total = 0.0
    for term in zip(*psi.factor_index):
        prod = 1.0
        for maximum, row in zip(maxima, term):
            prod *= float(maximum[row])
        total += prod
    return total


def _batch_of_one(arrays: Sequence) -> list[np.ndarray]:
    """The arrays with a leading sample axis of length one; the same array
    given twice gets the same view, so that its factor evaluations stay
    shared (see :meth:`SeparableIntegrand.factor_values`)."""
    views: dict = {}
    return [views.setdefault(id(a), np.asarray(a)[None]) for a in arrays]


def sup_norm_on_grid(psi, spectra: Sequence[Sequence]) -> float:
    """Max of |psi| over the Cartesian product of the spectra; ``psi`` is a
    :class:`MultivariateFunction` or a :class:`SeparableIntegrand`.  A
    non-polynomial divided difference on equal spectra reads each multiset
    of their distinct nodes once, with no grid (see :func:`_sup_norms`)."""
    psi = _as_integrand(psi)
    return float(_sup_norms(psi, _batch_of_one(_checked_spectra(spectra, psi.arity)))[0])


# Bytes of grid that :func:`_sup_norms` sums at a time: about a core's L2
# cache, so that each block's grid is built and reduced while it is cached.
_SUP_BLOCK_BYTES = 256 * 2**10


def _sup_norms(psi: MultivariateFunction, axes: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`sup_norm_on_grid` per sample, on spectra of shape (N, n_i)
    stacked over samples: per sample, the bits of ``max |psi.eval_grid|``.

    A separable integrand's factor values are computed once for all samples.
    With one term and real values, the sup is the product, in slot order, of
    the per-slot maxima of |f_i|: rounding to nearest is monotone and
    symmetric in sign, so the largest |fl(..fl(a b) c ..)| over the grid is
    that product of the largest |a|, |b|, |c|, ....  When that product is not
    finite, and for every other separable integrand, the grid is summed in
    blocks of about :data:`_SUP_BLOCK_BYTES` (see :func:`_block_sup_norms`).
    Any other integrand is evaluated sample by sample: a non-polynomial
    divided difference at each distinct tuple of its grid once (see
    :func:`_tuple_values`), with no grid when every slot holds one axis,
    and any other on its whole grid.
    """
    separable = psi.separable
    if separable is None:
        sup = psi._sup or (lambda sample: np.max(np.abs(psi.eval_grid(sample))))
        return np.array([sup([a[s] for a in axes]) for s in range(len(axes[0]))])
    values = separable.factor_values(axes)
    real = not any(np.iscomplexobj(v) for v in values)
    values = [v.astype(np.float64 if real else np.complex128, copy=False) for v in values]
    if real and len(separable.terms) == 1:
        maxima = [np.max(np.abs(v[0]), axis=-1) for v in values]
        with np.errstate(over="ignore", invalid="ignore"):
            sup = functools.reduce(np.multiply, maxima)
        if np.all(np.isfinite(sup)):
            return sup
    ones = [np.all(v == 1.0, axis=(1, 2)) for v in values]
    count = values[0].shape[1]
    points = math.prod(v.shape[-1] for v in values)
    rows = max(1, _SUP_BLOCK_BYTES // (values[0].itemsize * points))
    sup = np.empty(count)
    for lo in range(0, count, rows):
        block = [v[:, lo : lo + rows] for v in values]
        sup[lo : lo + rows] = _block_sup_norms(separable, block, ones)
    return sup


def _block_sup_norms(psi: SeparableIntegrand, values: list[np.ndarray], ones) -> np.ndarray:
    """Per sample, the max of |psi| over the grid that a block of factor
    values spans (per slot (F_i, N, n_i), as
    :meth:`SeparableIntegrand.factor_values` gives them), with the bits of
    :meth:`SeparableIntegrand._grid`.

    The block is summed first in the values' own arithmetic, leaving out the
    factors that ``ones`` marks (see :meth:`SeparableIntegrand._term_sum`).
    A finite result has every product and partial sum finite, so it is
    :meth:`~SeparableIntegrand._grid`'s up to the signs of zero parts, which
    no |value| reads.  A block with a value that is not finite is summed
    again as ``_grid`` sums a grid that is not finite in real arithmetic:
    in complex arithmetic, every factor kept.  Where a real sum is finite
    its complex sum has the same real parts and zero imaginary parts, so a
    sample's bits do not depend on the block it falls in.
    """
    shape = values[0].shape[1:2] + tuple(v.shape[-1] for v in values)
    grid = psi._term_sum(values, shape, ones)
    sup = np.max(np.abs(grid.reshape(len(grid), -1)), axis=1)
    if np.all(np.isfinite(sup)):
        return sup
    grid = psi._term_sum([v.astype(np.complex128) for v in values], shape)
    return np.max(np.abs(grid.reshape(len(grid), -1)), axis=1)
