"""Scalar integrand functions and their multivariate combinations.

Covers scalar functions with derivative access (polynomials, callables with
supplied derivatives, plain callables with a numerical first derivative),
divided differences with confluent-node handling, separable (rank-one-sum)
representations of multivariate integrands, and the computable projective
norm surrogate used by every certified bound in the package.

Every divided difference is the scalar recursion, run on many sorted
tuples of indices into distinct nodes at once (:func:`_recursion`): level
l holds f^[l] on each window of l + 1 indices of each tuple, the difference
of the two level-(l - 1) entries it spans over the difference of its end
nodes, or f^(l)/l! where its ends are equal.  Each tuple is snapped first
(:func:`_snapped_nodes`: a cluster of equal nodes is that node, and one of
distinct nearby nodes their mean), and then is a sorted tuple of indices
into the nodes it snaps to.  The grid of a non-polynomial
divided-difference integrand (:func:`_divided_difference_grid`) evaluates
sorted tuples of indices into the union of the axes: on equal axes each
multiset of the axis's nodes once, listed lexicographically, else every
point's own sorted tuple; :func:`divided_difference` is a stack of one
tuple.  The table runs the scalar recursion's own arithmetic: float64
when the nodes are real and every value it reads is a float, complex128
when every value is a numpy complex128, and else the Python or numpy
operation on each value itself.  Every value has the bits of the scalar
recursion, but for the sign and payload of a NaN and where a NaN node
stands among others: moikit sorts it last (numpy's order), Python's
``sorted`` leaves it in place.

A separable integrand evaluates each distinct factor of a slot once per
axis, by the factor's own ``__call__``.  The factored engine path sums the
terms that share their factors from a slot on in plain left-to-right order
(:func:`_sibling_sums`).  A polynomial's divided difference,
f^[k] = sum_p c_p h_{p-k}, is summed over its words instead
(:func:`_word_sums`): by the engine, by its sup on any spectra and by its
projective bound.

The sup surrogate (:func:`sup_norm_on_grid`, and :func:`_sup_norms` on
spectra stacked over samples) is ``max |eval_grid|``, a polynomial divided
difference's within a few ulps, with no stacked grid (see :func:`_sup_norms`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import CapabilityError, ParameterError, ValidationError, _integer, _numeric

_MACHINE_EPS = float(np.finfo(float).eps)

POLYNOMIAL = "polynomial"
CALLABLE_WITH_DERIVATIVES = "callable_with_derivatives"


def _numeric_derivative(fn, x):
    """f'(x) of a bare value function: central differences at steps h, h/2
    and h/4, then two Richardson extrapolation levels; the step balances
    the O(h^2) truncation against the eps / h roundoff floor."""
    h = _MACHINE_EPS ** (1.0 / 3) * max(1.0, abs(x))
    central = lambda s: (fn(x + s) - fn(x - s)) / (2.0 * s)  # noqa: E731
    d0, d1, d2 = central(h), central(h / 2.0), central(h / 4.0)
    r0 = (4.0 * d1 - d0) / 3.0
    r1 = (4.0 * d2 - d1) / 3.0
    return (16.0 * r1 - r0) / 15.0


class ScalarFunction:
    """A scalar function of one variable with declared derivative access.

    Two kinds:

    * ``polynomial`` -- coefficients ascending by degree; derivatives of every
      order are exact.
    * ``callable_with_derivatives`` -- a value function plus derivative
      functions up to some order; :meth:`from_callable` gives a bare value
      function one, its numeric first derivative (:func:`_numeric_derivative`).
    """

    def __init__(
        self,
        kind: str,
        *,
        coefficients=None,
        value_fn: Callable | None = None,
        derivative_fns: Sequence[Callable] = (),
    ):
        self.kind = kind
        if kind == POLYNOMIAL:
            coeffs = np.atleast_1d(_numeric(coefficients, "polynomial coefficients must be numbers"))
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
        elif kind == CALLABLE_WITH_DERIVATIVES:
            if value_fn is None:
                raise ValidationError(f"{kind} needs a value function")
            self.coefficients = None
            self.value_fn = value_fn
            self.derivative_fns = tuple(derivative_fns)
        else:
            raise ValidationError(f"unknown scalar-function kind {kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, coefficients) -> "ScalarFunction":
        return cls(POLYNOMIAL, coefficients=coefficients)

    @classmethod
    def monomial(cls, degree: int, coefficient=1.0) -> "ScalarFunction":
        coeffs = np.zeros(degree + 1, dtype=np.result_type(type(coefficient), float))
        coeffs[degree] = coefficient
        return cls.polynomial(coeffs)

    @classmethod
    def constant(cls, value=1.0) -> "ScalarFunction":
        return cls.polynomial([value])

    @classmethod
    def from_callable(cls, value_fn, derivatives: Sequence[Callable] = ()) -> "ScalarFunction":
        if not derivatives:
            derivatives = (functools.partial(_numeric_derivative, value_fn),)
        return cls(CALLABLE_WITH_DERIVATIVES, value_fn=value_fn, derivative_fns=derivatives)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        if self.kind == POLYNOMIAL:
            return npoly.polyval(x, self.coefficients)
        arr = np.asarray(x)
        if arr.ndim == 0:
            return self.value_fn(arr[()])
        # what np.vectorize(value_fn, otypes=[np.complex128]) does, without
        # building a vectorizer: value_fn at each element of the object
        # array, the results cast to complex128
        return np.frompyfunc(self.value_fn, 1, 1)(arr.astype(object)).astype(np.complex128)

    @property
    def derivative_order_available(self) -> float:
        if self.kind == POLYNOMIAL:
            return math.inf
        return len(self.derivative_fns)

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
        return self.derivative_fns[order - 1](x)

    def scaled(self, factor) -> "ScalarFunction":
        """The function multiplied by a scalar."""
        if self.kind == POLYNOMIAL:
            return ScalarFunction.polynomial(self.coefficients * factor)
        fn = self.value_fn
        scaled_value = lambda x, _f=fn, _c=factor: _c * _f(x)  # noqa: E731
        scaled_derivs = tuple(
            (lambda x, _g=g, _c=factor: _c * _g(x)) for g in self.derivative_fns
        )
        return ScalarFunction(self.kind, value_fn=scaled_value, derivative_fns=scaled_derivs)

    def __repr__(self):
        if self.kind == POLYNOMIAL:
            return f"ScalarFunction.polynomial({list(self.coefficients)})"
        return f"ScalarFunction({self.kind})"


# ---------------------------------------------------------------------------
# Divided differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DividedDifferenceSpec:
    """Order-n divided difference of ``f`` at ``order + 1`` nodes.

    Nodes clustered within :attr:`tolerance` are merged and evaluated
    through derivatives (the Hermite limit), which is the unique continuous
    extension of the difference-quotient recursion.  A cluster of equal
    nodes is evaluated at that node; one of distinct nodes at their mean.
    """

    f: ScalarFunction
    order: int
    nodes: tuple

    def __post_init__(self):
        if _integer(self.order, "orders must be integers", "", None) < 0:
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
# snapped at a time.  The multisets of equal axes and the index of each
# point's multiset among them are cached while they take at most a sixteenth
# of it (see :func:`_cached`): with 16 entries each, the two caches keep at
# most 64 MiB.
_GRID_CHUNK_BYTES = 32 * 2**20


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| with the bits of Python's ``abs`` (numpy's complex ``abs`` on
    arrays may differ from it in the last place; ``hypot`` does not)."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _snapped_nodes(nodes: np.ndarray) -> np.ndarray:
    """Each row of ``nodes`` sorted by (real, imag), with every cluster of
    nodes joined by steps within the row's merge radius replaced by its
    mean (see :func:`_cluster_means`); sorted again.  A step or a sum that
    overflows, or is NaN, raises no warning: such a step is not near."""
    nodes = np.sort(nodes, axis=1)
    width = nodes.shape[1]
    radius = DividedDifferenceSpec._merge_radius(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        near = _modulus(nodes[:, :, None] - nodes[:, None, :]) <= radius[:, None, None]
        snapped = nodes + 0.0  # a node that merges with none is its own mean, 0 + z
        merging = np.flatnonzero(np.count_nonzero(near, axis=(1, 2)) > width)
        if merging.size:
            snapped[merging] = np.sort(_cluster_means(nodes[merging], near[merging]), axis=1)
    return snapped


def _cluster_means(nodes: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Each node replaced by the mean of its cluster, the connected
    component of the ``near`` graph over its row: summed left to right over
    the sorted members, except that a cluster of equal nodes is that node,
    z + 0.0."""
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
    count = member.sum(axis=2)
    equal = (member <= (nodes[:, :, None] == nodes[:, None, :])).all(axis=2) & (count > 1)
    return np.where(equal, nodes + 0.0, _mean(total, count))


def _mean(total: np.ndarray, count) -> np.ndarray:
    """``total / count`` as the scalar recursion divides a cluster's sum by
    its size: a complex total by CPython's complex / int, which divides
    where numpy multiplies by a reciprocal, and makes the other part NaN
    where one part is infinite."""
    if not np.iscomplexobj(total):
        return total / count
    with np.errstate(all="ignore"):
        mean = total.astype(object) / np.asarray(count, dtype=object)
    return mean.astype(np.complex128)


def _derivative_fn(f: ScalarFunction, level: int) -> Callable:
    """``f^(level) / level!`` as a function of one node (``f`` at level 0):
    the recursion's entry at a window of ``level + 1`` equal nodes."""
    if level == 0:
        return f
    return lambda z: f.derivative(z, level) / math.factorial(level)


def _divided_differences(f: ScalarFunction, nodes: np.ndarray) -> np.ndarray:
    """``f^[k]`` at each row of a (P, k+1) stack of node tuples: every row
    snapped (see :func:`_snapped_nodes`), then read as sorted indices into
    the distinct snapped nodes from the table over them (see
    :func:`_recursion`)."""
    snapped = _snapped_nodes(nodes)
    union, inverse = np.unique(snapped, return_inverse=True, equal_nan=False)
    # sorted again, since values that sort as equal (NaN) need not keep order
    tuples = list(np.sort(inverse.reshape(snapped.shape), axis=1).T)
    return _recursion(f, union, tuples, np.arange(len(nodes)))


def divided_difference(spec: DividedDifferenceSpec):
    """Evaluate the divided difference by the standard recursive table.

    Separated nodes use the difference-quotient recursion; any run of
    coincident nodes of length r+1 contributes ``f^(r)(z) / r!``.  The result
    is symmetric in node order (nodes are sorted internally, a NaN last as
    numpy sorts), with the bits of the scalar recursion except the sign and
    payload of a NaN result (sorting writes every NaN node back as +NaN) and
    where a NaN node stands among others, which the recursion's Python
    ``sorted`` leaves in place; as a float64 or, when the recursion's value
    is complex, a complex128.
    """
    value = _divided_differences(spec.f, np.array([spec.nodes]))[0]
    return np.complex128(value) if np.iscomplexobj(value) else np.float64(value)


def _divided_difference_grid(
    f: ScalarFunction, order: int, axes: Sequence[np.ndarray]
) -> np.ndarray:
    """The grid of ``f^[order]`` on the Cartesian product of the axes: each
    point takes the value of its tuple (see :func:`_tuple_values`)."""
    values, at = _tuple_values(f, order, axes, True)
    return values[at]


def _tuple_values(f: ScalarFunction, order: int, axes: Sequence[np.ndarray], points: bool):
    """``f^[order]`` (complex) at sorted tuples of the grid of the axes,
    and, when ``points``, the index of each point's tuple among them; some
    point holds each tuple, so ``max |values|`` is the grid's.

    ``f^[order]`` is symmetric in its nodes, and :func:`_snapped_nodes`
    sorts every tuple first, so a point's value is that of its nodes as a
    non-decreasing tuple of indices into the sorted union of the axes.  An
    axis given for several slots is converted once.  When every axis holds
    the same values, none NaN, the tuples are every multiset of k + 1 of
    the axis's distinct nodes in lexicographic order (see
    :func:`_multisets`), and a point's index is its multiset's, from one
    lookup table (see :func:`_grid_ranks`); a strictly ascending real axis,
    as ``eigh`` returns it, is its own union.
    Else the tuples are every point's own sorted indices (see
    :func:`_sorted_indices`), and a point's index is its place in the grid.
    Each tuple that snapping may move, one with a node near another value of
    the union or not finite, is snapped once (see :func:`_snapped`): its
    snapped values join the nodes, and its indices point at them.  The
    scalar recursion then runs on every tuple at once (see
    :func:`_recursion`).
    """
    distinct = {id(a): a for a in axes}
    dtype = (np.complex128 if any(np.iscomplexobj(a) for a in distinct.values())
             else np.float64)
    # every node snaps to at least z + 0.0, so -0.0 is +0.0 from here on
    converted = {key: np.asarray(a, dtype=dtype) + 0.0 for key, a in distinct.items()}
    axes = [converted[id(a)] for a in axes]
    shape = tuple(a.size for a in axes)
    if math.prod(shape) == 0:
        return np.empty(0, dtype=np.complex128), np.zeros(shape, dtype=np.intp)
    axis, *others = converted.values()
    if all(np.array_equal(a, axis) for a in others) and not np.isnan(axis).any():
        if dtype is np.float64 and (axis[1:] > axis[:-1]).all():
            union, inverse = axis, None
        else:
            union, inverse = np.unique(axis, return_inverse=True)
        count = math.comb(union.size + order, order + 1)
        tuples = _cached(_multisets, 8 * (order + 1) * count, union.size, order)
        if points:
            at = _cached(_grid_ranks, 8 * union.size ** len(axes), union.size, order)
            if inverse is not None:
                at = at[np.ix_(*[inverse] * len(axes))]
        else:
            # the first multiset is k + 1 copies of one node, like the
            # grid's first point: it fails whenever any tuple does
            at = np.arange(count)
    else:
        union, inverse = np.unique(np.concatenate(axes), return_inverse=True, equal_nan=False)
        ends = itertools.accumulate(shape)
        index = _sorted_indices([inverse[hi - n : hi] for n, hi in zip(shape, ends)])
        tuples = [s.ravel() for s in index]
        at = np.arange(tuples[0].size).reshape(shape)
    nodes, tuples = _snapped(union, tuples)
    return _recursion(f, nodes, tuples, at).astype(np.complex128, copy=False), at


def _cached(fn: Callable, nbytes: int, size: int, order: int):
    """``fn(size, order)`` from its cache when its arrays take ``nbytes``,
    at most a sixteenth of :data:`_GRID_CHUNK_BYTES`, else computed afresh."""
    return (fn if nbytes <= _GRID_CHUNK_BYTES // 16 else fn.__wrapped__)(size, order)


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
    with np.errstate(over="ignore"):  # a gap that overflows is not near
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
    that :func:`_snapped_nodes` makes of them: distinct nodes, the union's
    and those tuples snap to, and the tuples as indices into them, each
    sorted by its nodes.

    A tuple stays as it is when its indices are all equal (k + 1 copies of
    a node are that node) or when its nodes are all isolated in the union
    (see :func:`_isolated`), since each cluster is then a run of equal
    nodes.  Every other tuple goes through :func:`_snapped_nodes`, in chunks
    whose node differences take at most :data:`_GRID_CHUNK_BYTES`; the union
    with every node a tuple snaps to is then sorted again.
    """
    width = len(tuples)
    isolated = _isolated(union)
    if isolated.all():
        return union, tuples
    kept = (tuples[0] == tuples[-1]) | np.logical_and.reduce([isolated[t] for t in tuples])
    rest = np.flatnonzero(~kept)
    if rest.size == 0:
        return union, tuples
    rows = max(1, _GRID_CHUNK_BYTES // (16 * width**2))
    snapped = [
        _snapped_nodes(union[np.stack([t[rest[lo : lo + rows]] for t in tuples], 1)]).ravel()
        for lo in range(0, rest.size, rows)
    ]
    nodes, inverse = np.unique(np.concatenate([union, *snapped]),
                               return_inverse=True, equal_nan=False)
    tuples = [inverse[t] for t in tuples]
    # sorted again, since values that sort as equal (NaN) need not keep order
    for t, s in zip(tuples, np.sort(inverse[union.size:].reshape(-1, width), axis=1).T):
        t[rest] = s
    return nodes, tuples


@functools.lru_cache(maxsize=16)
def _multisets(size: int, order: int) -> list[np.ndarray]:
    """Every non-decreasing index tuple of length ``order`` + 1 below
    ``size``, in lexicographic order, one array per position: the tuples of
    each length, each extended by every index from its last one on.
    Cached, read-only; :func:`_tuple_values` asks the cache only for small
    lists (see :func:`_cached`)."""
    # the whole list first, so that a count past memory fails at once
    tuples = np.empty((order + 1, math.comb(size + order, order + 1)), dtype=np.intp)
    tuples[0, :size] = np.arange(size)
    width = size
    for level in range(1, order + 1):
        repeats = size - tuples[level - 1, :width]
        ends = np.cumsum(repeats)
        # each tuple's group counts up from its last index
        tuples[level, : ends[-1]] = np.arange(ends[-1]) - np.repeat(ends - size, repeats)
        tuples[:level, : ends[-1]] = np.repeat(tuples[:level, :width], repeats, axis=1)
        width = ends[-1]
    tuples.setflags(write=False)
    return list(tuples)


@functools.lru_cache(maxsize=16)
def _grid_ranks(size: int, order: int) -> np.ndarray:
    """The index among :func:`_multisets` of the sorted indices of every
    point of the grid of ``order`` + 1 slots, each on the indices below
    ``size``.  Lexicographic order is the grid's order, so a tuple's index
    is the number of non-decreasing points before it.  Cached, read-only;
    :func:`_tuple_values` asks the cache only for small arrays (see
    :func:`_cached`)."""
    shape = (size,) * (order + 1)
    at = np.ravel_multi_index(_sorted_indices([np.arange(size)] * (order + 1)), shape)
    ranks = (np.cumsum(at.ravel() == np.arange(at.size)) - 1)[at]
    ranks.setflags(write=False)
    return ranks


def _recursion(f: ScalarFunction, nodes: np.ndarray, tuples: list, at: np.ndarray) -> np.ndarray:
    """``f^[k]`` at index tuples into the distinct ``nodes``, one array of
    indices per position, each tuple sorted by its nodes: the value at each
    tuple, with the bits of the scalar recursion but for the sign and
    payload of a NaN.

    When a tuple's longest run of equal indices, less one, is a derivative
    order that ``f`` lacks, no value is computed: the error names the first
    such tuple among those that ``at`` lists, in its order.

    The scalar recursion runs on every tuple at once.  Level l holds
    ``f^[l]`` at each window of l + 1 consecutive indices of each tuple:
    ``f^(l)(z) / l!`` where the window's ends are equal, else the
    difference of the two level-(l-1) entries it spans over the difference
    of its end nodes.  Level 0 holds ``f`` at each index, and level k the
    tuple's value.

    ``f`` is called at the nodes of the tuples whose indices are not all
    equal, ``f^(l)`` for 0 < l < k at the nodes of their windows of l + 1
    equal indices, and ``f^(k)`` at the node of each tuple of k + 1 equal
    indices, once per node: the entries a tuple reads.  The other entries of
    equal ends hold 0, and no tuple's value reads them.

    The table runs in the arithmetic of the values it reads: float64 when
    the nodes are real and every value is a float, complex128 when every
    value is a numpy complex128, and else as an object array of the values
    themselves and the nodes as Python numbers, so that each subtraction and
    division is the Python or numpy operation of the scalar recursion.  An
    object table divides only where a window's ends differ, since Python
    raises on a zero step; the nodes are distinct, so no other step is zero.
    """
    order = len(tuples) - 1
    index = np.array(tuples)
    # at level l, whether each window of l + 1 indices has equal ends
    confluent = [index[level:] == index[:-level] for level in range(1, order + 1)]
    available = f.derivative_order_available
    if order > available:
        # the order of the highest derivative each tuple reads: its longest
        # run of equal indices, less one
        needed = np.zeros(index.shape[1], dtype=int)
        for level, windows in enumerate(confluent, 1):
            needed[windows.any(axis=0)] = level
        failing = needed > available
        if failing.any():  # name the first failing point
            size = int(needed[at.flat[np.argmax(failing[at])]]) + 1
            raise CapabilityError(
                f"confluent cluster of size {size} needs derivative order "
                f"{size - 1}, available {available}"
            )
    equal = index[0] == index[-1]
    read = np.zeros((order + 1, nodes.size), dtype=bool)
    read[0][np.compress(~equal, index, axis=1)] = True
    for level, windows in enumerate(confluent[:-1], 1):
        read[level][index[:-level][windows & ~equal]] = True
    read[order][index[0][equal]] = True
    points = nodes.tolist()
    columns = []
    for level in range(order + 1):
        fn = _derivative_fn(f, level)
        columns.append([fn(z) if wanted else 0.0
                        for z, wanted in zip(points, read[level].tolist())])
    values = list(itertools.chain(*map(itertools.compress, columns, read.tolist())))
    if not np.iscomplexobj(nodes) and all(isinstance(v, float) for v in values):
        dtype = np.float64
    elif all(isinstance(v, np.complex128) for v in values):
        dtype = np.complex128
    else:
        dtype, nodes = object, nodes.astype(object)
    at_nodes = nodes[index]
    table = np.array(columns[0], dtype=dtype)[index]
    with np.errstate(all="ignore"):
        for level, windows in enumerate(confluent, 1):
            if dtype is object:
                apart = ~windows
                quotient = np.empty(windows.shape, dtype=object)
                quotient[apart] = ((table[1:][apart] - table[:-1][apart])
                                   / (at_nodes[level:][apart] - at_nodes[:-level][apart]))
                table = quotient
            else:
                table = (table[1:] - table[:-1]) / (at_nodes[level:] - at_nodes[:-level])
            if windows.any():
                table[windows] = np.array(columns[level], dtype=dtype)[index[:-level][windows]]
    return table[0]


# ---------------------------------------------------------------------------
# Multivariate integrands
# ---------------------------------------------------------------------------


def _factor_key(fn: ScalarFunction):
    """What makes two factors the same: equal coefficients for polynomials
    (JSON integrands and :func:`multiply_by_slot_variable` build a fresh
    object per factor), identity for every other function."""
    if fn.kind == POLYNOMIAL:
        return (fn.coefficients.dtype.str, fn.coefficients.tobytes())
    return fn


def _sibling_spans(starts: np.ndarray, count: int) -> tuple[tuple[int, int, int], ...]:
    """For each group of more than one of ``count`` consecutive rows whose
    groups begin at ``starts``: its index, and the range of its rows after
    the first."""
    ends = np.append(starts[1:], count)
    return tuple((g, lo + 1, hi) for g, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist()))
                 if hi - lo > 1)


def _sibling_sums(rows: np.ndarray, starts: np.ndarray, spans: tuple) -> np.ndarray:
    """Per group of the rows that begin at ``starts``, its first row plus its
    other rows added left to right, in place (``rows`` is overwritten);
    ``spans`` is :func:`_sibling_spans` of ``starts``.  Below 4 further
    complex rows (8 real) these are the bits of ``np.add.reduceat``.
    """
    if not spans:
        return rows
    sums = rows[starts]
    for group, lo, hi in spans:
        rest = rows[lo]
        for i in range(lo + 1, hi):
            rest += rows[i]
        sums[group] += rest
    return sums


@dataclass(frozen=True)
class SeparableIntegrand:
    """A finite rank-one sum: psi(l_1..l_m) = sum_n prod_i f_{i,n}(l_i)."""

    arity: int
    terms: tuple[tuple[ScalarFunction, ...], ...]
    # (c_k..c_{k+Q}, k): what the word recurrence reads of a polynomial's
    # order-k divided difference; set only by _polynomial_dd_integrand
    _polynomial: tuple | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        arity = _integer(self.arity, "integrand arity must be a positive integer", "", 1)
        terms = tuple(tuple(term) for term in self.terms)
        if not terms:
            raise ValidationError("separable integrand needs at least one term")
        for k, term in enumerate(terms):
            if len(term) != arity:
                raise ValidationError(
                    f"term {k} has {len(term)} factors, expected {arity}"
                )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def constant(cls, arity: int, value=1.0) -> "SeparableIntegrand":
        arity = _integer(arity, "integrand arity must be a positive integer", "", 1)
        factors = [ScalarFunction.constant(1.0)] * (arity - 1)
        return cls(arity, ((ScalarFunction.constant(value), *factors),))

    @property
    def separable(self) -> "SeparableIntegrand":
        """The integrand itself: it is its own factored form (see
        :attr:`MultivariateFunction.separable`)."""
        return self

    def __call__(self, *point):
        """The value at a point given as coordinates or as one sequence."""
        if len(point) == 1 and isinstance(point[0], (tuple, list, np.ndarray)):
            point = tuple(point[0])
        return self.evaluate(point)

    def evaluate(self, point: Sequence) -> complex:
        if len(point) != self.arity:
            raise ValidationError(
                f"point has {len(point)} coordinates, expected {self.arity}"
            )
        return sum((math.prod((fn(x) for fn, x in zip(term, point)), start=1.0 + 0.0j)
                    for term in self.terms), start=0.0 + 0.0j)

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

    def factor_values(self, axes: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Per slot i, the values of its distinct factors on ``axes[i]``, one
        row per factor, each factor evaluated once by its own ``__call__`` and
        the rows stacked by ``np.array``.

        Polynomials with equal coefficients count as one factor, and slots
        given the same axis array and the same distinct factors share one
        array of values: callers must not write to it.
        """
        if len(axes) != self.arity:
            raise ValidationError("axis count must equal the integrand arity")
        done: dict = {}
        values = []
        for (distinct, _), axis in zip(self._slot_factors, axes):
            key = (id(axis), tuple(key for key, _ in distinct))
            if key not in done:
                done[key] = np.array([fn(axis) for _, fn in distinct])
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
        node, :func:`_sibling_sums` sums siblings over those offsets.
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
        axes = [np.asarray(a) for a in axes]
        values = [v.astype(np.complex128, copy=False) for v in self.factor_values(axes)]
        shape = axes[0].shape[:-1] + tuple(a.shape[-1] for a in axes)
        return self._term_sum(values, shape)

    def _term_sum(self, values: list[np.ndarray], shape: tuple):
        """Sum over the terms of the outer product of their factor values,
        each product formed factor by factor in slot order."""
        views = []
        for i in range(self.arity):
            view = [None] * self.arity
            view[i] = slice(None)
            views.append((Ellipsis, *view))
        total = np.zeros(shape, dtype=values[0].dtype)
        for term in zip(*self.factor_index):
            prod = values[0][term[0]][views[0]]
            for i in range(1, self.arity):
                prod = prod * values[i][term[i]][views[i]]
            total += prod
        return total

    def scaled(self, factor) -> "SeparableIntegrand":
        terms = tuple((term[0].scaled(factor), *term[1:]) for term in self.terms)
        return SeparableIntegrand(self.arity, terms)

    def plus(self, other: "SeparableIntegrand") -> "SeparableIntegrand":
        if other.arity != self.arity:
            raise ValidationError("cannot add integrands of different arity")
        return SeparableIntegrand(self.arity, self.terms + other.terms)


@dataclass(frozen=True)
class MultivariateFunction:
    """An arity-m scalar map with no factored form.

    :meth:`eval_grid` evaluates the map point by point, unless the code that
    built it gave a whole-grid evaluation: ``_grid(axes)``, the values
    ``evaluate`` gives on the Cartesian product of the axes, as a complex
    array, and optionally ``_sup(axes)``, ``max |_grid(axes)|`` with its bits
    (see :func:`_sup_norms`)."""

    arity: int
    evaluate: Callable
    _grid: Callable | None = field(default=None, kw_only=True, repr=False, compare=False)
    _sup: Callable | None = field(default=None, kw_only=True, repr=False, compare=False)

    # the factored form, which only a SeparableIntegrand has: callers that
    # take either kind branch on it
    separable = None

    def __post_init__(self):
        object.__setattr__(self, "arity", _integer(
            self.arity, "integrand arity must be a positive integer", "", 1))

    __call__ = SeparableIntegrand.__call__

    def eval_grid(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        axes = [np.asarray(a) for a in axes]
        if self._grid is not None:
            return self._grid(axes)
        shape = tuple(a.size for a in axes)
        out = np.empty(shape, dtype=np.complex128)
        for idx in np.ndindex(shape):
            out[idx] = self.evaluate(tuple(ax[i] for ax, i in zip(axes, idx)))
        return out


def _as_integrand(integrand):
    """The integrand, once checked to be a :class:`MultivariateFunction` or
    a :class:`SeparableIntegrand`."""
    if not isinstance(integrand, (MultivariateFunction, SeparableIntegrand)):
        raise ValidationError(
            "integrand must be a MultivariateFunction or SeparableIntegrand"
        )
    return integrand


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


def divided_difference_integrand(
    f: ScalarFunction, order: int
) -> SeparableIntegrand | MultivariateFunction:
    """The arity-(order+1) integrand ``(l_0..l_k) -> f^[k](l_0..l_k)``.

    A polynomial's is a :class:`SeparableIntegrand`, exact, built once per
    coefficient array and order and then shared by every caller, which the
    engine, its sup and its projective bound sum over words (see
    :func:`_polynomial_dd_integrand`).  Other kinds evaluate the
    recursive divided-difference table: point by point through
    :func:`divided_difference`, and a whole grid through
    :func:`_divided_difference_grid`, which evaluates sorted tuples of
    indices into the union of the axes (the divided difference is symmetric
    in its nodes; on equal axes each multiset once), runs the recursion on
    every tuple, once snapped, at once, and calls ``f`` and each derivative once per node
    whose value the grid reads.  Its sup (see :func:`_sup_norms`) is the max
    over those tuples' values, with no grid.
    """
    order = _integer(order, "orders must be integers", "", None)
    if order < 0:
        raise ParameterError("divided-difference order must be nonnegative")
    if f.kind == POLYNOMIAL:
        coefficients = f.coefficients
        return _polynomial_dd_integrand(
            coefficients.dtype.str, coefficients.tobytes(), order
        )

    def evaluate(point, _f=f, _k=order):
        return divided_difference(DividedDifferenceSpec(_f, _k, tuple(point)))

    return MultivariateFunction(
        order + 1, evaluate,
        _grid=lambda axes, _f=f, _k=order: _divided_difference_grid(_f, _k, axes),
        _sup=lambda axes, _f=f, _k=order: np.max(
            np.abs(_tuple_values(_f, _k, axes, False)[0])),
    )


@functools.lru_cache(maxsize=256)
def _polynomial_dd_integrand(dtype: str, data: bytes, order: int) -> SeparableIntegrand:
    """:func:`divided_difference_integrand` of the polynomial whose
    coefficient array has this dtype and these bytes.

    The order-k divided difference of x^p is the complete homogeneous
    symmetric polynomial h_{p-k} of degree p-k in the k+1 nodes; expanding
    it monomial by monomial gives an exact rank-one sum with no divisions,
    so evaluation stays stable at clustered nodes.  The engine, the sup and
    the projective bound sum its words from c_k..c_{k+Q} instead
    (:func:`_word_sums`).
    """
    slots = order + 1
    monomial = functools.cache(ScalarFunction.monomial)  # one factor object per exponent
    coefficients = np.frombuffer(data, dtype=dtype)
    words = np.trim_zeros(coefficients[order:], "b")
    terms = []
    for p, c in enumerate(coefficients):
        if c == 0 or p < order:
            continue
        leading = functools.cache(lambda e, c=c: ScalarFunction.monomial(e, c))
        for e, *rest in exponent_tuples(p - order, slots):
            terms.append((leading(e), *map(monomial, rest)))
    if not terms:
        terms.append(tuple(ScalarFunction.constant(0.0) for _ in range(slots)))
        words = np.zeros(1, dtype=dtype)
    return SeparableIntegrand(slots, tuple(terms), _polynomial=(words, order))


def _word_sums(coefficients: np.ndarray, nodes: Sequence[np.ndarray], rotated=None) -> np.ndarray:
    """f^[k] = sum_p c_p h_{p-k}, given c_k..c_{k+Q}: the words
    D_0^e_0 Y_1 D_1^e_1 ... Y_k D_k^e_k of degree p - k weighted by c_p,
    summed by Horner's rule with no division.  C_0[Q] = c_{k+Q},
    C_0[s] = c_{k+s} + D_0 C_0[s+1], each slot j = 1..k takes
    C_j[s] = C_{j-1}[s] Y_j + C_j[s+1] D_j, and C_k[0] is the sum.
    ``nodes`` holds each slot's D_j: the sup's and the projective bound's
    scalars, with every Y_j = 1, or, with the ``rotated`` Y_j, the engine's
    diagonals, (N, n) each.  The sums take the dtype of the coefficients and
    every slot's nodes.  No sum runs over the samples."""
    degree = len(coefficients) - 1
    sums = np.empty((degree + 1,) + nodes[0].shape, dtype=np.result_type(coefficients, *nodes))
    sums[degree] = coefficients[degree]
    for s in range(degree - 1, -1, -1):
        np.multiply(sums[s + 1], nodes[0], out=sums[s])
        sums[s] += coefficients[s]
    for j, scale in enumerate(nodes[1:]):
        if rotated is not None:  # D_0 scales the rows of Y_1
            sums = sums @ rotated[j] if j else sums[..., None] * rotated[0]
            scale = scale[:, None, :]
        for s in range(degree - 1, -1, -1):
            sums[s] += sums[s + 1] * scale
    return sums[0]


# ---------------------------------------------------------------------------
# Norm surrogates
# ---------------------------------------------------------------------------


def _checked_spectra(spectra: Sequence[Sequence], arity: int) -> list[np.ndarray]:
    """The spectra as arrays of numbers, one per integrand slot, each
    one-dimensional and non-empty; the same spectrum object given twice
    gives the same array, so that its evaluations stay shared (see
    :meth:`SeparableIntegrand.factor_values`)."""
    if len(spectra) != arity:
        raise ValidationError("spectra count must equal the integrand arity")
    arrays: dict = {}
    axes = [arrays.setdefault(id(s), _numeric(s, f"spectrum {i} must hold numbers"))
            for i, s in enumerate(spectra)]
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
    given representation, not on the abstract function.  For a polynomial's
    divided difference that sum is ``sum_p |c_p| h_{p-k}(R_0..R_k)``, R_j
    the largest |l| of spectrum j, and its words sum it (:func:`_word_sums`);
    as a factor is NaN at a node that is not finite, so is the bound.
    """
    spectra = _checked_spectra(spectra, psi.arity)
    if psi._polynomial is not None:
        radii = np.array([np.max(np.abs(s)) if np.isfinite(s).all() else np.nan
                          for s in spectra])
        return float(_word_sums(np.abs(psi._polynomial[0]), radii[:, None])[0])
    maxima = [np.max(np.abs(v), axis=1) for v in psi.factor_values(spectra)]
    return sum(math.prod(float(maximum[row]) for maximum, row in zip(maxima, term))
               for term in zip(*psi.factor_index))


def _batch_of_one(arrays: Sequence) -> list[np.ndarray]:
    """The arrays with a leading sample axis of length one; the same array
    given twice gets the same view, so that its factor evaluations stay
    shared (see :meth:`SeparableIntegrand.factor_values`)."""
    views: dict = {}
    return [views.setdefault(id(a), np.asarray(a)[None]) for a in arrays]


def _sample(arrays: Sequence[np.ndarray], s: int) -> list[np.ndarray]:
    """Sample ``s`` of each array stacked over samples; the same array given
    twice gives the same view, so that slots sharing an axis still share it
    (see :func:`_tuple_values`)."""
    views: dict = {}
    return [views.setdefault(id(a), a[s]) for a in arrays]


def sup_norm_on_grid(psi, spectra: Sequence[Sequence]) -> float:
    """Max of |psi| over the Cartesian product of the spectra; ``psi`` is a
    :class:`MultivariateFunction` or a :class:`SeparableIntegrand`.  A
    divided difference reads no grid: a non-polynomial one on equal spectra
    reads each multiset of their nodes once, and a polynomial's sums its
    words, within a few ulps (see :func:`_sup_norms`)."""
    psi = _as_integrand(psi)
    return float(_sup_norms(psi, _batch_of_one(_checked_spectra(spectra, psi.arity)))[0])


# Bytes of grid that :func:`_sup_norms` sums at a time: about a core's L2
# cache, so that each block's grid is built and reduced while it is cached.
_SUP_BLOCK_BYTES = 256 * 2**10


def _sup_norms(psi, axes: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`sup_norm_on_grid` per sample, on spectra of shape (N, n_i)
    stacked over samples: per sample, the bits of ``max |psi.eval_grid|``
    but where the word recurrence sums it.

    A polynomial's divided difference sums its words on any axes (see
    :func:`_word_sup_norms`).  Any other separable integrand's factor values
    are computed once for all samples.  With one term and real values, the
    sup is the product, in slot order, of the per-slot maxima of |f_i|:
    rounding to nearest is monotone and symmetric in sign, so the largest
    |fl(..fl(a b) c ..)| over the grid is that product of the largest |a|,
    |b|, |c|, ....  When that product is not finite, and for every other
    separable integrand, the grid is summed as ``eval_grid`` sums it (see
    :func:`_grid_sup_norms`), with one point of each slot whose values are
    equal along its axis.  Any other integrand is evaluated sample
    by sample: a non-polynomial divided difference at the sorted tuples of
    its grid (see :func:`_tuple_values`), with no grid when every slot
    holds one axis, and any other on its whole grid.
    """
    separable = psi.separable
    if separable is None:
        sup = psi._sup or (lambda sample: np.max(np.abs(psi.eval_grid(sample))))
        return np.array([sup(_sample(axes, s)) for s in range(len(axes[0]))])
    if separable._polynomial is not None:
        return _word_sup_norms(*separable._polynomial, axes)
    values = separable.factor_values(axes)
    # a slot whose values are equal along its axis (NaN never is) needs one point of it
    values = [v[..., :1] if (v == v[..., :1]).all() else v for v in values]
    if len(separable.terms) == 1 and not any(np.iscomplexobj(v) for v in values):
        maxima = [np.max(np.abs(v[0]), axis=-1) for v in values]
        with np.errstate(over="ignore", invalid="ignore"):
            sup = functools.reduce(np.multiply, maxima)
        if np.all(np.isfinite(sup)):
            return sup
    return _grid_sup_norms(separable, values)


def _grid_sup_norms(psi: SeparableIntegrand, values: list[np.ndarray]) -> np.ndarray:
    """Per sample, ``max |psi.eval_grid|`` on the grid that the factor values
    span (per slot (F_i, N, n_i), as :meth:`SeparableIntegrand.factor_values`
    gives them), summed as ``eval_grid`` sums it: in complex128, every factor
    kept, one block of about :data:`_SUP_BLOCK_BYTES` of grid at a time."""
    values = [v.astype(np.complex128, copy=False) for v in values]
    points = tuple(v.shape[-1] for v in values)
    rows = max(1, _SUP_BLOCK_BYTES // (16 * math.prod(points)))
    sup = np.empty(values[0].shape[1])
    for lo in range(0, sup.size, rows):
        block = sup[lo : lo + rows]
        grid = psi._term_sum([v[:, lo : lo + rows] for v in values], block.shape + points)
        block[:] = np.max(np.abs(grid.reshape(len(grid), -1)), axis=1)
    return sup


def _word_sup_norms(coefficients: np.ndarray, order: int,
                    axes: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`_sup_norms` of an order-k polynomial divided difference on
    ``axes``, (N, n_i) each: per sample, max |f^[k]| by the scalar word
    recurrence, Y_j = 1, samples last, over the multisets of
    :func:`_multisets` when every slot holds the same values, else over
    every point of the grid (one point if f^[k] is constant), in blocks of
    about :data:`_SUP_BLOCK_BYTES` per degree; NaN where a node is not
    finite, as on the grid."""
    equal = all(np.array_equal(a, axes[0]) for a in axes[1:])
    nodes = ([np.ascontiguousarray(axes[0].T)] * len(axes) if equal
             else [np.ascontiguousarray(a.T) for a in axes])
    sizes = [len(n) if len(coefficients) > 1 else 1 for n in nodes]
    if equal:
        tuples = _cached(_multisets, 8 * (order + 1) * math.comb(sizes[0] + order, order + 1),
                         sizes[0], order)
    count = tuples[0].size if equal else math.prod(sizes)
    itemsize = np.result_type(coefficients, *nodes).itemsize
    rows = max(1, _SUP_BLOCK_BYTES // (itemsize * len(coefficients) * max(len(axes[0]), 1)))
    sup = np.zeros(len(axes[0]))
    for lo in range(0, count, rows):
        block = np.arange(lo, min(lo + rows, count))
        index = [t[block] for t in tuples] if equal else np.unravel_index(block, sizes)
        total = _word_sums(coefficients, [n[i] for n, i in zip(nodes, index)])
        np.maximum(sup, np.max(np.abs(total), axis=0), out=sup)  # a NaN passes on
    sup[~np.logical_and.reduce([np.isfinite(a).all(axis=1) for a in axes])] = np.nan
    return sup
