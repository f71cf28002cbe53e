"""Scalar integrand functions and their multivariate combinations.

Covers scalar functions with derivative access (polynomials, callables with
supplied derivatives, plain callables with numerical differentiation),
divided differences with confluent-node handling, separable (rank-one-sum)
representations of multivariate integrands, and the computable projective
norm surrogate used by every certified bound in the package.

Divided differences are evaluated by one vectorized recursive table
(:func:`_divided_differences`) on a stack of node tuples: the grid of a
non-polynomial divided-difference integrand is one such stack, calling f
once per distinct node and holding one tuple per multiset of indices over
axes with equal values, and :func:`divided_difference` is a stack of one.

A separable integrand evaluates the polynomial factors of each slot
together, by one Horner pass over a zero-padded coefficient table
(:class:`_FactorTable`), with the bits of each factor's own ``polyval``.

The sup surrogate (:func:`sup_norm_on_grid`, and :func:`_sup_norms` on
spectra stacked over samples) has the bits of ``max |eval_grid|`` without
keeping a stacked grid: a one-term integrand with real values takes the
ordered product of its per-slot maxima, exact because rounding to nearest
is monotone and symmetric in sign, and any other separable integrand is
summed in blocks of samples that fit in a core's L2 cache, each reduced to
its per-sample maxima at once.
"""

from __future__ import annotations

import functools
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
        return 1e-7 * np.maximum(1.0, np.max(_modulus(nodes), axis=-1))


# Bytes the largest intermediate array of a divided-difference grid may take
# (the (P, k+1, k+1) node differences); the grid is evaluated in chunks of
# points that fit.
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
    # label propagation: every node takes the least label among its
    # neighbours until the labels settle, one per cluster
    labels = np.broadcast_to(np.arange(width), nodes.shape)
    while True:
        settled = np.where(near, labels[:, None, :], width).min(axis=2)
        if np.array_equal(settled, labels):
            break
        labels = settled
    member = labels[:, :, None] == labels[:, None, :]
    total = np.zeros_like(nodes)
    for j in range(width):
        total += np.where(member[:, :, j], nodes[:, j, None], 0.0)
    count = member.sum(axis=2)
    # component-wise, as Python's complex / int is: numpy's complex division
    # by a count can differ from it in the last place
    mean = np.empty_like(total)
    mean.real = total.real / count
    if np.iscomplexobj(total):
        mean.imag = total.imag / count
    return mean


def _distinct_values(fn, nodes: np.ndarray, memo: dict) -> tuple[list, np.ndarray]:
    """``fn`` at each of the 1-D ``nodes``, called once per distinct node as
    a Python scalar: the distinct values, and the index of each node's value
    among them.  ``memo`` keeps the values across calls."""
    if nodes.size == 0:
        return [], np.zeros(0, dtype=np.intp)
    distinct, inverse = np.unique(nodes, return_inverse=True)
    values = []
    for z in distinct.tolist():
        if z not in memo:
            memo[z] = fn(z)
        values.append(memo[z])
    return values, inverse


def _divided_differences(f: ScalarFunction, nodes: np.ndarray, memo: dict):
    """``f^[k]`` at each row of a (P, k+1) stack of node tuples (float64, or
    complex128 for complex nodes): the recursive table of
    :func:`divided_difference`, evaluated for every row at once.

    Returns the P values and whether each is complex.  ``f`` and its
    derivatives are called once per distinct node and order, through
    ``memo``, which maps each order to the values found so far.
    """
    ordered = _snapped_nodes(nodes)
    points, width = ordered.shape
    confluent = [None] + [
        ordered[:, level:] == ordered[:, :-level] for level in range(1, width)
    ]
    needed = np.zeros(points, dtype=int)
    for level in range(1, width):
        needed[confluent[level].any(axis=1)] = level
    failed = np.flatnonzero(needed > f.derivative_order_available)
    if failed.size:
        multiplicity = int(needed[failed[0]]) + 1
        raise CapabilityError(
            f"confluent cluster of size {multiplicity} needs derivative order "
            f"{multiplicity - 1}, available {f.derivative_order_available}"
        )
    # per level: f^(level)(z) / level! at every confluent entry (f(z) at
    # every entry of level 0), from one call per distinct node
    values, index = _distinct_values(f, ordered.ravel(), memo.setdefault(0, {}))
    columns = [(values, index.reshape(ordered.shape))]
    for level in range(1, width):
        columns.append(_distinct_values(
            lambda z, _k=level: f.derivative(z, _k) / math.factorial(_k),
            ordered[:, :-level][confluent[level]],
            memo.setdefault(level, {}),
        ))
    complex_nodes = np.iscomplexobj(ordered)
    typed = complex_nodes or any(np.iscomplexobj(v) for values, _ in columns for v in values)
    tables = [_column(values, index, typed) for values, index in columns]
    table, kind = tables[0]
    with np.errstate(all="ignore"):
        for level in range(1, width):
            if typed:
                # complex when either value is; of Python type when both are
                kind = np.stack([kind[:, 1:, 0] | kind[:, :-1, 0] | complex_nodes,
                                 kind[:, 1:, 1] & kind[:, :-1, 1]], axis=-1)
            table = _quotient(table[:, 1:] - table[:, :-1],
                              ordered[:, level:] - ordered[:, :-level], kind)
            derivative, derivative_kind = tables[level]
            table[confluent[level]] = derivative
            if typed:
                kind[confluent[level]] = derivative_kind
    return table[:, 0], kind[:, 0, 0] if typed else np.zeros(points, dtype=bool)


def _column(values: list, index: np.ndarray, typed: bool):
    """The values at ``index``, real, or complex when ``typed``; then also,
    for each, whether it is complex and whether it is of Python type (not a
    numpy scalar or array), since the scalar recursion divided each kind its
    own way (see :func:`_quotient`)."""
    if not typed:
        return np.array(values, dtype=np.float64)[index], None
    kind = np.array(
        [(np.iscomplexobj(v), not isinstance(v, (np.generic, np.ndarray))) for v in values],
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


def divided_difference(spec: DividedDifferenceSpec):
    """Evaluate the divided difference by the standard recursive table.

    Separated nodes use the difference-quotient recursion; any run of
    coincident nodes of length r+1 contributes ``f^(r)(z) / r!``.  The result
    is symmetric in node order (nodes are sorted internally).
    """
    values, is_complex = _divided_differences(spec.f, np.array([spec.nodes]), {})
    return values[0] if is_complex[0] else values[0].real


def _divided_difference_grid(
    f: ScalarFunction, order: int, axes: Sequence[np.ndarray]
) -> np.ndarray:
    """The grid of ``f^[order]`` on the Cartesian product of the axes.

    ``f^[order]`` is symmetric in its nodes, and :func:`_snapped_nodes`
    sorts every tuple first, so permuting the indices of axes that hold the
    same values leaves a value's bits unchanged.  The table is evaluated
    once per canonical point (see :func:`_canonical_points`), in grid order
    and in chunks of at most :data:`_GRID_CHUNK_BYTES` of node differences;
    every point then takes its canonical point's value.
    """
    dtype = np.complex128 if any(np.iscomplexobj(a) for a in axes) else np.float64
    axes = [np.asarray(a, dtype=dtype) for a in axes]
    shape = tuple(a.size for a in axes)
    classes: dict = {}
    labels = tuple(classes.setdefault(a.tobytes(), len(classes)) for a in axes)
    points, canonical = _canonical_points(shape, labels)
    rows = max(1, _GRID_CHUNK_BYTES // (16 * (order + 1) ** 2))
    values = np.empty(points.size, dtype=np.complex128)
    memo: dict = {}
    for lo in range(0, points.size, rows):
        index = np.unravel_index(points[lo : lo + rows], shape)
        nodes = np.stack([a[i] for a, i in zip(axes, index)], axis=1)
        values[lo : lo + rows] = _divided_differences(f, nodes, memo)[0]
    return values[canonical].reshape(shape)


@functools.lru_cache(maxsize=16)
def _canonical_points(shape: tuple, labels: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The canonical points of a grid of this shape whose axes with equal
    labels hold equal values, and for every grid point the position of its
    canonical point among them.

    A point's canonical point sorts its indices ascending within each class
    of equal axes (all axes equal: the non-decreasing index tuples).
    Returns the flat grid indices of the canonical points, ascending, and
    the flat array of positions; both read-only, as they are shared by
    every grid of this shape and class structure.
    """
    dims = len(shape)
    index = [np.arange(n).reshape((n,) + (1,) * (dims - 1 - i)) for i, n in enumerate(shape)]
    for label in set(labels):
        members = [i for i in range(dims) if labels[i] == label]
        # insertion sort of the class's indices, one compare-exchange of
        # broadcast index arrays at a time
        for i in range(1, len(members)):
            for lo, hi in zip(members[i - 1 :: -1], members[i:0:-1]):
                index[lo], index[hi] = (np.minimum(index[lo], index[hi]),
                                        np.maximum(index[lo], index[hi]))
    flat = np.zeros(shape, dtype=np.intp)
    stride = 1
    for i in range(dims - 1, -1, -1):
        flat += index[i] * stride
        stride *= shape[i]
    flat = flat.ravel()
    points = np.flatnonzero(flat == np.arange(flat.size))
    position = np.empty(flat.size, dtype=np.intp)
    position[points] = np.arange(points.size)
    canonical = position[flat]
    points.setflags(write=False)
    canonical.setflags(write=False)
    return points, canonical


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


def _with_grid(psi: MultivariateFunction, grid: Callable) -> MultivariateFunction:
    """``psi``, whose :meth:`~MultivariateFunction.eval_grid` now returns
    ``grid(axes)``: the values ``psi.evaluate`` gives on the Cartesian
    product of the axes, as a complex array."""
    object.__setattr__(psi, "_grid", grid)
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
    :func:`divided_difference`, and a whole grid as one vectorized table
    that calls ``f`` once per distinct node and, over axes holding the same
    values, evaluates each multiset of indices once (the divided difference
    is symmetric in its nodes).
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
    :class:`MultivariateFunction` or a :class:`SeparableIntegrand`."""
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
    Any other integrand is evaluated sample by sample.
    """
    separable = psi.separable
    if separable is None:
        return np.array([np.max(np.abs(psi.eval_grid([a[s] for a in axes])))
                         for s in range(len(axes[0]))])
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
