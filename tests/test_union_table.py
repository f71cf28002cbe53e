"""The divided-difference grid against the scalar recursion of
``oracles.divided_difference_per_point``: properties over random axes of
separated nodes with exact repeats, and of clustered ones, whose tuples are
snapped before the recursive table over their nodes reads them (the fixed
cases are in ``test_integrands.TestUnionTable``)."""

import cmath

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import moikit as mk  # noqa: E402
from moikit import integrands  # noqa: E402

import oracles  # noqa: E402

FUNCTIONS = {
    "exp": lambda: mk.ScalarFunction.from_callable(np.exp, (np.exp,) * 4),
    # values of Python type, divided as CPython divides complex numbers
    "python_complex": lambda: mk.ScalarFunction.from_callable(cmath.exp, (cmath.exp,) * 4),
}


@st.composite
def separated_grids(draw):
    """An order 0..4 and its axes, drawn with repeats from a few nodes at
    least 2 pi / 997 apart, on the real line or the unit circle.  Node
    p / 997 is its own left-to-right mean over three copies for only some
    p, and a run of equal nodes must read the node itself."""
    order = draw(st.integers(0, 4))
    circle = draw(st.booleans())
    pool = draw(st.lists(st.integers(-498, 498), min_size=1, max_size=5, unique=True))
    nodes = [cmath.exp(2j * cmath.pi * p / 997) if circle else p / 997 for p in pool]
    size = 4 if order < 4 else 3
    axes = [np.array(draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=size)))
            for _ in range(order + 1)]
    return draw(st.sampled_from(sorted(FUNCTIONS))), order, axes


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(separated_grids())
def test_separated_grids_have_the_bits_of_the_per_point_recursion(case):
    name, order, axes = case
    f = FUNCTIONS[name]()
    expected = oracles.divided_difference_grid_per_point(f, order, axes)
    got = integrands._divided_difference_grid(f, order, axes)
    assert got.tobytes() == expected.tobytes()


FEW_DERIVATIVES = {
    **FUNCTIONS,
    # three equal nodes already need a derivative that it lacks
    "exp_one_derivative": lambda: mk.ScalarFunction.from_callable(np.exp, (np.exp,)),
}

# nodes whose mean over some run of copies, summed left to right, is not the
# node itself: a run of them is its own cluster, read at the node
INEXACT_MEANS = {"real": [0.1, -0.053], "circle": [cmath.exp(4.734462493192759j)]}


@st.composite
def clustered_grids(draw):
    """An order 0..4 and its axes, drawn with repeats from the nodes with
    inexact means and a few centres, each alone, with a node 1e-9 from it,
    or at the start of a chain of steps 0.9e-7 (each node within the merge
    radius of the next, the ends not), the steps relative to the centre's
    modulus and along the circle's tangent on the unit circle."""
    order = draw(st.integers(0, 4))
    circle = draw(st.booleans())
    nodes = list(INEXACT_MEANS["circle" if circle else "real"])
    for p in draw(st.lists(st.integers(-498, 498), min_size=1, max_size=3, unique=True)):
        z = cmath.exp(2j * cmath.pi * p / 997) if circle else p / 997
        step = 1j * z if circle else max(1.0, abs(z))
        nodes += [z + offset * step for offset in draw(st.sampled_from(
            [(0.0,), (0.0, 1e-9), (0.0, 0.9e-7, 1.8e-7)]))]
    size = 4 if order < 4 else 3
    axes = [np.array(draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=size)))
            for _ in range(order + 1)]
    return draw(st.sampled_from(sorted(FEW_DERIVATIVES))), order, axes


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the class and text of what it raised."""
    try:
        return fn(*args)
    except mk.CapabilityError as err:
        return type(err), str(err)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(clustered_grids())
def test_clustered_grids_have_the_bits_or_the_error_of_the_per_point_recursion(case):
    name, order, axes = case
    f = FEW_DERIVATIVES[name]()
    expected = outcome(oracles.divided_difference_grid_per_point, f, order, axes)
    got = outcome(integrands._divided_difference_grid, f, order, axes)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert got.tobytes() == expected.tobytes()


def test_a_grid_past_the_chunk_bytes_has_the_bits_of_the_per_point_recursion(monkeypatch):
    # order 3 on 6 + 6 distinct nodes, snapped ones among them: under a
    # bound of 63 complex values the 1296 points' tuples are snapped three
    # at a time
    f = FUNCTIONS["exp"]()
    chain = np.array([0.1, 0.1 + 1e-9, 0.5, 0.5 + 0.9e-7, 0.5 + 1.8e-7, -0.053])
    axes = [chain, chain[::-1] + 2.0, chain, chain.copy()]
    expected = oracles.divided_difference_grid_per_point(f, 3, axes)
    assert integrands._divided_difference_grid(f, 3, axes).tobytes() == expected.tobytes()
    monkeypatch.setattr(integrands, "_GRID_CHUNK_BYTES", 16 * 63)
    assert integrands._divided_difference_grid(f, 3, axes).tobytes() == expected.tobytes()


# Equal-axes sups: every slot on one axis, as every sup surrogate's spectra
# are, so that the tuples evaluated are the multisets of the axis's nodes

EQUAL_AXES = {
    "separated": np.array([-0.7, -0.2, 0.3, 0.9, 1.4]),
    "repeated": np.array([0.4, -0.3, 0.4, 0.4, -0.3]),
    # a pair and a chain of three inside the merge radius, and 0.1, whose
    # runs of three or more copies do not snap to 0.1 itself
    "clustered": np.array([0.5, 0.5 + 1e-9, -0.25, -0.25 + 0.9e-7, -0.25 + 1.8e-7, 0.1]),
    "complex": np.exp(1j * np.array([0.3, 0.3, 1.1, 1.1 + 1e-9, 2.0, -2.5])),
    "infinite": np.array([-np.inf, 0.5, np.inf, -0.3]),
    "nan": np.array([0.5, np.nan, -0.3]),
}


def grid_sup_bits(f, order, axis):
    """The bits of max |.| over the per-point recursion's grid on one axis."""
    grid = oracles.divided_difference_grid_per_point(f, order, [axis] * (order + 1))
    return np.max(np.abs(grid)).tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(EQUAL_AXES))
def test_equal_axes_sup_has_the_bits_of_the_per_point_grid(name, order):
    f = FUNCTIONS["exp"]()
    axis = EQUAL_AXES[name]
    psi = mk.divided_difference_integrand(f, order)
    with np.errstate(all="ignore"):
        expected = grid_sup_bits(f, order, axis)
        got = mk.sup_norm_on_grid(psi, [axis] * (order + 1))
        # stacked over samples, as the harness passes spectra
        stacked = np.stack([axis, axis[::-1]])
        sups = integrands._sup_norms(psi, [stacked] * (order + 1))
    assert np.float64(got).tobytes() == expected
    assert sups[0].tobytes() == expected
    assert sups[1].tobytes() == expected


@pytest.mark.parametrize("order", [1, 2, 3])
def test_equal_axes_of_a_nan_node_have_the_bits_of_the_per_point_grid(order):
    # NaN equals no node, itself included, so no point holds one node k + 1
    # times and no value reads f^(k) at NaN, which here is finite
    f = mk.ScalarFunction.from_callable(np.exp, (lambda x: 1.0,) * 3)
    axis = np.array([np.nan])
    psi = mk.divided_difference_integrand(f, order)
    with np.errstate(all="ignore"):
        expected = grid_sup_bits(f, order, axis)
        got = mk.sup_norm_on_grid(psi, [axis] * (order + 1))
    assert np.isnan(got)
    assert np.float64(got).tobytes() == expected


@st.composite
def spread_axes(draw):
    """An order 0..3 and one axis of up to five nodes, drawn with repeats
    from a centre plus offsets of up to one spread, the spread from 1e-12
    to 1: from nodes that all merge to separated ones."""
    order = draw(st.integers(0, 3))
    centre = draw(st.sampled_from([0.0, 0.3, -1.7, 25.0]))
    spread = 10.0 ** draw(st.integers(-12, 0))
    offsets = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
    nodes = [centre + spread * k / 4 for k in offsets]
    size = 5 if order < 3 else 4
    axis = np.array(draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=size)))
    return order, axis


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(spread_axes())
def test_equal_axes_sup_has_the_bits_of_the_per_point_grid_at_any_spread(case):
    order, axis = case
    f = FUNCTIONS["exp"]()
    psi = mk.divided_difference_integrand(f, order)
    got = mk.sup_norm_on_grid(psi, [axis] * (order + 1))
    assert np.float64(got).tobytes() == grid_sup_bits(f, order, axis)


def test_equal_axes_sup_calls_f_once_per_distinct_node(monkeypatch):
    calls = []

    def counted(fn, level):
        def traced(x):
            calls.append((level, complex(x)))
            return fn(x)
        return traced

    f = mk.ScalarFunction.from_callable(
        counted(np.exp, 0), (counted(np.exp, 1), counted(np.exp, 2))
    )
    axis = EQUAL_AXES["clustered"]
    mk.divided_difference_integrand(f, 2).eval_grid([axis] * 3)
    grid_calls = list(calls)
    calls.clear()
    # no point of the grid is sorted, ranked or gathered
    monkeypatch.setattr(integrands, "_sorted_indices", None)
    mk.sup_norm_on_grid(mk.divided_difference_integrand(f, 2), [axis] * 3)
    assert {level for level, _ in calls} == {0, 1, 2}
    assert len(calls) == len(set(calls))
    # the tuples, and so the entries the table reads, are the grid's
    assert calls == grid_calls


@pytest.mark.parametrize("name", ["separated", "clustered"])
def test_equal_axes_sup_raises_the_error_of_the_grid(name):
    f = mk.ScalarFunction.from_callable(np.exp, (np.exp,))
    axes = [EQUAL_AXES[name]] * 3
    psi = mk.divided_difference_integrand(f, 2)
    expected = outcome(psi.eval_grid, axes)
    assert expected[0] is mk.CapabilityError
    assert outcome(oracles.divided_difference_grid_per_point, f, 2, axes) == expected
    assert outcome(mk.sup_norm_on_grid, psi, axes) == expected
