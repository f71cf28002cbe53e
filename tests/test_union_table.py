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
    p / 997 is its own mean over three copies for only some p."""
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
# node itself: snapping moves every run of them
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


def test_windows_only_levels_have_the_bits_of_the_whole_levels(monkeypatch):
    # order 3 on 6 + 6 distinct nodes, snapped ones among them: level 2 of
    # the table holds C(12 + 2, 3) = 364 entries or more, beyond a bound of
    # 63 complex values, so it holds only the windows the tuples contain
    f = FUNCTIONS["exp"]()
    chain = np.array([0.1, 0.1 + 1e-9, 0.5, 0.5 + 0.9e-7, 0.5 + 1.8e-7, -0.053])
    axes = [chain, chain[::-1] + 2.0, chain, chain.copy()]
    whole = integrands._divided_difference_grid(f, 3, axes)
    windows = []
    window_levels = integrands._window_levels

    def spy(size, tuples):
        windows.append(size)
        return window_levels(size, tuples)

    monkeypatch.setattr(integrands, "_window_levels", spy)
    monkeypatch.setattr(integrands, "_GRID_CHUNK_BYTES", 16 * 63)
    assert integrands._divided_difference_grid(f, 3, axes).tobytes() == whole.tobytes()
    assert len(windows) == 1
    assert whole.tobytes() == oracles.divided_difference_grid_per_point(f, 3, axes).tobytes()
