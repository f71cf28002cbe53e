"""The divided-difference grid on separated nodes with exact repeats, which
the recursive table over the union of the axes serves, against the scalar
recursion of ``oracles.divided_difference_per_point``: a property over
random axes (the fixed cases are in ``test_integrands.TestUnionTable``)."""

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
