"""The factored engine path against the grid path.

``moi_core`` evaluates an integrand that has a separable representation in
factored form, and any other integrand on the n^m eigenvalue grid.  These
tests strip the representation (``conftest.grid_path``) or contract the grid
by hand (``oracles.grid_contraction``) to compare the two paths.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import moikit as mk  # noqa: E402
from moikit import moi  # noqa: E402

import oracles  # noqa: E402
from conftest import grid_path  # noqa: E402

RTOL = 1e-12
# The stripped integrand is evaluated point by point, so the dimension is
# capped per operator count to keep n^m at most 1024.
MAX_DIM = {1: 8, 2: 8, 3: 8, 4: 5, 5: 4}


def relative_difference(value, reference):
    """Frobenius distance relative to the reference (0 when both are 0)."""
    return float(np.linalg.norm(value - reference)) / max(
        float(np.linalg.norm(reference)), 1e-300
    )


def random_terms(rng, arity, degree):
    """A few terms whose factors come from a small pool of polynomials, so
    that terms share factors."""
    pool = [
        mk.ScalarFunction.polynomial(rng.standard_normal(int(rng.integers(0, degree + 1)) + 1))
        for _ in range(3)
    ]
    count = int(rng.integers(1, 6))
    terms = tuple(
        tuple(pool[int(rng.integers(len(pool)))] for _ in range(arity))
        for _ in range(count)
    )
    return mk.SeparableIntegrand(arity, terms)


@st.composite
def instances(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, MAX_DIM[m]))
    degree = draw(st.integers(0, 6))
    repeated = draw(st.booleans())
    divided_difference = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = mk.RandomOperatorModel(n, ("uniform", -1.0, 1.0))
    if repeated:  # the shape kth_derivative evaluates
        operators = [mk.sample_random_hermitian(model, rng)] * m
    else:
        operators = [mk.sample_random_hermitian(model, rng) for _ in range(m)]
    arguments = [mk.random_hermitian(n, rng) for _ in range(m - 1)]
    if divided_difference:
        f = mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
        psi = mk.divided_difference_integrand(f, m - 1).separable
    else:
        psi = random_terms(rng, m, degree)
    return operators, psi, arguments


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(instances())
def test_factored_path_matches_grid_path(instance):
    operators, psi, arguments = instance
    factored = mk.moi_core(operators, psi, arguments)
    grid = mk.moi_core(operators, grid_path(psi), arguments)
    assert relative_difference(factored, grid) <= RTOL


@pytest.mark.parametrize("n, m", [(64, 3), (32, 4), (12, 5)])
def test_factored_path_matches_grid_at_engine_shapes(n, m):
    rng = np.random.default_rng(7000 + n + m)
    model = mk.RandomOperatorModel(n, ("uniform", -1.0, 1.0))
    operators = [mk.sample_random_hermitian(model, rng) for _ in range(m)]
    arguments = [mk.random_hermitian(n, rng, norm=1.0) for _ in range(m - 1)]
    f = mk.ScalarFunction.polynomial(rng.standard_normal(7))
    psi = mk.divided_difference_integrand(f, m - 1).separable
    factored = mk.moi_core(operators, psi, arguments)
    grid = oracles.grid_contraction(operators, psi.eval_grid, arguments)
    assert relative_difference(factored, grid) <= RTOL


def test_each_distinct_factor_is_evaluated_once_per_axis(rng):
    calls = []

    def traced(x):  # called once per eigenvalue
        calls.append(x)
        return np.cos(x)

    cos = mk.ScalarFunction.from_callable(traced)
    one = mk.ScalarFunction.constant(1.0)
    psi = mk.SeparableIntegrand(
        3,
        (
            (cos, mk.ScalarFunction.monomial(2), cos),
            (one, mk.ScalarFunction.monomial(2), cos),
            (cos, one, mk.ScalarFunction.constant(1.0)),
        ),
    )
    model = mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0))
    op = mk.sample_random_hermitian(model, rng)
    args = [mk.random_hermitian(4, rng) for _ in range(2)]
    factored = mk.moi_core([op] * 3, psi, args)
    assert len(calls) == 4  # one evaluation on the axis all three slots share
    grid = mk.moi_core([op] * 3, grid_path(psi), args)
    assert relative_difference(factored, grid) <= RTOL


def test_sup_surrogate_grid_is_unchanged_by_factor_sharing(rng):
    """eval_grid forms each term's product factor by factor in slot order,
    as a term-by-term evaluation does, so the surrogate is bitwise equal."""
    f = mk.ScalarFunction.polynomial(rng.standard_normal(6))
    psi = mk.divided_difference_integrand(f, 2).separable
    axis = rng.uniform(-1.0, 1.0, 5)
    axes = [axis] * 3
    expected = np.zeros((5, 5, 5), dtype=np.complex128)
    for term in psi.terms:
        prod = np.ones((5, 5, 5), dtype=np.complex128)
        for i, fn in enumerate(term):
            view = [None] * 3
            view[i] = slice(None)
            prod = prod * np.asarray(fn(axis), dtype=np.complex128)[tuple(view)]
        expected += prod
    assert np.array_equal(psi.eval_grid(axes), expected)


@pytest.mark.parametrize("m, separable", [(1, True), (2, True), (3, True), (2, False)])
def test_moi_core_is_a_batch_of_one_of_the_stacked_evaluation(m, separable):
    """moi_core evaluates one sample through the same code that evaluates
    stacked samples (factored path for all at once, grid path one by one),
    so each sample of a stacked call has the bits of its own call."""
    rng = np.random.default_rng(40 + m)
    model = mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0))
    samples = [[mk.sample_random_hermitian(model, rng) for _ in range(m)] for _ in range(5)]
    arguments = [mk.random_hermitian(4, rng) for _ in range(m - 1)]
    psi = mk.divided_difference_integrand(
        mk.ScalarFunction.polynomial(rng.standard_normal(6)), m - 1
    )
    if not separable:
        psi = grid_path(psi)
    eigenvalues = [np.stack([ops[i].decomposition.eigenvalues for ops in samples])
                   for i in range(m)]
    bases = [np.stack([ops[i].decomposition.basis for ops in samples]) for i in range(m)]
    stacked = moi._stacked_moi(psi, eigenvalues, bases, arguments)
    for s, ops in enumerate(samples):
        assert mk.moi_core(ops, psi, arguments).tobytes() == stacked[s].tobytes()


def test_grid_that_overflows_in_real_arithmetic_is_evaluated_in_complex():
    """The grid of real factor values is summed in complex arithmetic, where
    overflow turns into NaN rather than inf, and so is the sup surrogate of
    a grid that is not finite in real arithmetic."""
    big = mk.ScalarFunction.constant(1e200)
    psi = mk.SeparableIntegrand(4, ((big,) * 4,))
    axes = [np.linspace(-1.0, 1.0, 3)] * 4
    expected = np.ones((3, 3, 3, 3), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(4):
            view = [None] * 4
            view[i] = slice(None)
            expected = expected * np.full(3, 1e200, dtype=np.complex128)[tuple(view)]
        assert np.array_equal(psi.eval_grid(axes), expected, equal_nan=True)
        assert np.isnan(mk.sup_norm_on_grid(psi, axes))
