"""A polynomial's divided difference by the word recurrence.

The engine (``moi._factored_core``), the sup (``integrands._word_sup_norms``)
and the projective bound sum f^[k] = sum_p c_p h_{p-k} over words.  Their
twin is the same integrand's terms, the C(p, k)-term expansion, wrapped as
a plain ``SeparableIntegrand`` and summed by ``_factored_core``,
``_grid_sup_norms`` and the sum of per-term maxima.  The two must agree to
1e-13 relative, and against 50-digit ``mpmath`` the recurrence must err no
more than the expansion.
"""

import numpy as np
import pytest

import moikit as mk
from moikit import integrands, moi

RTOL = 1e-13
COEFFICIENTS = {
    "real": lambda rng: rng.standard_normal(7),
    "complex": lambda rng: rng.standard_normal(7) + 1j * rng.standard_normal(7),
    "integer": lambda rng: [int(c) for c in rng.integers(-5, 6, 7)],
    "zero_padded": lambda rng: [*rng.standard_normal(3), 0.0, 0.0, 1.5, 0.0, 0.0, 0.0],
    "below_the_order": lambda rng: [0.5, -1.0],
}


def expansion(psi):
    """The same terms with no coefficients to recur on: the factored twin."""
    return mk.SeparableIntegrand(psi.arity, psi.terms)


def assert_near(got, expected):
    """Finite exactly where ``expected`` is, and there, per sample, within
    RTOL of its largest magnitude."""
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(got), finite)
    got, expected = (np.where(finite, a, 0).reshape(len(a), -1) for a in (got, expected))
    assert np.all(np.abs(got - expected).max(axis=1) <= RTOL * np.abs(expected).max(axis=1))


def stacked_spectra(rng, kind, samples, n, order):
    """Per slot, (eigenvalues, bases) stacked over samples: one spectrum in
    every slot (``equal``), a remainder's [A + H, A, ..., A] (``unequal``),
    or one unitary spectrum on the unit circle (``unit_circle``)."""
    if kind == "unit_circle":
        model = mk.RandomOperatorModel(n, ("uniform", -np.pi, np.pi))
        ops = [mk.sample_random_unitary(model, rng) for _ in range(samples)]
    else:
        model = mk.RandomOperatorModel(n, ("uniform", -1.0, 1.0))
        ops = [mk.sample_random_hermitian(model, rng) for _ in range(samples)]
    w = np.stack([op.decomposition.eigenvalues for op in ops])
    v = np.stack([op.decomposition.basis for op in ops])
    slots = [(w, v)] * (order + 1)
    if kind == "unequal":
        h = mk.random_hermitian(n, rng, norm=0.3)
        shifted = [mk.shifted_operator(op, h) for op in ops]
        slots[0] = (np.stack([op.decomposition.eigenvalues for op in shifted]),
                    np.stack([op.decomposition.basis for op in shifted]))
    return slots


@pytest.mark.parametrize("coefficients", sorted(COEFFICIENTS))
@pytest.mark.parametrize("kind", ["equal", "unequal", "unit_circle"])
def test_the_recurrence_agrees_with_the_expansion(rng, kind, coefficients):
    for order in range(7):
        assert_agreement(rng, kind, COEFFICIENTS[coefficients](rng), order)


def assert_agreement(rng, kind, coefficients, order):
    n = 4 if order < 5 else 3
    f = mk.ScalarFunction.polynomial(coefficients)
    psi = mk.divided_difference_integrand(f, order)
    assert psi._polynomial is not None
    slots = stacked_spectra(rng, kind, 6, n, order)
    eigenvalues = [w for w, _ in slots]
    arguments = [mk.random_hermitian(n, rng) for _ in range(order)]
    got = moi._stacked_moi(psi, eigenvalues, [v for _, v in slots], arguments)
    twin = moi._stacked_moi(expansion(psi), eigenvalues, [v for _, v in slots], arguments)
    assert_near(got, twin)
    if not np.any(np.asarray(coefficients)[order:]):  # p < k throughout: zero
        assert not got.any()
    # the sup, on the union in every slot as the harness takes it, and on
    # each slot's own spectrum, unequal for a remainder's [A + H, A, ..., A]
    union = np.concatenate(list({id(w): w for w in eigenvalues}.values()), axis=1)
    sups = integrands._sup_norms(psi, [union] * (order + 1))
    values = expansion(psi).factor_values([union] * (order + 1))
    assert_near(sups, integrands._grid_sup_norms(expansion(psi), values))
    values = expansion(psi).factor_values(eigenvalues)
    assert_near(integrands._sup_norms(psi, eigenvalues),
                integrands._grid_sup_norms(expansion(psi), values))
    # the projective bound, per sample, on each slot's own spectrum
    for s in (0, 5):
        spectra = [w[s] for w in eigenvalues]
        assert_near(np.array([[mk.projective_norm_bound(psi, spectra)]]),
                    np.array([[mk.projective_norm_bound(expansion(psi), spectra)]]))
    # one sample alone has the bits it gets inside the batch
    for s in (0, 5):
        alone = moi._stacked_moi(psi, [w[s : s + 1] for w in eigenvalues],
                                 [v[s : s + 1] for _, v in slots], arguments)
        assert alone.tobytes() == got[s : s + 1].tobytes()
        one = mk.sup_norm_on_grid(psi, [union[s]] * (order + 1))
        assert np.float64(one).tobytes() == sups[s].tobytes()


def test_the_engine_takes_the_recurrence_and_no_terms(rng):
    # the engine, the sup on unequal spectra and the projective bound do not
    # read the distinct factors of the terms
    f = mk.ScalarFunction.monomial(20)
    psi = integrands._polynomial_dd_integrand.__wrapped__(
        f.coefficients.dtype.str, f.coefficients.tobytes(), 16)
    ops = [mk.sample_random_hermitian(mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0)), rng)]
    w = ops[0].decomposition.eigenvalues
    calls = (
        lambda: mk.moi_core(ops * 17, psi, [mk.random_hermitian(4, rng)] * 16),
        lambda: mk.sup_norm_on_grid(psi, [w[:2] + 0.01] + [w[:2]] * 16),  # 2^17 points
        lambda: mk.projective_norm_bound(psi, [w + 0.01] + [w] * 16),
    )
    for call in calls:
        assert np.isfinite(call()).all()
        assert "_slot_factors" not in vars(psi)


@pytest.mark.parametrize("circle", [1, 2])
def test_real_and_unit_circle_spectra(rng, circle):
    # the words take their dtype from every slot, not from the first alone
    coefficients = rng.standard_normal(6)
    psi = mk.divided_difference_integrand(mk.ScalarFunction.polynomial(coefficients), 2)
    spectra = [rng.uniform(-1, 1, 4) for _ in range(3)]
    spectra[circle] = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
    for norm in (mk.sup_norm_on_grid, mk.projective_norm_bound):
        got, twin = norm(psi, spectra), norm(expansion(psi), spectra)
        assert abs(got - twin) <= RTOL * twin


def test_non_finite_nodes_fail_as_the_expansion_does(rng):
    # an overflowing power names its slot and eigenvalue; a NaN sup where the grid's is
    psi = mk.divided_difference_integrand(mk.ScalarFunction.monomial(5), 2)
    w = np.sort(rng.uniform(-1, 1, (4, 3)), axis=1)
    w[2, 1] = 1e160
    v = np.broadcast_to(np.eye(3, dtype=complex), (4, 3, 3))
    arguments = [np.ones((3, 3))] * 2
    for integrand in (psi, expansion(psi)):
        with pytest.raises(mk.FunctionDomainError, match="slot 0 is not finite at eigenvalue"):
            with np.errstate(over="ignore"):
                moi._stacked_moi(integrand, [w] * 3, [v] * 3, arguments)
    w[2, 1] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        sups = integrands._sup_norms(psi, [w] * 3)
        grid = integrands._grid_sup_norms(expansion(psi),
                                          expansion(psi).factor_values([w] * 3))
    assert np.isnan(sups[2]) and np.isnan(grid[2])
    assert_near(np.delete(sups, 2), np.delete(grid, 2))
    # a factor is NaN at an infinite node, and so is the projective bound
    for integrand in (psi, expansion(psi)):
        with np.errstate(invalid="ignore"):
            assert np.isnan(mk.projective_norm_bound(integrand, [w[2]] * 3))


def exact_divided_difference(mpmath, coefficients, nodes):
    """f^[k] at the nodes, sum_p c_p h_{p-k}, and its scale
    sum_p |c_p| h_{p-k}(|nodes|), in mpmath's working precision."""
    order = len(nodes) - 1
    top = len(coefficients) - 1 - order

    def dd(c, x):
        h = [x[0] ** q for q in range(top + 1)]
        for z in x[1:]:
            for q in range(1, top + 1):
                h[q] += z * h[q - 1]
        return sum(a * b for a, b in zip(c, h))

    c = [mpmath.mpf(float(a)) for a in coefficients[order:]]
    x = [mpmath.mpf(float(z)) for z in nodes]
    return dd(c, x), dd([abs(a) for a in c], [abs(z) for z in x])


def test_the_recurrence_is_no_less_accurate_than_the_expansion():
    """Against 50 digits, at node spreads 1e-12 to 1 and orders 1-16, the
    error of f^[k] in units of eps times sum_p |c_p| h_{p-k}(|nodes|).  The
    engine's words, on 1 x 1 operators, against its factored twin, summed
    term by term: a worst error no larger, and at most 2.  The sup's scalar words against the expansion's term
    sums, as the grid adds them: no larger at the median, the 90th
    percentile or the worst."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2024)
    errors = {"words": [], "factored": [], "scalar_words": [], "term_sums": []}
    for order in range(1, 17):
        coefficients = rng.standard_normal(order + 4)  # C(order + 4, 4) terms
        psi = mk.divided_difference_integrand(mk.ScalarFunction.polynomial(coefficients), order)
        twin = expansion(psi)
        # ten node tuples per spread, as one stack of 1 x 1 spectra per slot
        spreads = np.repeat([1e-12, 1e-8, 1e-4, 1e-2, 1.0], 10)[:, None]
        nodes = rng.uniform(-1, 1, (50, 1)) + spreads * rng.uniform(-1, 1, (50, order + 1))
        slots = [np.ascontiguousarray(nodes[:, j : j + 1]) for j in range(order + 1)]
        bases = [np.ones((50, 1, 1), dtype=complex)] * (order + 1)
        arguments = [np.ones((1, 1))] * order
        values = {
            "words": moi._stacked_moi(psi, slots, bases, arguments).real.ravel(),
            "factored": moi._stacked_moi(twin, slots, bases, arguments).real.ravel(),
            "scalar_words": integrands._word_sums(psi._polynomial[0], list(nodes.T)),
            "term_sums": twin.eval_grid(slots).real.ravel(),
        }
        with mpmath.workdps(50):
            for s, row in enumerate(nodes):
                exact, scale = exact_divided_difference(mpmath, coefficients, row)
                for name, value in values.items():
                    error = abs(mpmath.mpf(float(value[s])) - exact) / scale
                    errors[name].append(float(error) / np.finfo(float).eps)
    errors = {name: np.array(values) for name, values in errors.items()}
    assert errors["words"].max() <= errors["factored"].max()
    assert errors["words"].max() <= 2.0
    for q in (50, 90, 100):
        assert (np.percentile(errors["scalar_words"], q)
                <= np.percentile(errors["term_sums"], q))
