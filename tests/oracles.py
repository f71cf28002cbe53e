"""Independent oracles. Everything here recomputes expected values from
first principles, without touching the code paths under test."""

import itertools
import math

import numpy as np


def direct_projector_moi(operators, integrand_point_fn, arguments):
    """Spectral sum as a literal projector-product loop over all eigenvalue
    tuples: sum psi(l_1..l_m) P_1 X_1 P_2 ... X_{m-1} P_m."""
    decomps = [op.decomposition for op in operators]
    dim = operators[0].dim
    m = len(operators)
    projectors = [
        [np.outer(d.basis[:, i], d.basis[:, i].conj()) for i in range(dim)]
        for d in decomps
    ]
    total = np.zeros((dim, dim), dtype=complex)
    for idx in itertools.product(range(dim), repeat=m):
        weight = integrand_point_fn(
            tuple(decomps[j].eigenvalues[idx[j]] for j in range(m))
        )
        term = projectors[0][idx[0]]
        for j in range(1, m):
            term = term @ np.asarray(arguments[j - 1]) @ projectors[j][idx[j]]
        total = total + weight * term
    return total


def grid_contraction(operators, eval_grid, arguments):
    """Spectral sum as the contraction of the integrand grid on the
    eigenvalues against the rotated arguments, written out with einsum;
    ``eval_grid`` maps a list of eigenvalue axes to the grid."""
    decomps = [op.decomposition for op in operators]
    bases = [d.basis for d in decomps]
    grid = eval_grid([d.eigenvalues for d in decomps])
    rotated = [
        bases[j].conj().T @ np.asarray(arguments[j]) @ bases[j + 1]
        for j in range(len(arguments))
    ]
    letters = "abcdefgh"[: len(operators)]
    spec = ",".join([letters] + [letters[j : j + 2] for j in range(len(rotated))])
    core = np.einsum(f"{spec}->{letters[0]}{letters[-1]}", grid, *rotated)
    return bases[0] @ core @ bases[-1].conj().T


def divided_difference_recursive(point_fn, nodes):
    """Textbook difference-quotient recursion (separated nodes only)."""
    nodes = list(nodes)
    table = [point_fn(z) for z in nodes]
    n = len(nodes)
    for level in range(1, n):
        table = [
            (table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
            for i in range(n - level)
        ]
    return table[0]


def _cluster_nodes(nodes, tol):
    """Snap tolerance-coincident nodes to their cluster mean: union-find over
    the pairwise distance graph, members summed left to right in (real,
    imag) order; a cluster of two or more equal nodes is that node."""
    n = len(nodes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(nodes[i] - nodes[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(nodes[i])
    reps = {}
    for root, vals in clusters.items():
        # an explicit left-to-right sum: the builtin sum compensates float
        # sums from Python 3.12 on
        total = 0
        for value in sorted(vals, key=lambda z: (complex(z).real, complex(z).imag)):
            total = total + value
        reps[root] = vals[0] + 0.0 if len(vals) > 1 and len(set(vals)) == 1 else total / len(vals)
    return [reps[find(i)] for i in range(n)]


def divided_difference_per_point(spec):
    """One divided difference by the scalar recursive table, one Python
    operation at a time: the reference for moikit's vectorized table."""
    import moikit as mk

    f = spec.f
    snapped = _cluster_nodes(list(spec.nodes), spec.tolerance)
    ordered = sorted(snapped, key=lambda z: (complex(z).real, complex(z).imag))
    n = len(ordered)
    multiplicity = max(len(list(g)) for _, g in itertools.groupby(ordered))
    if multiplicity - 1 > f.derivative_order_available:
        raise mk.CapabilityError(
            f"confluent cluster of size {multiplicity} needs derivative order "
            f"{multiplicity - 1}, available {f.derivative_order_available}"
        )
    table = [f(z) for z in ordered]
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            lo, hi = ordered[i], ordered[i + level]
            if lo == hi:
                nxt.append(f.derivative(lo, level) / math.factorial(level))
            else:
                nxt.append((table[i + 1] - table[i]) / (hi - lo))
        table = nxt
    return table[0]


def divided_difference_grid_per_point(f, order, axes):
    """The order-k divided-difference grid on the Cartesian product of the
    axes, one :func:`divided_difference_per_point` per eigenvalue tuple."""
    import moikit as mk

    axes = [np.asarray(a) for a in axes]
    shape = tuple(a.size for a in axes)
    out = np.empty(shape, dtype=np.complex128)
    for idx in np.ndindex(shape):
        point = tuple(ax[i] for ax, i in zip(axes, idx))
        out[idx] = divided_difference_per_point(mk.DividedDifferenceSpec(f, order, point))
    return out


def scalar_function_on_array(f, x):
    """A callable scalar function on an array as ``np.vectorize`` with
    complex output evaluates it: ``f.value_fn`` at each element, the results
    cast to complex128."""
    return np.vectorize(f.value_fn, otypes=[np.complex128])(np.asarray(x))


def hermitian_function(fn, matrix):
    """f applied to a Hermitian matrix through a fresh eigendecomposition."""
    values, vectors = np.linalg.eigh(np.asarray(matrix))
    return (vectors * fn(values)) @ vectors.conj().T


def matrix_directional_derivative(fn, base, direction, order, h):
    """Central-difference directional derivative of t -> f(base + t direction)
    with one Richardson level (O(h^4) truncation)."""

    def stencil(step):
        if order == 1:
            return (
                hermitian_function(fn, base + step * direction)
                - hermitian_function(fn, base - step * direction)
            ) / (2 * step)
        if order == 2:
            return (
                hermitian_function(fn, base + step * direction)
                - 2 * hermitian_function(fn, base)
                + hermitian_function(fn, base - step * direction)
            ) / step**2
        if order == 3:
            return (
                hermitian_function(fn, base + 2 * step * direction)
                - 2 * hermitian_function(fn, base + step * direction)
                + 2 * hermitian_function(fn, base - step * direction)
                - hermitian_function(fn, base - 2 * step * direction)
            ) / (2 * step**3)
        raise ValueError(order)

    coarse = stencil(h)
    fine = stencil(h / 2)
    return (4 * fine - coarse) / 3


def schatten_from_gram(matrix, p):
    """Schatten norm through the eigenvalues of M*M (independent of SVD)."""
    gram = np.asarray(matrix).conj().T @ np.asarray(matrix)
    sigma = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
    if p == np.inf:
        return float(np.max(sigma))
    return float(np.sum(sigma**p) ** (1.0 / p))


def haar_bases_by_qr(normals):
    """Haar unitaries from standard normal pairs (N, 2, n, n): Householder QR
    of the complex Ginibre matrices, each column's phase fixed by the sign
    of its R diagonal entry (Mezzadri, Notices AMS 54, 2007)."""
    ginibre = (normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def power_iteration_norm(matrix, iterations=500, seed=0):
    """Largest singular value by power iteration on M*M."""
    rng = np.random.default_rng(seed)
    arr = np.asarray(matrix)
    gram = arr.conj().T @ arr
    v = rng.standard_normal(arr.shape[0]) + 1j * rng.standard_normal(arr.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v = gram @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(np.real(np.vdot(v, gram @ v))))


def exp_series_partial(matrix, terms):
    """Partial sum of exp(i M) with the given number of series terms."""
    arr = np.asarray(matrix, dtype=complex)
    acc = np.zeros_like(arr)
    term = np.eye(arr.shape[0], dtype=complex)
    for m in range(terms):
        acc = acc + term
        term = term @ (1j * arr) / (m + 1)
    return acc


def scalar_taylor_remainder(coeffs, x, h, order):
    """Classical scalar Taylor remainder for an ascending-coefficient
    polynomial."""
    import numpy.polynomial.polynomial as npoly

    value = npoly.polyval(x + h, coeffs)
    for ell in range(order):
        value -= npoly.polyval(x, npoly.polyder(coeffs, ell) if ell else coeffs) * (
            h**ell
        ) / math.factorial(ell)
    return value


def unitary_taylor_term_per_tuple(coefficients, x_matrix, g_terms, order):
    """The t^order coefficient of phi(exp(itH) X) for the polynomial with
    these ascending coefficients, given G_r = (iH)^r / r! as ``g_terms``:
    per monomial c x^p, the sum over every p-tuple (r_1..r_p) of exponents
    summing to ``order``, in lexicographic order, of c I G_r1 X ... G_rp X,
    each product built from I on its own.  X may be a stack of matrices."""
    dim = x_matrix.shape[-1]
    total = np.zeros(x_matrix.shape, dtype=np.complex128)
    for p, c in enumerate(coefficients):
        if c == 0:
            continue
        if p == 0:
            if order == 0:
                total += c * np.eye(dim, dtype=np.complex128)
            continue
        if order == 0:
            total += c * np.linalg.matrix_power(x_matrix, p)
            continue
        for powers in itertools.product(range(order + 1), repeat=p):
            if sum(powers) != order:
                continue
            prod = np.eye(dim, dtype=np.complex128)
            for r in powers:
                prod = prod @ g_terms[r] @ x_matrix
            total += c * prod
    return total


def horner_of_matrix(coefficients, x_matrix):
    """The polynomial with these ascending coefficients at a matrix, or at
    each matrix of a stack: ((c_p I) X + c_(p-1) I) X + ... + c_0 I."""
    x_matrix = np.asarray(x_matrix, dtype=np.complex128)
    eye = np.eye(x_matrix.shape[-1], dtype=np.complex128)
    result = coefficients[-1] * eye
    for c in coefficients[-2::-1]:
        result = result @ x_matrix + c * eye
    return result


def positive_compositions(total, parts):
    """Brute-force enumeration of positive compositions."""
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in positive_compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def exhaustive_grid_max(point_fn, axes):
    """Sup of |f| over a Cartesian product by literal enumeration."""
    best = 0.0
    for tup in itertools.product(*axes):
        best = max(best, abs(point_fn(tup)))
    return best


def grid_sup(psi, spectra):
    """Max of |psi| over the full grid of the spectra, from ``eval_grid``:
    the sup surrogate with no shortcut of its own."""
    # an infinite factor value times a zero one is NaN, as in the harness,
    # which evaluates its surrogates under the same errstate
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(psi.eval_grid([np.asarray(s) for s in spectra]))))


def tail_bound_block_draws(exp, block):
    """The documented draws of one block of 256 tail-bound samples: from
    numpy's child stream ``SeedSequence(seed, spawn_key=(block,))``, per
    operator model in order, the law variates of all 256 samples (uniforms
    for the uniform law, normals for the gaussian law, none for the fixed
    law), then their Ginibre normals.  Returns per model a list of (method,
    array) pairs."""
    rng = np.random.default_rng(np.random.SeedSequence(exp.seed, spawn_key=(block,)))
    draws = []
    for model in exp.operator_models:
        dim, kind = model.dim, model.law[0]
        model_draws = []
        if kind == "uniform":
            model_draws.append(("random", rng.random((256, dim))))
        elif kind == "gaussian":
            model_draws.append(("standard_normal", rng.standard_normal((256, dim))))
        model_draws.append(("standard_normal", rng.standard_normal((256, 2, dim, dim))))
        draws.append(model_draws)
    return draws


class ReplayedGenerator:
    """Stands in for a ``numpy.random.Generator`` in the public samplers: each
    ``random`` or ``standard_normal`` call returns the next of the given
    (method, values) pairs, which must name that method."""

    def __init__(self, calls):
        self._calls = iter(calls)

    def _next(self, method, size, out):
        expected, values = next(self._calls)
        assert method == expected, (method, expected)
        if out is None:
            return np.array(values).reshape(size)
        out[...] = values.reshape(out.shape)
        return out

    def random(self, size=None, out=None):
        return self._next("random", size, out)

    def standard_normal(self, size=None, out=None):
        return self._next("standard_normal", size, out)


def tail_bound_block(exp, lo, hi):
    """Per-sample statistics, terms and abort mask of samples lo..hi-1 of a
    tail-bound experiment, computed one sample at a time with the public
    single-operator functions: the reference for the harness's batched
    evaluation.  Each sample's samplers replay its rows of its block's
    draws (:func:`tail_bound_block_draws`).  Aborted samples read NaN.
    Each sup surrogate is :func:`grid_sup`'s, but for the remainders': their
    polynomial divided differences of a non-monomial sum, whose grid max
    the word recurrence meets only within a few ulps, read
    ``sup_norm_on_grid``, the public batch of one."""
    import moikit as mk

    statistic = _TAIL_BOUND_STATISTICS[exp.theorem_id]
    count = hi - lo
    stats = np.full(count, np.nan)
    terms = {}
    aborted = np.zeros(count, dtype=bool)
    blocks = {}
    for offset in range(count):
        block, row = divmod(lo + offset, 256)
        if block not in blocks:
            blocks[block] = tail_bound_block_draws(exp, block)
        rng = ReplayedGenerator([
            (method, drawn[row]) for model_draws in blocks[block]
            for method, drawn in model_draws
        ])
        try:
            stat, values = statistic(exp, rng)
        except (mk.CapabilityError, mk.FunctionDomainError, mk.NumericalError):
            aborted[offset] = True
            continue
        stats[offset] = stat
        for label, value in values.items():
            terms.setdefault(label, np.full(count, np.nan))[offset] = value
    return stats, terms, aborted


def _moi_norm_sample(exp, rng):
    import moikit as mk

    ops = [mk.sample_random_hermitian(model, rng) for model in exp.operator_models]
    psi = exp.integrand
    value = mk.moi_core(ops, psi, exp.fixed_inputs["arguments"])
    if exp.theorem_id == "moi_norm_schatten_b":
        reciprocal = sum(1.0 / p for p in exp.schatten_p)
        stat = mk.schatten_norm(value, np.inf if reciprocal == 0 else 1.0 / reciprocal)
    else:
        stat = mk.operator_norm(value)
    union = np.concatenate([op.decomposition.eigenvalues for op in ops])
    return stat, {"integrand_norm": grid_sup(psi, [union] * len(ops))}


def _derivative_sample(exp, rng):
    import moikit as mk

    k = 1 if exp.theorem_id == "first_derivative" else exp.order
    op = mk.sample_random_hermitian(exp.operator_models[0], rng)
    value = mk.kth_derivative(exp.integrand, op, exp.fixed_inputs["direction"], k)
    dd_k = mk.divided_difference_integrand(exp.integrand, k)
    spectrum = op.decomposition.eigenvalues
    return mk.operator_norm(value), {
        "integrand_norm": grid_sup(dd_k, [spectrum] * (k + 1))
    }


def _higher_difference_sample(exp, rng):
    import moikit as mk

    k, step = exp.order, exp.fixed_inputs["step"]
    op = mk.sample_random_hermitian(exp.operator_models[0], rng)
    ladder = [op] + [mk.shifted_operator(op, i * step) for i in range(1, k + 1)]
    spectra = [o.decomposition.eigenvalues for o in ladder]
    stat = mk.operator_norm(mk.higher_difference(exp.integrand, op, step, k))
    gap = max(
        float(np.max(np.abs(spectra[j + 1][:, None] - spectra[j][None, :])))
        for j in range(k)
    )
    dd_k = mk.divided_difference_integrand(exp.integrand, k)
    surrogate = grid_sup(dd_k, [np.concatenate(spectra)] * (k + 1))
    return stat, {
        "gap_weighted_integrand_norm": gap * surrogate,
        "integrand_norm": surrogate,
        "eigengap": gap,
    }


def _sa_remainder_sample(exp, rng):
    import moikit as mk

    k = exp.order
    total, terms = None, {}
    for j, (model, f, h) in enumerate(zip(
        exp.operator_models, exp.integrand, exp.fixed_inputs["perturbations"]
    )):
        op = mk.sample_random_hermitian(model, rng)
        shifted = mk.shifted_operator(op, h)
        dd_k = mk.divided_difference_integrand(f, k)
        value = mk.moi_core([shifted] + [op] * k, dd_k, [h] * k)
        total = value if total is None else total + value
        union = np.concatenate(
            [shifted.decomposition.eigenvalues, op.decomposition.eigenvalues]
        )
        terms[f"slot{j}_integrand_norm"] = mk.sup_norm_on_grid(dd_k, [union] * (k + 1))
    return mk.operator_norm(total), terms


def _unitary_remainder_sample(exp, rng):
    import moikit as mk

    k = exp.order
    total, terms = None, {}
    for j, (model, f, h) in enumerate(zip(
        exp.operator_models, exp.integrand, exp.fixed_inputs["perturbations"]
    )):
        base = mk.sample_random_unitary(model, rng)
        spec = mk.RemainderSpec(k, mk.SlotFunctionSum.from_slot_functions([f]),
                                (base,), (h,), "unitary")
        value = mk.taylor_remainder_unitary(spec, method="direct")
        total = value if total is None else total + value
        rotated = mk.unitary_exponential(mk.HermitianOperator(h)) @ base.matrix
        eigs = np.linalg.eigvals(rotated)
        union = np.concatenate([eigs / np.abs(eigs), base.decomposition.eigenvalues])
        for ell in range(1, k + 1):
            dd = mk.divided_difference_integrand(f, ell)
            terms[f"slot{j}_order{ell}_integrand_norm"] = mk.sup_norm_on_grid(
                dd, [union] * (ell + 1)
            )
    return mk.operator_norm(total), terms


_TAIL_BOUND_STATISTICS = {
    "moi_norm_a": _moi_norm_sample,
    "moi_norm_schatten_b": _moi_norm_sample,
    "first_derivative": _derivative_sample,
    "kth_derivative": _derivative_sample,
    "higher_difference": _higher_difference_sample,
    "sa_remainder": _sa_remainder_sample,
    "unitary_remainder": _unitary_remainder_sample,
}
