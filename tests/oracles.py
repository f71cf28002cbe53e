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
