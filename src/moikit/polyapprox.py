"""Multivariate polynomial decompositions.

Rewrites polynomials as sums of powers of inner products (one block of
C(m+i-1, i) random unit directions per homogeneous degree, solved through the
multinomial expansion) and further into sums of products of homogenized
linear forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DecompositionFailureError,
    ParameterError,
    ValidationError,
    _finite,
    _integer,
)
from .integrands import exponent_tuples

CONDITION_LIMIT = 1e10
MAX_DIRECTION_ATTEMPTS = 10
# the largest degree and arity that decompose_inner_powers takes
MAX_DECOMPOSITION_DEGREE = 8
MAX_DECOMPOSITION_ARITY = 4
DECOMPOSITION_LIMITS = (f"decomposition supports degree <= {MAX_DECOMPOSITION_DEGREE}, "
                        f"arity <= {MAX_DECOMPOSITION_ARITY}")


@dataclass(frozen=True)
class MonomialPolynomial:
    """A real multivariate polynomial stored as (exponent tuple, coefficient)
    pairs with unique exponents."""

    arity: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        arity = _integer(self.arity, "polynomial arity must be a positive integer", "", 1)
        seen = set()
        cleaned = []
        for exp, coef in self.terms:
            exp = tuple(exp)
            message = f"bad exponent tuple {exp}"
            exp = tuple(_integer(e, message, "") for e in exp)
            if len(exp) != arity:
                raise ValidationError(message)
            if exp in seen:
                raise ValidationError(f"duplicate exponent {exp}")
            seen.add(exp)
            cleaned.append((exp, _finite(coef, f"coefficient of {exp} must be a finite number")))
        if not cleaned:
            cleaned.append(((0,) * arity, 0.0))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def degree(self) -> int:
        return max((sum(exp) for exp, c in self.terms if c != 0.0), default=0)

    def coefficient(self, exponent: tuple[int, ...]) -> float:
        for exp, coef in self.terms:
            if exp == exponent:
                return coef
        return 0.0

    def evaluate(self, point: Sequence[float]) -> float:
        return float(self.evaluate_many(np.asarray(point, dtype=float)[None])[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, arity) array of points."""
        pts = np.asarray(points, dtype=float)
        total = np.zeros(pts.shape[0])
        for exp, coef in self.terms:
            total += coef * np.prod(pts ** np.asarray(exp), axis=1)
        return total


@dataclass(frozen=True)
class InnerPowerForm:
    """Sum of coefficient-weighted powers of inner products with unit
    directions: sum over terms of c * <x, v>^degree."""

    arity: int
    terms: tuple[tuple[int, float, tuple[float, ...]], ...]

    def __post_init__(self):
        cleaned = []
        for degree, coef, direction in self.terms:
            direction = tuple(float(v) for v in direction)
            if len(direction) != self.arity:
                raise ValidationError("direction length must equal the arity")
            norm = math.sqrt(sum(v * v for v in direction))
            if degree > 0 and abs(norm - 1.0) > 1e-9:
                raise ValidationError("directions must be unit-normalized")
            degree = _integer(degree, "term degrees must be integers", "", None)
            cleaned.append((degree, float(coef), direction))
        object.__setattr__(self, "terms", tuple(cleaned))

    def evaluate(self, point: Sequence[float]) -> float:
        return float(self.evaluate_many(np.asarray(point, dtype=float)[None])[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        total = np.zeros(pts.shape[0])
        for degree, coef, direction in self.terms:
            total += coef * (pts @ np.asarray(direction)) ** degree
        return total

    def degree_term_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for degree, _, _ in self.terms:
            counts[degree] = counts.get(degree, 0) + 1
        return counts


@dataclass(frozen=True)
class LinearProductForm:
    """Sum of products of homogenized linear forms.

    Each term is a factor list of vectors in R^(arity+1); evaluation appends
    1 to the point and multiplies the inner products.  The factor counts
    follow the triangular layout: the term at (1-based) position i carries
    exactly i factors.
    """

    arity: int
    terms: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self):
        for pos, factors in enumerate(self.terms, start=1):
            if len(factors) != pos:
                raise ValidationError(
                    f"term at position {pos} has {len(factors)} factors, expected {pos}"
                )
            for u in factors:
                if len(u) != self.arity + 1:
                    raise ValidationError(
                        f"factor length must be {self.arity + 1}, got {len(u)}"
                    )

    def evaluate(self, point: Sequence[float]) -> float:
        return float(self.evaluate_many(np.asarray(point, dtype=float)[None])[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        lifted = np.hstack([pts, np.ones((pts.shape[0], 1))])
        total = np.zeros(pts.shape[0])
        for factors in self.terms:
            prod = np.ones(pts.shape[0])
            for u in factors:
                prod *= lifted @ np.asarray(u)
            total += prod
        return total


def _probe_grid(arity: int, points_per_axis: int = 10) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, points_per_axis)] * arity
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _past_decomposition_limits(poly: MonomialPolynomial) -> str | None:
    """The field of ``poly`` past :data:`DECOMPOSITION_LIMITS`, as a path
    below the polynomial: ``arity``, or ``terms[i].exp`` for the first term
    with a nonzero coefficient whose degree is too high; None if there is
    none."""
    if poly.arity > MAX_DECOMPOSITION_ARITY:
        return "arity"
    for i, (exp, coef) in enumerate(poly.terms):
        if coef != 0.0 and sum(exp) > MAX_DECOMPOSITION_DEGREE:
            return f"terms[{i}].exp"
    return None


def decompose_inner_powers(
    poly: MonomialPolynomial, rng: np.random.Generator
) -> InnerPowerForm:
    """Rewrite a polynomial as a sum of powers of inner products.

    For each degree i in 0..deg(p) the homogeneous part is matched against
    C(m+i-1, i) random unit directions by solving the multinomial-expansion
    linear system; the block count per degree is exactly the monomial count,
    so the system is square.  Ill-conditioned or inaccurate draws are
    resampled up to 10 times before failing with a conditioning report.
    """
    if _past_decomposition_limits(poly) is not None:
        raise ParameterError(DECOMPOSITION_LIMITS)
    m = poly.arity
    k = poly.degree
    probes = _probe_grid(m)
    target = poly.evaluate_many(probes)
    scale = 1.0 + float(np.max(np.abs(target))) if target.size else 1.0
    conditions: list[tuple[int, float]] = []
    for attempt in range(MAX_DIRECTION_ATTEMPTS):
        terms: list[tuple[int, float, tuple[float, ...]]] = []
        conditions = []
        ok = True
        for degree in range(k + 1):
            exponents = list(exponent_tuples(degree, m))
            count = len(exponents)
            coeffs = np.array([poly.coefficient(exp) for exp in exponents])
            if degree == 0:
                direction = tuple(1.0 if i == 0 else 0.0 for i in range(m))
                terms.append((0, float(coeffs[0]), direction))
                conditions.append((0, 1.0))
                continue
            gauss = rng.standard_normal((count, m))
            norms = np.linalg.norm(gauss, axis=1)
            directions = gauss / norms[:, None]
            system = np.empty((count, count))
            for row, exp in enumerate(exponents):
                multi = math.factorial(degree)
                for e in exp:
                    multi //= math.factorial(e)
                system[row] = multi * np.prod(directions ** np.asarray(exp), axis=1)
            condition = float(np.linalg.cond(system))
            conditions.append((degree, condition))
            if not np.isfinite(condition) or condition > CONDITION_LIMIT:
                ok = False
                break
            solution = np.linalg.solve(system, coeffs)
            for c, v in zip(solution, directions):
                terms.append((degree, float(c), tuple(float(t) for t in v)))
        if not ok:
            continue
        form = InnerPowerForm(m, tuple(terms))
        residual = float(np.max(np.abs(form.evaluate_many(probes) - target)))
        if residual <= 1e-8 * scale:
            return form
    report = ", ".join(f"degree {d}: cond {c:.3e}" for d, c in conditions)
    raise DecompositionFailureError(
        f"no acceptable direction system after {MAX_DIRECTION_ATTEMPTS} attempts ({report})"
    )


def to_linear_products(form: InnerPowerForm) -> LinearProductForm:
    """Rewrite each power term as one product of homogenized linear factors.

    A degree-d term at position i becomes <x', [c v, 0]> <x', [v, 0]>^(d-1)
    padded with constant-one factors up to i factors total.  Terms are sorted
    by degree; zero terms are inserted where a degree would otherwise exceed
    its position, keeping the triangular factor layout intact.
    """
    m = form.arity
    one = tuple([0.0] * m + [1.0])
    zero_vec = tuple([0.0] * m + [0.0])

    ordered = sorted(enumerate(form.terms), key=lambda kv: (kv[1][0], kv[0]))
    product_terms: list[tuple[tuple[float, ...], ...]] = []
    position = 1
    for _, (degree, coef, direction) in ordered:
        while position < max(degree, 1):
            product_terms.append((zero_vec,) + (one,) * (position - 1))
            position += 1
        if degree == 0:
            factors = (tuple([0.0] * m + [coef]),) + (one,) * (position - 1)
        else:
            lead = tuple([coef * v for v in direction] + [0.0])
            body = tuple([v for v in direction] + [0.0])
            factors = (lead,) + (body,) * (degree - 1) + (one,) * (position - degree)
        product_terms.append(factors)
        position += 1
    return LinearProductForm(m, tuple(product_terms))
