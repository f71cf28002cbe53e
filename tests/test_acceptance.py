"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 1 and 8 also enforce their wall-clock budgets.
"""

import hashlib
import math
import time

import numpy as np
import pytest
import scipy.stats

import moikit as mk
from moikit import serialization as ser

import oracles
from conftest import config_path, grid_path


def announce(number, text):
    print(f"PASS criterion {number:>2}: {text}")


def random_separable(rng, arity, n_terms=2, degree=2):
    return mk.SeparableIntegrand(
        arity,
        tuple(
            tuple(
                mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
                for _ in range(arity)
            )
            for _ in range(n_terms)
        ),
    )


def random_instance(rng, n, m):
    model = mk.RandomOperatorModel(n, ("uniform", -1.0, 1.0))
    ops = tuple(mk.sample_random_hermitian(model, rng) for _ in range(m))
    args = tuple(mk.random_hermitian(n, rng) for _ in range(m - 1))
    return ops, args


def test_c01_moi_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    # linearity
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        ops, args = random_instance(rng, n, m)
        phi, psi = random_separable(rng, m), random_separable(rng, m)
        alpha, beta = rng.standard_normal(2)
        residual = mk.moi_linear_combination_check(phi, psi, alpha, beta, ops, args)
        assert residual <= 1e-10 * max(1.0, abs(alpha) + abs(beta))

    # block-product split
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, m))
        ops, args = random_instance(rng, n, m)
        left = random_separable(rng, k, n_terms=1)
        right = random_separable(rng, m - k, n_terms=1)
        split = mk.moi_split_evaluate(left, right, ops, args)
        full = mk.moi_core(ops, grid_path(mk.integrand_block_product(left, right)), args)
        scale = max(1.0, np.linalg.norm(full, 2), np.linalg.norm(split, 2))
        assert np.max(np.abs(split - full)) <= 1e-10 * scale

    # partition factorization, random segmentations
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        ops, args = random_instance(rng, n, m)
        lengths = []
        remaining = m
        while remaining:
            size = int(rng.integers(1, remaining + 1))
            lengths.append(size)
            remaining -= size
        segments = [random_separable(rng, size, n_terms=1) for size in lengths]
        factored = mk.moi_partition_evaluate(segments, lengths, ops, args)
        product = segments[0]
        for seg in segments[1:]:
            product = mk.integrand_block_product(product, seg)
        full = mk.moi_core(ops, grid_path(product), args)
        scale = max(1.0, np.linalg.norm(full, 2), np.linalg.norm(factored, 2))
        assert np.max(np.abs(factored - full)) <= 1e-10 * scale

    # the (2, 1, 2) pattern on five operators
    for _ in range(10):
        ops, args = random_instance(rng, 3, 5)
        segments = [
            random_separable(rng, 2, n_terms=1),
            random_separable(rng, 1, n_terms=1),
            random_separable(rng, 2, n_terms=1),
        ]
        factored = mk.moi_partition_evaluate(segments, [2, 1, 2], ops, args)
        product = mk.integrand_block_product(
            mk.integrand_block_product(segments[0], segments[1]), segments[2]
        )
        full = mk.moi_core(ops, grid_path(product), args)
        scale = max(1.0, np.linalg.norm(full, 2), np.linalg.norm(factored, 2))
        assert np.max(np.abs(factored - full)) <= 1e-10 * scale

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    announce(1, f"MOI identity suite (linearity/split/partition) in {elapsed:.1f}s")


def test_c02_rotated_vs_direct_projector_sum():
    for n in (2, 3):
        for m in (2, 3):
            rng = np.random.default_rng(2000 + 10 * n + m)
            for _ in range(10):
                ops, args = random_instance(rng, n, m)
                psi = random_separable(rng, m)
                engine = mk.moi_core(ops, psi, args)
                direct = oracles.direct_projector_moi(ops, psi.evaluate, args)
                scale = max(1.0, np.linalg.norm(direct, 2))
                assert np.max(np.abs(engine - direct)) <= 1e-10 * scale
    announce(2, "rotated-basis evaluation equals direct projector sums")


def test_c03_perturbation_identity():
    rng = np.random.default_rng(3003)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 6))
        f = mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
        ops, _ = random_instance(rng, 4, max(m, 2))
        ops = ops[:m]
        c, d = random_instance(rng, 4, 2)[0]
        args = tuple(mk.random_hermitian(4, rng) for _ in range(m))
        j = int(rng.integers(1, m + 2))
        residual = mk.perturbation_residual(f, ops, j, c, d, args)
        assert residual <= 1e-9
    announce(3, "perturbation identity residual <= 1e-9 on 100 instances")


def test_c04_continuity_bound_and_linear_decay():
    rng = np.random.default_rng(4004)
    for _ in range(20):
        order = int(rng.integers(1, 3))
        degree = int(rng.integers(2, 5))
        f = mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
        ops, args = random_instance(rng, 4, order + 1)
        deltas = [mk.random_hermitian(4, rng, norm=1.0) for _ in ops]
        measured = {}
        for eps in (1e-2, 1e-3, 1e-4):
            perturbed = tuple(
                mk.shifted_operator(op, eps * d) for op, d in zip(ops, deltas)
            )
            lhs, bound = mk.continuity_modulus(f, order, ops, perturbed, args)
            assert lhs <= bound + 1e-9 * max(1.0, bound)
            measured[eps] = lhs
        if measured[1e-3] > 1e-13:
            ratio_a = measured[1e-2] / measured[1e-3]
            ratio_b = measured[1e-3] / measured[1e-4]
            assert 8.0 <= ratio_a <= 12.0
            assert 8.0 <= ratio_b <= 12.0
    announce(4, "continuity bound holds; drift decays linearly within 20%")


def test_c05_norm_bounds():
    rng = np.random.default_rng(5005)
    for _ in range(200):
        m = int(rng.integers(2, 4))
        ops, args = random_instance(rng, 4, m)
        req = mk.MoiRequest(ops, random_separable(rng, m), args)
        bound, actual = mk.moi_norm_bound(req)
        assert actual <= bound + 1e-9 * max(1.0, bound)
    for p in [(2.0, 2.0), (3.0, 1.5)]:
        for _ in range(100):
            ops, args = random_instance(rng, 4, 3)
            req = mk.MoiRequest(ops, random_separable(rng, 3), args)
            bound, actual = mk.moi_norm_bound(req, schatten_p=p)
            assert actual <= bound + 1e-9 * max(1.0, bound)
    announce(5, "norm bounds dominate in operator and Schatten modes")


def test_c06_derivatives():
    rng = np.random.default_rng(6006)
    # first derivative vs plain central difference at h = 1e-5
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        degree = int(rng.integers(1, 6))
        f = mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
        x = mk.sample_random_hermitian(
            mk.RandomOperatorModel(dim, ("uniform", -1.0, 1.0)), rng
        )
        v = mk.random_hermitian(dim, rng, norm=1.0)
        analytic = mk.frechet_derivative(f, x, v)
        h = 1e-5
        numeric = (
            oracles.hermitian_function(f, x.matrix + h * v)
            - oracles.hermitian_function(f, x.matrix - h * v)
        ) / (2 * h)
        scale = max(1.0, np.linalg.norm(analytic, 2))
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale

    # higher orders vs Richardson-extrapolated stencils
    for order in (2, 3):
        for _ in range(10):
            degree = int(rng.integers(order, 6))
            f = mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
            a = mk.sample_random_hermitian(
                mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0)), rng
            )
            b = mk.random_hermitian(3, rng, norm=1.0)
            analytic = mk.kth_derivative(f, a, b, order)
            numeric = oracles.matrix_directional_derivative(
                f, a.matrix, b, order, 1e-2
            )
            scale = max(1.0, np.linalg.norm(analytic, 2))
            assert np.max(np.abs(analytic - numeric)) <= 1e-4 * scale

    # scalar-dimension reduction
    for _ in range(20):
        degree = int(rng.integers(1, 6))
        order = int(rng.integers(1, min(degree + 1, 4)))
        f = mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
        x, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
        value = mk.kth_derivative(
            f, mk.HermitianOperator([[x + 0j]]), np.array([[b + 0j]]), order
        )[0, 0]
        expected = f.derivative(x, order) * b**order
        assert abs(value - expected) <= 1e-10 * max(1.0, abs(expected))
    announce(6, "derivative representations match finite differences")


def test_c07_remainders():
    rng = np.random.default_rng(7007)
    # self-adjoint: orders up to 3, degrees up to 6, agreement to 1e-8
    for _ in range(30):
        order = int(rng.integers(1, 4))
        n_slots = int(rng.integers(1, 3))
        functions = [
            mk.ScalarFunction.polynomial(rng.standard_normal(int(rng.integers(2, 8))))
            for _ in range(n_slots)
        ]
        base = tuple(
            mk.sample_random_hermitian(
                mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0)), rng
            )
            for _ in range(n_slots)
        )
        perts = tuple(mk.random_hermitian(4, rng, norm=0.4) for _ in range(n_slots))
        spec = mk.RemainderSpec(
            order, mk.SlotFunctionSum.from_slot_functions(functions), base, perts,
            "self_adjoint",
        )
        direct = mk.taylor_remainder_self_adjoint(spec, "direct")
        moi = mk.taylor_remainder_self_adjoint(spec, "moi")
        scale = max(1.0, np.linalg.norm(direct, 2), np.linalg.norm(moi, 2))
        assert np.max(np.abs(direct - moi)) <= 1e-8 * scale

    # unitary: orders up to 2, degrees up to 4, agreement to 1e-6
    model = mk.RandomOperatorModel(3, ("uniform", -np.pi, np.pi))
    for _ in range(30):
        order = int(rng.integers(1, 3))
        n_slots = int(rng.integers(1, 3))
        functions = [
            mk.ScalarFunction.polynomial(rng.standard_normal(int(rng.integers(2, 6))))
            for _ in range(n_slots)
        ]
        base = tuple(mk.sample_random_unitary(model, rng) for _ in range(n_slots))
        perts = tuple(mk.random_hermitian(3, rng, norm=0.5) for _ in range(n_slots))
        spec = mk.RemainderSpec(
            order, mk.SlotFunctionSum.from_slot_functions(functions), base, perts,
            "unitary",
        )
        direct = mk.taylor_remainder_unitary(spec, "direct")
        moi = mk.taylor_remainder_unitary(spec, "moi")
        scale = max(1.0, np.linalg.norm(direct, 2), np.linalg.norm(moi, 2))
        assert np.max(np.abs(direct - moi)) <= 1e-6 * scale

    # degree < order vanishes identically (additive perturbations only: the
    # multiplicative flavor is analytic in t, so its remainder never
    # terminates; there the zero case is H = 0, covered by the module tests)
    for order in (2, 3):
        f = mk.ScalarFunction.polynomial(rng.standard_normal(order))
        base = (
            mk.sample_random_hermitian(
                mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0)), rng
            ),
        )
        spec = mk.RemainderSpec(
            order,
            mk.SlotFunctionSum.from_slot_functions([f]),
            base,
            (mk.random_hermitian(3, rng, norm=0.4),),
            "self_adjoint",
        )
        for method in ("direct", "moi"):
            assert np.max(np.abs(mk.taylor_remainder_self_adjoint(spec, method))) <= 1e-10
    announce(7, "Taylor remainders: direct and spectral-sum routes agree")


# sha256 of each shipped report (timing and worker count removed), pinned so
# that refactors of the sampler, engine and harness keep every report
# byte-identical
TAILBOUND_DIGESTS = {
    "tailbound_moi_norm_a":
        "84bd20399ca9c010192b44adbb21c37da461510e4fdc665618d77009a8b4f145",
    "tailbound_moi_norm_schatten_b":
        "144b1da3dafb4c3d05f7884301d45d0d8795108d0f61e7eec838aeb25b9c7219",
    "tailbound_first_derivative":
        "0d1f96e74f42cafd0e464570ac01ec6090dba0a39cf1a799d67740ae30a63d2b",
    "tailbound_kth_derivative":
        "c461ec0efbf0bd8c10c22bcba0b9ef8ebaddf3d95f156728765cb0d9882399d1",
    "tailbound_higher_difference":
        "ab57e864b2b21dc2c3c6a7df0ed5c06619f255f5ab07c7e191ba32ff172804c3",
    "tailbound_sa_remainder":
        "9c78a24a6d1e908037d38457ad545274eb5c38b4fb1431075d8bd55bb93a8fe4",
    "tailbound_unitary_remainder":
        "a64e590297252040da1418e25696f1c5ddc270aa3ba16ada39dc552049ed79f0",
}


def report_bytes(report) -> bytes:
    """The serialized report without the keys that may differ between runs
    of the same seed: wall time and the worker count."""
    data = report.to_dict()
    data.pop("wall_time_s")
    data["metadata"].pop("workers")
    return ser.dumps_deterministic(data).encode()


def test_c08_tail_bounds_all_shipped_configs():
    start = time.perf_counter()
    for name, digest in TAILBOUND_DIGESTS.items():
        payload = ser.load_json(config_path(f"{name}.json"))
        experiment = ser.parse_experiment(payload)
        assert experiment.samples == 10_000
        assert len(experiment.theta_grid) == 8
        report = mk.run_tail_bound(experiment)
        assert report.metadata["aborted_samples"] == 0
        for row in report.rows:
            assert row["satisfied"], (
                f"{name}: p={row['empirical_prob']} > "
                f"rhs={row['bound_rhs']} + 3sigma at theta={row['theta']}"
            )
        assert hashlib.sha256(report_bytes(report)).hexdigest() == digest, name
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0
    announce(8, f"all 7 tail-bound configs satisfied at N=10^4 in {elapsed:.0f}s")


def test_c09_haar_sampler():
    rng = np.random.default_rng(9009)
    moments = np.empty(10_000)
    for i in range(10_000):
        u = mk.sample_haar_unitary(4, rng)
        departure = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(4)))
        assert departure <= 1e-10
        moments[i] = abs(np.trace(u.matrix)) ** 2
    assert 0.95 <= float(np.mean(moments)) <= 1.05

    phase_rng = np.random.default_rng(9010)
    phases = []
    for _ in range(2500):
        u = mk.sample_haar_unitary(4, phase_rng)
        phases.extend(np.angle(np.linalg.eigvals(u.matrix)))
    result = scipy.stats.kstest(phases, "uniform", args=(-np.pi, 2 * np.pi))
    assert result.pvalue > 0.01
    announce(9, f"Haar sampler moments and eigenphase KS (p={result.pvalue:.3f})")


def test_c10_polynomial_decomposition():
    rng = np.random.default_rng(1010)
    for trial in range(25):
        arity = int(rng.integers(1, 4))
        degree = int(rng.integers(0, 5))
        exponents = set()
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            exp = tuple(int(e) for e in rng.multinomial(degree, [1 / arity] * arity))
            if exp in exponents:
                continue
            exponents.add(exp)
            terms.append((exp, float(rng.standard_normal())))
        if not terms:
            terms = [(tuple([0] * arity), 1.0)]
        poly = mk.MonomialPolynomial(arity, tuple(terms))
        form = mk.decompose_inner_powers(poly, rng)
        counts = form.degree_term_counts()
        for i in range(poly.degree + 1):
            assert counts[i] == math.comb(arity + i - 1, i)
        probes = rng.uniform(-1, 1, size=(400, arity))
        truth = poly.evaluate_many(probes)
        scale = 1.0 + float(np.max(np.abs(truth)))
        residual = float(np.max(np.abs(form.evaluate_many(probes) - truth)))
        assert residual <= 1e-8 * scale
        product = mk.to_linear_products(form)
        product_residual = float(
            np.max(np.abs(product.evaluate_many(probes) - form.evaluate_many(probes)))
        )
        assert product_residual <= 1e-10 * scale
    announce(10, "inner-power and linear-product decompositions reconstruct")


def test_c11_tensor_integrals_match_unfolding():
    for dims in [(2, 2), (2, 3)]:
        rng = np.random.default_rng(1100 + dims[1])
        p = int(np.prod(dims))
        for _ in range(10):
            tensors = [
                mk.fold(
                    mk.sample_random_hermitian(
                        mk.RandomOperatorModel(p, ("uniform", -1.0, 1.0)), rng
                    ).matrix,
                    dims,
                )
                for _ in range(2)
            ]
            argument = mk.random_hermitian(p, rng)
            psi = mk.SeparableIntegrand(
                2,
                (
                    (mk.ScalarFunction.monomial(1), mk.ScalarFunction.constant(1.0)),
                    (mk.ScalarFunction.constant(1.0), mk.ScalarFunction.monomial(1)),
                ),
            )
            result = mk.mti_evaluate(tensors, psi, [mk.fold(argument, dims)])
            expected = mk.moi_core([mk.unfold(t) for t in tensors], psi, [argument])
            entries = result.entries if hasattr(result, "entries") else result
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(entries - expected.reshape(dims + dims))) <= (
                1e-10 * scale
            )
    announce(11, "tensor integrals equal fold(matrix engine(unfold))")


def test_c12_determinism():
    payload = ser.load_json(config_path("tailbound_first_derivative.json"))
    payload = {**payload, "samples": 1000}
    experiment = ser.parse_experiment(payload)
    first = report_bytes(mk.run_tail_bound(experiment, workers=1))
    assert report_bytes(mk.run_tail_bound(experiment, workers=1)) == first
    assert report_bytes(mk.run_tail_bound(experiment, workers=4)) == first
    announce(12, "reports byte-identical per seed; worker count immaterial")
