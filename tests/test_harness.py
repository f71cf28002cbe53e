"""Monte Carlo harness: seeding, expectation estimates, tail-bound runs,
and convergence in the r-th mean."""

import copy
import dataclasses
import json
import math
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest

import moikit as mk
from moikit import serialization as ser
from moikit import harness, integrands
from moikit.errors import (
    CapabilityError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from moikit.harness import SURROGATE_NOTE
from moikit.moi import _stacked_moi

import oracles
from conftest import assert_golden, config_path


def small_experiment(seed=11, samples=1000):
    rng = np.random.default_rng(42)
    model = mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0))
    x1 = mk.random_hermitian(3, rng, norm=1.0)
    psi = mk.SeparableIntegrand(
        2, ((mk.ScalarFunction.monomial(1), mk.ScalarFunction.monomial(1)),)
    )
    return mk.TailBoundExperiment(
        theorem_id="moi_norm_a",
        operator_models=(model, model),
        fixed_inputs={"arguments": [x1]},
        integrand=psi,
        theta_grid=(0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4),
        samples=samples,
        seed=seed,
    )


def shipped_experiment(theorem_id, samples=1000):
    """The shipped tail-bound config of ``theorem_id``, at ``samples`` samples."""
    payload = ser.load_json(config_path(f"tailbound_{theorem_id}.json"))
    return ser.parse_experiment({**payload, "samples": samples})


class TestStreams:
    def test_a_seed_block_is_not_another_seed_block(self):
        # the key (seed, b) read seed 0's block 1 as seed 2**32's block 0
        a = mk.sample_stream(0, 1).standard_normal(4)
        b = mk.sample_stream(2**32, 0).standard_normal(4)
        assert not np.any(a == b)

    def test_sample_stream_independent_of_order(self):
        a = mk.sample_stream(3, 5).standard_normal(4)
        b = mk.sample_stream(3, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed, index", [(0, 0), (7, 123), (2**32, 1),
                                             (2**64 - 1, 999)])
    def test_sample_stream_is_the_spawned_child(self, seed, index):
        child = np.random.SeedSequence(seed).spawn(index + 1)[index]
        np.testing.assert_array_equal(mk.sample_stream(seed, index).random(8),
                                      np.random.default_rng(child).random(8))

    def test_markov_self_test(self):
        # empirical P(|x| >= theta) <= E|x| / theta for x ~ uniform(0, 1)
        n = 100_000
        values = np.empty(n)
        for i in range(n):
            values[i] = mk.sample_stream(123, i).uniform(0.0, 1.0)
        mean = float(np.mean(values))
        for theta in np.arange(0.1, 0.95, 0.1):
            p_hat = float(np.mean(values >= theta))
            assert p_hat <= mean / theta


class TestRunTailBound:
    def test_constant_statistic_never_exceeds(self):
        model = mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0))
        psi = mk.SeparableIntegrand.constant(2)
        exp = mk.TailBoundExperiment(
            theorem_id="moi_norm_a",
            operator_models=(model, model),
            fixed_inputs={"arguments": [np.eye(3, dtype=complex)]},
            integrand=psi,
            theta_grid=(2.0,),
            samples=1000,
            seed=5,
        )
        report = mk.run_tail_bound(exp)
        assert report.rows[0]["empirical_prob"] == 0.0
        assert report.rows[0]["satisfied"]

    def test_large_theta_always_satisfied(self):
        exp = small_experiment()
        report = mk.run_tail_bound(exp)
        assert report.rows[-1]["empirical_prob"] == 0.0
        assert report.rows[-1]["satisfied"]

    def test_report_structure(self):
        report = mk.run_tail_bound(small_experiment())
        payload = report.to_dict()
        assert payload["kind"] == "tail_bound_report"
        assert len(payload["rows"]) == 8
        for row in payload["rows"]:
            assert set(row) == {
                "theta",
                "empirical_prob",
                "mc_stderr",
                "bound_rhs",
                "satisfied",
            }
            assert 0.0 <= row["empirical_prob"] <= 1.0
            assert row["satisfied"] == (
                row["empirical_prob"] <= row["bound_rhs"] + 3 * row["mc_stderr"]
            )
        assert payload["metadata"]["surrogate"] == SURROGATE_NOTE
        assert payload["metadata"]["aborted_samples"] == 0

    def test_seed_determinism_byte_identical(self):
        first = mk.run_tail_bound(small_experiment()).to_dict()
        second = mk.run_tail_bound(small_experiment()).to_dict()
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert ser.dumps_deterministic(first) == ser.dumps_deterministic(second)

    def test_worker_count_does_not_change_statistics(self):
        exp = small_experiment(samples=1000)
        sequential = mk.run_tail_bound(exp, workers=1).to_dict()
        parallel = mk.run_tail_bound(exp, workers=3).to_dict()
        for a, b in zip(sequential["rows"], parallel["rows"]):
            assert abs(a["empirical_prob"] - b["empirical_prob"]) <= 1e-12
            assert abs(a["bound_rhs"] - b["bound_rhs"]) <= 1e-12
        for a, b in zip(
            sequential["expectation_estimates"], parallel["expectation_estimates"]
        ):
            assert abs(a["mean"] - b["mean"]) <= 1e-12

    def test_aborted_samples_fail_run(self):
        bad_factor = mk.ScalarFunction.from_callable(lambda x: float("nan"))
        psi = mk.SeparableIntegrand(2, ((bad_factor, bad_factor),))
        model = mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0))
        exp = mk.TailBoundExperiment(
            theorem_id="moi_norm_a",
            operator_models=(model, model),
            fixed_inputs={"arguments": [np.eye(3, dtype=complex)]},
            integrand=psi,
            theta_grid=(1.0,),
            samples=1000,
            seed=3,
        )
        with pytest.raises(NumericalError, match="aborted"):
            mk.run_tail_bound(exp)

    def test_higher_difference_secondary_reading(self):
        payload = ser.load_json(config_path("tailbound_higher_difference.json"))
        payload = copy.deepcopy(payload)
        payload["samples"] = 1000
        exp = ser.parse_experiment(payload)
        report = mk.run_tail_bound(exp)
        fixed = report.metadata["fixed_eigengap"]
        assert fixed["excluded_samples"] >= 0
        assert fixed["included_samples"] + fixed["excluded_samples"] == 1000
        assert len(fixed["rows"]) == 8

    def test_higher_difference_without_a_bound_reads_the_observed_maximum(self):
        payload = ser.load_json(config_path("tailbound_higher_difference.json"))
        payload = {k: v for k, v in payload.items() if k != "eigengap_bound"}
        report = mk.run_tail_bound(ser.parse_experiment({**payload, "samples": 1000}))
        fixed = report.metadata["fixed_eigengap"]
        assert fixed["eigengap_source"] == "max_observed"
        assert fixed["excluded_samples"] == 0
        assert fixed["included_samples"] == 1000
        assert report.metadata["constants"]["eigengap_bound"] is None

    def test_schatten_metadata_records_exponent_rules(self):
        payload = ser.load_json(config_path("tailbound_moi_norm_schatten_b.json"))
        payload = copy.deepcopy(payload)
        payload["samples"] = 1000
        report = mk.run_tail_bound(ser.parse_experiment(payload))
        constants = report.metadata["constants"]
        assert constants["result_exponent_q"] == pytest.approx(1.0)
        assert "result_exponent_variant_one_minus_sum" in constants

    def test_a_high_order_derivative_of_a_high_degree_polynomial_is_in_reach(self):
        # the sup of x^12's order-8 divided difference reads 220 multisets of
        # the 4 eigenvalues per sample, where its grid has 4^9 points, and
        # x^20's order-16 reads 1140, where its grid has 4^17 points; the
        # engine sums their words, not their 495 and 4845 terms
        rng = np.random.default_rng(3)
        direction = mk.random_hermitian(4, rng, norm=1.0)
        experiments = [mk.TailBoundExperiment(
            theorem_id="kth_derivative",
            operator_models=(mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0)),),
            fixed_inputs={"direction": direction},
            integrand=mk.ScalarFunction.monomial(degree),
            theta_grid=(1.0, 10.0),
            samples=1000,
            seed=5,
            order=order,
        ) for degree, order in ((12, 8), (20, 16))]
        start = time.perf_counter()
        for exp in experiments:
            report = mk.run_tail_bound(exp)
            assert report.metadata["aborted_samples"] == 0
        assert time.perf_counter() - start < 3.0
        # |h_q| <= h_q(|nodes|), so x^p's order-k sup is C(p, k) max |l|^(p - k),
        # at k + 1 copies of the eigenvalue of largest modulus
        for exp in experiments:
            degree, order = len(exp.integrand.coefficients) - 1, exp.order
            _, terms, _ = harness._simulate_block(exp, 0, 4)
            ((eigenvalues, _),) = harness._sampled_spectra(exp, 0, 4, False)
            exact = math.comb(degree, order) * np.max(np.abs(eigenvalues), axis=1) ** (
                degree - order)
            assert np.all(np.abs(terms["integrand_norm"] - exact) <= 1e-13 * exact)
        # and at order 8 the words' sup against the same terms, with no
        # coefficients to recur on, which sum the whole grid (of 3 nodes)
        dd = mk.divided_difference_integrand(experiments[0].integrand, 8)
        axes = [eigenvalues[:, :3]] * 9
        grid = integrands._sup_norms(mk.SeparableIntegrand(dd.arity, dd.terms), axes)
        assert np.all(np.abs(integrands._sup_norms(dd, axes) - grid) <= 1e-13 * grid)


class TestEstimates:
    """Means, standard errors and Markov rows whose squares pass the floats."""

    def test_a_std_whose_squares_overflow_is_scaled(self):
        values = np.array([1e200, 3e200])
        mean, stderr = harness._mean_stderr(values)
        assert mean == 2e200
        assert stderr == pytest.approx(1e200, rel=1e-15)
        # values that fit keep numpy's bits, and an infinite one is not scaled
        small = np.array([0.1, 0.7, 0.3])
        assert harness._mean_stderr(small)[1] == float(np.std(small, ddof=1) / math.sqrt(3))
        assert math.isnan(harness._mean_stderr(np.array([1.0, math.inf]))[1])

    def test_a_markov_row_whose_squares_overflow_takes_hypot(self):
        stat = np.array([0.1, 1.0])
        row = harness._markov_row(0.5, stat, [1e100, 2.0], [1e100, 1.0], [1e100, 3.0])
        se_p = math.sqrt(0.5 * 0.5 / 2)
        assert row["mc_stderr"] == math.hypot(se_p, math.hypot(1e200 / 0.5, 6.0 / 0.5))
        assert row["bound_rhs"] == (1e200 + 2.0) / 0.5
        assert row["satisfied"]
        # a row whose squares fit keeps its plain sum
        row = harness._markov_row(0.5, stat, [3.0, 2.0], [0.2, 1.0], [0.1, 0.3])
        se_rhs = math.sqrt((3.0 * 0.1 / 0.5) ** 2 + (2.0 * 0.3 / 0.5) ** 2)
        assert row["mc_stderr"] == math.sqrt(se_p**2 + se_rhs**2)

    @pytest.mark.parametrize("means, stderrs", [([1e300], [1.0]), ([1.0], [1e300])])
    def test_a_markov_row_past_the_floats_raises(self, means, stderrs):
        with pytest.raises(NumericalError, match="overflows the floats"):
            harness._markov_row(0.5, np.array([1.0]), [1e10], means, stderrs)


class TestPower:
    """The check can fail: scaled by a tenth, the Markov coefficients of
    these shipped configs leave a row unsatisfied at the shipped sample
    count.  README "Shipped configs" gives each config's margin, the largest
    such factor; the other four configs have margins below 0.1."""

    @pytest.mark.parametrize("theorem_id",
                             ["first_derivative", "kth_derivative", "higher_difference"])
    def test_a_tenth_of_the_coefficients_fails_a_row(self, monkeypatch, theorem_id):
        prepare = harness._prepare

        def weakened(exp):
            ctx = prepare(exp)
            return dataclasses.replace(
                ctx, coefficients={k: 0.1 * c for k, c in ctx.coefficients.items()})

        monkeypatch.setattr(harness, "_prepare", weakened)
        exp = ser.parse_experiment(ser.load_json(config_path(f"tailbound_{theorem_id}.json")))
        assert exp.samples == 10_000
        assert not all(row["satisfied"] for row in mk.run_tail_bound(exp).rows)


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -1, True, 1.5])
    def test_worker_count_must_be_a_positive_integer(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            mk.run_tail_bound(small_experiment(), workers=workers)

    def test_pool_has_at_most_one_thread_per_core_and_chunk(self, monkeypatch):
        sizes, prepared = [], []

        class InlinePool:
            """Runs each chunk in this thread, in order."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        prepare = harness._prepare

        def counting(exp):
            prepared.append(exp)
            return prepare(exp)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_prepare", counting)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        exp = small_experiment()
        pooled = mk.run_tail_bound(exp, workers=5).to_dict()
        assert sizes == [2]
        assert len(prepared) == 1
        assert pooled["metadata"]["workers"] == 5
        # 1000 samples are 4 chunks of whole blocks at 8 workers
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 16)
        mk.run_tail_bound(exp, workers=8)
        assert sizes == [2, 4]
        assert len(prepared) == 2
        single = mk.run_tail_bound(exp, workers=1).to_dict()
        assert sizes == [2, 4]
        for report in (pooled, single):
            report.pop("wall_time_s")
            report["metadata"].pop("workers")
        assert ser.dumps_deterministic(pooled) == ser.dumps_deterministic(single)

    def test_threads_share_an_f_built_from_lambdas(self, monkeypatch):
        # a process pool would have to pickle f
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        rng = np.random.default_rng(3)
        exp = mk.TailBoundExperiment(
            theorem_id="first_derivative",
            operator_models=(mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0)),),
            fixed_inputs={"direction": mk.random_hermitian(3, rng, norm=1.0)},
            integrand=mk.ScalarFunction.from_callable(
                lambda x: np.sin(x), (lambda x: np.cos(x),)),
            theta_grid=(0.1, 0.5, 1.0),
            samples=1000,
            seed=4,
        )
        reports = [mk.run_tail_bound(exp, workers=w).to_dict() for w in (1, 2)]
        for report in reports:
            report.pop("wall_time_s")
            report["metadata"].pop("workers")
        assert ser.dumps_deterministic(reports[1]) == ser.dumps_deterministic(reports[0])


class TestThreads:
    """Threads evaluate a run's chunks over one prepared experiment, each
    writing its own rows: more threads than cores, switched often, give the
    bits of one thread."""

    @pytest.mark.parametrize("theorem_id", [*harness.THEOREM_IDS, "failing_first_derivative"])
    def test_more_threads_than_cores_give_the_bits_of_one(self, theorem_id, monkeypatch):
        if theorem_id == "failing_first_derivative":
            exp = partially_failing_experiment("first_derivative")
        else:
            exp = shipped_experiment(theorem_id)
        chunks_of_16(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        ctx = harness._prepare(exp)
        single = harness._simulate_block(exp, 0, 320, ctx, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 20 chunks of 16 samples on 8 threads
            threaded = harness._simulate_block(exp, 0, 320, ctx, 8)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(threaded, single)


class TestSamplerLaw:
    """The Haar average of a random first derivative: for U Haar and a fixed
    spectrum l, E[U (F o (U* E U)) U*] = a E + b tr(E) I with
    F_ij = f^[1](l_i, l_j), S = sum F, T = tr F,
    a = (S - T/n) / (n^2 - 1) and b = (T - S/n) / (n^2 - 1)."""

    LAMBDAS = np.array([-0.7, 0.1, 0.8])

    def largest_z(self, bases_of):
        """The largest |z| of the sample mean of the pre-norm derivatives of
        f = x^3 against the Haar average, over the real and imaginary parts
        of the entries that spread; ``bases_of`` maps the sampled bases to
        the ones used."""
        n, lam = 3, self.LAMBDAS
        direction = mk.random_hermitian(n, np.random.default_rng(5), norm=1.0)
        exp = mk.TailBoundExperiment(
            theorem_id="first_derivative",
            operator_models=(mk.RandomOperatorModel(n, ("fixed", lam)),),
            fixed_inputs={"direction": direction},
            integrand=mk.ScalarFunction.monomial(3),
            theta_grid=(1.0,),
            samples=20_000,
            seed=5,
        )
        ((w, v),) = harness._sampled_spectra(exp, 0, exp.samples, False)
        v = bases_of(v)
        dd1 = mk.divided_difference_integrand(exp.integrand, 1)
        values = _stacked_moi(dd1, [w, w], [v, v], [direction])
        f1 = lam[:, None] ** 2 + lam[:, None] * lam[None, :] + lam[None, :] ** 2
        s, t = f1.sum(), np.trace(f1)
        a, b = (s - t / n) / (n * n - 1), (t - s / n) / (n * n - 1)
        mean = a * direction + b * np.trace(direction) * np.eye(n)
        parts = values.reshape(len(values), -1).view(float)
        expected = mean.reshape(-1).view(float)
        spread = parts.std(axis=0, ddof=1)
        keep = spread > 0
        z = (parts.mean(axis=0) - expected)[keep] / (spread[keep] / math.sqrt(len(parts)))
        return float(np.max(np.abs(z)))

    @staticmethod
    def bound():
        """A Bonferroni two-sided z-bound at 1e-6 over the 2 n^2 parts."""
        return NormalDist().inv_cdf(1.0 - 1e-6 / (2 * 2 * 9))

    def test_haar_bases_match_the_closed_form(self):
        assert self.largest_z(lambda bases: bases) < self.bound()

    def test_real_orthogonal_bases_miss_it(self):
        def orthogonal(bases):
            rng = np.random.default_rng(1)
            q, r = np.linalg.qr(rng.standard_normal(bases.shape))
            return (q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]).astype(complex)

        assert self.largest_z(orthogonal) > self.bound()


def assert_same_bits(block, expected):
    """Equal abort masks, statistics and terms, bit for bit."""
    stats, terms, aborted = block
    ref_stats, ref_terms, ref_aborted = expected
    assert aborted.tobytes() == ref_aborted.tobytes()
    assert stats.tobytes() == ref_stats.tobytes()
    assert sorted(terms) == sorted(ref_terms)
    for label in terms:
        assert terms[label].tobytes() == ref_terms[label].tobytes(), label


def past_threshold(threshold):
    """x below the threshold, +inf from it on: a callable that is not
    finite at large eigenvalues."""
    return mk.ScalarFunction.from_callable(
        lambda x: x if x.real < threshold else math.inf
    )


def partially_failing_experiment(theorem_id):
    """An experiment whose samples fail where an eigenvalue reaches 0.9, on
    the factored engine path (``moi_norm_a``, separable integrand with a
    callable factor) or on the grid path (``first_derivative``, callable f).
    Either path raises for them, and the chunk is halved until each failing
    sample is evaluated alone."""
    model = mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0))
    rng = np.random.default_rng(8)
    if theorem_id == "moi_norm_a":
        integrand = mk.SeparableIntegrand(
            2, ((past_threshold(0.9), mk.ScalarFunction.monomial(1)),)
        )
        models, fixed = (model, model), {"arguments": [mk.random_hermitian(3, rng)]}
    else:
        integrand = past_threshold(0.9)
        models, fixed = (model,), {"direction": mk.random_hermitian(3, rng)}
    return mk.TailBoundExperiment(
        theorem_id=theorem_id,
        operator_models=models,
        fixed_inputs=fixed,
        integrand=integrand,
        theta_grid=(1.0,),
        samples=1000,
        seed=17,
    )


def simulated_in_parts(exp, cuts):
    """``_simulate_block`` over the ranges between consecutive cuts, joined."""
    parts = [harness._simulate_block(exp, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return (
        np.concatenate([part[0] for part in parts]),
        {label: np.concatenate([part[1][label] for part in parts])
         for label in parts[0][1]},
        np.concatenate([part[2] for part in parts]),
    )


def chunks_of_16(monkeypatch):
    monkeypatch.setattr(harness, "_chunk_samples", lambda dim, surrogates: 16)


class TestBatchedEvaluation:
    """Blocks are evaluated in chunks of stacked samples; neither the chunks
    nor the block boundaries may change a bit of any sample's values."""

    @pytest.mark.parametrize("theorem_id", harness.THEOREM_IDS)
    def test_uneven_blocks_and_chunks_give_the_same_bits(self, theorem_id, monkeypatch):
        exp = shipped_experiment(theorem_id)
        whole = harness._simulate_block(exp, 0, 100)
        chunks_of_16(monkeypatch)
        assert_same_bits(simulated_in_parts(exp, (0, 1, 37, 100)), whole)

    @pytest.mark.parametrize("chunks", ["default", "of_16"])
    @pytest.mark.parametrize("theorem_id", harness.THEOREM_IDS)
    def test_ranges_across_rng_blocks_give_the_same_bits(self, theorem_id, chunks,
                                                         monkeypatch):
        # 255 | 257 cut the first two RNG blocks of 256 samples inside them
        exp = shipped_experiment(theorem_id)
        whole = harness._simulate_block(exp, 0, 600)
        if chunks == "of_16":
            chunks_of_16(monkeypatch)
        assert_same_bits(simulated_in_parts(exp, (0, 255, 257, 600)), whole)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_blocks_draw_from_their_own_streams(self, seed, monkeypatch):
        # samples 100..299 take rows 100..255 of block 0 and 0..43 of block 1
        exp = dataclasses.replace(shipped_experiment("moi_norm_a"), seed=seed)
        model = exp.operator_models[0]
        a, b = (float(bound) for bound in model.law[1:])
        dim = model.dim
        drawn = []
        random_spectra = harness._random_spectra

        def recording(values, normals, unitary):
            drawn.append((values, normals))
            return random_spectra(values, normals, unitary)

        monkeypatch.setattr(harness, "_random_spectra", recording)
        harness._sampled_spectra(exp, 100, 300, False)
        expected_values, expected_normals = [], []
        for block, rows in ((0, slice(100, 256)), (1, slice(0, 44))):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
            expected_values.append(a + (b - a) * rng.random((256, dim))[rows])
            expected_normals.append(rng.standard_normal((256, 2, dim, dim))[rows])
        assert len(drawn) == len(exp.operator_models)
        np.testing.assert_array_equal(drawn[0][0], np.concatenate(expected_values))
        np.testing.assert_array_equal(drawn[0][1], np.concatenate(expected_normals))

    def test_chunks_hold_whole_rng_blocks(self, monkeypatch):
        exp = shipped_experiment("first_derivative")
        monkeypatch.setattr(harness, "_chunk_samples", lambda dim, surrogates: 600)
        ranges = []
        sampled_spectra = harness._sampled_spectra

        def recording(exp, lo, hi, unitary):
            ranges.append((lo, hi))
            return sampled_spectra(exp, lo, hi, unitary)

        monkeypatch.setattr(harness, "_sampled_spectra", recording)
        harness._simulate_block(exp, 0, 1100)
        assert ranges == [(0, 512), (512, 1024), (1024, 1100)]

    @pytest.mark.parametrize("theorem_id", harness.THEOREM_IDS)
    def test_block_matches_the_per_sample_reference(self, theorem_id):
        exp = shipped_experiment(theorem_id)
        assert_same_bits(harness._simulate_block(exp, 0, 60),
                         oracles.tail_bound_block(exp, 0, 60))

    @pytest.mark.parametrize("law", ["gaussian", "fixed"])
    @pytest.mark.parametrize("theorem_id", harness.THEOREM_IDS)
    def test_other_laws_match_the_per_sample_reference(self, theorem_id, law,
                                                       monkeypatch):
        # the shipped configs all draw uniform eigenvalues
        exp = shipped_experiment(theorem_id)
        dim = exp.operator_models[0].dim
        if law == "gaussian":
            model = mk.RandomOperatorModel(dim, ("gaussian", 0.1, 0.4))
        else:
            model = mk.RandomOperatorModel(dim, ("fixed", np.linspace(-0.8, 0.7, dim)))
        exp = dataclasses.replace(exp, operator_models=(model,) * len(exp.operator_models))
        chunks_of_16(monkeypatch)
        assert_same_bits(harness._simulate_block(exp, 0, 40),
                         oracles.tail_bound_block(exp, 0, 40))

    @pytest.mark.parametrize("theorem_id", ["moi_norm_a", "first_derivative"])
    def test_only_the_failing_samples_abort(self, theorem_id, monkeypatch):
        exp = partially_failing_experiment(theorem_id)
        chunks_of_16(monkeypatch)
        block = harness._simulate_block(exp, 0, 80)
        assert 0 < np.sum(block[2]) < 40
        assert np.all(np.isfinite(block[0][~block[2]]))
        assert_same_bits(block, oracles.tail_bound_block(exp, 0, 80))

    @pytest.mark.parametrize("theorem_id", ["moi_norm_a", "first_derivative"])
    def test_a_chunk_is_halved_down_to_its_one_failing_sample(self, theorem_id):
        # samples 32..47 hold one failing sample (42): the chunk, then one
        # failing and one passing half per level, 2 log2(16) + 1 calls at most
        exp = partially_failing_experiment(theorem_id)
        ctx = harness._prepare(exp)
        ctx.chunk, statistic, calls = 16, ctx.statistic, []

        def counting(spectra):
            calls.append(len(spectra[0][0]))
            return statistic(spectra)

        ctx.statistic = counting
        block = harness._simulate_block(exp, 32, 48, ctx)
        assert np.flatnonzero(block[2]).tolist() == [10]
        assert len(calls) <= 2 * math.ceil(math.log2(16)) + 1
        assert_same_bits(block, oracles.tail_bound_block(exp, 32, 48))

    def test_unitary_remainder_at_order_10_reads_constant_integrands_once(self):
        # f^[l] is the leading coefficient at l = deg f and zero beyond: the
        # sup reads one point of those grids, not 6^(l+1)
        exp = dataclasses.replace(shipped_experiment("unitary_remainder"), order=10)
        stats, terms, aborted = harness._simulate_block(exp, 0, 256)
        assert not aborted.any() and np.all(np.isfinite(stats))
        for j, f in enumerate(exp.integrand):
            degree = len(f.coefficients) - 1
            assert np.all(terms[f"slot{j}_order{degree}_integrand_norm"] == 1.0)
            for ell in range(degree + 1, 11):
                assert np.all(terms[f"slot{j}_order{ell}_integrand_norm"] == 0.0)

    def test_no_shipped_config_sums_a_sup_grid(self, monkeypatch):
        """The sup surrogates of one 256-sample block of each shipped
        tail-bound config take the one-term product of maxima or the
        multiset sum, never the separable grid sum: that path's cost was
        measured only off the benchmark workloads, so if a config ever
        reaches it, re-measure the grid path on that config's shapes.
        An ``AssertionError`` is not an abort error, so it leaves
        ``_simulate_block`` instead of aborting the sample."""
        def grid_sup_norms(psi, values):
            raise AssertionError("a shipped config summed a sup grid")

        calls = []
        sup_norms = integrands._sup_norms
        monkeypatch.setattr(integrands, "_grid_sup_norms", grid_sup_norms)
        monkeypatch.setattr(harness, "_sup_norms",
                            lambda psi, axes: calls.append(psi) or sup_norms(psi, axes))
        for theorem_id in harness.THEOREM_IDS:
            _, _, aborted = harness._simulate_block(shipped_experiment(theorem_id), 0, 256)
            assert not aborted.any()
        assert calls  # the patched helper sat under the surrogates that ran

    def test_chunk_keeps_the_factored_sums_near_the_budget(self):
        # moi_norm_a: three 4x4 operators; its factored sum holds two 4x4
        # complex matrices per sample, the running sum and the term in hand
        exp = shipped_experiment("moi_norm_a")
        chunk = harness._prepare(exp).chunk
        assert 16 * 2 * 4 * 4 * chunk <= harness._CHUNK_BYTES
        assert 16 * 12**3 * chunk > harness._CHUNK_BYTES  # no 12^3-point grid

    def test_kth_derivative_at_n32_is_not_budgeted_for_a_grid(self):
        # the union^arity surrogate grid the old budget counted (32^3 complex
        # per sample for f = x^3 at order 2) gave chunks of 64 samples
        rng = np.random.default_rng(32)
        exp = mk.TailBoundExperiment(
            theorem_id="kth_derivative",
            operator_models=(mk.RandomOperatorModel(32, ("uniform", -1.0, 1.0)),),
            fixed_inputs={"direction": mk.random_hermitian(32, rng)},
            integrand=mk.ScalarFunction.polynomial([0.0, 0.0, 0.0, 1.0]),
            theta_grid=(1.0,),
            samples=1000,
            seed=3,
            order=2,
        )
        assert harness._prepare(exp).chunk > 64


class TestExperimentChecks:
    def test_models_must_share_one_dimension(self):
        psi = mk.SeparableIntegrand.constant(2)
        with pytest.raises(ValidationError, match="share one dimension"):
            mk.TailBoundExperiment(
                theorem_id="moi_norm_a",
                operator_models=(mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0)),
                                 mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0))),
                fixed_inputs={"arguments": [np.eye(3, dtype=complex)]},
                integrand=psi,
                theta_grid=(1.0,),
                samples=1000,
                seed=0,
            )

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be an unsigned 64-bit integer"),
        ("seed", 2**70, "seed must be an unsigned 64-bit integer"),
        ("seed", 1.5, "seed must be an unsigned 64-bit integer"),
        ("seed", True, "seed must be an unsigned 64-bit integer"),
        ("seed", "7", "seed must be an unsigned 64-bit integer"),
        ("samples", 1000.5, "at least 10\\^3 samples"),
        ("samples", 999, "at least 10\\^3 samples"),
    ])
    def test_seed_and_samples_are_checked(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            small_experiment(**{field: value})

    def test_seed_and_samples_become_ints(self):
        exp = small_experiment(seed=np.uint64(2**64 - 1), samples=np.int64(1000))
        assert type(exp.seed) is int and exp.seed == 2**64 - 1
        assert type(exp.samples) is int and exp.samples == 1000

    # (theorem, edit of its shipped experiment, error, message): each check of
    # the experiment's inputs, and each field a theorem does not read
    @pytest.mark.parametrize("theorem_id, edit, error, message", [
        ("kth_derivative", lambda e: {"theorem_id": "bogus"}, ValidationError,
         "^unknown theorem id 'bogus'$"),
        ("kth_derivative", lambda e: {"theta_grid": (0.0, 1.0)}, ValidationError,
         "^theta grid entries must be positive$"),
        ("kth_derivative", lambda e: {"theta_grid": (1.0, 1.0)}, ValidationError,
         "^theta grid must be strictly increasing$"),
        ("kth_derivative", lambda e: {"theta_grid": (0.5, math.nan)}, ValidationError,
         "^theta grid entries must be finite$"),
        ("kth_derivative", lambda e: {"theta_grid": (0.5, math.inf)}, ValidationError,
         "^theta grid entries must be finite$"),
        ("kth_derivative", lambda e: {"order": 0}, ValidationError,
         r"^kth-derivative experiments need order in 1\.\.170$"),
        ("kth_derivative", lambda e: {"order": 171}, ValidationError,
         r"^kth-derivative experiments need order in 1\.\.170$"),
        ("unitary_remainder", lambda e: {"order": 17}, ValidationError,
         r"^remainder experiments need order in 1\.\.16$"),
        ("moi_norm_a", lambda e: {"operator_models": e.operator_models[:1]},
         ValidationError, "^norm-bound experiments need at least two operators$"),
        ("moi_norm_a", lambda e: {"integrand": mk.ScalarFunction.monomial(1)},
         ValidationError, "^norm-bound experiments need a separable integrand$"),
        ("moi_norm_a", lambda e: {"integrand": mk.SeparableIntegrand.constant(5)},
         ValidationError, "^integrand arity must equal the operator count$"),
        ("moi_norm_schatten_b", lambda e: {"schatten_p": (2.0,)}, ValidationError,
         "^schatten mode needs one exponent per argument$"),
        ("moi_norm_schatten_b", lambda e: {"schatten_p": (math.nan, 2.0)}, ValidationError,
         r"^Schatten exponents must be real numbers in \[1, inf\]$"),
        ("moi_norm_schatten_b", lambda e: {"schatten_p": (10**400, 2.0)}, ValidationError,
         r"^Schatten exponents must be real numbers in \[1, inf\]$"),
        ("moi_norm_schatten_b", lambda e: {"schatten_p": (2.0, True)}, ValidationError,
         r"^Schatten exponents must be real numbers in \[1, inf\]$"),
        ("moi_norm_schatten_b", lambda e: {"schatten_p": ("x", 2.0)}, ValidationError,
         r"^Schatten exponents must be real numbers in \[1, inf\]$"),
        ("moi_norm_schatten_b", lambda e: {"schatten_p": (0.5, 2.0)}, ParameterError,
         "^Schatten exponent must satisfy p >= 1, got 0.5$"),
        ("kth_derivative", lambda e: {"operator_models": e.operator_models * 2},
         ValidationError, "^kth-derivative experiments use one operator model$"),
        ("kth_derivative", lambda e: {"integrand": mk.SeparableIntegrand.constant(1)},
         ValidationError, "^theorem kth_derivative needs a scalar function$"),
        ("sa_remainder", lambda e: {"integrand": e.integrand[0]}, ValidationError,
         "^remainder experiments need per-slot scalar functions$"),
        ("sa_remainder", lambda e: {"integrand": list(e.integrand)}, ValidationError,
         "^remainder experiments need per-slot scalar functions$"),
        ("sa_remainder", lambda e: {"integrand": e.integrand[:1]}, ValidationError,
         "^one operator model per slot is required$"),
        ("unitary_remainder", lambda e: {"integrand": (
            e.integrand[0], mk.ScalarFunction.from_callable(np.exp, [np.exp]))},
         CapabilityError, "^unitary remainder slots must be polynomials$"),
        ("kth_derivative", lambda e: {"fixed_inputs": {}}, ValidationError,
         "^theorem kth_derivative needs fixed input 'direction'$"),
        ("sa_remainder", lambda e: {"fixed_inputs": {
            "perturbations": e.fixed_inputs["perturbations"][:1]}}, ValidationError,
         "^fixed input 'perturbations' needs 2 matrices, got 1$"),
        ("moi_norm_a", lambda e: {"order": 2}, ValidationError,
         "^theorem moi_norm_a takes no field 'order'$"),
        ("moi_norm_schatten_b", lambda e: {"order": 2}, ValidationError,
         "^theorem moi_norm_schatten_b takes no field 'order'$"),
        ("first_derivative", lambda e: {"order": 1}, ValidationError,
         "^theorem first_derivative takes no field 'order'$"),
        ("kth_derivative", lambda e: {"schatten_p": (2.0, 2.0)}, ValidationError,
         "^theorem kth_derivative takes no field 'schatten_p'$"),
        ("sa_remainder", lambda e: {"schatten_p": (2.0,)}, ValidationError,
         "^theorem sa_remainder takes no field 'schatten_p'$"),
        ("moi_norm_a", lambda e: {"eigengap_bound": 1.0}, ValidationError,
         "^theorem moi_norm_a takes no field 'eigengap_bound'$"),
        ("unitary_remainder", lambda e: {"eigengap_bound": 1.0}, ValidationError,
         "^theorem unitary_remainder takes no field 'eigengap_bound'$"),
    ])
    def test_each_check_rejects_its_input(self, theorem_id, edit, error, message):
        exp = shipped_experiment(theorem_id)
        with pytest.raises(error, match=message):
            dataclasses.replace(exp, **edit(exp))

    @pytest.mark.parametrize("gap", [-1.0, 0.0, -0.0, math.inf, math.nan, True, "1.0"])
    def test_eigengap_bound_must_be_finite_and_positive(self, gap):
        exp = shipped_experiment("higher_difference")
        with pytest.raises(ValidationError,
                           match="^eigengap_bound must be a finite positive number$"):
            dataclasses.replace(exp, eigengap_bound=gap)

    @pytest.mark.parametrize("field, value, message", [
        ("theta_grid", (10**400,), "theta grid entries must be finite"),
        ("theta_grid", (0.5, -10**400), "theta grid entries must be finite"),
        ("eigengap_bound", 10**400, "eigengap_bound must be a finite positive number"),
    ])
    def test_integers_past_the_floats_are_rejected(self, field, value, message):
        exp = shipped_experiment("higher_difference")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dataclasses.replace(exp, **{field: value})

    @pytest.mark.parametrize("gap", [2, np.float64(0.5), np.int64(3)])
    def test_eigengap_bound_is_stored_as_a_float(self, gap):
        exp = dataclasses.replace(shipped_experiment("higher_difference"),
                                  eigengap_bound=gap)
        assert type(exp.eigengap_bound) is float and exp.eigengap_bound == float(gap)

    def test_prepared_once_per_run(self, monkeypatch):
        calls = []
        prepare = harness._prepare

        def counting_prepare(exp):
            calls.append(exp.theorem_id)
            return prepare(exp)

        monkeypatch.setattr(harness, "_prepare", counting_prepare)
        exp = small_experiment()
        assert calls == []
        mk.run_tail_bound(exp, workers=1)
        assert calls == ["moi_norm_a"]


class TestShippedConfigsParse:
    @pytest.mark.parametrize(
        "name",
        [
            "tailbound_moi_norm_a",
            "tailbound_moi_norm_schatten_b",
            "tailbound_first_derivative",
            "tailbound_kth_derivative",
            "tailbound_higher_difference",
            "tailbound_sa_remainder",
            "tailbound_unitary_remainder",
        ],
    )
    def test_config_parses_and_round_trips(self, name):
        payload = ser.load_json(config_path(f"{name}.json"))
        exp = ser.parse_experiment(payload)
        assert exp.samples == 10_000
        assert len(exp.theta_grid) == 8
        rebuilt = ser.experiment_to_json(exp)
        assert ser.parse_experiment(rebuilt).theta_grid == exp.theta_grid


class TestConvergenceInMean:
    def test_default_report_is_pinned(self):
        # the report on the shipped default at 20 samples and 8 steps, wall
        # time removed, pinned so that batching the check keeps every byte
        payload = ser.load_json(config_path("convmean_default.json"))
        report = mk.convergence_in_mean_check(
            ser.parse_model(payload["base_model"]), payload["epsilon0"], 8, payload["r"],
            ser.parse_scalar_function(payload["f"]), payload["order"],
            [ser.parse_matrix(m) for m in payload["arguments"]], 20, payload["seed"],
        )
        report.pop("wall_time_s")
        assert_golden({"convergence_in_mean.json": ser.dumps_deterministic(report).encode()})

    def test_zero_epsilon_gives_zero_sequence(self):
        model = mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0))
        rng = np.random.default_rng(0)
        report = mk.convergence_in_mean_check(
            model, 0.0, 4, 2, mk.ScalarFunction.monomial(3), 2,
            [mk.random_hermitian(3, rng) for _ in range(2)], 20, 7,
        )
        assert all(row["mean_diff_pow_r"] == 0.0 for row in report["steps"])
        assert report["converged"]

    def test_linear_case_scales_like_one_over_m(self):
        # f(x) = x^2 at order 1: the first divided difference is l0 + l1, so
        # the evaluation difference is exactly linear in the perturbation and
        # the means fall off exactly like eps_m = eps0 / m
        model = mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0))
        rng = np.random.default_rng(1)
        report = mk.convergence_in_mean_check(
            model, 0.1, 16, 1, mk.ScalarFunction.monomial(2), 1,
            [mk.random_hermitian(4, rng, norm=1.0)], 60, 13,
        )
        means = [row["mean_diff_pow_r"] for row in report["steps"]]
        for m in (2, 4, 8, 16):
            ratio = means[0] / means[m - 1]
            assert abs(ratio - m) <= 0.2 * m
        assert report["dominated_all"]

    def test_cubic_r2_dominated_and_decreasing(self):
        model = mk.RandomOperatorModel(4, ("uniform", -1.0, 1.0))
        rng = np.random.default_rng(2)
        report = mk.convergence_in_mean_check(
            model, 0.05, 16, 2, mk.ScalarFunction.monomial(3), 2,
            [mk.random_hermitian(4, rng, norm=1.0) for _ in range(2)], 40, 29,
        )
        means = [row["mean_diff_pow_r"] for row in report["steps"]]
        assert all(a > b for a, b in zip(means, means[1:]))
        assert report["dominated_all"]

    def test_r_validation(self):
        model = mk.RandomOperatorModel(3, ("uniform", -1.0, 1.0))
        with pytest.raises(ParameterError):
            mk.convergence_in_mean_check(
                model, 0.1, 4, 3, mk.ScalarFunction.monomial(1), 1,
                [np.eye(3, dtype=complex)], 10, 0,
            )

    @pytest.mark.parametrize("epsilon0", [math.nan, math.inf, -math.inf, 10**400])
    def test_epsilon0_must_be_finite(self, epsilon0):
        with pytest.raises(ParameterError, match="^input.epsilon0: epsilon0 must be a finite"):
            harness.convergence_parameters(
                epsilon0, 4, 2, 1, [np.eye(3, dtype=complex)], 10, 0, 3, path="input"
            )
