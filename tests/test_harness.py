"""Monte Carlo harness: seeding, expectation estimates, tail-bound runs,
and convergence in the r-th mean."""

import copy
import dataclasses
import hashlib
import json
import math
from concurrent.futures import Future

import numpy as np
import pytest

import moikit as mk
from moikit import serialization as ser
from moikit import harness
from moikit.errors import NumericalError, ParameterError, ValidationError
from moikit.harness import SURROGATE_NOTE

import oracles
from conftest import config_path


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


class TestStreams:
    def test_mix64_distinct_and_stable(self):
        values = {mk.mix64(7, i) for i in range(1000)}
        assert len(values) == 1000
        assert mk.mix64(7, 0) == mk.mix64(7, 0)
        assert mk.mix64(7, 1) != mk.mix64(8, 1)

    def test_sample_stream_independent_of_order(self):
        a = mk.sample_stream(3, 5).standard_normal(4)
        b = mk.sample_stream(3, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_mix64_keeps_its_values(self):
        assert [mk.mix64(s, i) for s, i in [(0, 0), (7, 123), (2**64 - 1, 999),
                                            (2**63, 2**40)]] == [
            16294208416658607535, 11643247792660730917,
            9420747912965734335, 14547181691595906324,
        ]


class TestEstimateExpectation:
    def test_constant_statistic(self):
        mean, stderr = mk.estimate_expectation(lambda rng: 2.5, 500, 0)
        assert mean == pytest.approx(2.5)
        assert stderr == pytest.approx(0.0, abs=1e-15)

    def test_uniform_mean(self):
        mean, stderr = mk.estimate_expectation(
            lambda rng: rng.uniform(0.0, 1.0), 10_000, 99
        )
        assert abs(mean - 0.5) <= 3 * stderr

    def test_fixed_seed_reproducible(self):
        first = mk.estimate_expectation(lambda rng: rng.normal(), 500, 4)
        second = mk.estimate_expectation(lambda rng: rng.normal(), 500, 4)
        assert first == second

    def test_sample_floor(self):
        with pytest.raises(ParameterError):
            mk.estimate_expectation(lambda rng: 1.0, 50, 0)

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

    def test_schatten_metadata_records_exponent_rules(self):
        payload = ser.load_json(config_path("tailbound_moi_norm_schatten_b.json"))
        payload = copy.deepcopy(payload)
        payload["samples"] = 1000
        report = mk.run_tail_bound(ser.parse_experiment(payload))
        constants = report.metadata["constants"]
        assert constants["result_exponent_q"] == pytest.approx(1.0)
        assert "result_exponent_variant_one_minus_sum" in constants


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -1, True, 1.5])
    def test_worker_count_must_be_a_positive_integer(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            mk.run_tail_bound(small_experiment(), workers=workers)

    def test_pool_has_at_most_one_process_per_core(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Runs each submitted block in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        exp = small_experiment()
        pooled = mk.run_tail_bound(exp, workers=5).to_dict()
        assert sizes == [2]
        assert pooled["metadata"]["workers"] == 5
        single = mk.run_tail_bound(exp, workers=1).to_dict()
        for report in (pooled, single):
            report.pop("wall_time_s")
            report["metadata"].pop("workers")
        assert ser.dumps_deterministic(pooled) == ser.dumps_deterministic(single)


def shipped_experiment(theorem_id, samples=1000):
    payload = ser.load_json(config_path(f"tailbound_{theorem_id}.json"))
    return ser.parse_experiment({**payload, "samples": samples})


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
    """An experiment whose samples fail where an eigenvalue reaches 0.9: the
    factored engine path masks them (``moi_norm_a``, separable integrand with
    a callable factor); the grid path raises for them and the chunk is
    evaluated again sample by sample (``first_derivative``, callable f)."""
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
            rng = np.random.default_rng((seed, block))
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

    def test_chunk_keeps_the_factored_sums_near_the_budget(self):
        # moi_norm_a: three 4x4 operators; the widest suffix level of its
        # factored sum holds one 4x4 complex matrix per node and sample
        exp = shipped_experiment("moi_norm_a")
        width = max(len(level[0]) for level in exp.integrand.suffix_tree[1])
        chunk = harness._prepare(exp).chunk
        assert 16 * width * 4 * 4 * chunk <= harness._CHUNK_BYTES
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


# sha256 of the convergence-in-mean report on the shipped default at 20
# samples and 8 steps, wall time removed, pinned so that batching the check
# keeps every report byte-identical
CONVMEAN_DIGEST = "d649998f7629ef596f5efe000f99cb6dc1b544862889967a9006ac07f33bc49d"


class TestConvergenceInMean:
    def test_default_report_is_pinned(self):
        payload = ser.load_json(config_path("convmean_default.json"))
        report = mk.convergence_in_mean_check(
            ser.parse_model(payload["base_model"]), payload["epsilon0"], 8, payload["r"],
            ser.parse_scalar_function(payload["f"]), payload["order"],
            [ser.parse_matrix(m) for m in payload["arguments"]], 20, payload["seed"],
        )
        report.pop("wall_time_s")
        digest = hashlib.sha256(ser.dumps_deterministic(report).encode()).hexdigest()
        assert digest == CONVMEAN_DIGEST

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
