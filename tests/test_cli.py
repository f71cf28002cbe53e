"""CLI surface: commands, exit codes, determinism, validation."""

import copy
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import moikit as mk
from moikit import serialization as ser
from moikit.cli import _COMMANDS, _build_parser, main

from conftest import CONFIG_DIR, GOLDEN_DIR, assert_golden, config_path


def run_cli(args):
    return main(args)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


class TestMoiEval:
    def test_identity_integrand_returns_argument(self, tmp_path):
        out = tmp_path / "result.json"
        code = run_cli([
            "moi-eval",
            "--input", config_path("demo_moi_eval.json"),
            "--output", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["kind"] == "moi_result"
        result = ser.parse_matrix(payload["value"])
        request = read_json(config_path("demo_moi_eval.json"))
        expected = ser.parse_matrix(request["arguments"][0])
        np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_schema_violation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "operators": []}))
        assert run_cli(["moi-eval", "--input", str(bad)]) == 2

    def test_unreadable_input_exit_code(self, tmp_path):
        assert run_cli(["moi-eval", "--input", str(tmp_path / "missing.json")]) == 2

    def test_input_that_is_not_json_is_rejected_at_the_flag(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        capsys.readouterr()
        assert run_cli(["moi-eval", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: flags.input: input is not valid JSON: ")
        assert len(err.splitlines()) == 1


class TestDerivativeCommands:
    def test_frechet_demo(self, tmp_path):
        out = tmp_path / "frechet.json"
        assert run_cli([
            "frechet", "--input", config_path("demo_frechet.json"),
            "--output", str(out),
        ]) == 0
        value = ser.parse_matrix(read_json(out)["value"])
        np.testing.assert_allclose(value, [[0, 7], [7, 0]], atol=1e-10)

    def test_kth_deriv_demo(self, tmp_path):
        out = tmp_path / "kth.json"
        assert run_cli([
            "kth-deriv", "--input", config_path("demo_kth_deriv.json"),
            "--output", str(out),
        ]) == 0
        payload = read_json(out)
        assert payload["kind"] == "matrix_result"

    def test_higher_diff_with_diagnostic(self, tmp_path):
        out = tmp_path / "hd.json"
        assert run_cli([
            "higher-diff", "--input", config_path("demo_higher_diff.json"),
            "--output", str(out),
        ]) == 0
        payload = read_json(out)
        assert "moi_diagnostic" in payload
        assert np.isfinite(payload["moi_diagnostic"]["rel_deviation"])


class TestRemainderCommand:
    @pytest.mark.parametrize(
        "name", ["demo_remainder_sa.json", "demo_remainder_unitary.json"]
    )
    def test_both_methods_agree(self, tmp_path, name):
        out = tmp_path / "rem.json"
        assert run_cli([
            "remainder", "--input", config_path(name), "--output", str(out),
        ]) == 0
        payload = read_json(out)
        assert payload["method_deviation"] <= 1e-8

    @pytest.mark.parametrize("method", ["direct", "moi"])
    def test_one_method_reports_its_value_alone(self, tmp_path, method):
        both, alone = tmp_path / "both.json", tmp_path / "alone.json"
        assert run_cli(["remainder", "--input", config_path("demo_remainder_sa.json"),
                        "--output", str(both)]) == 0
        config = tmp_path / "request.json"
        config.write_text(json.dumps(
            {**read_json(config_path("demo_remainder_sa.json")), "method": method}))
        assert run_cli(["remainder", "--input", str(config), "--output", str(alone)]) == 0
        both, alone = read_json(both), read_json(alone)
        assert sorted(alone) == ["kind", "schema_version", "value"]
        if method == "moi":  # the value that both methods report
            assert alone["value"] == both["value"]
        else:
            deviation = np.max(np.abs(ser.parse_matrix(alone["value"])
                                      - ser.parse_matrix(both["value"])))
            assert deviation == both["method_deviation"]


class TestHaarCommand:
    def test_byte_identical_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert run_cli([
                "haar", "--dim", "4", "--count", "2", "--seed", "7",
                "--output", str(target),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_samples_are_unitary(self, tmp_path):
        out = tmp_path / "u.json"
        run_cli(["haar", "--dim", "3", "--count", "1", "--seed", "1",
                 "--output", str(out)])
        matrix = ser.parse_matrix(read_json(out)["samples"][0])
        departure = np.max(np.abs(matrix.conj().T @ matrix - np.eye(3)))
        assert departure <= 1e-10

    def test_missing_dim_is_validation_error(self):
        assert run_cli(["haar", "--count", "1"]) == 2

    def test_zero_count_is_validation_error(self, capsys):
        assert run_cli(["haar", "--dim", "2", "--count", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: flags.count: --count must be a positive integer\n")

    def test_negative_seed_is_validation_error(self, capsys):
        assert run_cli(["haar", "--dim", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: flags.seed: seed must be an unsigned 64-bit integer\n")

    def test_seed_of_2_to_the_64_is_validation_error(self, capsys):
        assert run_cli(["haar", "--dim", "2", "--seed", str(2**64)]) == 2
        assert capsys.readouterr().err == (
            "error: flags.seed: seed must be an unsigned 64-bit integer\n")


class TestTailboundCommand:
    def test_small_run_json_and_csv(self, tmp_path):
        payload = read_json(config_path("tailbound_kth_derivative.json"))
        payload["samples"] = 1000
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(payload))
        out_json = tmp_path / "report.json"
        assert run_cli([
            "tailbound", "--input", str(config), "--output", str(out_json),
        ]) == 0
        report = read_json(out_json)
        assert report["kind"] == "tail_bound_report"
        assert all(row["satisfied"] for row in report["rows"])
        out_csv = tmp_path / "report.csv"
        assert run_cli([
            "tailbound", "--input", str(config), "--output", str(out_csv),
            "--format", "csv",
        ]) == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "theta,empirical_prob,mc_stderr,bound_rhs,satisfied"
        assert len(lines) == 9

    def test_csv_without_output_goes_to_stdout(self, tmp_path, capsys):
        payload = {**read_json(config_path("tailbound_kth_derivative.json")), "samples": 1000}
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(payload))
        out_csv = tmp_path / "report.csv"
        assert run_cli(["tailbound", "--input", str(config), "--output", str(out_csv),
                        "--format", "csv"]) == 0
        capsys.readouterr()
        assert run_cli(["tailbound", "--input", str(config), "--format", "csv"]) == 0
        assert capsys.readouterr().out == out_csv.read_text()

    def test_seed_flag_overrides_config(self, tmp_path):
        payload = read_json(config_path("tailbound_first_derivative.json"))
        payload["samples"] = 1000
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        assert run_cli(["tailbound", "--input", str(config),
                        "--output", str(out), "--seed", "424242"]) == 0
        assert read_json(out)["metadata"]["seed"] == 424242

    def test_worker_count_below_one_rejected(self, tmp_path, capsys):
        payload = read_json(config_path("tailbound_first_derivative.json"))
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({**payload, "samples": 1000}))
        capsys.readouterr()
        assert run_cli(["tailbound", "--input", str(config), "--workers", "0"]) == 2
        message = "flags.workers: --workers must be a positive integer"
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(config), "--command", "tailbound",
                        "--workers", "0", "--output", str(out)]) == 0
        assert read_json(out)["diagnostics"] == [message]

    @pytest.mark.parametrize("config, key, factor", [
        ("tailbound_unitary_remainder.json", "perturbations", 1e160),
        ("tailbound_unitary_remainder.json", "perturbations", 1e100),
        ("tailbound_kth_derivative.json", "direction", 1e160),
    ], ids=["unitary-1e160", "unitary-1e100", "kth-derivative-1e160"])
    def test_overflowing_markov_coefficient_exits_3(self, tmp_path, capsys, config,
                                                     key, factor):
        # 1e160 overflows the coefficient's arithmetic, 1e100 ends in inf
        payload = read_json(config_path(config))
        fixed = payload["fixed_inputs"][key]
        scaled = ([_scaled(m, factor) for m in fixed] if isinstance(fixed, list)
                  else _scaled(fixed, factor))
        bad = tmp_path / "exp.json"
        bad.write_text(json.dumps(_small_tailbound(payload, **{key: scaled})))
        capsys.readouterr()
        assert run_cli(["tailbound", "--input", str(bad),
                        "--output", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: a Markov coefficient overflows the floats"]
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad), "--output", str(out)]) == 0
        assert read_json(out)["ok"]

    def test_bound_violation_exit_code(self, tmp_path, monkeypatch):
        # the shipped theorems hold pathwise, so a genuine violation cannot
        # be provoked; stub the runner to exercise the exit-code mapping
        import moikit.cli as cli_module
        from moikit.harness import TailBoundReport

        def fake_run(exp, workers=1):
            return TailBoundReport(
                theorem_id=exp.theorem_id,
                rows=(
                    {"theta": 1.0, "empirical_prob": 0.9, "mc_stderr": 0.0,
                     "bound_rhs": 0.1, "satisfied": False},
                ),
                expectation_estimates=(),
                metadata={},
                wall_time_s=0.0,
            )

        monkeypatch.setattr(cli_module, "run_tail_bound", fake_run)
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(read_json(config_path("tailbound_kth_derivative.json")))
        )
        code = run_cli(["tailbound", "--input", str(config),
                        "--output", str(tmp_path / "r.json")])
        assert code == 4
        assert read_json(tmp_path / "r.json")["rows"][0]["satisfied"] is False


class TestConvMeanCommand:
    def test_default_config_small(self, tmp_path):
        payload = read_json(config_path("convmean_default.json"))
        payload["samples"] = 20
        payload["steps"] = 8
        config = tmp_path / "conv.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "conv_report.json"
        assert run_cli(["conv-mean", "--input", str(config),
                        "--output", str(out)]) == 0
        report = read_json(out)
        assert report["kind"] == "convergence_report"
        assert report["dominated_all"]
        out_csv = tmp_path / "conv.csv"
        assert run_cli(["conv-mean", "--input", str(config),
                        "--output", str(out_csv), "--format", "csv"]) == 0
        assert out_csv.read_text().startswith("m,epsilon,")


    def test_one_sample_has_zero_stderr(self, tmp_path):
        payload = {**read_json(config_path("convmean_default.json")),
                   "samples": 1, "steps": 2}
        config = tmp_path / "conv.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "conv_report.json"
        assert run_cli(["conv-mean", "--input", str(config), "--output", str(out)]) == 0
        report = read_json(out)
        assert report["samples"] == 1
        assert [row["stderr"] for row in report["steps"]] == [0.0, 0.0]

    def test_the_seed_flag_stands_in_for_a_missing_seed(self, tmp_path):
        payload = {**read_json(config_path("convmean_default.json")),
                   "samples": 2, "steps": 2}
        reports = []
        for name, edit, flags in [("flag", lambda p: _without(p, "seed"), ["--seed", "3"]),
                                  ("field", lambda p: {**p, "seed": 3}, [])]:
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(edit(payload)))
            argv = ["--input", str(config), *flags]
            out = tmp_path / f"{name}_report.json"
            assert run_cli(["conv-mean", *argv, "--output", str(out)]) == 0
            reports.append(_without(read_json(out), "wall_time_s"))
            diag = tmp_path / f"{name}_diag.json"
            assert run_cli(["validate", *argv, "--output", str(diag)]) == 0
            assert read_json(diag)["ok"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("factor", [1e100, 1e150, 1e300])
    def test_a_statistic_or_bound_past_the_floats_exits_3(self, tmp_path, capsys, factor):
        # 1e100 and 1e150 end in an infinite mean or stderr, 1e300 overflows a power
        payload = {**read_json(config_path("convmean_default.json")),
                   "samples": 2, "steps": 2}
        argument = copy.deepcopy(payload["arguments"][1])
        argument["entries"][2][3][0] *= factor
        config = tmp_path / "conv.json"
        config.write_text(json.dumps({**payload,
                                      "arguments": [payload["arguments"][0], argument]}))
        capsys.readouterr()
        assert run_cli(["conv-mean", "--input", str(config),
                        "--output", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: a convergence statistic or bound overflows the floats"]
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(config), "--output", str(out)]) == 0
        assert read_json(out)["ok"]


class TestPolyDecomposeCommand:
    def test_demo(self, tmp_path):
        out = tmp_path / "poly.json"
        assert run_cli([
            "poly-decompose", "--input", config_path("demo_poly_decompose.json"),
            "--output", str(out),
        ]) == 0
        payload = read_json(out)
        assert payload["probe_residual"] <= 1e-8
        assert payload["product_form_residual"] <= 1e-10


class TestMtiEvalCommand:
    def test_demo(self, tmp_path):
        out = tmp_path / "mti.json"
        assert run_cli([
            "mti-eval", "--input", config_path("demo_mti_eval.json"),
            "--output", str(out),
        ]) == 0
        payload = read_json(out)
        assert payload["kind"] == "mti_result"
        assert payload["eigen_tuple_count"] == 16


SHIPPED = sorted(os.listdir(CONFIG_DIR))
DEMOS = [name for name in SHIPPED if name.startswith("demo_")]

# golden files not named after a shipped config, and the tests that read them
OTHER_GOLDEN = [
    "continuity_modulus.json",  # test_moi.py
    "convergence_in_mean.json",  # test_harness.py
    "mti_results.json",  # test_tensors.py
    "unitary_schur.json",  # test_imports.py
]


def _output_bytes(tmp_path, argv) -> bytes:
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--output", str(out)]) == 0
    payload = read_json(out)
    payload.pop("wall_time_s", None)
    return ser.dumps_deterministic(payload).encode()


class TestPinnedOutputs:
    """The `validate` report of every shipped config and the command output
    of every demo config, wall time removed, are pinned in tests/golden/ so
    that changes to how the CLI reads its inputs and dispatches its commands
    keep every byte."""

    def test_every_shipped_config_is_listed(self):
        golden = os.listdir(GOLDEN_DIR)
        assert not [name for name in golden if name.endswith(".new")], (
            "rename or delete the .new files in tests/golden/")
        assert set(golden) == {
            *(f"validate.{name}" for name in SHIPPED),
            *(f"output.{name}" for name in DEMOS),
            *(f"report.{name}" for name in SHIPPED if name.startswith("tailbound_")),
            *OTHER_GOLDEN,
        }

    @pytest.mark.parametrize("name", SHIPPED)
    def test_validate_report_is_pinned(self, tmp_path, name):
        output = _output_bytes(tmp_path, ["validate", "--input", config_path(name)])
        assert_golden({f"validate.{name}": output})

    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_output_is_pinned(self, tmp_path, name):
        kind = read_json(config_path(name))["kind"]
        command = next(c for c, spec in _COMMANDS.items() if spec.request == kind)
        output = _output_bytes(tmp_path, [command, "--input", config_path(name)])
        assert_golden({f"output.{name}": output})


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


def _skewed(matrix, amount):
    """A copy of a JSON matrix with ``amount`` added to the real part of
    entry (0, 1) only, so that it is no longer Hermitian."""
    matrix = copy.deepcopy(matrix)
    matrix["entries"][0][1][0] += amount
    return matrix


def _scaled(matrix, factor):
    """A copy of a JSON matrix with every entry times ``factor``."""
    return {**matrix, "entries": [[[re * factor, im * factor] for re, im in row]
                                  for row in matrix["entries"]]}


def _with_asymmetric_perturbation(payload, amount):
    slot = {**payload["slots"][0]}
    slot["perturbation"] = _skewed(slot["perturbation"], amount)
    return {**payload, "slots": [slot]}


def _with_tensor_entry_shifted(payload, amount):
    """A copy whose first tensor has ``amount`` added to the real part of its
    second entry only, so that it is no longer Hermitian."""
    tensor = copy.deepcopy(payload["tensors"][0])
    tensor["entries"][1][0] += amount
    return {**payload, "tensors": [tensor] + payload["tensors"][1:]}


def _small_tailbound(payload, **fixed_inputs):
    """The experiment at 1000 samples, with some fixed inputs replaced."""
    return {**payload, "samples": 1000,
            "fixed_inputs": {**payload["fixed_inputs"], **fixed_inputs}}


IDENTITY_2X2 = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [1.0, 0.0]]]}
IDENTITY_3X3 = {"dim": 3, "entries": [[[float(i == j), 0.0] for j in range(3)]
                                      for i in range(3)]}


def _with_law(payload, law):
    """The experiment at 1000 samples, its first model drawing from ``law``."""
    model = {**payload["operator_models"][0], "law": law}
    return {**_small_tailbound(payload),
            "operator_models": [model] + payload["operator_models"][1:]}


# a shipped input of each command that reads a payload
SHIPPED_INPUTS = {
    "moi-eval": "demo_moi_eval.json",
    "frechet": "demo_frechet.json",
    "kth-deriv": "demo_kth_deriv.json",
    "higher-diff": "demo_higher_diff.json",
    "remainder": "demo_remainder_sa.json",
    "tailbound": "tailbound_kth_derivative.json",
    "conv-mean": "convmean_default.json",
    "poly-decompose": "demo_poly_decompose.json",
    "mti-eval": "demo_mti_eval.json",
}

# (command, shipped input, edit) for payloads each command rejects with exit 2
REJECTED_PAYLOADS = [
    pytest.param("remainder", "demo_remainder_sa.json",
                 lambda p: {**p, "method": "bogus"}, id="remainder-bogus-method"),
    pytest.param("remainder", "demo_remainder_sa.json",
                 lambda p: {**p, "order": 0}, id="remainder-order-zero"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "r": 3}, id="conv-mean-r-three"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "order": "two"}, id="conv-mean-order-string"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: _without(p, "r"), id="conv-mean-without-r"),
    pytest.param("moi-eval", "demo_moi_eval.json",
                 lambda p: {**p, "operator_kind": "foo"},
                 id="moi-eval-unknown-operator-kind"),
    pytest.param("moi-eval", "demo_moi_eval.json",
                 lambda p: _without(p, "arguments"), id="moi-eval-without-arguments"),
    pytest.param("mti-eval", "demo_mti_eval.json",
                 lambda p: {**p, "tensors": [p["tensors"][0],
                                             {**p["tensors"][1], "mode_dims": [4]}]},
                 id="mti-eval-mixed-modes"),
    pytest.param("moi-eval", "demo_moi_eval.json",
                 lambda p: ["not", "an", "object"], id="moi-eval-not-an-object"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "steps": 0}, id="conv-mean-steps-zero"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "samples": 0}, id="conv-mean-samples-zero"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "arguments": p["arguments"][:1]},
                 id="conv-mean-one-argument-for-order-two"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "epsilon0": "x"}, id="conv-mean-epsilon0-string"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "seed": "x"}, id="conv-mean-seed-string"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "steps": 2.5}, id="conv-mean-steps-fractional"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "seed": -1}, id="conv-mean-seed-negative"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "seed": 2**64}, id="conv-mean-seed-2**64"),
    pytest.param("remainder", "demo_remainder_sa.json",
                 lambda p: {**p, "slots": [3]}, id="remainder-slot-not-an-object"),
    pytest.param("poly-decompose", "demo_poly_decompose.json",
                 lambda p: {**p, "seed": "x"}, id="poly-decompose-seed-string"),
    pytest.param("poly-decompose", "demo_poly_decompose.json",
                 lambda p: {**p, "seed": 2**64}, id="poly-decompose-seed-2**64"),
    pytest.param("kth-deriv", "demo_kth_deriv.json",
                 lambda p: {**p, "order": 171}, id="kth-deriv-order-171"),
    pytest.param("higher-diff", "demo_higher_diff.json",
                 lambda p: {**p, "order": 171}, id="higher-diff-order-171"),
    pytest.param("remainder", "demo_remainder_sa.json",
                 lambda p: {**p, "order": 171, "method": "both"},
                 id="remainder-order-171"),
    pytest.param("tailbound", "tailbound_unitary_remainder.json",
                 lambda p: {**_small_tailbound(p), "order": 171},
                 id="tailbound-unitary-remainder-order-171"),
    pytest.param("remainder", "demo_remainder_unitary.json",
                 lambda p: {**p, "order": 17}, id="remainder-unitary-order-17"),
    pytest.param("tailbound", "tailbound_unitary_remainder.json",
                 lambda p: {**_small_tailbound(p), "order": 17},
                 id="tailbound-unitary-remainder-order-17"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: _with_law(p, {"kind": ["uniform"], "a": -1.0, "b": 1.0}),
                 id="tailbound-law-kind-list"),
    pytest.param("remainder", "demo_remainder_unitary.json",
                 lambda p: _with_asymmetric_perturbation(p, 5e-11),
                 id="remainder-unitary-perturbation-asymmetry-5e-11"),
    pytest.param("tailbound", "tailbound_first_derivative.json",
                 lambda p: _small_tailbound(p, direction=IDENTITY_2X2),
                 id="tailbound-direction-wrong-dimension"),
    pytest.param("tailbound", "tailbound_higher_difference.json",
                 lambda p: _small_tailbound(
                     p, step=_skewed(p["fixed_inputs"]["step"], 0.5)),
                 id="tailbound-step-not-hermitian"),
    pytest.param("tailbound", "tailbound_sa_remainder.json",
                 lambda p: _small_tailbound(p, perturbations=[
                     _skewed(p["fixed_inputs"]["perturbations"][0], 0.5),
                     p["fixed_inputs"]["perturbations"][1]]),
                 id="tailbound-sa-remainder-perturbation-not-hermitian"),
    pytest.param("higher-diff", "demo_higher_diff.json",
                 lambda p: {**p, "step": _skewed(p["step"], 0.5)},
                 id="higher-diff-step-not-hermitian"),
    pytest.param("mti-eval", "demo_mti_eval.json",
                 lambda p: {**p, "arguments": 5}, id="mti-eval-arguments-not-a-list"),
    pytest.param("kth-deriv", "demo_kth_deriv.json",
                 lambda p: {**p, "order": True}, id="kth-deriv-order-boolean"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: {**_small_tailbound(p), "seed": True},
                 id="tailbound-seed-boolean"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: {**_small_tailbound(p), "theta_grid": ["x", 1.0]},
                 id="tailbound-theta-item-string"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: {**_small_tailbound(p), "theta_grid": [10**400, 1.0]},
                 id="tailbound-theta-item-past-the-floats"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: {**_small_tailbound(p), "theta_grid": [0.5, math.nan]},
                 id="tailbound-theta-item-nan"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: {**_small_tailbound(p), "theta_grid": [0.5, math.inf]},
                 id="tailbound-theta-item-infinity"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "epsilon0": math.nan}, id="conv-mean-epsilon0-nan"),
    pytest.param("higher-diff", "demo_higher_diff.json",
                 lambda p: {**p, "include_moi_diagnostic": "no"},
                 id="higher-diff-diagnostic-flag-string"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: _small_tailbound(p, step=_skewed(IDENTITY_2X2, 0.5)),
                 id="tailbound-kth-derivative-extra-step"),
    pytest.param("tailbound", "tailbound_moi_norm_a.json",
                 lambda p: {**_small_tailbound(p), "order": 2},
                 id="tailbound-moi-norm-a-order"),
    pytest.param("tailbound", "tailbound_first_derivative.json",
                 lambda p: {**_small_tailbound(p), "order": 1},
                 id="tailbound-first-derivative-order"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: {**_small_tailbound(p), "schatten_p": [2.0, 2.0]},
                 id="tailbound-kth-derivative-schatten-p"),
    pytest.param("tailbound", "tailbound_sa_remainder.json",
                 lambda p: {**_small_tailbound(p), "eigengap_bound": 1.0},
                 id="tailbound-sa-remainder-eigengap-bound"),
    pytest.param("tailbound", "tailbound_higher_difference.json",
                 lambda p: {**_small_tailbound(p), "eigengap_bound": -1.0},
                 id="tailbound-higher-difference-negative-eigengap"),
    pytest.param("tailbound", "tailbound_higher_difference.json",
                 lambda p: {**_small_tailbound(p), "eigengap_bound": 0.0},
                 id="tailbound-higher-difference-zero-eigengap"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: _with_law(p, {"kind": "gaussian", "mean": math.nan, "sd": 1.0}),
                 id="tailbound-gaussian-mean-nan"),
    pytest.param("tailbound", "tailbound_kth_derivative.json",
                 lambda p: _with_law(p, {"kind": "fixed",
                                         "values": [0.5, math.nan, 0.0, 1.0]}),
                 id="tailbound-fixed-value-nan"),
    pytest.param("tailbound", "tailbound_moi_norm_schatten_b.json",
                 lambda p: {**_small_tailbound(p), "schatten_p": [math.nan, 2.0]},
                 id="tailbound-schatten-p-nan"),
    pytest.param("kth-deriv", "demo_kth_deriv.json",
                 lambda p: {**p, "direction": _skewed(p["direction"], math.nan)},
                 id="kth-deriv-direction-entry-nan"),
    pytest.param("remainder", "demo_remainder_unitary.json",
                 lambda p: {**p, "slots": [{**p["slots"][0],
                                            "base": _skewed(p["slots"][0]["base"], 0.5)}]},
                 id="remainder-unitary-base-not-unitary"),
    pytest.param("poly-decompose", "demo_poly_decompose.json",
                 lambda p: {**p, "polynomial": {
                     **p["polynomial"],
                     "terms": p["polynomial"]["terms"][:1] + p["polynomial"]["terms"]}},
                 id="poly-decompose-duplicated-exponent"),
    pytest.param("poly-decompose", "demo_poly_decompose.json",
                 lambda p: {**p, "polynomial": {
                     **p["polynomial"],
                     "terms": [{**p["polynomial"]["terms"][0], "exp": [9, 1]}]
                     + p["polynomial"]["terms"][1:]}},
                 id="poly-decompose-degree-10"),
    pytest.param("poly-decompose", "demo_poly_decompose.json",
                 lambda p: {**p, "polynomial": {
                     "arity": 5, "terms": [{"exp": [1, 0, 0, 0, 1], "coef": 1.0}]}},
                 id="poly-decompose-arity-5"),
    pytest.param("mti-eval", "demo_mti_eval.json",
                 lambda p: _with_tensor_entry_shifted(p, 0.5), id="mti-eval-tensor-not-hermitian"),
    pytest.param("remainder", "demo_remainder_sa.json",
                 lambda p: {**p, "flavor": "bogus"}, id="remainder-bogus-flavor"),
    pytest.param("frechet", "demo_frechet.json",
                 lambda p: {**p, "direction": IDENTITY_3X3},
                 id="frechet-direction-wrong-dimension"),
    pytest.param("kth-deriv", "demo_kth_deriv.json",
                 lambda p: {**p, "direction": IDENTITY_2X2},
                 id="kth-deriv-direction-wrong-dimension"),
    pytest.param("higher-diff", "demo_higher_diff.json",
                 lambda p: {**p, "step": IDENTITY_2X2},
                 id="higher-diff-step-wrong-dimension"),
    pytest.param("conv-mean", "convmean_default.json",
                 lambda p: {**p, "arguments": [p["arguments"][0], IDENTITY_2X2]},
                 id="conv-mean-argument-wrong-dimension"),
    *(pytest.param(command, config, lambda p: {**p, "schema_version": 2},
                   id=f"{command}-schema-version-two")
      for command, config in SHIPPED_INPUTS.items()),
]


class TestValidateCommand:
    @pytest.mark.parametrize("command,config,edit", REJECTED_PAYLOADS)
    def test_diagnostic_matches_command_error(self, tmp_path, capsys, command,
                                              config, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(read_json(config_path(config)))))
        capsys.readouterr()
        assert run_cli([command, "--input", str(bad)]) == 2
        errors = [
            line[len("error: "):]
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("error: ")
        ]
        assert len(errors) == 1
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad), "--command", command,
                        "--output", str(out)]) == 0
        report = read_json(out)
        assert not report["ok"]
        assert report["diagnostics"] == errors

    def test_valid_file_reports_ok(self, tmp_path, capsys):
        out = tmp_path / "diag.json"
        assert run_cli([
            "validate", "--input", config_path("demo_moi_eval.json"),
            "--output", str(out),
        ]) == 0
        payload = read_json(out)
        assert payload["ok"]
        assert payload["matched"] == "moi-eval"
        assert payload["summary"]["operators_count"] == 2

    @pytest.mark.parametrize("samples, summary", [(1000, {"samples": 1000}), (True, {}),
                                                  (2.5, {})], ids=["integer", "boolean", "float"])
    def test_only_an_integer_sample_count_is_summarised(self, tmp_path, samples, summary):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"schema_version": 1, "kind": "tail_bound_report",
                                      "samples": samples}))
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(report), "--output", str(out)]) == 0
        assert read_json(out)["summary"] == summary

    def test_validation_report_validates(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run_cli(["validate", "--input", config_path("demo_moi_eval.json"),
                        "--output", str(first)]) == 0
        assert run_cli(["validate", "--input", str(first), "--output", str(second)]) == 0
        payload = read_json(second)
        assert payload["ok"]
        assert payload["matched"] == "validation_report"

    def test_non_hermitian_slot_diagnostic(self, tmp_path):
        request = read_json(config_path("demo_moi_eval.json"))
        request["operators"][0]["entries"][0][1] = [99.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(request))
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad),
                        "--output", str(out)]) == 0
        payload = read_json(out)
        assert not payload["ok"]
        assert any("asymmetry" in d for d in payload["diagnostics"])

    def test_arity_mismatch_diagnostic(self, tmp_path):
        request = read_json(config_path("demo_moi_eval.json"))
        request["integrand"]["arity"] = 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(request))
        out = tmp_path / "diag.json"
        run_cli(["validate", "--input", str(bad), "--output", str(out)])
        payload = read_json(out)
        assert not payload["ok"]
        assert payload["diagnostics"]

    def test_outputs_revalidate(self, tmp_path):
        outputs = []
        moi_out = tmp_path / "res.json"
        run_cli(["moi-eval", "--input", config_path("demo_moi_eval.json"),
                 "--output", str(moi_out)])
        outputs.append(moi_out)
        haar_out = tmp_path / "haar.json"
        run_cli(["haar", "--dim", "2", "--count", "1", "--seed", "0",
                 "--output", str(haar_out)])
        outputs.append(haar_out)
        poly_out = tmp_path / "poly.json"
        run_cli(["poly-decompose",
                 "--input", config_path("demo_poly_decompose.json"),
                 "--output", str(poly_out)])
        outputs.append(poly_out)
        for produced in outputs:
            diag = tmp_path / (produced.stem + "_diag.json")
            assert run_cli(["validate", "--input", str(produced),
                            "--output", str(diag)]) == 0
            assert read_json(diag)["ok"], produced.name

    @pytest.mark.parametrize("kind", [["moi_request"], {"a": 1}])
    def test_kind_that_is_not_a_string_reports(self, tmp_path, kind):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "kind": kind}))
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad), "--output", str(out)]) == 0
        payload = read_json(out)
        assert payload["matched"] is None
        assert payload["diagnostics"] == [
            "kind: cannot infer the schema; provide --command or a 'kind' field"]

    def test_operator_kind_that_is_not_a_string_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**read_json(config_path("demo_moi_eval.json")),
                                   "operator_kind": ["unitary"]}))
        capsys.readouterr()
        assert run_cli(["moi-eval", "--input", str(bad)]) == 2
        message = "input.operator_kind: unknown operator_kind ['unitary']"
        assert capsys.readouterr().err == f"error: {message}\n"
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad), "--output", str(out)]) == 0
        assert read_json(out)["diagnostics"] == [message]

    def test_a_report_of_another_schema_version_gets_one_diagnostic(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps({"schema_version": 2, "kind": "tail_bound_report"}))
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad), "--output", str(out)]) == 0
        payload = read_json(out)
        assert payload["matched"] is None
        assert payload["diagnostics"] == [
            "input.schema_version: schema_version must be 1, got 2"]

    def test_another_schema_version_is_the_one_diagnostic_of_every_command(self, tmp_path):
        # the command itself prints the same, by the schema-version-two rows above
        assert sorted(SHIPPED_INPUTS) == sorted(n for n, c in _COMMANDS.items() if c.handler)
        bad = tmp_path / "bad.json"
        out = tmp_path / "diag.json"
        for command, config in SHIPPED_INPUTS.items():
            bad.write_text(json.dumps({**read_json(config_path(config)), "schema_version": 2}))
            assert run_cli(["validate", "--input", str(bad), "--command", command,
                            "--output", str(out)]) == 0
            assert read_json(out)["diagnostics"] == [
                "input.schema_version: schema_version must be 1, got 2"], command

    def test_unparseable_file_still_reports(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad),
                        "--output", str(out)]) == 0
        payload = read_json(out)
        assert not payload["ok"]


class TestCliMisc:
    def test_a_rejected_payload_writes_one_stderr_line(self, tmp_path):
        # a fresh interpreter, so that no earlier test has set up its stderr
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**read_json(config_path("demo_frechet.json")),
                                   "schema_version": 2}))
        source = os.path.dirname(os.path.dirname(os.path.abspath(mk.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (source, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "moikit.cli", "frechet", "--input", str(bad)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr == (
            "error: input.schema_version: schema_version must be 1, got 2\n")

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import moikit.cli as cli_module
        from moikit.errors import NumericalError

        def explode(exp, workers=1):
            raise NumericalError("too many aborted samples")

        monkeypatch.setattr(cli_module, "run_tail_bound", explode)
        code = run_cli(["tailbound",
                        "--input", config_path("tailbound_kth_derivative.json")])
        assert code == 3

    def test_a_fixed_input_the_theorem_does_not_read_is_rejected(self, tmp_path, capsys):
        payload = read_json(config_path("tailbound_kth_derivative.json"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_small_tailbound(payload, step=_skewed(IDENTITY_2X2, 0.5))))
        capsys.readouterr()
        assert run_cli(["tailbound", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: input: theorem kth_derivative takes no fixed input 'step'\n")

    def test_a_misspelt_theorem_id_is_reported_as_unknown(self, tmp_path, capsys):
        payload = read_json(config_path("tailbound_kth_derivative.json"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**payload, "theorem_id": "kth-derivative"}))
        message = "input: unknown theorem id 'kth-derivative'"
        capsys.readouterr()
        assert run_cli(["tailbound", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad), "--output", str(out)]) == 0
        assert read_json(out)["diagnostics"] == [message]

    @pytest.mark.parametrize("law, message", [
        ({"kind": "uniform", "a": 1.0, "b": 0.5}, "uniform law requires a < b"),
        ({"kind": "gaussian", "mean": math.nan, "sd": 1.0},
         "gaussian law parameters must be finite numbers"),
    ])
    def test_a_model_error_is_reported_at_the_model(self, tmp_path, capsys, law, message):
        payload = read_json(config_path("tailbound_kth_derivative.json"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_with_law(payload, law)))
        capsys.readouterr()
        assert run_cli(["tailbound", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: input.operator_models[0]: {message}\n"

    def test_a_perturbation_of_another_dimension_is_rejected_at_the_slot(self, tmp_path,
                                                                        capsys):
        payload = read_json(config_path("demo_remainder_sa.json"))
        bad = tmp_path / "bad.json"
        slot = {**payload["slots"][0], "perturbation": IDENTITY_2X2}
        bad.write_text(json.dumps({**payload, "slots": [slot]}))
        capsys.readouterr()
        assert run_cli(["remainder", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: input.slots[0].perturbation: dimension 2 differs from the base "
            "dimension 3\n")

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    @pytest.mark.parametrize("flag, value, readers", [
        ("--seed", "1", {"tailbound", "conv-mean", "poly-decompose", "haar", "validate"}),
        ("--workers", "2", {"tailbound", "validate"}),
    ])
    def test_seed_and_workers_exist_only_where_read(self, capsys, name, flag, value,
                                                    readers):
        # validate reads both, since it runs the parse steps that read them;
        # argparse rejects either flag on any other command
        argv = [name, flag, value] + (["--dim", "2"] if name == "haar" else
                                      ["--input", config_path("demo_moi_eval.json")])
        if name in readers:
            assert getattr(_build_parser().parse_args(argv), flag[2:]) == int(value)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, config, message", [
        ("tailbound", "tailbound_kth_derivative.json",
         "seed must be an unsigned 64-bit integer"),
        ("conv-mean", "convmean_default.json", "seed must be an unsigned 64-bit integer"),
        ("poly-decompose", "demo_poly_decompose.json",
         "seed must be an unsigned 64-bit integer"),
    ])
    def test_a_bad_seed_flag_is_reported_at_the_flag(self, tmp_path, capsys, name, config,
                                                     message):
        # haar's is TestHaarCommand.test_negative_seed_is_validation_error;
        # validate runs the same parse step and reports the same line
        argv = ["--input", config_path(config), "--seed", "-1"]
        assert run_cli([name, *argv]) == 2
        assert capsys.readouterr().err == f"error: flags.seed: {message}\n"
        out = tmp_path / "diag.json"
        assert run_cli(["validate", *argv, "--output", str(out)]) == 0
        assert read_json(out)["diagnostics"] == [f"flags.seed: {message}"]

    def test_unknown_command_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_no_command_prints_usage(self):
        assert main([]) == 2

    def test_csv_rejected_for_matrix_output(self, tmp_path):
        code = run_cli([
            "frechet", "--input", config_path("demo_frechet.json"),
            "--format", "csv",
        ])
        assert code == 2

    @pytest.mark.parametrize("argv, computation", [
        (["moi-eval", "--input", config_path("demo_moi_eval.json")], "moi_evaluate"),
        (["frechet", "--input", config_path("demo_frechet.json")], "frechet_derivative"),
        (["haar", "--dim", "3", "--count", "2"], "sample_haar_unitary"),
    ])
    def test_csv_is_rejected_before_the_computation(self, monkeypatch, capsys, argv,
                                                    computation):
        from moikit import cli

        calls = []
        monkeypatch.setattr(cli, computation, lambda *a, **k: calls.append(a))
        assert run_cli(argv + ["--format", "csv"]) == 2
        assert capsys.readouterr().err == (
            "error: flags.format: csv output is only available for tabular reports\n")
        assert calls == []

    def test_stdout_when_no_output_path(self, capsys):
        assert run_cli(["frechet", "--input",
                        config_path("demo_frechet.json")]) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed)["kind"] == "matrix_result"
