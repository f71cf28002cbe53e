"""CLI surface: commands, exit codes, determinism, validation."""

import copy
import hashlib
import json
import os

import numpy as np
import pytest

import moikit as mk
from moikit import serialization as ser
from moikit.cli import main

from conftest import config_path


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


# sha256 of the mti-eval report on the shipped demo, wall time removed,
# pinned so that changes to how tensors hold their unfolding keep the report
# byte-identical
MTI_EVAL_DEMO_DIGEST = "85ea6cf6ff2040cd6f28c8531e8dc91cc9f26b7c509822bddbc51fa73a823c4c"


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

    def test_demo_report_is_pinned(self, tmp_path):
        out = tmp_path / "mti.json"
        assert run_cli([
            "mti-eval", "--input", config_path("demo_mti_eval.json"),
            "--output", str(out),
        ]) == 0
        payload = read_json(out)
        payload.pop("wall_time_s", None)
        digest = hashlib.sha256(ser.dumps_deterministic(payload).encode()).hexdigest()
        assert digest == MTI_EVAL_DEMO_DIGEST


# sha256 of the `validate` report of every shipped config, and of the command
# output of every demo config, wall time removed: pinned so that changes to
# how the CLI reads its inputs and dispatches its commands keep every byte
VALIDATE_DIGESTS = {
    "convmean_default.json":
        "2727092076734ea0c22bd6417b4b2eb5ca7f71f846d0ee967b644cdec7c6d426",
    "demo_frechet.json":
        "d1090f225210c7cec06e600a37db223c9f75d4a037d0da203fac8bd3fe193d84",
    "demo_higher_diff.json":
        "6248c4749c3eeab20b5e754d9e9571d05721ddae5c8b86ac8f2513d800e01380",
    "demo_kth_deriv.json":
        "720cb54d2c541a32c3bb3acf8cea9901c674765704d07d4d662b09708344b1c7",
    "demo_moi_eval.json":
        "0e2ec8fae4e861749fc90e3ef6314c5950267cbd663eeab6bdb505da12df90b1",
    "demo_mti_eval.json":
        "aeb80b22c9ff63b6cd6aa4a3272ba4fa5f5426634a4c12c4440f03bcd176eb8e",
    "demo_poly_decompose.json":
        "fa5a2287b8c30aa8dbcdfe2a211d9b2dd304d8f4c4852800de3813a52c863c7e",
    "demo_remainder_sa.json":
        "691fd87aae12765a2850339946ae8a0a23e08e6056f50ed55647ab5122bfd94d",
    "demo_remainder_unitary.json":
        "691fd87aae12765a2850339946ae8a0a23e08e6056f50ed55647ab5122bfd94d",
    "tailbound_first_derivative.json":
        "933b12b0b85b35186bd002adf8bdbfbf6bdca152769e513ef5ce60a829b5b905",
    "tailbound_higher_difference.json":
        "933b12b0b85b35186bd002adf8bdbfbf6bdca152769e513ef5ce60a829b5b905",
    "tailbound_kth_derivative.json":
        "933b12b0b85b35186bd002adf8bdbfbf6bdca152769e513ef5ce60a829b5b905",
    "tailbound_moi_norm_a.json":
        "933b12b0b85b35186bd002adf8bdbfbf6bdca152769e513ef5ce60a829b5b905",
    "tailbound_moi_norm_schatten_b.json":
        "933b12b0b85b35186bd002adf8bdbfbf6bdca152769e513ef5ce60a829b5b905",
    "tailbound_sa_remainder.json":
        "933b12b0b85b35186bd002adf8bdbfbf6bdca152769e513ef5ce60a829b5b905",
    "tailbound_unitary_remainder.json":
        "933b12b0b85b35186bd002adf8bdbfbf6bdca152769e513ef5ce60a829b5b905",
}

# (command, sha256 of its output) for every demo config
DEMO_DIGESTS = {
    "demo_frechet.json": (
        "frechet", "ae6c0c9b4cf36f6f6310e6744aea96645a8988f1d7bb1b0c4c2fd040fc2c194d"),
    "demo_higher_diff.json": (
        "higher-diff", "ff29cf945319337748e3b5b247c8f0ab2cda6b54e1e99d5aa956936ec54a7b3b"),
    "demo_kth_deriv.json": (
        "kth-deriv", "104bfc252adfef343b7cb420b6d8deec9b42f9c0bd7d76ffb1db9fab8229a749"),
    "demo_moi_eval.json": (
        "moi-eval", "100bf7969772df4723ea8cb5f311900106cd349390c3e0851050565a86a28662"),
    "demo_mti_eval.json": (
        "mti-eval", "85ea6cf6ff2040cd6f28c8531e8dc91cc9f26b7c509822bddbc51fa73a823c4c"),
    "demo_poly_decompose.json": (
        "poly-decompose",
        "76a288b76e8c617853f3bd221cbcf72b39775dcd624cd80cbc60026dc3804579"),
    "demo_remainder_sa.json": (
        "remainder", "c2f46015c169b94f1c85cdb1515a01e52e0fa5e28831ce83fa751d7bc9293f26"),
    "demo_remainder_unitary.json": (
        "remainder", "28d43c34341d5f08b804cc1ed60a909467b817ba2919631338fcd7ccb98e7de6"),
}


def _output_digest(tmp_path, argv):
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--output", str(out)]) == 0
    payload = read_json(out)
    payload.pop("wall_time_s", None)
    return hashlib.sha256(ser.dumps_deterministic(payload).encode()).hexdigest()


class TestPinnedOutputs:
    def test_every_shipped_config_is_listed(self):
        shipped = sorted(os.listdir(os.path.dirname(config_path("x"))))
        assert sorted(VALIDATE_DIGESTS) == shipped
        assert sorted(DEMO_DIGESTS) == [n for n in shipped if n.startswith("demo_")]

    @pytest.mark.parametrize("name", sorted(VALIDATE_DIGESTS))
    def test_validate_report_is_pinned(self, tmp_path, name):
        digest = _output_digest(tmp_path, ["validate", "--input", config_path(name)])
        assert digest == VALIDATE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
    def test_demo_output_is_pinned(self, tmp_path, name):
        command, expected = DEMO_DIGESTS[name]
        digest = _output_digest(tmp_path, [command, "--input", config_path(name)])
        assert digest == expected


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


def _skewed(matrix, amount):
    """A copy of a JSON matrix with ``amount`` added to the real part of
    entry (0, 1) only, so that it is no longer Hermitian."""
    matrix = copy.deepcopy(matrix)
    matrix["entries"][0][1][0] += amount
    return matrix


def _with_asymmetric_perturbation(payload, amount):
    slot = {**payload["slots"][0]}
    slot["perturbation"] = _skewed(slot["perturbation"], amount)
    return {**payload, "slots": [slot]}


def _small_tailbound(payload, **fixed_inputs):
    """The experiment at 1000 samples, with some fixed inputs replaced."""
    return {**payload, "samples": 1000,
            "fixed_inputs": {**payload["fixed_inputs"], **fixed_inputs}}


IDENTITY_2X2 = {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [1.0, 0.0]]]}


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
    pytest.param("remainder", "demo_remainder_sa.json",
                 lambda p: {**p, "slots": [3]}, id="remainder-slot-not-an-object"),
    pytest.param("poly-decompose", "demo_poly_decompose.json",
                 lambda p: {**p, "seed": "x"}, id="poly-decompose-seed-string"),
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
    pytest.param("higher-diff", "demo_higher_diff.json",
                 lambda p: {**p, "include_moi_diagnostic": "no"},
                 id="higher-diff-diagnostic-flag-string"),
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

    def test_unparseable_file_still_reports(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        out = tmp_path / "diag.json"
        assert run_cli(["validate", "--input", str(bad),
                        "--output", str(out)]) == 0
        payload = read_json(out)
        assert not payload["ok"]


class TestCliMisc:
    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import moikit.cli as cli_module
        from moikit.errors import NumericalError

        def explode(exp, workers=1):
            raise NumericalError("too many aborted samples")

        monkeypatch.setattr(cli_module, "run_tail_bound", explode)
        code = run_cli(["tailbound",
                        "--input", config_path("tailbound_kth_derivative.json")])
        assert code == 3

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
