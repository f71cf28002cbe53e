"""The benchmark's workloads.

Each workload is a closed loop: one client in one process issues each call
after the previous one returns.  ``prepare`` builds every input from the
benchmark seed (it is the timed set-up), ``run_round`` issues one fixed round
of calls through a ``timing.Timer``, and ``check`` verifies the outputs of all
rounds after timing has stopped.  Rounds are identical in work, so per-round
work counts repeat exactly for a given seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import moikit as mk
from moikit import serialization
from timing import Timer

# tail-bound runs must have at least 10^3 samples; the benchmark uses the minimum
MC_SAMPLES = 1000
POOL_WORKERS = 2  # nproc of the 2-core host the bounds were set on
ENGINE_SHAPES = (("n64_m3", 64, 3), ("n32_m4", 32, 4), ("n12_m5", 12, 5))
MTI_PART, MTI_MODES, MTI_ARITY = "mti_n32_m3", (4, 8), 3
ENGINE_DEGREES = (4, 5, 6)
ENGINE_POOL = 2  # input sets per shape and degree; consecutive rounds alternate
ENGINE_RTOL = 1e-10
CALC_DIM = 6
CALC_POOL = 8
CALC_REMAINDER_NORM = 0.1
CALC_RTOL = 1e-8


def derive_seed(seed: int, index: int) -> int:
    """A 63-bit seed for input ``index``, fixed by the benchmark seed."""
    digest = hashlib.sha256(f"perfbench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def relative_error(value: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.linalg.norm(reference))
    return float(np.linalg.norm(np.asarray(value) - reference)) / max(scale, 1e-300)


def report_digest(report) -> str:
    """sha256 of the report without its timing key and its worker count; the
    determinism contract says nothing else may depend on ``workers``."""
    payload = report.to_dict()
    payload.pop("wall_time_s")
    payload["metadata"] = {k: v for k, v in payload["metadata"].items()
                           if k != "workers"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    info: list = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


class TailBound:
    """The seven shipped tail-bound configs at 1000 samples each, one worker."""

    op_unit = "sample"
    reference = "python"

    def __init__(self, root: str):
        self.root = root
        self.experiments = ()
        self.digests = {}

    @staticmethod
    def part_metric(part: str):
        return f"mc.us_per_sample.{part}", "us", 1e6

    def prepare(self, seed: int) -> None:
        experiments = []
        for i, theorem_id in enumerate(mk.THEOREM_IDS):
            path = os.path.join(self.root, "configs", f"tailbound_{theorem_id}.json")
            with open(path) as handle:
                payload = json.load(handle)
            payload["samples"] = MC_SAMPLES
            payload["seed"] = derive_seed(seed, i)
            experiments.append(serialization.parse_experiment(payload))
        self.experiments = tuple(experiments)

    def run_round(self, timer, workers: int = 1) -> None:
        for exp in self.experiments:
            timer(exp.theorem_id, exp.samples, mk.run_tail_bound, exp, workers)

    @staticmethod
    def aborted(rnd) -> int:
        return sum(int(r.metadata["aborted_samples"]) for (r,) in rnd.outputs.values()
                   if not isinstance(r, Exception))

    def check(self, rounds: list) -> Verdict:
        """Every report satisfied with at most 1 % aborts.  Every round, and
        one untimed round on a pool of POOL_WORKERS processes, reproduces the
        first round's digests: the worker count must not change a report."""
        timer = Timer(scale=False)
        pool_round = timer.start(0)
        self.run_round(timer, workers=POOL_WORKERS)
        self.digests = {tid: report_digest(r) for tid, (r,) in rounds[0].outputs.items()
                        if not isinstance(r, Exception)}
        verdict = Verdict()
        verdict.info.append(
            f"pool round ({POOL_WORKERS} workers, untimed check): "
            f"{pool_round.seconds(False):.3f} s unscaled; one-worker rounds: median "
            f"{statistics.median(r.seconds(False) for r in rounds):.3f} s unscaled")
        for rnd in rounds + [pool_round]:
            for exp in self.experiments:
                tid, n = exp.theorem_id, exp.samples
                (report,) = rnd.outputs[tid]
                verdict.attempted += n
                if isinstance(report, Exception):
                    verdict.fail(n, f"{tid}: {type(report).__name__}: {report}")
                    continue
                aborted = int(report.metadata["aborted_samples"])
                verdict.failed += aborted
                problems = []
                if not report.all_satisfied:
                    problems.append("bound violated")
                if aborted > 0.01 * n:
                    problems.append(f"{aborted} aborted samples")
                if report_digest(report) != self.digests.get(tid):
                    problems.append("digest differs from the first round's")
                if problems:
                    verdict.fail(n - aborted, f"{tid}: " + ", ".join(problems))
        return verdict


class EngineSweep:
    """``moi_evaluate`` on divided-difference integrands of random degree-4/5/6
    polynomials at three (n, m) shapes, plus ``mti_evaluate``."""

    op_unit = "call"
    reference = "mixed"

    def __init__(self):
        self.cases = {}

    @staticmethod
    def part_metric(part: str):
        return f"engine.ms_per_call.{part}", "ms", 1e3

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(derive_seed(seed, 0))
        cases = {}
        for part, n, m in ENGINE_SHAPES:
            model = mk.RandomOperatorModel(n, ("uniform", -1.0, 1.0))
            cases[part] = [
                [mk.MoiRequest(
                    tuple(mk.sample_random_hermitian(model, rng) for _ in range(m)),
                    self._integrand(rng, degree, m),
                    tuple(mk.random_hermitian(n, rng, norm=1.0) for _ in range(m - 1)),
                ) for degree in ENGINE_DEGREES]
                for _ in range(ENGINE_POOL)
            ]
        flat = math.prod(MTI_MODES)
        model = mk.RandomOperatorModel(flat, ("uniform", -1.0, 1.0))
        cases[MTI_PART] = [
            [(
                [mk.fold(mk.sample_random_hermitian(model, rng).matrix, MTI_MODES)
                 for _ in range(MTI_ARITY)],
                self._integrand(rng, degree, MTI_ARITY),
                [mk.fold(mk.random_hermitian(flat, rng, norm=1.0), MTI_MODES)
                 for _ in range(MTI_ARITY - 1)],
            ) for degree in ENGINE_DEGREES]
            for _ in range(ENGINE_POOL)
        ]
        self.cases = cases

    @staticmethod
    def _integrand(rng, degree: int, arity: int):
        f = mk.ScalarFunction.polynomial(rng.standard_normal(degree + 1))
        return mk.divided_difference_integrand(f, arity - 1)

    def run_round(self, timer) -> None:
        for part, sets in self.cases.items():
            for case in sets[timer.round.index % ENGINE_POOL]:
                if part == MTI_PART:
                    timer(part, 1, mk.mti_evaluate, *case)
                else:
                    timer(part, 1, mk.moi_evaluate, case)

    @staticmethod
    def aborted(rnd) -> int:
        return 0

    def check(self, rounds: list) -> Verdict:
        """Each result against sum_n f_1n(A_1) X_1 ... f_mn(A_m), built from
        ``apply_scalar_function``."""
        verdict = Verdict()
        oracles = {}
        for rnd in rounds:
            pool = rnd.index % ENGINE_POOL
            for part, outs in rnd.outputs.items():
                for k, out in enumerate(outs):
                    verdict.attempted += 1
                    if isinstance(out, Exception):
                        verdict.fail(1, f"{part}: {type(out).__name__}: {out}")
                        continue
                    key = (part, pool, k)
                    if key not in oracles:
                        oracles[key] = self._oracle(part, self.cases[part][pool][k])
                    err = relative_error(self._as_matrix(part, out), oracles[key])
                    if not err <= ENGINE_RTOL:
                        verdict.fail(1, f"{part}: relative error {err:.2e} vs oracle")
        return verdict

    @staticmethod
    def _as_matrix(part: str, out) -> np.ndarray:
        if part == MTI_PART:
            flat = math.prod(MTI_MODES)
            return np.asarray(getattr(out, "entries", out)).reshape(flat, flat)
        return out.value

    @staticmethod
    def _oracle(part: str, case) -> np.ndarray:
        if part == MTI_PART:
            tensors, integrand, arguments = case
            operators = [mk.unfold(t) for t in tensors]
            arguments = [mk.unfold(a).matrix for a in arguments]
        else:
            operators, integrand, arguments = case.operators, case.integrand, case.arguments
        total = 0
        for term in integrand.separable.terms:
            product = None
            for j, fn in enumerate(term):
                value = mk.apply_scalar_function(fn, operators[j])
                value = getattr(value, "matrix", value)
                product = value if product is None else product @ arguments[j - 1] @ value
            total = total + product
        return total


def _exp_function():
    return mk.ScalarFunction.from_callable(np.exp, (np.exp, np.exp, np.exp))


def _sin_function():
    return mk.ScalarFunction.from_callable(
        np.sin, (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    )


class CalculusNonPoly:
    """Order-2 derivatives, order-2 self-adjoint remainders (both methods)
    and the order-1 continuity modulus for exp and sin at n = 6."""

    op_unit = "instance"
    reference = "python"

    def __init__(self, root: str):
        self.root = root
        self.instances = []

    @staticmethod
    def part_metric(part: str):
        return "calc.instance_ms_p50", "ms", 1e3

    def prepare(self, seed: int) -> None:
        path = os.path.join(self.root, "configs", "convmean_default.json")
        with open(path) as handle:
            self.epsilon = float(json.load(handle)["epsilon0"])
        rng = np.random.default_rng(derive_seed(seed, 0))
        model = mk.RandomOperatorModel(CALC_DIM, ("uniform", -1.0, 1.0))
        exp, sin = _exp_function(), _sin_function()
        slots = mk.SlotFunctionSum.from_slot_functions([exp, sin])

        def unit():
            return mk.random_hermitian(CALC_DIM, rng, norm=1.0)

        instances = []
        for _ in range(CALC_POOL):
            a = mk.sample_random_hermitian(model, rng)
            b = mk.sample_random_hermitian(model, rng)
            perts = tuple(mk.random_hermitian(CALC_DIM, rng, norm=CALC_REMAINDER_NORM)
                          for _ in range(2))
            instances.append({
                "a": a, "b": b, "f": exp, "g": sin,
                "directions": (unit(), unit()),
                "spec": mk.RemainderSpec(2, slots, (a, b), perts, "self_adjoint"),
                "drifts": (unit(), unit()),
                "argument": unit(),
            })
        self.instances = instances

    def _instance(self, inst: dict) -> dict:
        eps = self.epsilon
        a, b = inst["a"], inst["b"]
        u, v = inst["directions"]
        out = {
            "kth_f": mk.kth_derivative(inst["f"], a, u, 2),
            "kth_g": mk.kth_derivative(inst["g"], b, v, 2),
            "direct": mk.taylor_remainder_self_adjoint(inst["spec"], "direct"),
            "moi": mk.taylor_remainder_self_adjoint(inst["spec"], "moi"),
        }
        # shifted operators are built here so their decomposition is timed
        perturbed = [mk.shifted_operator(op, eps * d) for op, d in zip((a, b), inst["drifts"])]
        out["continuity"] = mk.continuity_modulus(
            inst["f"], 1, [a, b], perturbed, [inst["argument"]]
        )
        return out

    def run_round(self, timer) -> None:
        timer("instance", 1, self._instance, self.instances[timer.round.index % CALC_POOL])

    @staticmethod
    def aborted(rnd) -> int:
        return 0

    def check(self, rounds: list) -> Verdict:
        """Direct and spectral-sum remainders agree; the continuity modulus
        stays below its bound; derivatives are finite."""
        verdict = Verdict()
        for rnd in rounds:
            (out,) = rnd.outputs["instance"]
            verdict.attempted += 1
            if isinstance(out, Exception):
                verdict.fail(1, f"instance: {type(out).__name__}: {out}")
                continue
            err = relative_error(out["direct"], out["moi"])
            lhs, bound = out["continuity"]
            if not err <= CALC_RTOL:
                verdict.fail(1, f"remainder methods differ by {err:.2e} relative")
            elif not lhs <= bound:
                verdict.fail(1, f"continuity modulus {lhs:.3e} exceeds bound {bound:.3e}")
            elif not (np.all(np.isfinite(out["kth_f"])) and np.all(np.isfinite(out["kth_g"]))):
                verdict.fail(1, "non-finite derivative")
        return verdict


def make(name: str, root: str):
    if name == "mc_tailbound":
        return TailBound(root)
    if name == "engine_sweep":
        return EngineSweep()
    if name == "calculus_nonpoly":
        return CalculusNonPoly(root)
    raise KeyError(name)
