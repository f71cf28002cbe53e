"""Tests of the benchmark itself: run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import moikit  # noqa: E402
import workloads  # noqa: E402
from timing import Timer  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

COUNT_KEYS = ("integrands.grid_contract.points", "integrands.grid_surrogate.points",
              "moi.core.tuples", "moi.core.grid_bytes_computed")


def traced_round(name: str, seed: int):
    """Counts and per-part span totals of one traced round of a fresh workload."""
    workload = workloads.make(name, ROOT)
    workload.prepare(seed)
    tracer = Tracer()
    tracer.install(moikit)
    parts = {}

    @contextmanager
    def part_scope(part):
        before = tracer.snapshot()
        yield
        parts[part] = Tracer.difference(tracer.snapshot(), before)

    timer = Timer(scale=False, around=part_scope)
    rnd = timer.start(0)
    tracer.active = True
    try:
        workload.run_round(timer)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert workload.check([rnd]).failed == 0
    calls = {name: total[0] for name, total in tracer.totals.items()}
    counts = {key: tracer.counts.get(key, 0) for key in COUNT_KEYS}
    return calls, counts, parts


@pytest.mark.parametrize("name", ["engine_sweep", "calculus_nonpoly", "mc_tailbound"])
def test_counts_repeat_exactly_for_one_seed(name):
    first_calls, first_counts, _ = traced_round(name, seed=11)
    second_calls, second_counts, _ = traced_round(name, seed=11)
    assert first_calls == second_calls
    assert first_counts == second_counts
    assert first_counts["moi.core.grid_bytes_computed"] == 16 * first_counts["moi.core.tuples"]


def test_engine_grid_build_dominates_moi_core_at_n32_m4():
    calls, _, parts = traced_round("engine_sweep", seed=5)
    assert "integrands.divdiff" not in calls
    totals = parts["n32_m4"]["totals"]
    grid_self = totals["integrands.grid_contract"][2]
    core_inclusive = totals["moi.core"][1]
    assert grid_self >= 0.9 * core_inclusive


def test_divided_differences_only_on_the_non_polynomial_workload():
    calls, _, _ = traced_round("calculus_nonpoly", seed=5)
    assert calls["integrands.divdiff"] > 0
    assert calls["moi.continuity"] == 1


def test_install_wraps_every_namespace_and_uninstall_restores():
    modules = [m for key, m in sys.modules.items()
               if key == "moikit" or key.startswith("moikit.")]
    originals = {}
    for home, spans in SPANS.items():
        home_module = sys.modules[f"moikit.{home}"]
        for attr in spans:
            originals[id(getattr(home_module, attr))] = attr
    bound = [(m, k) for m in modules for k, v in vars(m).items() if id(v) in originals]
    assert len(bound) > len(originals)  # names are re-exported across modules
    before = {(m.__name__, k): vars(m)[k] for m, k in bound}
    tracer = Tracer()
    tracer.install(moikit)
    try:
        for m, k in bound:
            assert vars(m)[k] is not before[(m.__name__, k)], f"{m.__name__}.{k}"
    finally:
        tracer.uninstall()
    for m, k in bound:
        assert vars(m)[k] is before[(m.__name__, k)]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
