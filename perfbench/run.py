"""Outside-in benchmark of moikit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; moikit is imported from ``src/``.
With ``--trace 0`` the run times whole rounds of public calls with no
instrumentation and reports the end-to-end metrics, scaled to a reference
host speed (see ``timing.py``).  With ``--trace 1`` it alternates untraced
and traced rounds, wraps moikit's public functions in timing spans during the
traced ones, and reports per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits
with code 2, printing no result, when the sources are missing.
"""

import os

# BLAS thread count, fixed before numpy loads; on 2 shared cores one thread
# gives the steadiest timings of the small dense products moikit issues.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402

from timing import REFERENCE_SECONDS, Timer  # noqa: E402
from tracer import ABORT_CLASSES, SPAN_NAMES, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# times the import between two runs of the interpreter-bound reference job,
# in the child itself: it may run on another core than this process
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; import timing; "
    "before = timing.reference_seconds(timing.python_job); "
    "t = time.perf_counter(); import moikit; t = time.perf_counter() - t; "
    "print(t, t * timing.REFERENCE_SECONDS * 2 / "
    "(before + timing.reference_seconds(timing.python_job)))"
)
# spans only the set-up reaches; rounds never parse configs
SETUP_SPANS = ("serialization.parse_experiment",)
WORKLOAD_NAMES = ("mc_tailbound", "engine_sweep", "calculus_nonpoly")


def import_seconds() -> tuple:
    """Raw and scaled time of ``import moikit`` in a fresh interpreter,
    without its start-up."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE, SRC],
                          capture_output=True, text=True, check=True, timeout=120)
    raw, scaled = done.stdout.split()
    return float(raw), float(scaled)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def median_of(values) -> float:
    return float(statistics.median(values))


def setup_seconds(workload, seed: int, timer) -> tuple:
    """Set-up time: median import time plus median ``prepare`` time, each
    over SETUP_REPEATS.  Returns (scaled, raw) seconds."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    prepares = []
    for _ in range(SETUP_REPEATS):
        out, seconds, factor = timer.measure(workload.prepare, seed)
        if isinstance(out, Exception):
            raise out
        prepares.append((seconds, seconds * factor))
    scaled = median_of(i[1] for i in imports) + median_of(p[1] for p in prepares)
    raw = median_of(i[0] for i in imports) + median_of(p[0] for p in prepares)
    return scaled, raw


def part_table(workload, rounds, scaled: bool = True) -> dict:
    """Median cost per operation of each part, in the part's own unit."""
    col = 2 if scaled else 1
    table = {}
    for part in rounds[0].parts:
        name, unit, scale = workload.part_metric(part)
        per_op = [rnd.parts[part][col] / rnd.parts[part][0] * scale for rnd in rounds]
        table[name] = (median_of(per_op), unit, part)
    return table


def end_to_end(workload, rounds, setup_s: float, scaled: bool = True) -> dict:
    parts = part_table(workload, rounds, scaled)
    gmean_us = math.exp(statistics.fmean(
        math.log(value / workload.part_metric(part)[2] * 1e6)
        for value, _, part in parts.values()))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (median_of(r.ops / r.seconds(scaled) for r in rounds), "1/s"),
        "part_us_gmean": (gmean_us, "us"),
    }


def per_layer(workload, traced, untraced, layer_rounds, setup_layers) -> dict:
    """Medians over traced rounds of per-round span totals and counts; spans
    that only set-up calls come from one traced set-up."""
    def med(fn):
        return median_of(fn(diff) for diff in layer_rounds)

    metrics = {}
    for name in SPAN_NAMES:
        pick = (lambda fn: fn(setup_layers)) if name in SETUP_SPANS else med
        metrics[f"{name}.calls"] = (pick(lambda d: d["totals"].get(name, [0])[0]), "count")
        metrics[f"{name}.self_ms"] = (
            pick(lambda d: d["totals"].get(name, [0, 0, 0])[2] / 1e6), "ms")
    for key in ("integrands.grid_contract.points", "integrands.grid_surrogate.points",
                "moi.core.tuples", "moi.core.grid_bytes_computed"):
        unit = "bytes" if key.endswith("bytes_computed") else "count"
        metrics[key] = (med(lambda d: d["counts"].get(key, 0)), unit)

    def grid_share(d):
        core = d["totals"].get("moi.core", [0, 0, 0])[1]
        grid = d["totals"].get("integrands.grid_contract", [0, 0, 0])[2]
        return grid / core if core else 0.0

    metrics["moi.core.grid_share"] = (med(grid_share), "ratio")
    for cls in ABORT_CLASSES:
        metrics[f"harness.aborted.{cls}"] = (med(lambda d: d["escaped"].get(cls, 0)), "count")
    unattributed = [workload.aborted(rnd) - sum(d["escaped"].get(c, 0) for c in ABORT_CLASSES)
                    for rnd, d in zip(traced, layer_rounds)]
    metrics["harness.aborted.unattributed"] = (median_of(unattributed), "count")
    metrics["trace.overhead_frac"] = (
        median_of(r.seconds() for r in traced) / median_of(r.seconds() for r in untraced)
        - 1.0, "ratio")
    return metrics


def run_rounds(workload, timer, seconds: float) -> list:
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(timer.start(len(rounds)))
        workload.run_round(timer)
    return rounds


def run_traced(workload, tracer_obj, seconds: float):
    """Alternate untraced and traced rounds until ``seconds`` have passed and
    each kind ran at least once.  Returns the untraced rounds, the traced
    rounds, the per-round span totals and the per-part span totals."""
    part_layers = {}

    @contextmanager
    def part_scope(part):
        before = tracer_obj.snapshot()
        yield
        diff = Tracer.difference(tracer_obj.snapshot(), before)
        part_layers.setdefault(part, []).append(diff)

    # both kinds are scaled to the reference host, so drift between them does
    # not read as tracing overhead
    plain = Timer(scale=True, reference=workload.reference)
    spanned = Timer(scale=True, around=part_scope, reference=workload.reference)
    untraced, traced, layer_rounds = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            untraced.append(plain.start(len(untraced)))
            workload.run_round(plain)
            continue
        traced.append(spanned.start(len(traced)))
        before = tracer_obj.snapshot()
        tracer_obj.active = True
        try:
            workload.run_round(spanned)
        finally:
            tracer_obj.active = False
        layer_rounds.append(Tracer.difference(tracer_obj.snapshot(), before))
    return untraced, traced, layer_rounds, part_layers


def format_value(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "moikit", "__init__.py")):
        print(f"perfbench: no moikit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import moikit

    import workloads

    env = environment()
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    workload = workloads.make(args.workload, ROOT)

    if args.trace:
        # set-up is not timed here; its one run is traced instead
        tracer_obj = Tracer()
        tracer_obj.install(moikit)
        try:
            tracer_obj.active = True
            try:
                workload.prepare(args.seed)
            finally:
                tracer_obj.active = False
            setup_layers = tracer_obj.snapshot()
            untraced, traced, layer_rounds, part_layers = run_traced(
                workload, tracer_obj, args.seconds)
        finally:
            tracer_obj.uninstall()
        rounds = untraced + traced
        timed = untraced
        metrics = per_layer(workload, traced, untraced, layer_rounds, setup_layers)
    else:
        timer = Timer(scale=True, reference=workload.reference)
        setup_s, setup_raw = setup_seconds(workload, args.seed, timer)
        rounds = timed = run_rounds(workload, timer, args.seconds)
        metrics = end_to_end(workload, rounds, setup_s)
    verdict = workload.check(rounds)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(timed)} timed rounds, {sum(r.ops for r in timed)} {workload.op_unit}s in "
          f"{sum(r.seconds(False) for r in timed):.3f} s"
          + (f", {len(traced)} traced rounds" if args.trace else ""))
    if not args.trace:
        print(f"# host reference job: median {median_of(timer.host_times) * 1e3:.3f} ms "
              f"over {len(timer.host_times)} runs; scaled figures assume "
              f"{REFERENCE_SECONDS * 1e3:g} ms")
        for name, (value, unit) in end_to_end(workload, rounds, setup_raw, False).items():
            print(f"raw {name} = {format_value(value)} {unit}")
    for name, (value, unit, _) in part_table(workload, timed).items():
        print(f"part {name} = {format_value(value)} {unit}")
    for tid, digest in getattr(workload, "digests", {}).items():
        print(f"digest {tid} {digest}")
    if args.trace:
        for part, diffs in part_layers.items():
            spans = {}
            for diff in diffs:
                for name, (_, _, self_ns) in diff["totals"].items():
                    spans[name] = spans.get(name, 0) + self_ns
            total = sum(spans.values()) or 1
            shares = ", ".join(f"{n} {v / total:.0%}" for n, v in
                               sorted(spans.items(), key=lambda kv: -kv[1]) if v / total >= 0.01)
            print(f"# self-time share in {part}: {shares}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans_{args.workload}.json.gz")
        tracer_obj.write(path)
        print(f"# {tracer_obj.span_count()} spans written to {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {format_value(value)} {unit}")
    print(f"failed_frac = {verdict.failed / max(verdict.attempted, 1):.6g} "
          f"({verdict.failed} of {verdict.attempted} {workload.op_unit}s)")
    for line in verdict.info:
        print(f"# {line}")
    for note in verdict.notes:
        print(f"# failure: {note}")
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
