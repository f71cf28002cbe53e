#!/usr/bin/env python3
"""Interleaved CPU-time A/B of two moikit source trees on a benchmark workload.

    python3 tools/ab.py [--rtol R] WORKLOAD OLD_SRC NEW_SRC [ROUNDS]

WORKLOAD names a workload of ``perfbench/workloads.py``; OLD_SRC and NEW_SRC
are directories that hold a ``moikit`` package (the ``src`` of two
checkouts).  Both trees are imported into this one process under distinct
package names, with ``perfbench/workloads.py`` loaded once against each,
unedited.  Each tree makes the workload and prepares it from seed SEED; each
of ROUNDS rounds (at least 2, default 10) runs ``run_round`` once per tree,
in alternating order, timed by CPU time, which is steadier than wall time on
a shared host.  Per part, the script prints both trees' median CPU µs per
operation, the old tree's quartile distance, and in how many rounds the new
tree was faster.  It then prints the end-to-end ``ops_per_s`` and
``part_us_gmean`` of each tree, as ``perfbench/run.py``'s ``end_to_end``
computes them over all rounds but from CPU time, with the old tree's
quartile distance and the rounds won, both over each round's own value.
The workloads' ``check`` is not run (on ``mc_tailbound`` it
adds an untimed two-worker round); every output must match between the trees
byte for byte, else the script names the part and exits 1.

With ``--rtol R``, for a change that moves numbers by design, outputs need
only agree within R (see :func:`deviation`): every array normwise, its
largest change over its largest magnitude, and every number of a report on
its own, its change over the larger magnitude of the two; everything else,
and any value that is not finite, must still match exactly.  The table then
ends each part's row with the largest deviation over its rounds.
"""

import os

# one BLAS thread, as in the benchmark, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)  # workloads.py imports timing.py

import run as perfbench_run  # noqa: E402
import timing  # noqa: E402

SEED = 1


class CpuTimer(timing.Timer):
    """An unscaled ``timing.Timer`` that reads CPU time."""

    def measure(self, fn, *args):
        start = time.process_time()
        try:
            out = fn(*args)
        except Exception as err:  # compared between the trees like any output
            out = err
        return out, time.process_time() - start, 1.0


def load_module(name: str, path: str, **kwargs):
    """The Python file ``path`` imported as module ``name``."""
    spec = importlib.util.spec_from_file_location(name, path, **kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(src: str, i: int):
    """``perfbench/workloads.py`` loaded against the ``moikit`` package under
    ``src``, which is imported as package ``moikit_ab<i>``."""
    package = os.path.join(os.path.abspath(src), "moikit")
    mk = load_module(f"moikit_ab{i}", os.path.join(package, "__init__.py"),
                     submodule_search_locations=[package])
    # ``from moikit import serialization`` then finds the tree's own module
    importlib.import_module(mk.__name__ + ".serialization")
    sys.modules["moikit"] = mk  # only while workloads.py loads
    module = load_module(f"workloads_ab{i}", os.path.join(PERFBENCH, "workloads.py"))
    del sys.modules["moikit"]
    return module


def output_bytes(out) -> bytes:
    """An output as bytes: a report without its wall time, the value of an
    ``MoiResult``, each entry of an output dict, or the array of the rest."""
    if isinstance(out, Exception):
        return repr(out).encode()
    if isinstance(out, dict):
        return b"|".join(key.encode() + b"=" + output_bytes(out[key]) for key in sorted(out))
    if hasattr(out, "to_dict"):
        payload = out.to_dict()
        payload.pop("wall_time_s")
        return json.dumps(payload, sort_keys=True).encode()
    value = np.asarray(getattr(out, "value", out))
    return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()


def deviation(old, new) -> float:
    """How far output ``new`` is from ``old``, as ``--rtol`` measures it: 0
    when they match byte for byte, inf when they differ other than in the
    values of finite numbers."""
    if output_bytes(old) == output_bytes(new):
        return 0.0
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            return np.inf
        return max(deviation(old[key], new[key]) for key in old)
    if hasattr(old, "to_dict") and hasattr(new, "to_dict"):
        payloads = [out.to_dict() for out in (old, new)]
        for payload in payloads:
            payload.pop("wall_time_s")
        return number_deviation(*payloads)
    if isinstance(old, Exception) or isinstance(new, Exception):
        return np.inf
    old, new = (np.asarray(getattr(out, "value", out)) for out in (old, new))
    if old.dtype != new.dtype or old.shape != new.shape or old.dtype.kind not in "fc":
        return np.inf
    finite = np.isfinite(old)
    if not np.array_equal(finite, np.isfinite(new)) or not np.array_equal(
            old[~finite], new[~finite], equal_nan=True):
        return np.inf
    scale = np.max(np.abs(old[finite]), initial=0.0)
    change = np.max(np.abs(new[finite] - old[finite]), initial=0.0)
    return float(change / scale) if scale else np.inf


def number_deviation(old, new) -> float:
    """The largest relative change of a float between two JSON payloads of
    the same structure, or inf where anything else differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            return np.inf
        return max((number_deviation(old[key], new[key]) for key in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return np.inf
        return max(map(number_deviation, old, new), default=0.0)
    if isinstance(old, float) and isinstance(new, float) and old != new:
        if not (np.isfinite(old) and np.isfinite(new)):
            return 0.0 if np.isnan(old) and np.isnan(new) else np.inf
        return abs(new - old) / max(abs(old), abs(new))
    return 0.0 if type(old) is type(new) and old == new else np.inf


def main(argv: list) -> int:
    rtol = None
    if argv[:1] == ["--rtol"] and len(argv) > 1:
        rtol, argv = float(argv[1]), argv[2:]
    if len(argv) not in (3, 4) or (len(argv) == 4 and int(argv[3]) < 2) or (
            rtol is not None and not rtol >= 0):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    name, sources = argv[0], argv[1:3]
    count = int(argv[3]) if len(argv) == 4 else 10
    workloads = []
    for i, src in enumerate(sources):
        workloads.append(load_workloads(src, i).make(name, ROOT))
        workloads[i].prepare(SEED)
    timers = [CpuTimer(scale=False) for _ in workloads]
    rounds = [[], []]
    deviations: dict = {}
    for index in range(count):
        for t in ((0, 1) if index % 2 == 0 else (1, 0)):
            rounds[t].append(timers[t].start(index))
            workloads[t].run_round(timers[t])
        old, new = rounds[0][-1].outputs, rounds[1][-1].outputs
        for part in old:
            if rtol is None:
                if list(map(output_bytes, old[part])) != list(map(output_bytes, new[part])):
                    print(f"outputs differ: round {index}, part {part}", file=sys.stderr)
                    return 1
                continue
            worst = max(map(deviation, old[part], new[part]), default=0.0)
            if not worst <= rtol:
                print(f"outputs differ by {worst:.3g} > {rtol:g}: round {index}, part {part}",
                      file=sys.stderr)
                return 1
            deviations[part] = max(deviations.get(part, 0.0), worst)
    print(f"{'part':24s} {'old us/op':>12s} {'new us/op':>12s} {'change':>8s} "
          f"{'old IQR':>10s} {'new wins':>9s}" + ("" if rtol is None else f" {'max dev':>9s}"))
    for part in rounds[0][0].parts:
        old, new = ([r.parts[part][1] / r.parts[part][0] * 1e6 for r in per] for per in rounds)
        quartiles = statistics.quantiles(old, n=4)
        wins = sum(b < a for a, b in zip(old, new))
        mid_old, mid_new = statistics.median(old), statistics.median(new)
        print(f"{part:24s} {mid_old:12.1f} {mid_new:12.1f} "
              f"{100 * (mid_new / mid_old - 1):+7.1f}% {quartiles[2] - quartiles[0]:10.1f} "
              f"{wins:>4d}/{count}"
              + ("" if rtol is None else f" {deviations.get(part, 0.0):9.2g}"))

    def end_to_end(per):
        return perfbench_run.end_to_end(workloads[0], per, 0.0, scaled=False)

    for metric, higher in (("ops_per_s", True), ("part_us_gmean", False)):
        old, new = ([end_to_end([r])[metric][0] for r in per] for per in rounds)
        quartiles = statistics.quantiles(old, n=4)
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        whole_old, whole_new = (end_to_end(per)[metric][0] for per in rounds)
        print(f"{metric:24s} {whole_old:12.2f} {whole_new:12.2f} "
              f"{100 * (whole_new / whole_old - 1):+7.1f}% {quartiles[2] - quartiles[0]:10.2f} "
              f"{wins:>4d}/{count}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
