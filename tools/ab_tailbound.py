#!/usr/bin/env python3
"""Interleaved CPU-time A/B of two moikit source trees on the tail-bound runs.

    python3 tools/ab_tailbound.py OLD_SRC NEW_SRC [ROUNDS]

OLD_SRC and NEW_SRC are directories that hold a ``moikit`` package (the
``src`` of two checkouts).  Both are imported into this one process under
distinct package names.  Each round runs the seven shipped
``configs/tailbound_*.json`` at 1000 samples on one worker, once with each
tree, in alternating order.  The script prints, per config and tree, the
median CPU microseconds per sample over the rounds, then their sum and their
geometric mean.

CPU time of one process, with both trees sharing it round by round, is
steadier than wall time on a shared host, whose speed can drift by tens of
percent within a minute.  Both trees must parse the configs, and each report
must match between the trees byte for byte.
"""

import os

# one BLAS thread, as in the benchmark, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")
SAMPLES = 1000


def load_tree(src: str, name: str):
    """The ``moikit`` package under ``src``, imported as package ``name``."""
    package = os.path.join(os.path.abspath(src), "moikit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def experiments(mk) -> list:
    """The shipped tail-bound experiments at :data:`SAMPLES` samples."""
    serialization = importlib.import_module(mk.__name__ + ".serialization")
    result = []
    for theorem_id in mk.THEOREM_IDS:
        with open(os.path.join(CONFIG_DIR, f"tailbound_{theorem_id}.json")) as handle:
            payload = json.load(handle)
        payload["samples"] = SAMPLES
        result.append(serialization.parse_experiment(payload))
    return result


def report_text(report) -> str:
    payload = report.to_dict()
    payload.pop("wall_time_s")
    return json.dumps(payload, sort_keys=True)


def main(argv: list) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rounds = int(argv[2]) if len(argv) == 3 else 10
    trees = [load_tree(src, f"moikit_ab{i}") for i, src in enumerate(argv[:2])]
    runs = [experiments(mk) for mk in trees]
    ids = [exp.theorem_id for exp in runs[0]]
    times = [{tid: [] for tid in ids} for _ in trees]
    for rnd in range(rounds):
        order = (0, 1) if rnd % 2 == 0 else (1, 0)
        reports = {}
        for t in order:
            for exp in runs[t]:
                start = time.process_time()
                report = trees[t].run_tail_bound(exp)
                times[t][exp.theorem_id].append(time.process_time() - start)
                reports[t, exp.theorem_id] = report_text(report)
        for tid in ids:
            if reports[0, tid] != reports[1, tid]:
                print(f"reports differ: {tid}", file=sys.stderr)
                return 1
    print(f"{'config':24s} {'old us/sample':>14s} {'new us/sample':>14s} {'change':>8s}")
    medians = [{tid: statistics.median(per[tid]) * 1e6 / SAMPLES for tid in ids}
               for per in times]
    for tid in ids:
        old, new = medians[0][tid], medians[1][tid]
        print(f"{tid:24s} {old:14.1f} {new:14.1f} {100 * (new / old - 1):+7.1f}%")
    for label, reduce in (("sum", math.fsum),
                          ("geometric mean", lambda v: math.exp(statistics.fmean(map(math.log, v))))):
        old, new = (reduce(list(m.values())) for m in medians)
        print(f"{label:24s} {old:14.1f} {new:14.1f} {100 * (new / old - 1):+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
