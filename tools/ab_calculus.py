#!/usr/bin/env python3
"""Interleaved CPU-time A/B of two moikit source trees on ``calculus_nonpoly``.

    python3 tools/ab_calculus.py OLD_SRC NEW_SRC [ROUNDS]

OLD_SRC and NEW_SRC are directories that hold a ``moikit`` package (the
``src`` of two checkouts).  Both are imported into this one process under
distinct package names (see ``ab_tailbound.load_tree``), and the benchmark's
``perfbench/workloads.py`` is loaded once against each, unedited.  Each
round runs every instance of the ``calculus_nonpoly`` workload (set up from
seed 1) once with each tree, in alternating order.  The script prints the
median CPU microseconds per instance over the rounds for each tree, their
change, and the median over the rounds of each round's new/old ratio.

Every output of every instance (derivatives, both remainders and the
continuity modulus) must match between the trees byte for byte.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ab_tailbound  # noqa: E402  (fixes one BLAS thread before numpy loads)

import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 1


def load_workloads(mk, name: str):
    """``perfbench/workloads.py`` imported as module ``name``, with
    ``moikit`` bound to the package ``mk`` while it loads."""
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)  # workloads.py imports timing.py
    # ``from moikit import serialization`` then finds the tree's own module
    importlib.import_module(mk.__name__ + ".serialization")
    saved = sys.modules.get("moikit")
    sys.modules["moikit"] = mk
    try:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(PERFBENCH, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["moikit"]
        else:
            sys.modules["moikit"] = saved
    return module


def output_bytes(out: dict) -> dict:
    """Each output of an instance as the bytes of its float64 or complex
    array."""
    return {key: np.asarray(value).tobytes() for key, value in out.items()}


def main(argv: list) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rounds = int(argv[2]) if len(argv) == 3 else 10
    workloads = []
    for i, src in enumerate(argv[:2]):
        mk = ab_tailbound.load_tree(src, f"moikit_ab{i}")
        workload = load_workloads(mk, f"workloads_ab{i}").CalculusNonPoly(ROOT)
        workload.prepare(SEED)
        workloads.append(workload)
    count = len(workloads[0].instances)
    times = [[], []]
    for rnd in range(rounds):
        order = (0, 1) if rnd % 2 == 0 else (1, 0)
        outputs = {}
        for t in order:
            workload = workloads[t]
            start = time.process_time()
            outputs[t] = [workload._instance(inst) for inst in workload.instances]
            times[t].append((time.process_time() - start) / count)
        for i, (old, new) in enumerate(zip(outputs[0], outputs[1])):
            old, new = output_bytes(old), output_bytes(new)
            for key in old:
                if old[key] != new[key]:
                    print(f"outputs differ: instance {i}, {key}", file=sys.stderr)
                    return 1
    old, new = (statistics.median(per) * 1e6 for per in times)
    paired = statistics.median(b / a for a, b in zip(*times))
    print(f"{'tree':8s} {'us/instance':>12s}")
    print(f"{'old':8s} {old:12.1f}")
    print(f"{'new':8s} {new:12.1f}")
    print(f"{'change':8s} {100 * (new / old - 1):+11.1f}%")
    print(f"{'paired':8s} {100 * (paired - 1):+11.1f}%  (median of the rounds' new/old)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
