"""Timing of calls into moikit, scaled to a reference host speed.

The benchmark's host shares its cores with other tenants, and its speed
drifts by tens of percent over seconds to minutes.  A fixed reference job,
independent of moikit, is timed between consecutive calls; each call's time
is scaled by ``REFERENCE_SECONDS / (mean of the reference times on either
side of it)``.  A reported time is therefore what the call would take on a
host where the reference job takes ``REFERENCE_SECONDS``.  Slowdowns that hit
both the call and the reference job cancel; changes to moikit cannot move the
reference job.

Contention does not slow every kind of code alike, so each workload names
the job whose profile matches its own: ``mixed`` for the engine's large
array passes, ``python`` for interpreter-bound workloads (the Monte Carlo
harness and the non-polynomial calculus).  On 2 shared cores, against 20-25 s
windows of a run, the matching job cut the spread of window medians from
0.17-0.41 to about 0.05; the other job left 0.11-0.17.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

REFERENCE_SECONDS = 0.020
_NODES = [-1.0 + 2.0 * i / 19 for i in range(20)]


@functools.cache
def _arrays():
    # numpy loads on first use, so ``python_job`` can time ``import numpy``
    import numpy as np

    rng = np.random.default_rng(12345)
    small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
    return np, small, rng.standard_normal(1 << 19) + 0j


def mixed_job() -> None:
    """Small dense numpy calls, an integer loop, and elementwise passes over
    an array larger than the caches."""
    np, small, large = _arrays()
    for i in range(100):
        m = small[i % 8]
        w, v = np.linalg.eigh((m + m.conj().T) / 2)
        np.linalg.qr(m)
        float(np.linalg.norm((v * w) @ v.conj().T, 2))
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    for _ in range(4):
        large * large + large


def _divided_difference(nodes, f) -> float:
    nodes = sorted(nodes)
    table = [f(z) for z in nodes]
    for level in range(1, len(nodes)):
        table = [(table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
                 for i in range(len(nodes) - level)]
    return table[0]


def python_job() -> None:
    """Interpreted code: second divided differences of exp over a node grid."""
    for a in _NODES:
        for b in _NODES:
            for c in _NODES:
                _divided_difference((a, b + 1e-3, c + 2e-3), math.exp)


REFERENCE_JOBS = {"mixed": mixed_job, "python": python_job}


def reference_seconds(job) -> float:
    start = time.perf_counter()
    job()
    return time.perf_counter() - start


@dataclass
class Round:
    """One round of a workload: per part ``[operations, seconds, scaled
    seconds]``, and per part the list of outputs (or raised exceptions)."""

    index: int
    parts: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(p[0] for p in self.parts.values())

    def seconds(self, scaled: bool = True) -> float:
        return sum(p[2 if scaled else 1] for p in self.parts.values())


class Timer:
    """Times each call of a round into ``round``.

    With ``scale`` on, the named reference job runs between calls.
    ``around(part)``, if given, is a context manager entered around each
    call; the traced run uses it to attribute spans to parts.
    """

    def __init__(self, scale: bool, around=None, reference: str = "mixed"):
        self.scale = scale
        self.around = around
        self.job = REFERENCE_JOBS[reference]
        self.round: Round | None = None
        self._host_before: float | None = None
        self.host_times: list[float] = []

    def start(self, index: int) -> Round:
        self.round = Round(index)
        return self.round

    def host(self) -> float:
        if self._host_before is None:
            self._host_before = reference_seconds(self.job)
            self.host_times.append(self._host_before)
        return self._host_before

    def measure(self, fn, *args):
        """Run ``fn``; return (output or raised exception, seconds, factor
        that scales those seconds to the reference host)."""
        before = self.host() if self.scale else None
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as err:  # counted as a failed operation by the checks
            out = err
        seconds = time.perf_counter() - start
        if not self.scale:
            return out, seconds, 1.0
        self._host_before = None
        after = self.host()
        return out, seconds, REFERENCE_SECONDS / ((before + after) / 2)

    def __call__(self, part: str, ops: int, fn, *args):
        """Time one call of ``part`` doing ``ops`` operations; return its
        output, or the exception it raised."""
        if self.around is None:
            out, seconds, factor = self.measure(fn, *args)
        else:
            with self.around(part):
                out, seconds, factor = self.measure(fn, *args)
        entry = self.round.parts.setdefault(part, [0, 0.0, 0.0])
        entry[0] += ops
        entry[1] += seconds
        entry[2] += seconds * factor
        self.round.outputs.setdefault(part, []).append(out)
        return out
