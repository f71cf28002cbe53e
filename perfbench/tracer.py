"""Span tracer that times calls into moikit's layers from outside the package.

The tracer replaces public functions with timing wrappers in every moikit
module namespace that holds them (the modules import each other's names with
``from .x import y``, so patching only the home module would miss calls made
from ``harness``, ``moi`` and ``calculus``), plus ``eval_grid`` on
``MultivariateFunction``.  Private helpers stay unwrapped, so their time shows
as self time of the nearest wrapped caller.

Spans (name, start, end, parent) are kept in memory; per-name totals (calls,
inclusive and self time, work counts) are kept alongside so a caller can read
them without walking the span list.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from array import array

# public function name -> span name, grouped by the module that defines it
SPANS = {
    "operators": {
        "sample_random_hermitian": "operators.sample",
        "sample_random_unitary": "operators.sample",
        "sample_haar_unitary": "operators.haar",
        "operator_norm": "operators.norm",
        "schatten_norm": "operators.norm",
        "spectral_decompose": "operators.decompose",
        "apply_scalar_function": "operators.apply_fn",
        "shifted_operator": "operators.shift",
    },
    "integrands": {"divided_difference": "integrands.divdiff"},
    "moi": {"moi_core": "moi.core", "continuity_modulus": "moi.continuity"},
    "calculus": {
        "kth_derivative": "calculus.kth_derivative",
        "taylor_remainder_self_adjoint": "calculus.remainder_sa",
        "higher_difference": "calculus.higher_difference",
        "polynomial_of_matrix": "calculus.poly_of_matrix",
    },
    "tensors": {"mti_evaluate": "tensors.mti"},
    "harness": {"sample_stream": "harness.stream", "run_tail_bound": "harness.run"},
    "serialization": {"parse_experiment": "serialization.parse_experiment"},
}
GRID_CONTRACT = "integrands.grid_contract"  # eval_grid called by moi_core
GRID_SURROGATE = "integrands.grid_surrogate"  # eval_grid under any other parent
SPAN_NAMES = sorted({n for spans in SPANS.values() for n in spans.values()}
                    | {GRID_CONTRACT, GRID_SURROGATE})
# exception classes run_tail_bound turns into aborted samples
ABORT_CLASSES = ("CapabilityError", "FunctionDomainError", "NumericalError")


class Tracer:
    """Records nested spans while ``active``; wrappers pass straight through
    otherwise."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one column per span field; rows are written when a span ends
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_id = array("q")
        self.span_parent = array("q")
        self._next_id = 0
        # open spans: [id, name, start_ns, child_ns]
        self._stack: list[list] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.escaped: dict[str, int] = {}  # (span under harness.run) exception class -> n
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child_ns
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_id.append(span_id)
        self.span_parent.append(parent[0] if parent is not None else -1)

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _call(self, name: str, fn, args, kwargs):
        under_run = self._parent_name() == "harness.run"
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            if under_run:
                cls = type(err).__name__
                self.escaped[cls] = self.escaped.get(cls, 0) + 1
            raise
        finally:
            self._exit(frame)

    # -- installation ------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        tracer = self
        if name == "moi.core":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                operators = args[0] if args else kwargs["operators"]
                tuples = math.prod(op.dim for op in operators)
                tracer._count("moi.core.tuples", tuples)
                tracer._count("moi.core.grid_bytes_computed", 16 * tuples)
                return tracer._call(name, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                return tracer._call(name, fn, args, kwargs)
        return traced

    def _wrap_eval_grid(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(integrand, axes):
            if not tracer.active:
                return fn(integrand, axes)
            name = (GRID_CONTRACT if tracer._parent_name() == "moi.core"
                    else GRID_SURROGATE)
            tracer._count(name + ".points", math.prod(len(a) for a in axes))
            return tracer._call(name, fn, (integrand, axes), {})
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap every traced function under each name that refers to it in
        any loaded module of ``package``."""
        prefix = package.__name__
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == prefix or key.startswith(prefix + "."))]
        for home, spans in SPANS.items():
            home_module = sys.modules[f"{prefix}.{home}"]
            for attr, name in spans.items():
                original = getattr(home_module, attr)
                wrapped = self._wrap_function(original, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)
        mf = sys.modules[f"{prefix}.integrands"].MultivariateFunction
        self._patch(mf, "eval_grid", self._wrap_eval_grid(mf.eval_grid))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the per-name totals, counts and escaped-exception tallies."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts),
            "escaped": dict(self.escaped),
        }

    @staticmethod
    def difference(after: dict, before: dict) -> dict:
        """Totals accumulated between two snapshots."""
        out = {}
        for key in ("totals", "counts", "escaped"):
            old = before[key]
            if key == "totals":
                out[key] = {
                    k: [a - b for a, b in zip(v, old.get(k, [0, 0, 0]))]
                    for k, v in after[key].items()
                }
            else:
                out[key] = {k: v - old.get(k, 0) for k, v in after[key].items()}
        return out

    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, path: str) -> None:
        """Write every recorded span as gzip-compressed JSON: a name table and
        rows of [id, name index, start_ns, end_ns, parent id (-1 = none)]."""
        rows = [list(r) for r in zip(self.span_id, self.span_name, self.span_start,
                                     self.span_end, self.span_parent)]
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent"],
                       "names": self.names, "spans": rows}, out,
                      separators=(",", ":"))
