"""Spans and counters around the public functions of each walkbound layer.

The tracer rebinds each listed function at every module binding that
holds it: ``report``, ``classify`` and ``bounds`` import
``largest_singular`` by name, so patching only ``spectral`` would miss
most calls.  Spans (name, parent span, operation, start, end) are kept in
memory; self time is a span's duration minus the time its child spans
cover.  Nothing under ``src/`` is edited: every binding is restored when
the tracer is removed.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

from walkbound.core import DenseMatrix
from walkbound.errors import ConvergenceError

TRACED = {
    "mmio": ("read_matrix",),
    "core": ("detect_scalar", "support_mask"),
    "walks": ("walk_table",),
    "spectral": ("largest_singular", "singular_values", "hermitian_eigen",
                 "sigma_ratio_estimate"),
    "bounds": ("walk_bound", "weighted_bound", "mean_bound", "hwh_bound",
               "schur_upper_bound"),
    "classify": ("classify", "certify_theorem2", "certify_theorem2_1",
                 "certify_theorem3", "certify_theorem4", "hwh_equality_certificate"),
    "structure": ("decompose",),
    "report": ("full_analysis", "to_json"),
    "cli": ("main",),
}

COUNTERS = (
    ("spectral.power_iterations", "count"),
    ("spectral.convergence_errors", "count"),
    ("walks.levels", "count"),
    ("core.dense_constructed", "count"),
    ("core.dense_bytes_computed", "B"),
    ("mmio.bytes_read", "B"),
)

# Per-operation ratios: (metric, the function whose calls are counted).
RATIOS = (
    ("spectral.solves_per_op", "spectral.largest_singular"),
    ("walks.tables_per_op", "walks.walk_table"),
    ("core.detect_scalar_per_op", "core.detect_scalar"),
    ("structure.decompose_per_op", "structure.decompose"),
    ("classify.classify_per_op", "classify.classify"),
)


def _order_arg(args, kwargs) -> int:
    return int(kwargs["order"] if "order" in kwargs else args[1])


class Tracer:
    """Install with ``install()``, remove with ``remove()``.

    ``op`` is set by the caller to the index of the operation in flight,
    so the spans of one operation share it.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start_ns, end_ns]
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _count_convergence_error(self, exc: ConvergenceError) -> None:
        # Count each error once, where it is raised, not at every
        # traced frame it passes through on the way out.
        if getattr(exc, "_bench_counted", False):
            return
        exc._bench_counted = True
        self.counters["spectral.convergence_errors"] += 1
        if exc.best is not None:
            self.counters["spectral.power_iterations"] += exc.best.iterations

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        levels = name == "walks.walk_table"
        solves = name == "spectral.largest_singular"
        reads = name == "mmio.read_matrix"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if levels:
                counters["walks.levels"] += _order_arg(args, kwargs)
            span = [name, stack[-1] if stack else -1, self.op, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError as exc:
                self._count_convergence_error(exc)
                raise
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
            if solves:
                counters["spectral.power_iterations"] += result.iterations
            elif reads:
                counters["mmio.bytes_read"] += os.path.getsize(args[0])
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "walkbound" or key.startswith("walkbound.")]
        for module_name, names in TRACED.items():
            home = importlib.import_module(f"walkbound.{module_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

        counters = self.counters
        init = DenseMatrix.__init__

        @functools.wraps(init)
        def counted_init(matrix, entries):
            init(matrix, entries)
            counters["core.dense_constructed"] += 1
            counters["core.dense_bytes_computed"] += 16 * matrix.m * matrix.n

        DenseMatrix.__init__ = counted_init
        self._restore.append((DenseMatrix, "__init__", init))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per function: (calls, self time in ns)."""
        child_ns = [0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for k, (name, _, _, start, end) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - child_ns[k]
        return {name: (calls, ns) for name, (calls, ns) in out.items()}
