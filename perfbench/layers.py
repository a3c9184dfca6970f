"""Per-layer timing from outside the program.

`Tracer` replaces public functions and methods of the fillorder modules
with timing wrappers (monkeypatching module and class attributes) and puts
the originals back afterwards.  Each wrapped call is a span; its self time
is its duration minus the durations of the wrapped calls made inside it,
so a layer's time excludes the layers it calls into.  Spans live in
memory only.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# (module attribute of the fillorder package, attribute path, span name)
SPANS = [
    ("graphio", "load_graph", "graphio.load"),
    ("component", "ComponentGraph.pivot", "component.pivot_self"),
    ("component", "ComponentGraph.fill_degree_exact", "component.fill_degree_exact"),
    ("component", "ComponentGraph.fill_eval_cost", "component.fill_eval_cost"),
    ("sketch", "DynamicSketch.on_pivot_begin", "sketch.on_pivot_begin"),
    ("sketch", "DynamicSketch.on_unlink", "sketch.on_unlink"),
    ("sketch", "DynamicSketch.on_meld", "sketch.on_meld"),
    ("sketch", "DynamicSketch.finish_pivot", "sketch.finish_pivot"),
    ("buckets", "ApproxDegreeDS.__init__", "buckets.init"),
    ("buckets", "ApproxDegreeDS.pivot", "buckets.pivot_self"),
    ("buckets", "ApproxDegreeDS.report", "buckets.report"),
    ("ordering", "exp_decayed_candidates", "ordering.candidates"),
    ("ordering", "approx_min_degree_sequence", "ordering.driver_self"),
    ("ordering", "estimate_fill_1degree", "colcount.estimate_self"),
    ("exact", "SketchEnsemble.add_copies", "exact.add_copies"),
    ("exact", "SketchEnsemble.pivot", "exact.ensemble_pivot"),
    ("exact", "MinimizerTable.__init__", "exact.table"),
    ("exact", "MinimizerTable.add_sketches", "exact.table"),
    ("exact", "MinimizerTable.apply_changes", "exact.table"),
    ("exact", "MinimizerTable.remove_vertex", "exact.table"),
    ("exact", "MinimizerTable.global_min", "exact.table"),
    ("exact", "delta_capped_min_degree", "exact.driver_self"),
    ("exact", "output_sensitive_min_degree", "exact.driver_self"),
    ("bruteforce", "exact_mindeg_bruteforce", "bruteforce.exact_mindeg"),
    ("bruteforce", "total_fill", "bruteforce.total_fill"),
    ("colcount", "FillNeighborhoodOracle.__init__", "colcount.oracle_build"),
    ("colcount", "estimate_fill_1degree", "colcount.estimate_self"),
]

# spans whose every call duration (wrapped children included) is kept
DURATION_SPANS = {"colcount.estimate_self"}
# spans whose receiver objects are kept, to read their counters afterwards
INSTANCE_SPANS = {"colcount.oracle_build"}


class Tracer:
    def __init__(self, package):
        self._package = package
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.instances: dict[str, list[object]] = defaultdict(list)

    def _wrapper(self, fn, span: str):
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        durations = self.durations[span] if span in DURATION_SPANS else None
        instances = self.instances[span] if span in INSTANCE_SPANS else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[span] += dt - stack.pop()
                calls[span] += 1
                if stack:
                    stack[-1] += dt
                if durations is not None:
                    durations.append(dt)
                if instances is not None:
                    instances.append(args[0])

        return wrapped

    @contextmanager
    def window(self):
        """Install the wrappers for the duration of the block."""
        self.reset()
        for module, path, span in SPANS:
            owner = getattr(self._package, module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, span))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()
            self._stack.clear()

    def snapshot(self) -> dict[str, float]:
        """Self time per span, call counts, and the derived colcount figures."""
        out = {f"{span}_s": t for span, t in self.self_s.items()}
        out.update({f"{span}_calls": c for span, c in self.calls.items()})
        est = self.durations.get("colcount.estimate_self", [])
        out["colcount.estimate_p50_ms"] = 1e3 * statistics.median(est) if est else 0.0
        out["colcount.oracle_queries"] = sum(
            o.queries for o in self.instances.get("colcount.oracle_build", []))
        return out
