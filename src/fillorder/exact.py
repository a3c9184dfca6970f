"""Exact lexicographically-first minimum-degree orderings via sketch copies.

One elimination loop over an array-backed `SketchEnsemble` of
key-propagation sketches serves two drivers: a fixed-size variant for
graphs whose minimum fill degree stays below a cap, and an
output-sensitive variant that doubles the copy count whenever the
candidate minimum degree is too large for the current ensemble.  New
copies are built straight from the shared component graph's current
state.  A vertex's fill 1-degree is read as the number of distinct
minimizer ids across copies, through the ensemble's rank -> vertex
table; it is exact with high probability once k is large against the
degree.
"""

from __future__ import annotations

import math
import time

import numpy as np
from sortedcontainers import SortedList

from . import rng as rngmod
from .graph import StaticGraph
from .result import OrderingResult
from .sketch import SketchEnsemble


def clog2(n: int) -> int:
    """ceil(log2 n), clamped to at least 1 so copy counts stay positive."""
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


class MinimizerTable:
    """Distinct-minimizer counts per remaining vertex across the copies of
    an ensemble, with a global index ordered by (distinct count, vertex
    id).  Counts are recomputed only for the rows a pivot changed."""

    def __init__(self, ens: SketchEnsemble, vertices):
        self._ens = ens
        self._distinct = dict.fromkeys(vertices, 0)
        self._index = SortedList((0, u) for u in self._distinct)
        self.add_sketches()

    def add_sketches(self) -> None:
        """Recount every live row, after the ensemble gained copies."""
        self.apply_changes(np.fromiter(self._distinct, dtype=np.intp))

    def apply_changes(self, rows: np.ndarray) -> None:
        if not len(rows):
            return
        mz = np.sort(self._ens.minimizers(rows), axis=1)
        counts = 1 + np.count_nonzero(mz[:, 1:] != mz[:, :-1], axis=1)
        distinct = self._distinct
        for u, d in zip(rows.tolist(), counts.tolist()):
            old = distinct[u]
            if d != old:
                self._index.remove((old, u))
                self._index.add((d, u))
                distinct[u] = d

    def remove_vertex(self, u: int) -> None:
        self._index.remove((self._distinct.pop(u), u))

    def distinct(self, u: int) -> int:
        return self._distinct[u]

    def global_min(self) -> tuple[int, int]:
        """(distinct count, vertex) of the lexicographically-first minimum."""
        return self._index[0]


def _greedy_min_degree(g: StaticGraph, seed: int, k: int, cap: int | None = None):
    """Pivot the lexicographically-first minimum of the distinct-minimizer
    counts, n times.  With a cap c, before each step c doubles (and the
    ensemble grows to 10 c ceil(log2 n) copies) while the step minimum
    exceeds c/2 and c < 2n; without one, k stays fixed.  Returns (order,
    reported degrees, ensemble, final cap, doublings)."""
    n = g.n
    ens = SketchEnsemble(g, seed, k)
    table = MinimizerTable(ens, range(n))
    order: list[int] = []
    reported: list[int] = []
    doublings = 0
    for _ in range(n):
        distinct, u = table.global_min()
        while cap is not None and distinct - 1 > cap / 2 and cap < 2 * n:
            cap *= 2
            doublings += 1
            ens.add_copies(10 * cap * clog2(n) - ens.k)
            table.add_sketches()
            distinct, u = table.global_min()
        order.append(u)
        reported.append(distinct - 1)
        table.remove_vertex(u)
        table.apply_changes(ens.pivot(u))
    return order, reported, ens, cap, doublings


def delta_capped_min_degree(g: StaticGraph, delta: int, seed: int) -> OrderingResult:
    """Exact min-degree ordering assuming every step's minimum fill degree
    is at most `delta`; ties break toward the smallest vertex id."""
    if g.n == 0:
        raise ValueError("empty graph")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    seed = rngmod.normalize_seed(seed)
    t0 = time.perf_counter()
    k = 10 * (delta + 1) * clog2(g.n)
    order, reported, ens, _, _ = _greedy_min_degree(g, seed, k)
    counters = {"k": k, **ens.sketch_counters()}
    return OrderingResult(order, reported, "delta-capped", seed, counters,
                          time.perf_counter() - t0)


def output_sensitive_min_degree(g: StaticGraph, seed: int) -> OrderingResult:
    """Exact min-degree ordering with an adaptively grown ensemble: the
    copy count follows the largest minimum degree seen so far."""
    if g.n == 0:
        raise ValueError("empty graph")
    seed = rngmod.normalize_seed(seed)
    t0 = time.perf_counter()
    c = max(1, min(g.degree(v) for v in range(g.n)))
    order, reported, ens, c, doublings = _greedy_min_degree(
        g, seed, 10 * c * clog2(g.n), cap=c)
    counters = {"k": ens.k, "final_c": c, "doublings": doublings,
                **ens.sketch_counters()}
    return OrderingResult(order, reported, "output-sensitive", seed, counters,
                          time.perf_counter() - t0)
