"""Per-copy reference for the array-backed sketch ensemble.

These are the structures the ensemble replaced, kept here verbatim in
behaviour so differential tests can compare against them: k
`DynamicSketch` copies driven as observers of a component graph, later
batches replayed through the pivot history on a private graph, and
each vertex's k minimum key values kept per copy, read back for every
row that changed in some copy.
"""

from __future__ import annotations

import numpy as np

from fillorder import rng as rngmod
from fillorder.buckets import ApproxDegreeDS, mean_of_minima, sketch_count
from fillorder.component import ComponentGraph
from fillorder.sketch import DynamicSketch


class ReferenceEnsemble:
    """Sketch copies grouped by creation batch; every batch owns a
    private component graph replayed through the pivot history."""

    def __init__(self, g, seed: int, k: int = 0):
        self.g = g
        self.seed = seed
        self.groups: list[tuple[ComponentGraph, list[DynamicSketch]]] = []
        self.sketches: list[DynamicSketch] = []
        self.history: list[int] = []
        if k:
            self.add_copies(k)

    @property
    def k(self) -> int:
        return len(self.sketches)

    def add_copies(self, count: int) -> list[DynamicSketch]:
        start = len(self.sketches)
        cg = ComponentGraph(self.g)
        batch = [
            DynamicSketch(cg, rngmod.substream(self.seed, rngmod.SKETCH_KEYS, i), index=i)
            for i in range(start, start + count)
        ]
        for v in self.history:
            cg.pivot(v, observers=batch)
            for s in batch:
                s.finish_pivot()
        self.groups.append((cg, batch))
        self.sketches.extend(batch)
        return batch

    def pivot(self, v: int) -> tuple[list[int], int]:
        """(rows changed in some copy, ascending; changed (row, copy) pairs)."""
        rows: set[int] = set()
        pairs = 0
        for cg, batch in self.groups:
            cg.pivot(v, observers=batch)
            for s in batch:
                changed = s.finish_pivot()
                rows.update(changed)
                pairs += len(changed)
        self.history.append(v)
        return sorted(rows), pairs

    def minimizers(self, rows) -> np.ndarray:
        return np.array([[s.query_min(u) for s in self.sketches] for u in rows],
                        dtype=np.int64).reshape(len(rows), self.k)

    def min_key_floats(self, rows) -> np.ndarray:
        return np.array([[s.min_key_float(u) for s in self.sketches] for u in rows],
                        dtype=np.float64).reshape(len(rows), self.k)

    def sketch_counters(self) -> dict[str, int]:
        agg: dict[str, int] = {}
        for s in self.sketches:
            for name, val in s.counters.items():
                agg["sketch_" + name] = agg.get("sketch_" + name, 0) + val
        return agg


class ReferenceApproxDegreeDS(ApproxDegreeDS):
    """Estimate upkeep the per-copy way: each copy's minimum key value
    per vertex, updated from that copy's changed rows.  Q of every row
    changed in some copy is recomputed from its values in copy order; the
    rows go through the bucket lists of the array-backed structure in
    ascending order, and `report` is shared."""

    def __init__(self, g, eps: float, seed: int, k: int | None = None):
        if not 0 < eps <= 0.5:
            raise ValueError("eps must be in (0, 1/2]")
        self.eps = eps
        self.k = k if k is not None else sketch_count(g.n, eps)
        self.ensemble = ReferenceEnsemble(g, rngmod.normalize_seed(seed), self.k)
        self.cgraph = self.ensemble.groups[0][0]
        self.sketches = self.ensemble.sketches
        self._remaining = set(range(g.n))
        self._cur = np.array([[s.min_key_float(u) for s in self.sketches]
                              for u in range(g.n)], dtype=np.float64).reshape(g.n, self.k)
        self._q = [0.0] * g.n
        self._bucket = [-1] * g.n
        self._pos = [0] * g.n
        self._members = {}
        self._place(range(g.n), mean_of_minima(self._cur).tolist())
        self.pivots = 0

    def estimate(self, u: int) -> float:
        if u not in self._remaining:
            raise ValueError(f"vertex {u} is not remaining")
        return float(self._q[u])

    def pivot(self, u: int) -> None:
        if u not in self._remaining:
            raise ValueError(f"vertex {u} is not remaining")
        self._leave(u)
        self._remaining.discard(u)
        self.cgraph.pivot(u, observers=self.sketches)
        touched = set()
        for i, s in enumerate(self.sketches):
            for y in s.finish_pivot():
                if y in self._remaining:
                    self._cur[y, i] = s.min_key_float(y)
                    touched.add(y)
        rows = sorted(touched)
        self._place(rows, mean_of_minima(self._cur[rows]).tolist())
        self.pivots += 1
