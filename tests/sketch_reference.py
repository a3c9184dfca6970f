"""Per-copy reference for the array-backed sketch ensemble.

These are the structures the ensemble replaced, kept here verbatim in
behaviour so differential tests can compare against them: k
`DynamicSketch` copies driven as observers of a component graph, later
batches replayed through the pivot history on a private graph, and
each vertex's k minimum key values kept per copy, read back for every
row that changed in some copy.

Also kept: the ensemble's pivot and copy building on two arrays, key
ranks and component minima (`TwoArrayEnsemble`), which one array of
values replaced, and the per-row bucket id formula (`formula_bucket`),
which a binary search in a table of powers replaced.
"""

from __future__ import annotations

import math

import numpy as np

from fillorder import rng as rngmod
from fillorder.buckets import ApproxDegreeDS, mean_of_minima, sketch_count
from fillorder.component import ComponentGraph
from fillorder.sketch import DynamicSketch, SketchEnsemble, _group_min, _pair_min, _rows_of


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
        self._q = np.zeros(g.n)
        self._bucket = np.full(g.n, -1, dtype=np.int64)
        self._pos = [0] * g.n
        self._members = {}
        self._neg_powers = np.empty(0)
        self._place(np.arange(g.n), mean_of_minima(self._cur))
        self.pivots = 0

    def estimate(self, u: int) -> float:
        if u not in self._remaining:
            raise ValueError(f"vertex {u} is not remaining")
        return float(self._q[u])

    def pivot(self, u: int) -> None:
        if u not in self._remaining:
            raise ValueError(f"vertex {u} is not remaining")
        self._leave(u, int(self._bucket[u]))
        self._remaining.discard(u)
        self.cgraph.pivot(u, observers=self.sketches)
        touched = set()
        for i, s in enumerate(self.sketches):
            for y in s.finish_pivot():
                if y in self._remaining:
                    self._cur[y, i] = s.min_key_float(y)
                    touched.add(y)
        rows = np.array(sorted(touched), dtype=np.intp)
        self._place(rows, mean_of_minima(self._cur[rows]))
        self.pivots += 1


def formula_bucket(q: float, eps: float) -> int:
    """Bucket id of Q = q computed per row: the smallest i >= 0 with
    (1+eps)^-(i+1) <= q, starting one below the log's estimate and
    stepping up against the float powers."""
    base = 1.0 + eps
    b = max(0, int(-math.log(q) / math.log(base)) - 1)
    while base ** -(b + 1) > q:
        b += 1
    return b


class TwoArrayEnsemble(SketchEnsemble):
    """The ensemble with key ranks and component minima in two (n, k)
    arrays, `_key` and `_comp`; stale fill minima are recomputed with one
    pair-wise gather over each array.  The query methods are shared."""

    def __init__(self, g, seed: int, k: int):
        self.cgraph = ComponentGraph(g)
        self.seed = seed
        n = g.n
        self._key = np.empty((n, 0), dtype=np.int32)
        self._fill = np.empty((n, 0), dtype=np.int32)
        self._comp = np.empty((n, 0), dtype=np.int32)
        self._draw = np.empty((n, 0), dtype=np.float64)
        self._vertex = np.empty((n, 0), dtype=np.int32)
        self._cols = np.arange(0)
        self._updates = 0
        self._informs = 0
        self._changed = 0
        self.add_copies(k)

    @property
    def k(self) -> int:
        return self._key.shape[1]

    def add_copies(self, count: int) -> range:
        cg = self.cgraph
        n, first = cg.n, self.k
        key, draw, vertex = self._draw_keys(first, count)
        comp = np.full((n, count), n, dtype=np.int32)
        live = [x for x in cg.component_vertices() if len(cg.remaining_neighbors(x))]
        if live:
            comp[live] = _group_min(key, [cg.remaining_neighbors(x) for x in live])
        fill = np.full((n, count), n, dtype=np.int32)
        rows = list(cg.remaining_vertices())
        if rows:
            fill[rows] = self._two_array_minima(key, comp, rows)
        self._key = np.hstack((self._key, key))
        self._fill = np.hstack((self._fill, fill))
        self._comp = np.hstack((self._comp, comp))
        self._draw = np.hstack((self._draw, draw))
        self._vertex = np.hstack((self._vertex, vertex))
        self._cols = np.arange(self.k)
        return range(first, first + count)

    def _two_array_minima(self, key, comp, rows) -> np.ndarray:
        cg = self.cgraph
        out = _group_min(key, [[u, *cg.remaining_neighbors(u)] for u in rows])
        ncomp = [cg.component_neighbors(u) for u in rows]
        with_comp = [i for i, nc in enumerate(ncomp) if nc]
        if with_comp:
            cmin = _group_min(comp, [ncomp[i] for i in with_comp])
            out[with_comp] = np.minimum(out[with_comp], cmin)
        return out

    def pivot(self, v: int) -> np.ndarray:
        cg = self.cgraph
        nc = list(cg.component_neighbors(v))
        kv = self._key[v]
        own = _rows_of(cg.remaining_neighbors(v))
        cmin = self._rows_min(own)
        reads = self.k * len(own)
        parts = []
        for w in nc:
            wrows = None
            wmin = self._comp[w]
            if (wmin == kv).any():
                wrows = _rows_of(cg.remaining_neighbors(w), drop=v)
                wmin = self._rows_min(wrows)
                reads += self.k * len(wrows)
            parts.append((w, wrows, wmin))
            cmin = np.minimum(cmin, wmin)
        touched = [own]
        for w, wrows, wmin in parts:
            if wrows is not None:
                touched.append(wrows)
            elif (wmin > cmin).any():
                touched.append(_rows_of(cg.remaining_neighbors(w), drop=v))
        c = cg.pivot(v)
        self._comp[c] = cmin
        rows = np.unique(np.concatenate(touched))
        old = self._fill[rows]
        new = np.minimum(old, cmin)
        si, sc = np.nonzero(old == kv)
        if len(si):
            srows, of_row = np.unique(si, return_inverse=True)
            ys = rows[srows].tolist()
            m, r = _pair_min(self._key, [[y, *cg.remaining_neighbors(y)] for y in ys], of_row, sc)
            reads += r
            ncomp = [cg.component_neighbors(y) for y in ys]
            sel = np.flatnonzero(np.fromiter(map(len, ncomp), dtype=np.intp)[of_row])
            if len(sel):
                cm, r = _pair_min(self._comp, ncomp, of_row[sel], sc[sel])
                m[sel] = np.minimum(m[sel], cm)
                reads += r
            new[si, sc] = m
        self._fill[rows] = new
        changed = new != old
        self._updates += reads
        self._informs += self.k * len(rows)
        self._changed += int(np.count_nonzero(changed))
        return rows[changed.any(axis=1)]

    def _rows_min(self, rows: np.ndarray) -> np.ndarray:
        if len(rows):
            return self._key[rows].min(axis=0)
        return np.full(self.k, self.cgraph.n, dtype=np.int32)
