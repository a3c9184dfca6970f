"""Approximate fill 1-degrees from minimizer-key quantiles.

Maintains k sketch copies over one shared component graph, as one
array-backed `SketchEnsemble`.  For each remaining vertex the
floor(k(1-1/e))-ranked minimizer key value Q(u) concentrates near
1/(deg+1), so vertices can be bucketed by powers of (1+eps) of 1/Q and
reported as contiguous ranges of a global index ordered by Q.  A pivot
recomputes Q only for the vertices whose minimum changed in some copy,
reading their k minimum keys through the ensemble's rank -> draw table.
"""

from __future__ import annotations

import math

import numpy as np
from sortedcontainers import SortedList

from . import rng as rngmod
from .graph import StaticGraph
from .sketch import SketchEnsemble

QUANTILE_FRACTION = 1.0 - 1.0 / math.e
# copies drawn per batch by `static_one_degree_quantiles`; the draw order
# follows it, so changing it changes seeded quantiles
_QUANTILE_BLOCK = 2048


def sketch_count(n: int, eps: float) -> int:
    """Copy count 50*ceil(log2(n) * eps^-2)."""
    return 50 * math.ceil(max(1.0, math.log2(max(n, 2))) * eps**-2)


def quantile_rank(k: int) -> int:
    """1-based rank of the quantile used for degree estimation."""
    return min(k, max(1, math.floor(k * QUANTILE_FRACTION)))


class _BucketView:
    """Read-only view of one bucket: a contiguous slice of the global
    (Q, vertex) index.  Valid until the next pivot."""

    __slots__ = ("_sl", "_start", "_stop", "bucket_id")

    def __init__(self, sl: SortedList, start: int, stop: int, bucket_id: int):
        self._sl = sl
        self._start = start
        self._stop = stop
        self.bucket_id = bucket_id

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._sl[self._start + i][1]

    def __iter__(self):
        for i in range(self._start, self._stop):
            yield self._sl[i][1]


class BucketReport:
    """Partition of the remaining vertices into degree buckets, ascending
    by bucket id (low approximate degree first)."""

    def __init__(self, buckets: list[_BucketView]):
        self.buckets = buckets


class ApproxDegreeDS:
    def __init__(self, g: StaticGraph, eps: float, seed: int, k: int | None = None):
        if not 0 < eps <= 0.5:
            raise ValueError("eps must be in (0, 1/2]")
        if g.n == 0:
            raise ValueError("empty graph")
        self.eps = eps
        self.k = k if k is not None else sketch_count(g.n, eps)
        self.rank = quantile_rank(self.k)
        self.ensemble = SketchEnsemble(g, rngmod.normalize_seed(seed), self.k)
        self.cgraph = self.ensemble.cgraph
        self._q: list[float] = self.ensemble.quantiles(np.arange(g.n), self.rank).tolist()
        self._index = SortedList(zip(self._q, range(g.n)))
        self.pivots = 0

    # ---------------- queries ----------------

    def remaining_count(self) -> int:
        return len(self._index)

    def quantile(self, u: int) -> float:
        if not self.cgraph.is_remaining(u):
            raise ValueError(f"vertex {u} is not remaining")
        return self._q[u]

    def degree_estimate(self, u: int) -> float:
        """Approximate fill 1-degree: reciprocal of the key quantile."""
        return 1.0 / self.quantile(u)

    # ---------------- updates ----------------

    def pivot(self, u: int) -> None:
        if not self.cgraph.is_remaining(u):
            raise ValueError(f"vertex {u} is not remaining")
        self._index.remove((self._q[u], u))
        rows = self.ensemble.pivot(u)
        if len(rows):
            qs = self.ensemble.quantiles(rows, self.rank).tolist()
            for y, q in zip(rows.tolist(), qs):
                if q != self._q[y]:
                    self._index.remove((self._q[y], y))
                    self._index.add((q, y))
                    self._q[y] = q
        self.pivots += 1

    # ---------------- reporting ----------------

    def report(self, max_buckets: int | None = None) -> BucketReport:
        """Bucket the remaining vertices by quantile ranges
        [(1+eps)^-(i+1), (1+eps)^-i), ascending i (low degree first).

        Bucket boundaries are taken from precomputed powers so the result
        is a partition regardless of floating-point rounding."""
        sl = self._index
        if not sl:
            raise ValueError("no remaining vertices")
        base = 1.0 + self.eps
        buckets: list[_BucketView] = []
        stop = len(sl)
        # smallest i whose lower boundary lies at or below the top quantile
        q_top = sl[stop - 1][0]
        i = max(0, int(-math.log(q_top) / math.log(base)) - 2)
        while base ** (-(i + 1)) > q_top:
            i += 1
        while stop > 0 and (max_buckets is None or len(buckets) < max_buckets):
            lo = base ** (-(i + 1))
            start = sl.bisect_left((lo,))
            if start < stop:
                buckets.append(_BucketView(sl, start, stop, i))
            stop = start
            i += 1
        return BucketReport(buckets)


def static_one_degree_quantiles(g: StaticGraph, eps: float, seed: int,
                                k: int | None = None) -> np.ndarray:
    """Q(u) for every vertex of the un-eliminated graph, computed with
    vectorized key draws instead of materializing sketch structures.

    Statistically identical to building ApproxDegreeDS on a fresh graph
    and reading the quantiles; usable at the large copy counts the
    quantile guarantee asks for."""
    if not 0 < eps <= 0.5:
        raise ValueError("eps must be in (0, 1/2]")
    n = g.n
    k = k if k is not None else sketch_count(n, eps)
    rank = quantile_rank(k)
    rng = rngmod.substream(rngmod.normalize_seed(seed), rngmod.SKETCH_KEYS)
    closed = [np.array([u] + list(g.adj[u]), dtype=np.int64) for u in range(n)]
    minvals = np.empty((k, n), dtype=np.float64)
    done = 0
    while done < k:
        b = min(_QUANTILE_BLOCK, k - done)
        keys = rng.integers(1, 2**64, size=(b, n), dtype=np.uint64).astype(np.float64) / 2.0**64
        for u in range(n):
            minvals[done:done + b, u] = keys[:, closed[u]].min(axis=1)
        done += b
    minvals.partition(rank - 1, axis=0)
    return minvals[rank - 1, :].copy()
