"""Approximate fill 1-degrees from minimizer-key quantiles.

Maintains k sketch copies over one shared component graph, as one
array-backed `SketchEnsemble`.  For each remaining vertex the
floor(k(1-1/e))-ranked minimizer key value Q(u) concentrates near
1/(deg+1), so vertices are bucketed by powers of (1+eps) of 1/Q.  Each
nonempty bucket keeps a plain list of its members, the degree lists of
AMD (Amestoy, Davis & Duff 1996): a vertex is appended on entry and
swap-removed on exit, so a move costs O(1) and a uniform member pick is
a list index.  A pivot recomputes Q only for the vertices whose minimum
changed in some copy, reading their k minimum keys through the
ensemble's rank -> draw table, and moves a vertex only when its bucket
changes.
"""

from __future__ import annotations

import math

import numpy as np

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
    if k < 1:
        raise ValueError("k must be at least 1")
    return min(k, max(1, math.floor(k * QUANTILE_FRACTION)))


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
        self._q: list[float] = [0.0] * g.n
        self._bucket = [-1] * g.n
        self._pos = [0] * g.n
        self._members: dict[int, list[int]] = {}
        self._place(range(g.n), self.ensemble.quantiles(np.arange(g.n), self.rank).tolist())

    def _leave(self, u: int) -> None:
        """Swap-remove u from its bucket's member list."""
        b = self._bucket[u]
        members = self._members[b]
        last = members.pop()
        if last != u:
            members[self._pos[u]] = last
            self._pos[last] = self._pos[u]
        elif not members:
            del self._members[b]
        self._bucket[u] = -1

    def _place(self, rows, qs) -> None:
        """Set the quantiles of `rows`, taken in the given order, to `qs`.
        A row whose bucket id changes leaves its old member list and is
        appended to its new one."""
        base = 1.0 + self.eps
        log_base = math.log(base)
        for y, q in zip(rows, qs):
            self._q[y] = q
            # the smallest i >= 0 with base^-(i+1) <= q: the log's estimate
            # less one stays below it despite rounding, and steps up
            # against the float powers
            b = max(0, int(-math.log(q) / log_base) - 1)
            while base ** -(b + 1) > q:
                b += 1
            if b != self._bucket[y]:
                if self._bucket[y] >= 0:
                    self._leave(y)
                members = self._members.setdefault(b, [])
                self._bucket[y] = b
                self._pos[y] = len(members)
                members.append(y)

    # ---------------- queries ----------------

    def quantile(self, u: int) -> float:
        if not self.cgraph.is_remaining(u):
            raise ValueError(f"vertex {u} is not remaining")
        return self._q[u]

    # ---------------- updates ----------------

    def pivot(self, u: int) -> None:
        if not self.cgraph.is_remaining(u):
            raise ValueError(f"vertex {u} is not remaining")
        self._leave(u)
        rows = self.ensemble.pivot(u)
        if len(rows):
            self._place(rows.tolist(), self.ensemble.quantiles(rows, self.rank).tolist())

    # ---------------- reporting ----------------

    def report(self, max_buckets: int | None = None) -> list[tuple[int, list[int]]]:
        """(bucket id, member list) of the nonempty buckets, ascending id
        (low degree first), at most `max_buckets` of them.  Bucket i holds
        the remaining vertices whose quantile Q has (1+eps)^-(i+1) <= Q,
        for the smallest such i >= 0.  Members are in the order their moves
        left them, not by id or quantile; the lists stay valid until the
        next pivot and must not be modified."""
        if not self._members:
            raise ValueError("no remaining vertices")
        return [(b, self._members[b]) for b in sorted(self._members)[:max_buckets]]


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
