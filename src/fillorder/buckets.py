"""Approximate fill 1-degrees from minimizer keys.

Maintains k sketch copies over one shared component graph, as one
array-backed `SketchEnsemble`.  For each remaining vertex u the mean of
minima of Cohen 1997 (*Size-estimation framework with applications to
transitive closure and reachability*),

    Q(u) = sum over the k copies of -ln(1 - min key value) / k,

has expectation exactly 1/(deg+1): the minimum of deg+1 uniform keys
makes each term an exponential of rate deg+1.  Vertices are bucketed by
powers of (1+eps) of 1/Q: bucket i > 0 holds Q in
[(1+eps)^-(i+1), (1+eps)^-i) and bucket 0 every Q >= 1/(1+eps).  A
bucket id is a binary search in a table of the powers (1+eps)^-(i+1),
computed as Python floats and extended on demand to the smallest Q
seen.  Each nonempty bucket keeps a plain list of its members, the
degree lists of AMD (Amestoy, Davis & Duff 1996): a vertex is appended
on entry and swap-removed on exit, so a move costs O(1) and a uniform
member pick is a list index.  A pivot recomputes Q only for the vertices
whose minimum changed in some copy, as a sum over the ensemble's
rank -> -ln(1 - draw) table, so no log is taken per pivot, and moves a
vertex only when its bucket id changes.

`static_one_degree_quantiles` keeps the floor(k(1-1/e))-ranked minimum
key value, whose reciprocal also concentrates near deg+1.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng as rngmod
from .graph import StaticGraph
from .sketch import BELOW_ONE, SketchEnsemble

QUANTILE_FRACTION = 1.0 - 1.0 / math.e
# copies drawn per batch by `static_one_degree_quantiles`; the draw order
# follows it, so changing it changes seeded quantiles
_QUANTILE_BLOCK = 2048


def sketch_count(n: int, eps: float) -> int:
    """Copy count 50*ceil(log2(n) * eps^-2)."""
    return 50 * math.ceil(max(1.0, math.log2(max(n, 2))) * eps**-2)


def mean_of_minima(vals: np.ndarray) -> np.ndarray:
    """Q of each row of a (rows, k) array of minimum key values.  A key
    within 2^10 of 2^64 rounds to the value 1.0; it is read as the
    largest float below 1, so that Q stays finite."""
    return -np.log1p(-np.minimum(vals, BELOW_ONE)).sum(axis=1) / vals.shape[1]


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
        if self.k < 1:
            raise ValueError("k must be at least 1")
        self.ensemble = SketchEnsemble(g, rngmod.normalize_seed(seed), self.k)
        self.cgraph = self.ensemble.cgraph
        self._q = np.zeros(g.n)
        self._bucket = np.full(g.n, -1, dtype=np.int64)
        self._pos = [0] * g.n
        self._members: dict[int, list[int]] = {}
        # -(1+eps)^-(i+1) for i = 0, 1, ..., ascending; grown on demand
        self._neg_powers = np.empty(0)
        rows = np.arange(g.n)
        self._place(rows, self.ensemble.mean_of_minima(rows))

    def _leave(self, u: int, b: int) -> None:
        """Swap-remove u from the member list of its bucket b."""
        members = self._members[b]
        last = members.pop()
        if last != u:
            members[self._pos[u]] = last
            self._pos[last] = self._pos[u]
        elif not members:
            del self._members[b]

    def _bucket_ids(self, qs: np.ndarray) -> np.ndarray:
        """The smallest i >= 0 with (1+eps)^-(i+1) <= q, per q in `qs`: a
        binary search in the table of those powers, as Python floats,
        extended until its last power is at most min(qs)."""
        table = self._neg_powers
        if len(qs) and (not len(table) or table[-1] < -qs.min()):
            base = 1.0 + self.eps
            size = len(table)
            while not size or -base ** -size < -qs.min():
                size = max(64, 2 * size)
            grown = [-base ** -(i + 1) for i in range(len(table), size)]
            self._neg_powers = table = np.concatenate((table, grown))
        return np.searchsorted(table, -qs)

    def _place(self, rows: np.ndarray, qs: np.ndarray) -> None:
        """Set Q of `rows`, an index array taken in its order, to `qs`.
        A row whose bucket id changes leaves its old member list and is
        appended to its new one."""
        self._q[rows] = qs
        ids = self._bucket_ids(qs)
        old = self._bucket[rows]
        moved = np.flatnonzero(ids != old)
        for y, a, b in zip(rows[moved].tolist(), old[moved].tolist(), ids[moved].tolist()):
            if a >= 0:
                self._leave(y, a)
            members = self._members.setdefault(b, [])
            self._pos[y] = len(members)
            members.append(y)
        self._bucket[rows[moved]] = ids[moved]

    # ---------------- queries ----------------

    def estimate(self, u: int) -> float:
        """Q(u), the mean of minima, about 1/(fill degree + 1)."""
        if not self.cgraph.is_remaining(u):
            raise ValueError(f"vertex {u} is not remaining")
        return float(self._q[u])

    # ---------------- updates ----------------

    def pivot(self, u: int) -> None:
        if not self.cgraph.is_remaining(u):
            raise ValueError(f"vertex {u} is not remaining")
        self._leave(u, int(self._bucket[u]))
        rows = self.ensemble.pivot(u)
        if len(rows):
            self._place(rows, self.ensemble.mean_of_minima(rows))

    # ---------------- reporting ----------------

    def report(self, max_buckets: int | None = None) -> list[tuple[int, list[int]]]:
        """(bucket id, member list) of the nonempty buckets, ascending id
        (low degree first), at most `max_buckets` of them.  Bucket i holds
        the remaining vertices whose Q has (1+eps)^-(i+1) <= Q, for the
        smallest such i >= 0.  Members are in the order their moves left
        them, not by id or Q; the lists stay valid until the
        next pivot and must not be modified."""
        if not self._members:
            raise ValueError("no remaining vertices")
        return [(b, self._members[b]) for b in sorted(self._members)[:max_buckets]]


def static_one_degree_quantiles(g: StaticGraph, eps: float, seed: int,
                                k: int | None = None) -> np.ndarray:
    """The quantile_rank(k)-th smallest of the k minimum key values of
    every vertex of the un-eliminated graph, about 1/(deg+1), computed
    with vectorized key draws instead of materializing sketch structures;
    usable at the large copy counts the quantile guarantee asks for.
    `ApproxDegreeDS` buckets by the mean of minima instead."""
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
