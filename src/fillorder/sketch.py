"""Key-propagation sketches over a component graph.

Every vertex gets a random key per sketch copy; each remaining vertex
tracks, per copy, the minimum key over its closed fill neighborhood.

`SketchEnsemble` holds k copies as three (n, k) int32 arrays over one
shared component graph:

  key[v, i]    rank of v's key in copy i; keys are ordered by (draw,
               vertex id), so a stable argsort of copy i's draws gives
               the ranks
  fill[u, i]   minimum key rank over u's closed fill neighborhood, for
               every remaining vertex u
  comp[x, i]   minimum key rank over Nrem(x), for every live component x

plus two rank tables, rank -> draw (as a float in (0, 1]) for degree
estimates and rank -> vertex id for minimizers.  Pivoting v changes the fill
neighborhood only of the vertices in Nrem(c), c the merged component:
each gains Nrem(c) and loses v.  So comp[c] is the minimum of key over
Nrem(c) and each such row becomes min(fill row, comp[c]), except in a
copy whose old minimum was v's own key, where that entry is recomputed
from {u} | Nrem(u) and comp over Ncomp(u).  Any other old minimum
belongs to a vertex still in the neighborhood, and every new member lies
in Nrem(c), whose minimum is comp[c].  Nrem(c) is Nrem(v) plus
Nrem(w) - {v} for each component w adjacent to v, and a row of Nrem(w)
already holds at most comp[w]; so the rows of Nrem(w) are read only if
comp[w] was v's key or exceeds comp[c] in some copy.

Copy i draws its keys from the substream (seed, SKETCH_KEYS, i), so
added copies leave the existing ones unchanged.  `add_copies` takes the
draws of a block of copies from `rng.sketch_key_draws`, which returns
the keys of one Generator per copy without building one, and ranks the
block with one stable argsort along its rows.

`DynamicSketch` is one copy kept the per-copy way.  Its keys are (draw,
vertex id) tuples, which order as the ensemble's ranks do, so it has no
size limit.  Each remaining vertex holds one key slot per contributor
(itself, each remaining neighbor, each adjacent component), with the
slot keys in a `SortedList`; each live component keeps the keys of its
Nrem in another.  Slots are updated eagerly through the observer
callbacks of ComponentGraph.  It is the reference the ensemble is tested
against and backs `new_sketch`; the package does not export it.
"""

from __future__ import annotations

import itertools

import numpy as np
from sortedcontainers import SortedList

from . import rng as rngmod
from .component import ComponentGraph
from .graph import StaticGraph
_KEY_SCALE = float(2**64)
RANK_LIMIT = 2**31 - 1
# entries per block when minima are reduced over index groups and when
# key draws are sorted into ranks; building k = 2000 copies of a
# 1000-vertex, 5000-edge graph peaks at 131 MB with blocked minima and
# 177 MB without
_GATHER_BLOCK = 1 << 22


class DynamicSketch:
    def __init__(self, cgraph: ComponentGraph, rng, index: int = 0, draws=None):
        if cgraph.pivots != 0:
            raise ValueError("sketch must be attached to a fresh component graph")
        g = cgraph.origin
        self.cgraph = cgraph
        self.index = index
        if draws is None:
            # keys stay in (0, 1): a zero key would break quantile reciprocals
            draws = rng.integers(1, 2**64, size=g.n, dtype=np.uint64)
        elif len(draws) != g.n:
            raise ValueError("need one key draw per vertex")
        self._key = [(int(d), v) for v, d in enumerate(draws)]
        # per remaining vertex: contributor -> key slot, and the slot keys sorted
        self._src: list[dict | None] = []
        self._fill: list[SortedList | None] = []
        for u in range(g.n):
            src = {u: self._key[u]}
            for y in g.adj[u]:
                src[y] = self._key[y]
            self._src.append(src)
            self._fill.append(SortedList(src.values()))
        # keys of Nrem(x), per live component x
        self._rkeys: list[SortedList | None] = [None] * g.n
        # minimum observed at first touch within the current pivot, per vertex
        self._pre_min: dict[int, tuple[int, int]] = {}
        self.counters = {
            "updates": 0,
            "informs": 0,
            "melds": 0,
            "changed_total": 0,
            "pivots": 0,
        }

    # ---------------- key access ----------------

    def key_of(self, v: int) -> tuple[int, int]:
        return self._key[v]

    # ---------------- queries ----------------

    def _min(self, u: int) -> tuple[int, int]:
        fm = self._fill[u]
        if fm is None:
            raise ValueError(f"vertex {u} is not remaining")
        return fm[0]

    def query_min(self, u: int) -> int:
        """Vertex holding the minimum key over u's closed fill neighborhood."""
        return self._min(u)[1]

    def min_key_float(self, u: int) -> float:
        return self._min(u)[0] / _KEY_SCALE

    # ---------------- slot updates with change tracking ----------------

    def _slot_set(self, y: int, source: int, value: tuple[int, int]) -> None:
        src, fm = self._src[y], self._fill[y]
        if y not in self._pre_min:
            self._pre_min[y] = fm[0]
        old = src.get(source)
        if old is not None:
            fm.remove(old)
        src[source] = value
        fm.add(value)
        self.counters["updates"] += 1

    def _slot_pop(self, y: int, source: int) -> tuple[int, int]:
        fm = self._fill[y]
        if y not in self._pre_min:
            self._pre_min[y] = fm[0]
        value = self._src[y].pop(source)
        fm.remove(value)
        self.counters["updates"] += 1
        return value

    # ---------------- observer protocol ----------------

    def on_pivot_begin(self, v: int, nr: list[int], nc: list[int]) -> None:
        key = self._key
        rk = SortedList(key[y] for y in nr)
        self._rkeys[v] = rk
        for y in nr:
            self._slot_pop(y, v)
        if nr:
            mv = rk[0]
            for y in nr:
                self._slot_set(y, v, mv)
        self._src[v] = self._fill[v] = None

    def on_unlink(self, w: int, v: int, nrem_w) -> None:
        rk = self._rkeys[w]
        before = rk[0]
        rk.remove(self._key[v])
        self.counters["updates"] += 1
        after = rk[0] if rk else None
        if before != after and len(nrem_w):
            self.counters["informs"] += len(nrem_w)
            for y in nrem_w:
                self._slot_set(y, w, after)

    def on_meld(self, winner: int, loser: int, nrem_winner, nrem_loser) -> None:
        rw = self._rkeys[winner]
        rl = self._rkeys[loser]
        mw = rw[0] if rw else None
        ml = rl[0] if rl else None
        if ml is not None and (mw is None or ml < mw):
            # winner's side sees a smaller component minimum
            self.counters["informs"] += len(nrem_winner)
            for y in nrem_winner:
                self._slot_set(y, winner, ml)
        elif mw is not None and (ml is None or mw < ml):
            self.counters["informs"] += len(nrem_loser)
            for y in nrem_loser:
                self._slot_set(y, loser, mw)
        # equal minima arise when both sides share the minimizing neighbor

        key = self._key
        for y in nrem_loser:
            value = self._slot_pop(y, loser)
            if winner not in self._src[y]:
                self._slot_set(y, winner, value)
            # else: duplicate contributor slot dies; both carry the merged min
            if y not in nrem_winner:
                rw.add(key[y])
                self.counters["updates"] += 1
        self._rkeys[loser] = None
        self.counters["melds"] += 1

    def finish_pivot(self) -> list[int]:
        """Collect the vertices whose minimizer changed during the pivot
        just applied to the shared component graph.

        A vertex counts as changed only if its minimum after the pivot
        differs from the one before; transient flips inside the pivot do
        not register."""
        fill = self._fill
        out = sorted(
            y for y, pre in self._pre_min.items()
            if fill[y] is not None and fill[y][0] != pre
        )
        self._pre_min.clear()
        self.counters["changed_total"] += len(out)
        self.counters["pivots"] += 1
        return out

    # ---------------- standalone driving ----------------

    def pivot_vertex(self, v: int) -> list[int]:
        """Pivot v on the privately owned component graph.

        Only valid when this sketch is the sole observer of its graph;
        ensembles must drive the shared ComponentGraph directly."""
        self.cgraph.pivot(v, observers=(self,))
        return self.finish_pivot()


def new_sketch(g, rng, index: int = 0) -> DynamicSketch:
    """Fresh sketch copy with a private component graph."""
    return DynamicSketch(ComponentGraph(g), rng, index=index)


def _group_min(src: np.ndarray, groups) -> np.ndarray:
    """Row-wise minimum of `src` over each nonempty index group, one
    output row per group, gathering a bounded block at a time."""
    out = np.empty((len(groups), src.shape[1]), dtype=src.dtype)
    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    ends = np.cumsum(sizes)
    budget = max(1, _GATHER_BLOCK // max(1, src.shape[1]))
    start = 0
    while start < len(groups):
        base = ends[start] - sizes[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        flat = np.fromiter(itertools.chain.from_iterable(groups[start:stop]),
                           dtype=np.intp, count=ends[stop - 1] - base)
        out[start:stop] = np.minimum.reduceat(src[flat], ends[start:stop] - sizes[start:stop] - base,
                                              axis=0)
        start = stop
    return out


def _pair_min(src: np.ndarray, groups, group_of: np.ndarray,
              col_of: np.ndarray) -> tuple[np.ndarray, int]:
    """For each pair p, the minimum of column col_of[p] of `src` over the
    rows in groups[group_of[p]], which must be nonempty; also returns the
    number of entries read."""
    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    flat = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp,
                       count=int(sizes.sum()))
    first = np.cumsum(sizes) - sizes
    psize = sizes[group_of]
    pstart = np.cumsum(psize) - psize
    pair = np.repeat(np.arange(len(group_of)), psize)
    at = first[group_of][pair] + np.arange(len(pair)) - pstart[pair]
    return np.minimum.reduceat(src[flat[at], col_of[pair]], pstart), len(pair)


def _rows_of(vertices, drop: int = -1) -> np.ndarray:
    """A vertex collection, in its own iteration order, as an index
    array without `drop`."""
    rows = np.fromiter(vertices, dtype=np.intp, count=len(vertices))
    return rows[rows != drop] if drop >= 0 else rows


class SketchEnsemble:
    """k key-propagation sketch copies over one shared component graph,
    stored as arrays (see the module docstring).  Copy i draws its keys
    from the substream (seed, SKETCH_KEYS, i), as `DynamicSketch` does."""

    def __init__(self, g: StaticGraph, seed: int, k: int = 0):
        if g.n > RANK_LIMIT:
            raise ValueError(f"graph too large for int32 key ranks (n > {RANK_LIMIT})")
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
        if k:
            self.add_copies(k)

    @property
    def k(self) -> int:
        return self._key.shape[1]

    # ---------------- copies ----------------

    def add_copies(self, count: int) -> range:
        """Append `count` copies whose minima are built from the shared
        graph's current state; returns their indices."""
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
            fill[rows] = self._fill_minima(key, comp, rows)
        self._key = np.hstack((self._key, key))
        self._fill = np.hstack((self._fill, fill))
        self._comp = np.hstack((self._comp, comp))
        self._draw = np.hstack((self._draw, draw))
        self._vertex = np.hstack((self._vertex, vertex))
        self._cols = np.arange(self.k)
        return range(first, first + count)

    def _draw_keys(self, first: int, count: int):
        """Key ranks, rank -> draw and rank -> vertex tables, (n, count)
        each, for copies first, ..., first + count - 1.  A block's draws
        and sort order are freed on return, before the minima are built."""
        n = self.cgraph.n
        key = np.empty((n, count), dtype=np.int32)
        draw = np.empty((n, count), dtype=np.float64)
        vertex = np.empty((n, count), dtype=np.int32)
        ranks = np.arange(n, dtype=np.int32)[None, :]
        step = max(1, _GATHER_BLOCK // max(1, n))
        for lo in range(0, count, step):
            hi = min(count, lo + step)
            # keys stay in (0, 1): a zero key would break quantile reciprocals
            draws = rngmod.sketch_key_draws(self.seed, first + lo, hi - lo, n)
            by_key = np.argsort(draws, axis=1, kind="stable")
            np.put_along_axis(key[:, lo:hi].T, by_key, ranks, axis=1)
            vertex[:, lo:hi] = by_key.T
            draw[:, lo:hi] = np.take_along_axis(draws, by_key, axis=1).T / _KEY_SCALE
        return key, draw, vertex

    def _fill_minima(self, key: np.ndarray, comp: np.ndarray, rows) -> np.ndarray:
        """Minimum over {u} | Nrem(u) of `key` and over Ncomp(u) of `comp`,
        recomputed from scratch for each remaining vertex u in `rows`."""
        cg = self.cgraph
        out = _group_min(key, [[u, *cg.remaining_neighbors(u)] for u in rows])
        ncomp = [cg.component_neighbors(u) for u in rows]
        with_comp = [i for i, nc in enumerate(ncomp) if nc]
        if with_comp:
            cmin = _group_min(comp, [ncomp[i] for i in with_comp])
            out[with_comp] = np.minimum(out[with_comp], cmin)
        return out

    # ---------------- updates ----------------

    def pivot(self, v: int) -> np.ndarray:
        """Eliminate v on the shared component graph.  Returns the
        remaining vertices, ascending, whose minimum changed in some copy."""
        cg = self.cgraph
        nc = list(cg.component_neighbors(v))
        if not self.k:
            cg.pivot(v)
            return np.empty(0, dtype=np.intp)
        kv = self._key[v]
        # Nrem(c) is Nrem(v) plus Nrem(w) - {v} for each adjacent component
        # w.  A row of Nrem(w) already holds at most comp[w], so it needs a
        # look only where comp[w] was v's key or exceeds the merged minimum.
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
        # entries whose old minimum was v's key are recomputed one by one
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
        """Minimum key rank over `rows` per copy; n when `rows` is empty."""
        if len(rows):
            return self._key[rows].min(axis=0)
        return np.full(self.k, self.cgraph.n, dtype=np.int32)

    # ---------------- queries (rows must be remaining vertices) ----------------

    def _by_rank(self, table: np.ndarray, rows) -> np.ndarray:
        at = self._fill[rows].astype(np.intp)
        at *= self.k
        at += self._cols
        return table.ravel().take(at)

    def min_key_floats(self, rows) -> np.ndarray:
        """(len(rows), k) minimum key values, as floats in (0, 1]; a key
        within 2^10 of 2^64 rounds to 1.0."""
        return self._by_rank(self._draw, rows)

    def minimizers(self, rows) -> np.ndarray:
        """(len(rows), k) ids of the vertices holding the minimum keys."""
        return self._by_rank(self._vertex, rows)

    def sketch_counters(self) -> dict[str, int]:
        """Work counters summed over copies: `melds`, `pivots` and
        `changed_total` count what k per-copy sketches would count;
        `updates` counts key ranks read to rebuild minima and `informs`
        the fill minima offered a new component minimum."""
        k, cg = self.k, self.cgraph
        return {
            "sketch_updates": self._updates,
            "sketch_informs": self._informs,
            "sketch_melds": k * cg.meld_count,
            "sketch_changed_total": self._changed,
            "sketch_pivots": k * cg.pivots,
        }
