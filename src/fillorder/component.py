"""Dynamic component graph: the partially eliminated state under pivots.

Eliminated vertices are contracted into component vertices whose ids are
drawn from the original vertex ids.  The structure is quasi-bipartite:
component vertices are only adjacent to remaining vertices.  Pivoting
merges neighbor sets smaller-into-larger, so every stored endpoint moves
O(log n) times over a full elimination.

Observers (the sketch copies) receive callbacks at the points where the
key-propagation protocol needs the pre-mutation neighbor sets:

  on_pivot_begin(v, nr, nc)   after v is detached and re-registered as a
                              component vertex; nr/nc are snapshots of its
                              former remaining/component neighborhoods
  on_unlink(w, v, nrem_w)     after v left Nrem(w), before w is melded
  on_meld(winner, loser, nrem_winner, nrem_loser)
                              before the two components' sets are merged;
                              the loser's id dies, the winner keeps its id
"""

from __future__ import annotations

from .graph import StaticGraph


class ComponentGraph:
    def __init__(self, origin: StaticGraph):
        n = origin.n
        self.origin = origin
        self._nrem: list[set[int] | None] = [set(origin.adj[v]) for v in range(n)]
        self._ncomp: list[set[int] | None] = [set() for _ in range(n)]
        self._vrem = set(range(n))
        self._vcomp: set[int] = set()
        self.pivots = 0
        self.meld_count = 0

    # ---------------- queries ----------------

    @property
    def n(self) -> int:
        return self.origin.n

    def is_remaining(self, v: int) -> bool:
        return v in self._vrem

    # the sets returned below are live views, in no particular order; do
    # not mutate them

    def remaining_vertices(self) -> set[int]:
        return self._vrem

    def component_vertices(self) -> set[int]:
        return self._vcomp

    def remaining_neighbors(self, v: int) -> set[int]:
        """Remaining neighborhood of a remaining vertex or live component."""
        s = self._nrem[v]
        if s is None:
            raise ValueError(f"vertex {v} is not live")
        return s

    def component_neighbors(self, v: int) -> set[int]:
        if v not in self._vrem:
            raise ValueError(f"vertex {v} is not remaining")
        return self._ncomp[v]

    def fill_neighborhood(self, u: int) -> set[int]:
        """Exact fill neighborhood of a remaining vertex (set union)."""
        if u not in self._vrem:
            raise ValueError(f"vertex {u} is not remaining")
        out = set(self._nrem[u])
        for x in self._ncomp[u]:
            out.update(self._nrem[x])
        out.discard(u)
        return out

    def fill_degree_exact(self, u: int) -> int:
        """Size of the fill neighborhood of u.  The largest adjacent
        component's remaining neighborhood is counted in place, so
        evaluations that share a large component do not scan it."""
        if u not in self._vrem:
            raise ValueError(f"vertex {u} is not remaining")
        nrem = self._nrem
        comps = self._ncomp[u]
        if not comps:
            return len(nrem[u])
        base = max(comps, key=lambda x: len(nrem[x]))
        covered = nrem[base]
        extra = set(nrem[u])
        for x in comps:
            if x != base:
                extra.update(nrem[x])
        # u lies in Nrem(base): counted once in `covered`, then taken off
        return len(covered) + len(extra - covered) - 1

    def fill_eval_cost(self, u: int) -> int:
        """Endpoint count touched by an exact fill-degree evaluation of u."""
        c = 1 + len(self._nrem[u])
        for x in self._ncomp[u]:
            c += len(self._nrem[x])
        return c

    def stored_endpoints(self) -> int:
        total = 0
        for v in self._vrem:
            total += len(self._nrem[v]) + len(self._ncomp[v])
        for x in self._vcomp:
            total += len(self._nrem[x])
        return total

    # ---------------- updates ----------------

    def pivot(self, v: int, observers=()) -> int:
        """Eliminate remaining vertex v, melding it with every adjacent
        component.  Returns the live id of the merged component."""
        if v not in self._vrem:
            raise ValueError(f"vertex {v} is not remaining")
        nr = list(self._nrem[v])
        # ascending ids fix the meld order, hence which component ids
        # survive and what the observers count
        nc = sorted(self._ncomp[v])

        for y in nr:
            self._nrem[y].remove(v)
        for w in nc:
            self._nrem[w].remove(v)

        self._vrem.remove(v)
        self._vcomp.add(v)
        self._ncomp[v] = None
        for y in nr:
            self._ncomp[y].add(v)

        for obs in observers:
            obs.on_pivot_begin(v, nr, nc)

        cur = v
        for w in nc:
            for obs in observers:
                obs.on_unlink(w, v, self._nrem[w])
            cur = self._meld(cur, w, observers)
        self.pivots += 1
        return cur

    def _meld(self, a: int, b: int, observers) -> int:
        na, nb = self._nrem[a], self._nrem[b]
        if len(na) >= len(nb):
            winner, loser = a, b
        else:
            winner, loser = b, a
        for obs in observers:
            obs.on_meld(winner, loser, self._nrem[winner], self._nrem[loser])

        wset = self._nrem[winner]
        for y in self._nrem[loser]:
            self._ncomp[y].remove(loser)
            if y not in wset:
                wset.add(y)
                self._ncomp[y].add(winner)
        self._vcomp.remove(loser)
        self._nrem[loser] = None
        self.meld_count += 1
        return winner

    # ---------------- consistency (used by tests) ----------------

    def check_invariants(self) -> None:
        assert not self._vrem & self._vcomp
        for v in self._vrem:
            for y in self._nrem[v]:
                assert y in self._vrem and v in self._nrem[y]
            for x in self._ncomp[v]:
                assert x in self._vcomp and v in self._nrem[x]
        for x in self._vcomp:
            assert self._ncomp[x] is None
            for y in self._nrem[x]:
                assert y in self._vrem and x in self._ncomp[y]
        assert self.stored_endpoints() <= 2 * self.origin.m
