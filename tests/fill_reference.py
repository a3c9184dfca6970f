"""Set-replay reference for `fillorder.bruteforce.total_fill`.

`total_fill` counts the fill from the elimination tree's column counts.
This is the replay it replaced, kept in behaviour so differential tests
can compare the two: eliminate each vertex of the order in turn, joining
its remaining neighbours pairwise in explicit adjacency sets, and count
each pair that was not already adjacent.
"""

from __future__ import annotations

from fillorder.graph import StaticGraph


def total_fill_replay(g: StaticGraph, order: list[int]) -> int:
    """Number of edges appearing in some intermediate fill graph that are
    absent from g, each counted once."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation")
    adj: list[set[int]] = [set(g.adj[v]) for v in range(g.n)]
    fill = 0
    for v in order:
        nbrs = sorted(adj[v])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill += 1
            adj[a].discard(v)
        adj[v].clear()
    return fill
