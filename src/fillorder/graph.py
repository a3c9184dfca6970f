"""Immutable simple undirected graphs with dense 0-based vertex ids."""

from __future__ import annotations

from typing import Iterable, Sequence


class StaticGraph:
    """A simple undirected graph stored as sorted adjacency lists.

    Vertices are the integers 0..n-1.  Self-loops and duplicate edges are
    rejected at construction; use :func:`from_edges` to build a graph from
    raw (possibly messy) edge data.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adjacency: Sequence[Sequence[int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adjacency) != n:
            raise ValueError(f"adjacency has {len(adjacency)} rows, expected {n}")
        adj = []
        m2 = 0
        for u, row in enumerate(adjacency):
            row = tuple(row)
            prev = -1
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if v <= prev:
                    raise ValueError(f"adjacency of {u} not strictly increasing")
                prev = v
            adj.append(row)
            m2 += len(row)
        if m2 % 2:
            raise ValueError("adjacency is not symmetric (odd endpoint count)")
        # symmetry: v in adj(u) <=> u in adj(v)
        neighbor_sets = [set(row) for row in adj]
        for u, row in enumerate(adj):
            for v in row:
                if u not in neighbor_sets[v]:
                    raise ValueError(f"asymmetric adjacency: {v} in adj({u}) but not vice versa")
        self.n = n
        self.adj = tuple(adj)
        self.m = m2 // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StaticGraph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"StaticGraph(n={self.n}, m={self.m})"


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> StaticGraph:
    """Build a StaticGraph from an edge iterable.

    Self-loops and duplicate edges are silently dropped.
    """
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            continue
        sets[u].add(v)
        sets[v].add(u)
    return StaticGraph(n, [sorted(s) for s in sets])


def complete_graph(n: int) -> StaticGraph:
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> StaticGraph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> StaticGraph:
    edges = [(i, i + 1) for i in range(n - 1)]
    if n > 2:
        edges.append((0, n - 1))
    return from_edges(n, edges)


def star_graph(leaves: int) -> StaticGraph:
    """Star with center 0 and the given number of leaves."""
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def figure_example_graph() -> StaticGraph:
    """The 7-vertex, 7-edge example used throughout the tests.

    Vertices 0..6; pivoting 4 then 6 leaves a clique on {0, 1, 3, 5}
    plus the edge (1, 2) in the fill graph.
    """
    edges = [(1, 0), (1, 2), (1, 6), (6, 0), (6, 4), (4, 5), (3, 4)]
    return from_edges(7, edges)
