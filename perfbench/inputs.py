"""Seeded benchmark inputs, written as edge-list text.

The graphs come from this module's own numpy generator, not from
`fillorder.generators`, so a change to the program cannot change what the
benchmark feeds it.  An instance is a graph structure under a seeded
relabelling of its vertices; it keeps its own edge list, which the
references in `reference.py` read instead of the program's parsed graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    edges: np.ndarray  # (m, 2) int64, u != v, each undirected edge once

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_text(self) -> bytes:
        """The edge list as `fillorder.load_graph(..., "edges")` reads it."""
        return "".join(f"{u} {v}\n" for u, v in self.edges.tolist()).encode()

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges.tolist():
            adj[u].append(v)
            adj[v].append(u)
        return adj


def relabel(name: str, n: int, edges: np.ndarray, rng) -> Instance:
    """Relabel vertices at random and shuffle the edge lines.

    The edge-list format takes n as one more than the largest id seen, so
    vertex n-1 must not be isolated; a swap of two labels keeps the
    relabelling uniform among those that satisfy this."""
    label = rng.permutation(n)
    edges = label[edges]
    deg = np.bincount(edges.ravel(), minlength=n)
    if deg[n - 1] == 0:
        w = int(np.flatnonzero(deg)[rng.integers(0, np.count_nonzero(deg))])
        swap = np.arange(n)
        swap[[w, n - 1]] = [n - 1, w]
        edges = swap[edges]
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return Instance(name, n, np.ascontiguousarray(edges, dtype=np.int64))


def grid_edges(rows: int, cols: int) -> np.ndarray:
    """Edges of the rows x cols 4-neighbour grid."""
    ids = np.arange(rows * cols).reshape(rows, cols)
    horiz = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vert = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    return np.concatenate([horiz, vert])


def gnm_edges(n: int, m: int, rng) -> np.ndarray:
    """Edges of a uniform graph with exactly m distinct edges: G(n, p)
    conditioned on its edge count."""
    if not 0 < m <= n * (n - 1) // 2:
        raise ValueError("edge count out of range")
    keys: set[int] = set()
    while len(keys) < m:
        u = rng.integers(0, n, size=2 * (m - len(keys)))
        v = rng.integers(0, n, size=len(u))
        for a, b in zip(u.tolist(), v.tolist()):
            if a != b and len(keys) < m:
                keys.add(min(a, b) * n + max(a, b))
    flat = np.array(sorted(keys), dtype=np.int64)
    return np.stack([flat // n, flat % n], axis=1)
