"""Independent references for the benchmark's correctness checks.

Everything here works from the benchmark's own edge lists and never calls
the program (in particular not `fillorder.bruteforce`):

* `replay`: explicit fill-graph elimination on a dense boolean matrix,
  giving each pivot's true fill degree, the minimum fill degree over the
  remaining vertices at that step, and the total fill.
* `greedy_min_degree`: the lexicographically-first exact greedy minimum
  degree order (smallest fill degree, ties to the smallest vertex id),
  built on the same replay.
* `bfs_fill_degree`: the fill degree of one remaining vertex after a set
  of eliminations, by breadth-first search through eliminated vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class Replay:
    order: list[int]
    pivot_degree: list[int]  # true fill degree of each pivot when pivoted
    step_min: list[int]  # minimum fill degree over the remaining vertices
    total_fill: int  # edges added by elimination, each counted once


def _eliminate(n: int, edges: np.ndarray, choose) -> Replay:
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj[edges[:, 1], edges[:, 0]] = True
    deg = adj.sum(axis=1).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    masked = deg.copy()  # fill degree, or a sentinel once eliminated
    gone = np.iinfo(np.int64).max
    order: list[int] = []
    pivot_degree: list[int] = []
    step_min: list[int] = []
    fill = 0
    for _ in range(n):
        low = int(masked.min())
        v = choose(masked)
        nb = np.flatnonzero(adj[v] & alive)
        order.append(v)
        pivot_degree.append(len(nb))
        step_min.append(low)
        alive[v] = False
        masked[v] = gone
        if len(nb):
            block = np.ix_(nb, nb)
            missing = ~adj[block]
            added = missing.sum(axis=1) - 1  # the diagonal is never set
            fill += int(added.sum()) // 2
            adj[block] = True
            adj[nb, nb] = False
            deg[nb] += added - 1  # v leaves every neighbour's fill set
            masked[nb] = deg[nb]
    return Replay(order, pivot_degree, step_min, fill)


def replay(n: int, edges: np.ndarray, order) -> Replay:
    """Eliminate in the given order; raises if it is not a permutation."""
    order = [int(v) for v in order]
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the vertices")
    it = iter(order)
    return _eliminate(n, edges, lambda masked: next(it))


def greedy_min_degree(n: int, edges: np.ndarray) -> Replay:
    """Lexicographically-first exact greedy minimum-degree order."""
    # argmin returns the first index of the minimum: the smallest vertex id
    return _eliminate(n, edges, lambda masked: int(np.argmin(masked)))


def bfs_fill_degree(adj: list[list[int]], eliminated: set[int], v: int) -> int:
    """Remaining vertices reachable from remaining vertex v through paths
    whose inner vertices are all eliminated."""
    if v in eliminated:
        raise ValueError(f"vertex {v} is eliminated")
    seen = {v}
    queue = deque([v])
    reached = 0
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w in seen:
                continue
            seen.add(w)
            if w in eliminated:
                queue.append(w)
            else:
                reached += 1
    return reached
