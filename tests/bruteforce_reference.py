"""`exact_mindeg_bruteforce` as it was before it shared an incremental
elimination with `greedy_degree_trace`: every step rebuilds the whole fill
graph from scratch with `fill_graph_bruteforce` and pivots the
lexicographically-first minimum (fill degree, vertex).  The differential
tests in `test_bruteforce.py` compare the library's order with it."""

from __future__ import annotations

from fillorder.bruteforce import fill_graph_bruteforce
from fillorder.graph import StaticGraph
from fillorder.result import OrderingResult


def reference_exact_mindeg(g: StaticGraph) -> OrderingResult:
    eliminated: list[int] = []
    order: list[int] = []
    degrees: list[int] = []
    for _ in range(g.n):
        fill = fill_graph_bruteforce(g, eliminated)
        best = min((len(nbrs), v) for v, nbrs in fill.items())
        order.append(best[1])
        degrees.append(best[0])
        eliminated.append(best[1])
    return OrderingResult(
        order=order,
        reported_degree=degrees,
        algorithm="bruteforce",
        seed=0,
        counters={"steps": g.n},
        wall_time=0.0,
    )
