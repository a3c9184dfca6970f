"""Outputs that depend on the order in which the component graph visits
its neighbour sets.  The component-id and sketch pins were recorded while
Nrem and Ncomp were sorted lists; the estimate pin, which also depends on
how the dense oracle draws its probes, with the sorted component rows.

Two orders can be seen from outside the component graph: `pivot` melds
the adjacent components in ascending id, which fixes the surviving
component ids and `DynamicSketch`'s counters, and
`FillNeighborhoodOracle` lists its component rows in ascending id, which
fixes seeded estimates.  Every other consumer is order-free."""

import numpy as np
import pytest

from conftest import gnp
from fillorder.colcount import (FillNeighborhoodOracle, estimate_fill_1degree,
                                estimate_nonzero_columns)
from fillorder.component import ComponentGraph
from fillorder.generators import grid2d_graph
from fillorder.ordering import approx_min_degree_sequence
from fillorder.sketch import new_sketch

GRAPHS = {
    "gnp60": lambda: gnp(60, 0.1, np.random.default_rng(5)),
    "grid7x7": lambda: grid2d_graph(49),
    "gnp80": lambda: gnp(80, 0.08, np.random.default_rng(21)),
}


def _id(args) -> str:
    return "-".join(map(str, args))


def _pivots(g, count: int, seed: int) -> list[int]:
    return [int(v) for v in np.random.default_rng(seed).permutation(g.n)[:count]]


def observe_component_ids(name: str, count: int, seed: int) -> list[int]:
    """component_of of every pivoted vertex, after the whole sequence."""
    g = GRAPHS[name]()
    cg = ComponentGraph(g)
    order = _pivots(g, count, seed)
    for v in order:
        cg.pivot(v)
    cg.check_invariants()
    return [cg.component_of(v) for v in order]


def observe_sketch(name: str, count: int, seed: int):
    """DynamicSketch changed lists per pivot and its final counters."""
    g = GRAPHS[name]()
    sk = new_sketch(g, np.random.default_rng(seed))
    changed = [sk.pivot_vertex(v) for v in _pivots(g, count, seed)]
    return changed, dict(sk.counters)


def observe_estimates(name: str, count: int, seed: int, eps: float, limit: int):
    """(u, estimate, oracle queries) for the first `limit` remaining
    vertices, ascending, with at least two component neighbours."""
    g = GRAPHS[name]()
    cg = ComponentGraph(g)
    for v in _pivots(g, count, seed):
        cg.pivot(v)
    out = []
    for u in range(g.n):
        if cg.is_remaining(u) and len(cg.component_neighbors(u)) >= 2:
            oracle = FillNeighborhoodOracle(cg, u)
            est = estimate_nonzero_columns(oracle, eps, np.random.default_rng(u))
            assert estimate_fill_1degree(cg, u, eps, np.random.default_rng(u)) == est
            out.append((u, est, oracle.queries))
            if len(out) == limit:
                break
    return out


def observe_approx(name: str, seed: int):
    return approx_min_degree_sequence(GRAPHS[name](), 0.5, seed).key_material()


PINNED_COMPONENT_IDS = {
    ("gnp60", 20, 1):
        [24, 24, 44, 24, 31, 24, 24, 24, 24, 24, 24, 24, 23, 24, 24, 24, 24, 24, 24, 24],
    ("grid7x7", 30, 2):
        [3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 18, 42, 3, 3, 3, 3, 3, 3, 3, 3, 28,
         3, 3, 3, 3, 3],
}

PINNED_SKETCH = {
    ("gnp60", 30, 9):
        ([[2, 22, 28, 54], [11, 24, 32, 46], [6, 9, 16, 26, 43, 56],
          [3, 11, 13, 19, 24, 32, 46], [3, 5, 10, 24, 25, 37], [8, 13, 20],
          [19, 29, 32], [18], [], [0, 11, 13, 14, 18, 23, 30, 36, 38, 46, 48],
          [17, 20, 51], [], [55], [45, 47], [4, 27], [8, 55], [], [], [44, 59], [], [],
          [1, 42], [], [], [], [7], [], [], [], []],
         {"changed_total": 60,
          "informs": 105,
          "melds": 27,
          "pivots": 30,
          "updates": 658}),
    ("grid7x7", 30, 10):
        ([[31], [26, 34], [], [33, 40, 46], [48], [2, 8, 10], [29, 35, 37, 43], [], [],
          [45], [], [47], [4, 6, 12], [], [22, 28, 31], [11, 17, 19, 25], [47],
          [14, 22], [24, 25, 26, 34, 38, 40, 47], [], [11, 19], [1, 6, 11, 12], [],
          [20], [19, 24, 26, 28, 34, 35, 37, 40, 43, 45, 47], [], [], [], [42], []],
         {"changed_total": 55,
          "informs": 85,
          "melds": 25,
          "pivots": 30,
          "updates": 398}),
}

PINNED_ESTIMATES = {
    ("gnp80", 20, 3, 0.5, 10):
        [(1, 42.32206523733708, 18611), (10, 41.71887134562581, 18932),
         (24, 43.261795890695296, 19033), (26, 41.22320446541751, 18972),
         (32, 40.457775658663245, 18294), (37, 41.55852361901182, 18786),
         (41, 38.93803571480551, 19581), (42, 41.268365385166284, 18622),
         (50, 41.03311159676956, 19154), (52, 42.51917945540347, 18468)],
}

PINNED_APPROX = {
    ("gnp60", 7):
        ((21, 59, 18, 1, 44, 26, 17, 47, 28, 36, 48, 57, 37, 33, 43, 2, 3, 12, 45, 6,
          7, 51, 8, 50, 54, 30, 11, 29, 20, 13, 31, 38, 52, 42, 10, 19, 58, 25, 53, 46,
          9, 55, 0, 56, 15, 41, 39, 24, 27, 4, 16, 35, 49, 34, 5, 22, 14, 32, 23, 40),
         (0, 2, 3, 4, 3, 4, 4, 4, 4, 4, 5, 4, 5, 5, 5, 6, 6, 6, 6, 6, 6, 7, 8, 8, 10,
          10, 12, 13, 13, 15, 17, 19, 20, 23, 24, 24, 23, 22, 21, 20, 19, 18, 17, 16,
          15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
         "approx", 7,
         (("candidates_total", 239), ("estimator_calls", 0), ("exact_evals", 238),
          ("k", 96), ("label_evals", 0), ("sketch_changed_total", 8216),
          ("sketch_informs", 56736), ("sketch_melds", 5568), ("sketch_pivots", 5760),
          ("sketch_updates", 92943), ("survivors_total", 238))),
}


@pytest.mark.parametrize("args", list(PINNED_COMPONENT_IDS), ids=_id)
def test_component_ids_pinned(args):
    assert observe_component_ids(*args) == PINNED_COMPONENT_IDS[args]


@pytest.mark.parametrize("args", list(PINNED_SKETCH), ids=_id)
def test_dynamic_sketch_changes_and_counters_pinned(args):
    assert observe_sketch(*args) == PINNED_SKETCH[args]


@pytest.mark.parametrize("args", list(PINNED_ESTIMATES), ids=_id)
def test_fill_estimates_and_queries_pinned(args):
    assert observe_estimates(*args) == PINNED_ESTIMATES[args]


@pytest.mark.parametrize("args", list(PINNED_APPROX), ids=_id)
def test_approx_key_material_pinned(args):
    assert observe_approx(*args) == PINNED_APPROX[args]
