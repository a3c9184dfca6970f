"""Outputs that depend on the order in which the component graph visits
its neighbour sets, recorded while Nrem and Ncomp were sorted lists.

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
        [(1, 41.93326923132901, 18579), (10, 40.720949625260644, 19226),
         (24, 42.461498398002725, 19045), (26, 41.82919658909776, 18867),
         (32, 41.236135207094236, 18065), (37, 40.938804348372585, 19339),
         (41, 39.40262580028391, 19227), (42, 42.27590177180945, 18373),
         (50, 40.56014873170027, 19320), (52, 43.532948884103725, 18289)],
}

PINNED_APPROX = {
    ("gnp60", 7):
        ((21, 59, 18, 26, 1, 44, 28, 36, 47, 37, 57, 17, 43, 48, 42, 34, 7, 12, 30, 35,
          6, 45, 11, 51, 46, 15, 33, 41, 20, 9, 25, 38, 10, 31, 50, 29, 58, 22, 54, 52,
          4, 55, 0, 56, 8, 49, 39, 19, 23, 2, 13, 32, 53, 27, 3, 14, 5, 24, 16, 40),
         (0, 2, 3, 4, 4, 3, 4, 4, 4, 5, 4, 4, 5, 5, 6, 5, 6, 6, 6, 6, 6, 6, 7, 7, 10,
          10, 12, 12, 12, 11, 13, 14, 15, 20, 22, 21, 23, 22, 21, 20, 19, 18, 17, 16,
          15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
         "approx", 7,
         (("candidates_total", 1345), ("estimator_calls", 0), ("exact_evals", 222),
          ("k", 96), ("label_evals", 0), ("sketch_changed_total", 7730),
          ("sketch_informs", 53760), ("sketch_melds", 5568), ("sketch_pivots", 5760),
          ("sketch_updates", 87927), ("survivors_total", 222))),
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
