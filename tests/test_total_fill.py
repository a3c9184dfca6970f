"""`total_fill` (elimination-tree column counts) against the set replay
it replaced, kept in `tests/fill_reference.py`."""

import numpy as np
import pytest

from conftest import gnp
from fill_reference import total_fill_replay
from fillorder.bruteforce import exact_mindeg_bruteforce, total_fill
from fillorder.exact import delta_capped_min_degree, output_sensitive_min_degree
from fillorder.generators import grid2d_graph, ov_hard_graph, random_ov_instance
from fillorder.graph import (
    complete_graph,
    cycle_graph,
    figure_example_graph,
    from_edges,
    path_graph,
    star_graph,
)
from fillorder.ordering import approx_min_degree_sequence


def random_tree(n: int, rng):
    return from_edges(n, [(v, int(rng.integers(0, v))) for v in range(1, n)])


def disjoint_union(*graphs):
    edges, base = [], 0
    for g in graphs:
        edges += [(u + base, v + base) for u, v in g.edges()]
        base += g.n
    return from_edges(base, edges)


def structured_graphs():
    rng = np.random.default_rng(16)
    return {
        "single": from_edges(1, []),
        "edgeless": from_edges(6, []),
        "edge": path_graph(2),
        "path": path_graph(12),
        "cycle": cycle_graph(11),
        "star": star_graph(9),
        "tree": random_tree(25, rng),
        "forest": disjoint_union(random_tree(8, rng), random_tree(9, rng), from_edges(3, [])),
        "complete": complete_graph(9),
        "figure": figure_example_graph(),
        "disconnected": disjoint_union(complete_graph(4), cycle_graph(6), gnp(12, 0.3, rng)),
        "isolated": disjoint_union(gnp(15, 0.4, rng), from_edges(4, [])),
        "grid": grid2d_graph(36),
        "ov": ov_hard_graph(random_ov_instance(4, 3, 0.5, seed=2))[0],
    }


@pytest.mark.parametrize("name", sorted(structured_graphs()))
def test_structured_graphs_match_replay(name):
    g = structured_graphs()[name]
    rng = np.random.default_rng(len(name))
    orders = [list(range(g.n)), list(range(g.n))[::-1]]
    orders += [[int(v) for v in rng.permutation(g.n)] for _ in range(8)]
    for order in orders:
        assert total_fill(g, order) == total_fill_replay(g, order)


def test_random_graphs_and_orders_match_replay():
    # 300 seeded G(n, p) with n in [1, 44] and p over all of [0, 1]
    rng = np.random.default_rng(1994)
    for trial in range(300):
        n = int(rng.integers(1, 45))
        g = gnp(n, float(rng.random()), rng)
        order = [int(v) for v in rng.permutation(n)]
        assert total_fill(g, order) == total_fill_replay(g, order), (trial, g)


@pytest.mark.parametrize("name", ["figure", "ov", "grid", "disconnected", "tree"])
def test_orders_of_all_four_algorithms_match_replay(name):
    g = structured_graphs()[name]
    results = [
        exact_mindeg_bruteforce(g),
        delta_capped_min_degree(g, g.n, 3),
        output_sensitive_min_degree(g, 3),
        approx_min_degree_sequence(g, 0.5, 3),
    ]
    for r in results:
        assert total_fill(g, r.order) == total_fill_replay(g, r.order), r.algorithm
    # bruteforce and approx report exact fill degrees, and each edge of
    # the filled graph is counted once, at its earlier endpoint
    for r in (results[0], results[3]):
        assert total_fill(g, r.order) == sum(r.reported_degree) - g.m


def test_approx_order_on_40x40_grid_is_sum_of_reported_degrees():
    g = grid2d_graph(1600)
    r = approx_min_degree_sequence(g, 0.5, 1)
    assert total_fill(g, r.order) == sum(r.reported_degree) - g.m


def test_deep_elimination_tree_needs_no_recursion():
    # a path in natural order has a chain of 5e4 columns as its tree
    n = 50_000
    g = path_graph(n)
    assert total_fill(g, list(range(n))) == 0
    # eliminating the middle vertex first adds exactly one edge
    mid = n // 2
    assert total_fill(g, [mid, *range(mid), *range(mid + 1, n)]) == 1


def test_non_permutations_are_rejected():
    g = path_graph(4)
    for order in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], [-1, 0, 1, 2]):
        with pytest.raises(ValueError):
            total_fill(g, order)
