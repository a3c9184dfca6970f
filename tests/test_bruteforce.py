import numpy as np
import pytest

from bruteforce_reference import reference_exact_mindeg
from conftest import gnp
from fillorder.bruteforce import (
    exact_mindeg_bruteforce,
    fill_degree_bruteforce,
    fill_graph_bruteforce,
    greedy_degree_trace,
    total_fill,
)
from fillorder.generators import ov_hard_graph, random_ov_instance
from fillorder.graph import (
    cycle_graph,
    figure_example_graph,
    from_edges,
    path_graph,
    star_graph,
)

FIG_ELIMINATED = [4, 6]  # v5 and v7


def test_fill_degree_on_figure_graph():
    g = figure_example_graph()
    assert fill_degree_bruteforce(g, FIG_ELIMINATED, 1) == 4  # v2
    assert fill_degree_bruteforce(g, FIG_ELIMINATED, 2) == 1  # v3


def test_fill_degree_empty_elimination_is_original_degree():
    g = figure_example_graph()
    for v in range(g.n):
        assert fill_degree_bruteforce(g, [], v) == g.degree(v)


def test_fill_degree_rejects_eliminated_vertex():
    g = path_graph(3)
    with pytest.raises(ValueError):
        fill_degree_bruteforce(g, [1], 1)
    with pytest.raises(ValueError):
        fill_degree_bruteforce(g, [], 7)


def test_fill_graph_on_figure_graph():
    g = figure_example_graph()
    fill = fill_graph_bruteforce(g, FIG_ELIMINATED)
    edges = {(u, v) for u, nbrs in fill.items() for v in nbrs if u < v}
    # clique on v1,v2,v4,v6 plus the edge v2-v3
    assert edges == {(0, 1), (1, 2), (0, 3), (0, 5), (3, 5), (1, 3), (1, 5)}


def test_fill_graph_no_elimination_is_original():
    g = figure_example_graph()
    fill = fill_graph_bruteforce(g, [])
    assert all(fill[v] == g.adj[v] for v in range(g.n))


def test_fill_graph_single_contraction():
    g = path_graph(3)
    fill = fill_graph_bruteforce(g, [1])
    assert fill == {0: (2,), 2: (0,)}


def test_fill_graph_consistent_with_fill_degree(rng):
    for _ in range(20):
        g = gnp(12, 0.3, rng)
        elim = [int(v) for v in rng.permutation(12)[: int(rng.integers(0, 11))]]
        fill = fill_graph_bruteforce(g, elim)
        for v, nbrs in fill.items():
            assert len(nbrs) == fill_degree_bruteforce(g, elim, v)


def test_exact_mindeg_star_pivots_leaf_first():
    r = exact_mindeg_bruteforce(star_graph(3))
    assert r.order[0] == 1 and r.reported_degree[0] == 1


def test_exact_mindeg_cycle4():
    r = exact_mindeg_bruteforce(cycle_graph(4))
    assert r.order == [0, 1, 2, 3]
    assert r.reported_degree == [2, 2, 1, 0]


def test_exact_mindeg_figure_graph_is_greedy_min():
    g = figure_example_graph()
    r = exact_mindeg_bruteforce(g)
    pivot_deg, min_deg = greedy_degree_trace(g, r.order)
    assert pivot_deg == min_deg == r.reported_degree


def test_exact_mindeg_deterministic_and_idempotent():
    g = figure_example_graph()
    a = exact_mindeg_bruteforce(g)
    b = exact_mindeg_bruteforce(g)
    assert a.order == b.order and a.reported_degree == b.reported_degree


def test_exact_mindeg_matches_from_scratch_reference_on_gnp():
    rng = np.random.default_rng(2020)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        g = gnp(n, float(rng.uniform(0.05, 0.6)), rng)
        assert exact_mindeg_bruteforce(g).key_material() == reference_exact_mindeg(g).key_material()


def test_exact_mindeg_matches_from_scratch_reference_on_ov_gadgets():
    # criterion 11's instances
    for nvec, d, dens, seed in [(2, 2, 0.5, 0), (4, 3, 0.5, 1), (6, 4, 0.4, 2),
                                (8, 4, 0.5, 3), (8, 2, 0.7, 4)]:
        g, _ = ov_hard_graph(random_ov_instance(nvec, d, dens, seed))
        assert exact_mindeg_bruteforce(g).key_material() == reference_exact_mindeg(g).key_material()


def test_exact_mindeg_matches_from_scratch_reference_on_grids():
    for rows in range(1, 11):
        for cols in range(rows, 11):
            edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
            edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
            g = from_edges(rows * cols, edges)
            assert exact_mindeg_bruteforce(g).key_material() == reference_exact_mindeg(g).key_material()


def test_greedy_degree_trace_matches_fill_graph_recomputation():
    # independent check: both degrees recomputed from scratch at every step
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 26))
        g = gnp(n, float(rng.uniform(0.05, 0.6)), rng)
        order = [int(v) for v in rng.permutation(n)]
        pivot_deg, min_deg = [], []
        for t, v in enumerate(order):
            fill = fill_graph_bruteforce(g, order[:t])
            pivot_deg.append(len(fill[v]))
            min_deg.append(min(len(nbrs) for nbrs in fill.values()))
        assert greedy_degree_trace(g, order) == (pivot_deg, min_deg)


def test_greedy_degree_trace_requires_permutation():
    with pytest.raises(ValueError):
        greedy_degree_trace(path_graph(3), [0, 0, 2])


def test_total_fill_tree_perfect_elimination_is_zero():
    g = from_edges(7, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)])
    order = exact_mindeg_bruteforce(g).order
    assert total_fill(g, order) == 0


def test_total_fill_cycle4():
    assert total_fill(cycle_graph(4), [0, 1, 2, 3]) == 1


def test_total_fill_requires_permutation():
    with pytest.raises(ValueError):
        total_fill(path_graph(3), [0, 0, 2])


def test_total_fill_matches_fill_graph_union_replay(rng):
    # independent cross-check: union of all intermediate fill graphs minus m
    for _ in range(10):
        g = gnp(10, 0.35, rng)
        order = [int(v) for v in rng.permutation(10)]
        union = set()
        for t in range(g.n + 1):
            fill = fill_graph_bruteforce(g, order[:t])
            union |= {(u, v) for u, nbrs in fill.items() for v in nbrs if u < v}
        assert total_fill(g, order) == len(union) - g.m


def test_total_fill_figure_graph_contracted_prefix():
    g = figure_example_graph()
    order = [4, 6, 0, 1, 2, 3, 5]
    union = set()
    for t in range(g.n + 1):
        fill = fill_graph_bruteforce(g, order[:t])
        union |= {(u, v) for u, nbrs in fill.items() for v in nbrs if u < v}
    assert total_fill(g, order) == len(union) - g.m
