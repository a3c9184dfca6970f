import pytest

from conftest import all_graphs, gnp
from fillorder.bruteforce import fill_graph_bruteforce
from fillorder.component import ComponentGraph
from fillorder.graph import figure_example_graph, from_edges, path_graph


def test_figure_pivots_merge_into_one_component():
    cg = ComponentGraph(figure_example_graph())
    c4 = cg.pivot(4)
    assert cg.component_neighbors(6) == {c4}
    x = cg.pivot(6)
    assert cg.component_vertices() == {x}
    assert sorted(cg.remaining_neighbors(x)) == [0, 1, 3, 5]


def test_isolated_pivot_has_empty_neighborhood():
    cg = ComponentGraph(from_edges(3, [(0, 1)]))
    cg.pivot(2)
    assert len(cg.remaining_neighbors(2)) == 0
    assert not cg.is_remaining(2)


def test_triangle_pivot_keeps_remaining_edge():
    cg = ComponentGraph(from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    cg.pivot(0)
    assert sorted(cg.remaining_neighbors(0)) == [1, 2]
    assert sorted(cg.remaining_neighbors(1)) == [2]
    assert sorted(cg.component_neighbors(1)) == [0]


def test_fresh_graph_has_no_component_neighbors():
    cg = ComponentGraph(path_graph(4))
    for v in range(4):
        assert len(cg.component_neighbors(v)) == 0


def test_pivot_requires_remaining():
    cg = ComponentGraph(path_graph(3))
    cg.pivot(1)
    with pytest.raises(ValueError):
        cg.pivot(1)


def test_state_query():
    cg = ComponentGraph(figure_example_graph())
    assert cg.is_remaining(4)
    c4 = cg.pivot(4)
    assert not cg.is_remaining(4) and c4 == 4
    assert c4 in cg.component_neighbors(6)
    comp = cg.pivot(6)
    assert not cg.is_remaining(6) and cg.component_vertices() == {comp}


def test_fill_neighborhood_matches_bruteforce_small_exhaustive(rng):
    for n in range(1, 6):
        for g in all_graphs(n):
            order = [int(v) for v in rng.permutation(n)]
            cg = ComponentGraph(g)
            elim = []
            for v in order[:-1]:
                cg.pivot(v)
                elim.append(v)
                fill = fill_graph_bruteforce(g, elim)
                for u, nbrs in fill.items():
                    assert cg.fill_neighborhood(u) == set(nbrs)
                cg.check_invariants()


def test_fill_neighborhood_matches_bruteforce_random(rng):
    for _ in range(5):
        g = gnp(40, 0.1, rng)
        cg = ComponentGraph(g)
        elim = []
        for v in rng.permutation(40)[:30]:
            cg.pivot(int(v))
            elim.append(int(v))
        fill = fill_graph_bruteforce(g, elim)
        for u, nbrs in fill.items():
            assert cg.fill_neighborhood(u) == set(nbrs)
        cg.check_invariants()


def test_fill_degree_exact_matches_fill_neighborhood_across_pivots(rng):
    # every remaining vertex is evaluated after every pivot, so the
    # largest component's set, counted in place, is read both before and
    # after pivots that change it
    for _ in range(5):
        g = gnp(40, 0.1, rng)
        cg = ComponentGraph(g)
        for v in rng.permutation(40):
            for u in cg.remaining_vertices():
                assert cg.fill_degree_exact(u) == len(cg.fill_neighborhood(u))
            cg.check_invariants()
            cg.pivot(int(v))


def test_endpoint_budget_never_exceeded(rng):
    g = gnp(30, 0.25, rng)
    cg = ComponentGraph(g)
    for v in rng.permutation(30):
        cg.pivot(int(v))
        assert cg.stored_endpoints() <= 2 * g.m
