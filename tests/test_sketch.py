import itertools
import math

import numpy as np
import pytest

from conftest import all_graphs, gnp
from fillorder.bruteforce import fill_graph_bruteforce
from fillorder.component import ComponentGraph
from fillorder.graph import figure_example_graph, from_edges, path_graph
from fillorder.sketch import DynamicSketch, new_sketch


def fixed_key_sketch(g, draws_float):
    """Sketch with prescribed key values in [0, 1)."""
    draws = np.array([int(x * 2**64) for x in draws_float], dtype=np.uint64)
    return DynamicSketch(ComponentGraph(g), np.random.default_rng(0), draws=draws)


def oracle_minimizer(sk, g, eliminated, u):
    fill = fill_graph_bruteforce(g, eliminated)
    return min([u] + list(fill[u]), key=sk.key_of)


def test_single_vertex_minimizes_itself():
    sk = new_sketch(from_edges(1, []), np.random.default_rng(0))
    assert sk.query_min(0) == 0


def test_edge_minimizer_forced_by_keys():
    sk = fixed_key_sketch(from_edges(2, [(0, 1)]), [0.2, 0.9])
    assert sk.query_min(0) == 0 and sk.query_min(1) == 0


def test_figure_graph_fixed_keys():
    g = figure_example_graph()
    # R(v_i) = i/8 for v_1..v_7 (ids 0..6)
    sk = fixed_key_sketch(g, [(i + 1) / 8 for i in range(7)])
    assert sk.query_min(3) == 3  # v4 minimizes itself
    assert sk.query_min(5) == 4  # v6's minimizer is v5
    sk.pivot_vertex(4)
    sk.pivot_vertex(6)
    assert sk.query_min(5) == 0  # v1 reaches v6 through the component


def test_equal_draws_break_ties_by_vertex_id():
    # all keys share one draw, so each minimum is held by the smallest
    # vertex id in the closed fill neighborhood
    g = path_graph(6)
    sk = fixed_key_sketch(g, [0.5] * 6)
    assert [sk.query_min(u) for u in range(6)] == [0, 0, 1, 2, 3, 4]
    sk.pivot_vertex(3)
    assert [sk.query_min(u) for u in (0, 1, 2, 4, 5)] == [0, 0, 1, 2, 4]
    sk.pivot_vertex(0)
    assert [sk.query_min(u) for u in (1, 2, 4, 5)] == [1, 1, 2, 4]
    assert all(sk.min_key_float(u) == 0.5 for u in (1, 2, 4, 5))


def test_pivot_isolated_vertex_changes_nothing():
    g = from_edges(4, [(0, 1)])
    sk = new_sketch(g, np.random.default_rng(1))
    assert sk.pivot_vertex(3) == []


def test_path_pivot_middle():
    g = path_graph(3)
    sk = fixed_key_sketch(g, [0.1, 0.5, 0.9])
    changed = sk.pivot_vertex(1)
    assert set(changed) <= {0, 2}
    assert sk.query_min(2) == 0


def test_query_min_rejects_eliminated():
    sk = new_sketch(path_graph(3), np.random.default_rng(2))
    sk.pivot_vertex(1)
    with pytest.raises(ValueError):
        sk.query_min(1)


def test_exhaustive_small_graphs_all_orders():
    # every graph up to 4 vertices under every pivot order
    for n in range(1, 5):
        for g in all_graphs(n):
            for order in itertools.permutations(range(n)):
                sk = new_sketch(g, np.random.default_rng([n, g.m, hash(order) & 0xFFFF]))
                elim = []
                for v in order:
                    sk.pivot_vertex(v)
                    elim.append(v)
                    for u in range(n):
                        if u in elim:
                            continue
                        assert sk.query_min(u) == oracle_minimizer(sk, g, elim, u)


def test_randomized_medium_graphs(rng):
    for trial in range(6):
        g = gnp(30, 0.15, rng)
        sk = new_sketch(g, np.random.default_rng([5, trial]))
        elim = []
        for v in rng.permutation(30):
            sk.pivot_vertex(int(v))
            elim.append(int(v))
            for u in range(30):
                if u not in elim:
                    assert sk.query_min(u) == oracle_minimizer(sk, g, elim, u)


def test_changed_list_matches_snapshot_diff(rng):
    for trial in range(8):
        g = gnp(20, 0.25, rng)
        sk = new_sketch(g, np.random.default_rng([9, trial]))
        remaining = set(range(20))
        snap = {u: sk.query_min(u) for u in remaining}
        for v in rng.permutation(20):
            v = int(v)
            changed = sk.pivot_vertex(v)
            remaining.discard(v)
            now = {u: sk.query_min(u) for u in remaining}
            assert changed == sorted(u for u in remaining if now[u] != snap[u])
            assert all(u in remaining for u in changed)
            assert len(set(changed)) == len(changed)
            snap = now


def test_meld_with_distinct_minima_informs_larger_min_side():
    # components of size 1 and 5; the overall minimum sits on the large side,
    # so melding informs at most the single small-side neighbor
    edges = [(0, 1)] + [(2, i) for i in range(3, 8)] + [(8, 0), (8, 2)]
    g = from_edges(9, edges)
    keys = [0.5, 0.6, 0.45, 0.01, 0.7, 0.8, 0.85, 0.9, 0.99]
    sk = fixed_key_sketch(g, keys)
    sk.pivot_vertex(0)   # component {0} with Nrem {1, 8}
    sk.pivot_vertex(2)   # component {2} with Nrem {3..7, 8}
    informs_before = sk.counters["informs"]
    sk.pivot_vertex(8)   # melds both components
    informed = sk.counters["informs"] - informs_before
    # the large side holds the global min key (vertex 3); only the small
    # side's single neighbor needs updating
    assert informed == 1


def test_inform_skipped_when_removed_key_not_minimum():
    g = path_graph(3)
    sk = fixed_key_sketch(g, [0.1, 0.9, 0.5])
    sk.pivot_vertex(0)  # component {0}, Nrem {1}
    informs_before = sk.counters["informs"]
    # pivoting 1 removes R(1)=0.9 from the component heap {0.9}; the heap
    # empties, so nothing is informed
    sk.pivot_vertex(1)
    assert sk.counters["informs"] == informs_before


def test_inform_single_neighbor_min_drop():
    # meld propagates a smaller minimum to the other side's sole neighbor
    g = from_edges(5, [(0, 2), (0, 4), (1, 3), (1, 4)])
    sk = fixed_key_sketch(g, [0.6, 0.7, 0.05, 0.9, 0.5])
    sk.pivot_vertex(0)  # component A: Nrem {2, 4}, min R(2) = 0.05
    sk.pivot_vertex(1)  # component B: Nrem {3, 4}, min R(4) = 0.5
    changed = sk.pivot_vertex(4)  # melds A and B
    assert changed == [3]
    assert sk.query_min(3) == 2  # B's lone neighbor now sees R(2)
    assert sk.query_min(2) == 2  # A's side is unchanged


def test_amortized_counters_within_bounds(rng):
    for n, p in ((400, 0.02), (1200, 0.004)):
        g = gnp(n, p, rng)
        sk = new_sketch(g, np.random.default_rng(n))
        for v in rng.permutation(n):
            sk.pivot_vertex(int(v))
        log2n = math.ceil(math.log2(n))
        assert sk.counters["changed_total"] <= 50 * g.m * log2n
        assert sk.counters["updates"] <= 50 * g.m * log2n**2


def test_key_symmetry_minimizer_frequencies():
    g = path_graph(5)
    counts = {u: {} for u in range(5)}
    trials = 1000
    for t in range(trials):
        sk = new_sketch(g, np.random.default_rng([13, t]))
        for u in range(5):
            mz = sk.query_min(u)
            counts[u][mz] = counts[u].get(mz, 0) + 1
    for u in range(5):
        closed = [u] + list(g.adj[u])
        for v in closed:
            freq = counts[u].get(v, 0) / trials
            assert abs(freq - 1 / len(closed)) <= 0.05, (u, v, freq)
