import numpy as np
import pytest

from conftest import gnp
from fillorder import rng as rngmod
from fillorder.bruteforce import exact_mindeg_bruteforce, greedy_degree_trace
from fillorder.component import ComponentGraph
from fillorder.exact import (
    SketchEnsemble,
    delta_capped_min_degree,
    output_sensitive_min_degree,
)
from fillorder.graph import (
    complete_graph,
    cycle_graph,
    figure_example_graph,
    from_edges,
    path_graph,
)
from fillorder.sketch import DynamicSketch


def test_delta_capped_cycle4_matches_bruteforce():
    r = delta_capped_min_degree(cycle_graph(4), 4, seed=1)
    bf = exact_mindeg_bruteforce(cycle_graph(4))
    assert r.order == bf.order == [0, 1, 2, 3]
    assert r.reported_degree == bf.reported_degree


def test_delta_capped_single_edge():
    r = delta_capped_min_degree(from_edges(2, [(0, 1)]), 1, seed=0)
    assert r.order == [0, 1]
    assert r.reported_degree == [1, 0]


def test_delta_capped_rejects_bad_arguments():
    with pytest.raises(ValueError):
        delta_capped_min_degree(path_graph(3), 0, seed=0)
    with pytest.raises(ValueError):
        delta_capped_min_degree(from_edges(0, []), 1, seed=0)


def test_delta_capped_figure_graph_many_seeds():
    g = figure_example_graph()
    bf = exact_mindeg_bruteforce(g)
    agree = sum(delta_capped_min_degree(g, 7, seed=s).order == bf.order
                for s in range(40))
    assert agree >= 39


def test_delta_capped_reported_degrees_match_truth():
    g = figure_example_graph()
    r = delta_capped_min_degree(g, 7, seed=3)
    pivot_deg, _ = greedy_degree_trace(g, r.order)
    assert r.reported_degree == pivot_deg


def test_output_sensitive_path_never_overdoubles():
    r = output_sensitive_min_degree(path_graph(5), seed=2)
    bf = exact_mindeg_bruteforce(path_graph(5))
    assert r.order == bf.order
    assert r.counters["final_c"] <= 2


def test_output_sensitive_complete_graph():
    r = output_sensitive_min_degree(complete_graph(5), seed=0)
    assert r.order == [0, 1, 2, 3, 4]
    assert r.counters["final_c"] >= 8


def test_output_sensitive_random_agreement(rng):
    agree = 0
    for s in range(10):
        g = gnp(12, 0.3, rng)
        agree += output_sensitive_min_degree(g, seed=s).order == exact_mindeg_bruteforce(g).order
    assert agree >= 9


def test_lexicographic_tie_breaking():
    g = from_edges(4, [(0, 1), (2, 3)])  # two disjoint edges, all ties
    assert delta_capped_min_degree(g, 4, seed=5).order == [0, 1, 2, 3]
    assert output_sensitive_min_degree(g, seed=5).order == [0, 1, 2, 3]


def test_determinism():
    g = gnp(10, 0.4, np.random.default_rng(0))
    a = delta_capped_min_degree(g, 10, seed=77)
    b = delta_capped_min_degree(g, 10, seed=77)
    assert a.key_material() == b.key_material()


def test_doubling_replay_matches_fresh_sketches():
    # copies added mid-run must agree with independently replayed copies
    g = gnp(12, 0.35, np.random.default_rng(3))
    ens = SketchEnsemble(g, seed=9)
    ens.add_copies(2)
    ens.pivot(0)
    ens.pivot(5)
    late = ens.add_copies(2)

    for i in late:
        cg = ComponentGraph(g)
        ref = DynamicSketch(cg, rngmod.substream(9, rngmod.SKETCH_KEYS, i), index=i)
        cg.pivot(0, observers=(ref,))
        ref.finish_pivot()
        cg.pivot(5, observers=(ref,))
        ref.finish_pivot()
        for u in range(12):
            if u in (0, 5):
                continue
            assert ens.minimizers([u])[0, i] == ref.query_min(u)
