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
from fillorder.generators import grid2d_graph
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


# key_material() of both drivers, recorded before the two drivers were
# folded into one loop: order, reported degrees and every counter
PINNED_INSTANCES = {
    "gnp14": (lambda: gnp(14, 0.35, np.random.default_rng(3)), 6, 11),
    "grid4x4": (lambda: grid2d_graph(16), 4, 12),
    "figure": (figure_example_graph, 3, 13),
}
PINNED_RUNS = [
    ("gnp14", "delta-capped",
     [3, 7, 13, 4, 2, 11, 5, 8, 0, 1, 6, 9, 10, 12],
     [2, 2, 2, 3, 4, 4, 5, 5, 5, 4, 3, 2, 1, 0],
     {"k": 280, "sketch_changed_total": 2894, "sketch_informs": 11760,
      "sketch_melds": 3640, "sketch_pivots": 3920, "sketch_updates": 26984}),
    ("gnp14", "output-sensitive",
     [3, 7, 13, 4, 2, 11, 5, 8, 0, 1, 6, 9, 10, 12],
     [2, 2, 2, 3, 4, 4, 5, 5, 5, 4, 3, 2, 1, 0],
     {"doublings": 3, "final_c": 16, "k": 640, "sketch_changed_total": 4748,
      "sketch_informs": 20480, "sketch_melds": 8320, "sketch_pivots": 8960,
      "sketch_updates": 48895}),
    ("grid4x4", "delta-capped",
     [0, 3, 12, 15, 1, 4, 7, 13, 2, 5, 6, 8, 9, 10, 11, 14],
     [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 3, 2, 1, 0],
     {"k": 200, "sketch_changed_total": 2877, "sketch_informs": 8400,
      "sketch_melds": 3000, "sketch_pivots": 3200, "sketch_updates": 17729}),
    ("grid4x4", "output-sensitive",
     [0, 3, 12, 15, 1, 4, 7, 13, 2, 5, 6, 8, 9, 10, 11, 14],
     [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 3, 2, 1, 0],
     {"doublings": 2, "final_c": 8, "k": 320, "sketch_changed_total": 4100,
      "sketch_informs": 12160, "sketch_melds": 4800, "sketch_pivots": 5120,
      "sketch_updates": 25788}),
    ("figure", "delta-capped",
     [2, 3, 5, 4, 0, 1, 6], [1, 1, 1, 1, 2, 1, 0],
     {"k": 120, "sketch_changed_total": 263, "sketch_informs": 840,
      "sketch_melds": 720, "sketch_pivots": 840, "sketch_updates": 1958}),
    ("figure", "output-sensitive",
     [2, 3, 5, 4, 0, 1, 6], [1, 1, 1, 1, 2, 1, 0],
     {"doublings": 2, "final_c": 4, "k": 120, "sketch_changed_total": 192,
      "sketch_informs": 600, "sketch_melds": 720, "sketch_pivots": 840,
      "sketch_updates": 1434}),
]


@pytest.mark.parametrize("instance,algorithm,order,reported,counters", PINNED_RUNS)
def test_exact_drivers_pinned_key_material(instance, algorithm, order, reported,
                                           counters):
    make, delta, seed = PINNED_INSTANCES[instance]
    g = make()
    if algorithm == "delta-capped":
        r = delta_capped_min_degree(g, delta, seed)
    else:
        r = output_sensitive_min_degree(g, seed)
    assert r.key_material() == (tuple(order), tuple(reported), algorithm, seed,
                                tuple(sorted(counters.items())))
