import math

import numpy as np
import pytest

from fillorder.bruteforce import exact_mindeg_bruteforce, fill_graph_bruteforce
from fillorder.generators import (
    adversary_demo,
    covering_set_system,
    gnp_graph,
    grid2d_graph,
    next_prime,
    ov_hard_graph,
    random_ov_instance,
)
from fillorder.graph import from_edges


def test_next_prime():
    assert next_prime(2) == 2
    assert next_prime(4) == 5
    assert next_prime(10) == 11
    assert next_prime(31) == 31


def pairs_covered(cs) -> bool:
    seen = set()
    for sub in cs.subsets:
        for a in sub:
            for b in sub:
                seen.add((a, b))
    return seen == {(a, b) for a in range(1, cs.n + 1) for b in range(1, cs.n + 1)}


def test_covering_n1():
    cs = covering_set_system(1)
    assert pairs_covered(cs)


def test_covering_n4_structure():
    cs = covering_set_system(4)
    assert len(cs.subsets) == 6  # four diagonals, two rows
    assert all(len(s) <= 2 for s in cs.subsets)
    assert pairs_covered(cs)


def test_covering_n100_bounds():
    cs = covering_set_system(100)
    p = 11
    assert len(cs.subsets) <= p * p + p
    assert all(len(s) <= 10 * math.sqrt(100) for s in cs.subsets)
    assert pairs_covered(cs)


def test_covering_rejects_nonpositive():
    with pytest.raises(ValueError):
        covering_set_system(0)


def test_ov_graph_single_vector_sizes():
    g, parts = ov_hard_graph([(1,)])
    assert len(parts["vec"]) == 1
    assert len(parts["pad"]) == 20
    assert g.n == 1 + len(parts["dim"]) + 20


def test_ov_graph_orthogonal_pair_detectable():
    g, parts = ov_hard_graph([(1, 0), (0, 1)])
    fill = fill_graph_bruteforce(g, parts["dim"])
    u, v = parts["vec"]
    assert v not in fill[u]
    n = len(parts["vec"])
    min_deg = min(len(nbrs) for nbrs in fill.values())
    assert min_deg < 20 * math.ceil(math.sqrt(n)) + n - 1


def test_ov_graph_nonorthogonal_pair_adjacent():
    g, parts = ov_hard_graph([(1, 1), (1, 0)])
    fill = fill_graph_bruteforce(g, parts["dim"])
    u, v = parts["vec"]
    assert v in fill[u]


def test_ov_mindeg_eliminates_dim_first():
    vectors = random_ov_instance(5, 3, 0.5, seed=2)
    g, parts = ov_hard_graph(vectors)
    r = exact_mindeg_bruteforce(g)
    pos = {v: i for i, v in enumerate(r.order)}
    assert max(pos[v] for v in parts["dim"]) < min(
        pos[v] for v in parts["vec"] + parts["pad"])


def test_grid2d():
    g = grid2d_graph(9)
    assert g.n == 9 and g.m == 12
    with pytest.raises(ValueError):
        grid2d_graph(10)


def test_gnp_empty_and_count():
    rng = np.random.default_rng(0)
    assert gnp_graph(10, 0.0, rng).m == 0
    ms = [gnp_graph(100, 0.1, np.random.default_rng(s)).m for s in range(30)]
    mean, sd = 495, math.sqrt(4950 * 0.1 * 0.9)
    assert abs(np.mean(ms) - mean) <= 3 * sd / math.sqrt(len(ms)) + 1


def _gnp_dense_loop(n: int, p: float, rng):
    """The dense branch as a Python double loop over the pairs."""
    mask = rng.random(n * (n - 1) // 2) < p
    edges = []
    t = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask[t]:
                edges.append((u, v))
            t += 1
    return from_edges(n, edges)


def test_gnp_dense_branch_matches_double_loop():
    cases = [(2000, 0.003), (2, 1.0), (3, 0.5), (60, 0.0)]
    cases += [(int(n), float(p)) for n, p in zip(np.random.default_rng(4).integers(2, 400, 60),
                                                  np.random.default_rng(5).uniform(0.0, 1.0, 60))]
    for seed, (n, p) in enumerate(cases):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = gnp_graph(n, p, got_rng), _gnp_dense_loop(n, p, want_rng)
        assert (got.n, got.adj) == (want.n, want.adj)
        assert all(type(w) is int for nbrs in got.adj for w in nbrs)
        # the generator's later state is the same too
        assert got_rng.random() == want_rng.random()


def test_gnp_sparse_path_matches_density():
    g = gnp_graph(5000, 0.0008, np.random.default_rng(1))
    expect = 5000 * 4999 / 2 * 0.0008
    assert abs(g.m - expect) <= 4 * math.sqrt(expect)


def test_adversary_fixed_recovers_secret():
    for s in range(5):
        rep = adversary_demo(256, 0.5, "fixed", s)
        assert rep["recovered_fraction"] == 1.0
        assert rep["final_size"] == rep["t_size"]


def test_adversary_fresh_keeps_set_large():
    rep = adversary_demo(4096, 0.5, "fresh", 0)
    assert rep["final_size"] >= 4096 - 10 * rep["t_size"]


def test_adversary_rejects_small_n():
    with pytest.raises(ValueError):
        adversary_demo(8, 0.5, "fixed", 0)


def test_adversary_rejects_sample_larger_than_n():
    # T takes ceil(log2 n / eps^2) distinct elements: 600 > 64 here
    with pytest.raises(ValueError, match="epsilon"):
        adversary_demo(64, 0.1, "fixed", 0)


def test_adversary_t_size_guard():
    # degenerate parameters still produce a nonempty secret sample
    rep = adversary_demo(16, 0.5, "fixed", 0)
    assert rep["t_size"] >= 1
