import math

import numpy as np
import pytest

from conftest import gnp
from fillorder.bruteforce import fill_degree_bruteforce
from fillorder.buckets import (
    ApproxDegreeDS,
    quantile_rank,
    sketch_count,
    static_one_degree_quantiles,
)
from fillorder.graph import complete_graph, from_edges, path_graph, star_graph


def bucket_of(q: float, eps: float) -> int:
    i = 0
    while (1 + eps) ** -(i + 1) > q:
        i += 1
    return i


def test_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        ApproxDegreeDS(path_graph(3), 0.6, seed=0)
    with pytest.raises(ValueError):
        ApproxDegreeDS(path_graph(3), 0.0, seed=0)


def test_single_vertex_single_bucket():
    ds = ApproxDegreeDS(from_edges(1, []), 0.25, seed=0)
    rep = ds.report()
    assert len(rep) == 1 and rep[0][1] == [0]


def test_complete_graph_shares_one_bucket():
    ds = ApproxDegreeDS(complete_graph(20), 0.3, seed=3)
    rep = ds.report()
    assert len(rep) == 1
    b, members = rep[0]
    assert sorted(members) == list(range(20))
    lo = (1 + ds.eps) ** (b - 2)
    hi = (1 + ds.eps) ** (b + 2)
    assert lo <= 20 <= hi


def test_star_center_and_leaf_buckets_static():
    # 1-degrees: center 51, leaves 2; quantile ranges must cover them
    g = star_graph(50)
    eps = 0.25
    hits_center = hits_leaf = 0
    seeds = 30
    for s in range(seeds):
        q = static_one_degree_quantiles(g, eps, seed=s)
        ic = bucket_of(q[0], eps)
        il = bucket_of(q[1], eps)
        hits_center += (1 + eps) ** (ic - 2) <= 51 <= (1 + eps) ** (ic + 2)
        hits_leaf += (1 + eps) ** (il - 2) <= 2 <= (1 + eps) ** (il + 2)
    assert hits_center >= 0.95 * seeds
    assert hits_leaf >= 0.95 * seeds


def test_pivot_isolated_vertex_changes_no_quantiles():
    g = from_edges(4, [(0, 1)])
    ds = ApproxDegreeDS(g, 0.25, seed=1, k=400)
    before = {u: ds.quantile(u) for u in (0, 1, 2)}
    ds.pivot(3)
    assert {u: ds.quantile(u) for u in (0, 1, 2)} == before


def test_pivot_star_center_leaves_see_full_clique():
    g = star_graph(8)
    ds = ApproxDegreeDS(g, 0.25, seed=2, k=3000)
    ds.pivot(0)
    for leaf in range(1, 9):
        est = 1.0 / ds.quantile(leaf)
        assert abs(est - 8) / 8 < 0.45, (leaf, est)


def test_bucket_membership_tracks_true_degrees(rng):
    g = gnp(30, 0.3, rng)
    eps = 0.5
    ds = ApproxDegreeDS(g, eps, seed=4, k=1000)
    eliminated: list[int] = []
    order = [int(v) for v in rng.permutation(30)[:15]]
    checked = ok = 0
    for v in order:
        ds.pivot(v)
        eliminated.append(v)
        rep = ds.report()
        seen = []
        for b, members in rep:
            for u in members:
                seen.append(u)
                deg1 = fill_degree_bruteforce(g, eliminated, u) + 1
                checked += 1
                ok += (1 + eps) ** (b - 2) <= deg1 <= (1 + eps) ** (b + 2)
        assert sorted(seen) == sorted(set(range(30)) - set(eliminated))
    assert ok >= 0.9 * checked


def test_report_rejects_empty_graph_state():
    ds = ApproxDegreeDS(from_edges(1, []), 0.25, seed=0)
    ds.pivot(0)
    with pytest.raises(ValueError):
        ds.report()


def test_zero_copies_is_a_clear_error():
    g = path_graph(4)
    with pytest.raises(ValueError, match="k must be at least 1"):
        quantile_rank(0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        ApproxDegreeDS(g, 0.25, 0, k=0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        static_one_degree_quantiles(g, 0.25, 0, k=0)


def test_quantile_accuracy_k41():
    # vertices with deg+1 = 41 > 2/eps: Q in (1 +/- eps)/41
    g = complete_graph(41)
    eps = 0.1
    good = 0
    for s in range(20):
        q = static_one_degree_quantiles(g, eps, seed=s)
        good += np.all((q >= (1 - eps) / 41) & (q <= (1 + eps) / 41))
    assert good >= 19


def test_single_vertex_quantile_concentrates_at_quantile_fraction():
    # an isolated vertex is always its own minimizer, so 1/Q concentrates at
    # e/(e-1), not 1; the reciprocal-quantile rule needs larger degrees
    g = from_edges(1, [])
    ests = [1.0 / static_one_degree_quantiles(g, 0.25, seed=s)[0] for s in range(30)]
    assert abs(np.mean(ests) - math.e / (math.e - 1)) < 0.12


def test_dynamic_matches_formula_k():
    ds = ApproxDegreeDS(path_graph(5), 0.5, seed=0)
    assert ds.k == sketch_count(5, 0.5) == 50 * math.ceil(math.log2(5) * 4)
    assert ds.rank == quantile_rank(ds.k)


def test_update_cost_proxy(rng):
    g = gnp(25, 0.3, rng)
    eps = 0.5
    ds = ApproxDegreeDS(g, eps, seed=6)
    for v in range(25):
        ds.pivot(v)
    log2n = math.ceil(math.log2(25))
    total_updates = ds.ensemble.sketch_counters()["sketch_updates"]
    assert total_updates <= 50 * g.m * log2n**3 * eps**-2
