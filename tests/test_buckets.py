import math

import numpy as np
import pytest

from conftest import gnp
from fillorder import rng as rngmod
from fillorder.bruteforce import fill_degree_bruteforce
from fillorder.buckets import (
    ApproxDegreeDS,
    mean_of_minima,
    quantile_rank,
    sketch_count,
    static_one_degree_quantiles,
)
from fillorder.graph import complete_graph, from_edges, path_graph, star_graph
from sketch_reference import formula_bucket


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
    before = {u: ds.estimate(u) for u in (0, 1, 2)}
    ds.pivot(3)
    assert {u: ds.estimate(u) for u in (0, 1, 2)} == before


def test_pivot_star_center_leaves_see_full_clique():
    g = star_graph(8)
    ds = ApproxDegreeDS(g, 0.25, seed=2, k=3000)
    ds.pivot(0)
    for leaf in range(1, 9):
        est = 1.0 / ds.estimate(leaf)
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


def test_largest_keys_give_finite_estimates(monkeypatch):
    # every key is 2^64 - 1, whose float value rounds to 1.0
    monkeypatch.setattr(rngmod, "sketch_key_draws",
                        lambda seed, first, count, n: np.full((count, n), 2**64 - 1,
                                                              dtype=np.uint64))
    ds = ApproxDegreeDS(from_edges(3, [(0, 1)]), 0.25, seed=0, k=4)
    assert all(math.isfinite(ds.estimate(u)) for u in range(3))
    ds.pivot(0)
    assert [b for b, _ in ds.report()] == [0]


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
    # Q is the mean of -ln(1 - q) over each row's k minimum key values
    vals = ds.ensemble.min_key_floats(range(5))
    assert [ds.estimate(u) for u in range(5)] == list(np.mean(-np.log1p(-vals), axis=1))


def test_update_cost_proxy(rng):
    g = gnp(25, 0.3, rng)
    eps = 0.5
    ds = ApproxDegreeDS(g, eps, seed=6)
    for v in range(25):
        ds.pivot(v)
    log2n = math.ceil(math.log2(25))
    total_updates = ds.ensemble.sketch_counters()["sketch_updates"]
    assert total_updates <= 50 * g.m * log2n**3 * eps**-2


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("k", [1, 5, 96])
def test_estimate_equals_mean_of_minima_bit_for_bit(k):
    # Q read from the rank -> -ln(1 - draw) table equals the mean of
    # minima of the k minimum key values, before and after pivots
    rng = np.random.default_rng([23, k])
    for trial in range(4):
        g = gnp(40, 0.15, rng)
        ds = ApproxDegreeDS(g, 0.25, seed=trial, k=k)
        remaining = set(range(g.n))
        for v in [None, *rng.permutation(g.n)[:30]]:
            if v is not None:
                ds.pivot(int(v))
                remaining.discard(int(v))
            for u in remaining:
                want = mean_of_minima(ds.ensemble.min_key_floats([u]))[0]
                assert _bits(ds.estimate(u)) == _bits(want)


def test_estimate_of_largest_keys_equals_mean_of_minima(monkeypatch):
    # keys that round to the value 1.0 are read as the largest float below 1
    monkeypatch.setattr(rngmod, "sketch_key_draws",
                        lambda seed, first, count, n: np.full((count, n), 2**64 - 1,
                                                              dtype=np.uint64))
    ds = ApproxDegreeDS(from_edges(3, [(0, 1)]), 0.25, seed=0, k=4)
    for u in range(3):
        assert _bits(ds.estimate(u)) == _bits(mean_of_minima(ds.ensemble.min_key_floats([u]))[0])


# Q is a mean of terms -ln(1 - x) with x >= 2^-64, so Q > 5.4e-20
SMALLEST_Q = 2.0**-64


@pytest.mark.parametrize("eps", [0.5, 0.25, 1 / 64, 1e-3, 2e-4])
def test_table_bucket_ids_match_formula_at_every_power(eps):
    # at each power (1+eps)^-(i+1), one ulp below and one above, the binary
    # search in the table equals the per-row formula; the values come in
    # ascending bucket order, so the table grows many times on the way
    ds = ApproxDegreeDS(path_graph(2), eps, seed=0, k=3)
    base = 1.0 + eps
    last = int(-math.log(SMALLEST_Q) / math.log(base)) + 2
    powers = [base ** -(i + 1) for i in range(min(last, 1 << 16))]
    powers += [base ** -(i + 1) for i in range(max(len(powers), last - 2000), last)]
    qs = np.array(powers)
    qs = np.stack([np.nextafter(qs, 2.0), qs, np.nextafter(qs, 0.0)], axis=1).ravel()
    qs = qs[qs >= SMALLEST_Q]
    sizes = {len(ds._neg_powers)}
    for lo in range(0, len(qs), 4096):
        chunk = qs[lo:lo + 4096]
        got = ds._bucket_ids(chunk).tolist()
        assert got == [formula_bucket(q, eps) for q in chunk.tolist()]
        sizes.add(len(ds._neg_powers))
    assert len(sizes) > 1
    # one value at the smallest Q extends a fresh table in one call
    fresh = ApproxDegreeDS(path_graph(2), eps, seed=0, k=3)
    assert fresh._bucket_ids(np.array([SMALLEST_Q])).tolist() == \
        [formula_bucket(SMALLEST_Q, eps)]


def test_bucket_ids_of_large_q_are_zero():
    ds = ApproxDegreeDS(path_graph(2), 0.25, seed=0, k=3)
    qs = np.array([1 / 1.25, 1.0, 3.0, 44.0])
    assert ds._bucket_ids(qs).tolist() == [formula_bucket(q, 0.25) for q in qs] == [0] * 4
    assert ds._bucket_ids(np.empty(0)).tolist() == []
