import math

import numpy as np
import pytest

from conftest import gnp
from fillorder.bruteforce import greedy_degree_trace
from fillorder.generators import grid2d_graph
from fillorder.graph import complete_graph, path_graph
from fillorder.ordering import (
    approx_min_degree_sequence,
    decay_scale,
    exp_decayed_candidates,
    sample_decreasing_exponentials,
)


def kolmogorov_pvalue(d: float, n: int) -> float:
    """Asymptotic two-sided Kolmogorov-Smirnov p-value."""
    x = d * math.sqrt(n)
    if x < 1e-9:
        return 1.0
    return max(0.0, min(1.0, 2 * sum(
        (-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 101))))


def ks_test_against_cdf(samples, cdf) -> float:
    xs = np.sort(samples)
    n = len(xs)
    cs = np.array([cdf(x) for x in xs])
    ranks = np.arange(1, n + 1) / n
    d = max(np.max(np.abs(cs - ranks)), np.max(np.abs(cs - (ranks - 1 / n))))
    return kolmogorov_pvalue(d, n)


def test_sampler_rejects_bad_k():
    with pytest.raises(ValueError):
        sample_decreasing_exponentials(0, 1.0, np.random.default_rng(0))


def test_sampler_k1_is_unit_exponential():
    rng = np.random.default_rng(1)
    samples = [sample_decreasing_exponentials(1, 8.0, rng)[0] for _ in range(4000)]
    p = ks_test_against_cdf(samples, lambda x: 1 - math.exp(-x))
    assert p > 0.01, p


def test_sampler_tiny_window_returns_single_value():
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert len(sample_decreasing_exponentials(50, 1e-12, rng)) == 1


def test_sampler_top_statistic_distribution_and_length():
    for k in (10, 1000):
        rng = np.random.default_rng(k)
        tops = [sample_decreasing_exponentials(k, 8.0, rng)[0] for _ in range(4000)]
        p = ks_test_against_cdf(tops, lambda x: (1 - math.exp(-x)) ** k)
        assert p > 0.01, (k, p)
    rng = np.random.default_rng(3)
    lens = [len(sample_decreasing_exponentials(1000, 8.0, rng)) for _ in range(2000)]
    assert np.mean(lens) <= math.e**8 + 3 * np.std(lens) / math.sqrt(len(lens))


def test_sampler_output_strictly_decreasing():
    rng = np.random.default_rng(4)
    for _ in range(100):
        xs = sample_decreasing_exponentials(40, 5.0, rng)
        assert all(a > b for a, b in zip(xs, xs[1:]))


def test_candidates_empty_and_singleton():
    rng = np.random.default_rng(5)
    assert exp_decayed_candidates([], 0.01, 3, rng) == []
    singles = [exp_decayed_candidates([42], 1.0, 3, np.random.default_rng([6, t]))
               for t in range(3000)]
    assert all(len(c) == 1 and c[0].vertex == 42 and c[0].bucket == 3 for c in singles)
    deltas = [c[0].delta for c in singles]
    p = ks_test_against_cdf(deltas, lambda x: 1 - math.exp(-x))
    assert p > 0.01, p


def test_candidates_are_distinct_members():
    rng = np.random.default_rng(7)
    members = list(range(100, 130))
    for _ in range(200):
        cands = exp_decayed_candidates(members, 0.01, 0, rng, c2=2.0)
        picked = [c.vertex for c in cands]
        assert len(set(picked)) == len(picked)
        assert set(picked) <= set(members)


def test_decayed_minimum_always_among_candidates():
    # no unreturned member can beat the returned ones: unreturned decay
    # factors lie below the sampling window's edge (max delta - c2*eps_hat)
    eps_hat = 1 / 64
    c2 = 8.0
    failures = 0
    for t in range(2000):
        rng = np.random.default_rng([8, t])
        s = int(rng.integers(1, 40))
        lo = rng.random() + 0.5
        values = lo * (1 + c2 * eps_hat * rng.random(s))  # within the window
        members = list(range(s))
        cands = exp_decayed_candidates(members, eps_hat, 0, rng, c2=c2)
        got = min((1 - c.delta) * values[c.vertex] for c in cands)
        edge = max(c.delta for c in cands) - c2 * eps_hat
        rest = set(members) - {c.vertex for c in cands}
        bound = min(((1 - edge) * values[v] for v in rest), default=np.inf)
        failures += not (got <= bound * (1 + 1e-12))
    assert failures == 0


def test_mean_candidate_count_bound():
    rng = np.random.default_rng(9)
    counts = [len(exp_decayed_candidates(list(range(200)), 0.01, 0, rng, c2=2.0))
              for _ in range(3000)]
    assert np.mean(counts) <= math.e**2 + 3 * np.std(counts) / math.sqrt(len(counts))


def test_decay_distortion_bound():
    # decayed minimum >= (1 - eps) * true minimum nearly always
    n = 1024
    eps = 0.25
    eps_hat = eps / (2 * math.log2(n))
    rng = np.random.default_rng(10)
    bad = 0
    trials = 10_000
    for _ in range(trials):
        values = rng.random(64) + 0.5
        deltas = eps_hat * rng.exponential(size=64)
        bad += np.min((1 - deltas) * values) < (1 - eps) * values.min()
    assert bad / trials <= 0.002


def test_memorylessness_of_exponentials():
    rng = np.random.default_rng(11)
    xs = rng.exponential(size=10**6)
    s = t = 0.5
    p_cond = np.mean(xs[xs > s] > s + t)
    p_plain = np.mean(xs > t)
    stderr = math.sqrt(p_plain * (1 - p_plain) / (xs > s).sum())
    assert abs(p_cond - p_plain) <= 4 * stderr


def test_complete_graph_trivially_approximate():
    r = approx_min_degree_sequence(complete_graph(8), 0.5, 1)
    pd, md = greedy_degree_trace(complete_graph(8), r.order)
    assert pd == md


def test_path_quality_many_seeds():
    g = path_graph(6)
    good = 0
    for s in range(40):
        r = approx_min_degree_sequence(g, 0.5, s)
        pd, md = greedy_degree_trace(g, r.order)
        good += all(p <= 1.5 * m for p, m in zip(pd, md))
    assert good >= 38


def test_random_graph_quality(rng):
    g = gnp(40, 0.2, rng)
    good = 0
    for s in range(15):
        r = approx_min_degree_sequence(g, 0.5, s)
        pd, md = greedy_degree_trace(g, r.order)
        good += all(p <= 1.5 * m for p, m in zip(pd, md))
    assert good >= 14


def test_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        approx_min_degree_sequence(path_graph(4), 0.75, 0)


def test_determinism_byte_for_byte(rng):
    g = gnp(25, 0.25, rng)
    a = approx_min_degree_sequence(g, 0.5, 99)
    b = approx_min_degree_sequence(g, 0.5, 99)
    assert a.key_material() == b.key_material()


def test_eval_count_tripwire(rng):
    g = gnp(40, 0.2, rng)
    r = approx_min_degree_sequence(g, 0.5, 5)
    evals = r.counters["exact_evals"]
    assert evals / g.n <= 10_000
    assert evals / g.n <= 50  # empirical regression tripwire


@pytest.mark.parametrize("make", [
    lambda: gnp(40, 0.2, np.random.default_rng(1)),
    lambda: gnp(60, 0.1, np.random.default_rng(2)),
    lambda: gnp(50, 0.3, np.random.default_rng(3)),
    lambda: grid2d_graph(64),
], ids=["gnp40", "gnp60", "gnp50-dense", "grid8x8"])
def test_reported_degrees_are_exact_fill_degrees(make):
    # `fillorder order` sums these degrees for total_fill without a replay
    g = make()
    for seed in (0, 7):
        r = approx_min_degree_sequence(g, 0.5, seed)
        assert r.reported_degree == greedy_degree_trace(g, r.order)[0]


def test_trim_keeps_exact_degree_minimizer(rng):
    # with accurate labels (boosted copy count), the candidate minimizing
    # (1 - delta) * exact fill 1-degree survives the trim
    from fillorder import rng as rngmod
    from fillorder.buckets import ApproxDegreeDS

    g = gnp(18, 0.3, rng)
    eps = 0.5
    eps_hat = decay_scale(eps, g.n)
    seed = 17
    ds = ApproxDegreeDS(g, eps_hat, seed, k=3000)
    base = 1 + eps_hat
    for t in range(g.n - 1):
        rep = ds.report()
        candidates = []
        for view in rep:
            crng = rngmod.substream(seed, rngmod.CANDIDATES, t, view.bucket_id)
            candidates.extend(exp_decayed_candidates(view, eps_hat, view.bucket_id,
                                                     crng, c2=8.0))
        trim_value = {id(c): (1 - c.delta) * base**c.bucket for c in candidates}
        threshold = base**7 * min(trim_value.values())
        survivors = [c for c in candidates
                     if c.bucket == 0 or trim_value[id(c)] <= threshold]
        exact = {c.vertex: ds.cgraph.fill_degree_exact(c.vertex) + 1 for c in candidates}
        best = min(candidates, key=lambda c: ((1 - c.delta) * exact[c.vertex], c.vertex))
        assert any(s.vertex == best.vertex and s.delta == best.delta for s in survivors)
        ds.pivot(best.vertex)
