import math

import numpy as np
import pytest

from colcount_reference import (
    OneAtATimeInverseColumnSum,
    column,
    ks_critical,
    ks_statistic,
    probe_column_sum,
    probe_hit_times,
)
from conftest import random_elimination_state
from fillorder import colcount
from fillorder.colcount import (
    DEFAULT_MAX_DRAWS,
    BernoulliDistribution,
    ConstantDistribution,
    DenseOracle,
    DrawBudgetExceeded,
    FillNeighborhoodOracle,
    approx_column_sum,
    estimate_fill_1degree,
    estimate_mean,
    estimate_nonzero_columns,
    estimate_nonzero_columns_slow,
)
from fillorder.component import ComponentGraph
from fillorder.graph import figure_example_graph


def fig_component_graph():
    cg = ComponentGraph(figure_example_graph())
    cg.pivot(4)
    cg.pivot(6)
    return cg


def test_estimate_mean_constant_distributions(rng):
    assert estimate_mean(ConstantDistribution(1.0), 10, rng) == 1.0
    assert estimate_mean(ConstantDistribution(0.5), 10, rng) == 0.5


def test_estimate_mean_bernoulli_concentration():
    sigma = 5 * 0.2**-2 * math.log(100)
    hits = 0
    for t in range(100):
        est = estimate_mean(BernoulliDistribution(0.3), sigma, np.random.default_rng([1, t]))
        hits += abs(est - 0.3) <= 0.2 * 0.3
    assert hits >= 98


def test_estimate_mean_budget_error():
    with pytest.raises(DrawBudgetExceeded):
        estimate_mean(ConstantDistribution(0.0), 5, np.random.default_rng(0), max_draws=1000)


def test_estimate_mean_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        estimate_mean(ConstantDistribution(1.5), 5, np.random.default_rng(0))


def test_column_sum_all_ones_exact():
    # integral sigma: draws are all 1, so the counter is exactly sigma
    a = np.ones((10, 3), dtype=bool)
    est = approx_column_sum(DenseOracle(a), 0, 0.5, math.exp(-5), np.random.default_rng(0))
    assert est == 10.0


def test_column_sum_single_nonzero():
    a = np.zeros((20, 2), dtype=bool)
    a[7, 0] = True
    hits = 0
    for t in range(100):
        est = approx_column_sum(DenseOracle(a), 0, 0.25, 0.01, np.random.default_rng([2, t]))
        hits += 0.75 <= est <= 1.25
    assert hits >= 98


def test_column_sum_query_accounting():
    # expected draws ~ sigma * r / columnsum (batched prediction may add a
    # small constant overshoot)
    a = np.zeros((10, 1), dtype=bool)
    a[:5, 0] = True
    sigma = 5 * 0.5**-2 * math.log(1 / 0.01)
    draws = []
    for t in range(50):
        o = DenseOracle(a)
        approx_column_sum(o, 0, 0.5, 0.01, np.random.default_rng([3, t]))
        draws.append(o.queries)
    expected = sigma * 10 / 5
    assert 0.9 * expected <= np.mean(draws) <= 1.5 * expected


def test_zero_column_raises_budget_error():
    a = np.array([[1, 0], [1, 0]], dtype=bool)
    with pytest.raises(DrawBudgetExceeded):
        approx_column_sum(DenseOracle(a), 1, 0.5, 0.01, np.random.default_rng(0),
                          max_draws=5000)


def test_slow_estimator_identity():
    a = np.eye(5, dtype=bool)
    hits = 0
    for t in range(60):
        est = estimate_nonzero_columns_slow(DenseOracle(a), 0.2, np.random.default_rng([4, t]))
        hits += 4 <= est <= 6
    assert hits >= 58


def test_slow_estimator_identity_straddles_true_count():
    # the draw min(1, (1 - eps) / c_hat) clamps only when c_hat misses its
    # (1 +/- eps) bound, so estimates on the identity fall on both sides of
    # 50; a clamp at 1 / c_hat cut the upper half of the noise, and every
    # one of these trials fell below 50
    a = np.eye(50, dtype=bool)
    ests = [estimate_nonzero_columns_slow(DenseOracle(a), 0.2, np.random.default_rng([45, t]))
            for t in range(20)]
    assert min(ests) < 50 < max(ests)


def test_slow_estimator_single_row():
    a = np.ones((1, 8), dtype=bool)
    for t in range(10):
        est = estimate_nonzero_columns_slow(DenseOracle(a), 0.25, np.random.default_rng([5, t]))
        assert 0.75 * 8 <= est <= 1.25 * 8


def test_slow_estimator_single_entry():
    a = np.zeros((3, 4), dtype=bool)
    a[1, 2] = True
    est = estimate_nonzero_columns_slow(DenseOracle(a), 0.25, np.random.default_rng(6))
    assert abs(est - 1.0) < 0.3


def test_fast_estimator_all_ones_near_exact():
    a = np.ones((4, 8), dtype=bool)
    est = estimate_nonzero_columns(DenseOracle(a), 0.5, np.random.default_rng(7))
    assert abs(est - 8.0) <= 8e-3  # exact up to cumsum rounding


def test_fast_estimator_identity10():
    a = np.eye(10, dtype=bool)
    hits = 0
    for t in range(100):
        est = estimate_nonzero_columns(DenseOracle(a), 0.2, np.random.default_rng([8, t]))
        hits += 8 <= est <= 12
    assert hits >= 95


def test_fast_estimator_figure_matrix():
    # rows {v1,v2,v3} and {v1,v2,v4,v6}: five nonzero columns
    cg = fig_component_graph()
    oracle = FillNeighborhoodOracle(cg, 1)
    assert oracle.r == 2 and oracle.nnz == 7
    hits = 0
    for t in range(60):
        o = FillNeighborhoodOracle(cg, 1)
        est = estimate_nonzero_columns(o, 0.25, np.random.default_rng([9, t]))
        hits += 0.75 * 5 <= est <= 1.25 * 5
    assert hits >= 57


def test_fill_degree_estimate_isolated_vertex():
    cg = ComponentGraph(figure_example_graph())
    for v in (0, 2, 3, 4, 5, 6):
        cg.pivot(v)
    est = estimate_fill_1degree(cg, 1, 0.5, np.random.default_rng(10))
    # deterministic up to the stopping counter's ceiling of sigma * lim
    assert abs(est - 1.0) <= 5e-3


def test_fill_degree_estimate_figure_vertices():
    hits = 0
    for t in range(100):
        cg = fig_component_graph()
        est = estimate_fill_1degree(cg, 1, 0.25, np.random.default_rng([11, t]))
        hits += 0.75 * 5 <= est <= 1.25 * 5
    assert hits >= 99
    cg = fig_component_graph()
    est = estimate_fill_1degree(cg, 2, 0.25, np.random.default_rng(12))
    assert 0.75 * 2 <= est <= 1.25 * 2


@pytest.mark.parametrize("eps", [0.0, -0.5])
def test_estimators_reject_nonpositive_epsilon(eps):
    o = DenseOracle(np.eye(4, dtype=bool))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="eps"):
        estimate_fill_1degree(fig_component_graph(), 1, eps, rng)
    with pytest.raises(ValueError, match="eps"):
        estimate_nonzero_columns(o, eps, rng)
    with pytest.raises(ValueError, match="eps"):
        estimate_nonzero_columns_slow(o, eps, rng)
    with pytest.raises(ValueError, match="eps"):
        approx_column_sum(o, 0, eps, 0.01, rng)


@pytest.mark.parametrize("eps", [1.0, 1.5])
def test_slow_estimator_rejects_epsilon_of_one_or_more(eps):
    # (1 - eps) / c_hat would be at most 0: the stopping rule never triggers
    with pytest.raises(ValueError, match="eps"):
        estimate_nonzero_columns_slow(DenseOracle(np.eye(4, dtype=bool)), eps,
                                      np.random.default_rng(0))


def test_fill_degree_estimate_rejects_eliminated():
    cg = fig_component_graph()
    with pytest.raises(ValueError):
        estimate_fill_1degree(cg, 4, 0.25, np.random.default_rng(0))


def test_unbiasedness_with_exact_column_sums():
    # mean of 1/columnsum over uniform nonzeros equals NZC/nnz
    rng = np.random.default_rng(13)
    a = (rng.random((6, 9)) < 0.4)
    a[:, 0] = False
    nnz = int(a.sum())
    colsum = a.sum(axis=0)
    nzc = int((colsum > 0).sum())
    rows, cols = np.nonzero(a)
    draws = 10**6
    picks = rng.integers(0, nnz, size=draws)
    vals = 1.0 / colsum[cols[picks]]
    stderr = vals.std() / math.sqrt(draws)
    assert abs(vals.mean() - nzc / nnz) <= 3 * stderr


def test_truncation_bias_bound():
    # empirical mean of the capped hitting-time distribution stays within
    # 1/n relative of r*NZC/(lim*nnz) plus sampling error
    rng = np.random.default_rng(14)
    n = 32
    a = (rng.random((8, n)) < 0.35)
    a[0, :] |= ~a.any(axis=0)  # every column nonzero
    o = DenseOracle(a)
    lim = 10 * o.r * math.ceil(math.log(n))
    nnz = int(a.sum())
    nzc = n
    draws = 200_000
    js = o.sample_nonzero_batch(rng, draws)
    counters = o.hit_times_batch(js, lim, rng)
    vals = counters / lim
    target = o.r * nzc / (lim * nnz)
    stderr = vals.std() / math.sqrt(draws)
    assert abs(vals.mean() - target) <= target / n + 3 * stderr


def test_query_accounting_per_call(rng):
    # below n ~ 8 the log^2 factor is too small to absorb the sampler
    # constants, so the accounting bound is checked on non-degenerate sizes
    for _ in range(25):
        g, eliminated, u = random_elimination_state(rng, n_max=16, n_min=8)
        cg = ComponentGraph(g)
        for v in eliminated:
            cg.pivot(v)
        o = FillNeighborhoodOracle(cg, u)
        estimate_nonzero_columns(o, 0.25, np.random.default_rng(1))
        # row count is deg+1 (the vertex's own row), hence the +1; the
        # additive term covers setup queries and batch-prediction overshoot,
        # which the multiplicative constant cannot absorb at degree zero
        bound = 100 * (g.degree(u) + 1) * math.ceil(math.log2(g.n)) ** 2 * 0.25**-2
        assert o.queries <= bound + 2048, (g.n, g.degree(u), o.queries, bound)


def test_row_layout_of_fill_neighborhood_oracle():
    cg = fig_component_graph()
    o = FillNeighborhoodOracle(cg, 1)
    # row 0: closed remaining neighborhood of v2; row 1: the merged component
    assert o.r == 2
    assert list(o.cols[o._flat_cols]) == [0, 1, 2] + [0, 1, 3, 5]


def test_fill_neighborhood_oracle_matches_dense_oracle_on_independent_rows(rng):
    # the oracle's rows, rebuilt from the component graph's neighbourhood
    # queries alone, give a DenseOracle with the same estimate and query count
    for trial in range(30):
        g, eliminated, u = random_elimination_state(rng)
        cg = ComponentGraph(g)
        for v in eliminated:
            cg.pivot(v)
        rows = [set(cg.remaining_neighbors(u)) | {u}]
        rows += [set(cg.remaining_neighbors(x)) for x in cg.component_neighbors(u)]
        cols = sorted(set().union(*rows))
        dense = DenseOracle([[c in row for c in cols] for row in rows], n_ref=g.n)
        o = FillNeighborhoodOracle(cg, u)
        got = estimate_nonzero_columns(o, 0.5, np.random.default_rng(trial))
        want = estimate_nonzero_columns(dense, 0.5, np.random.default_rng(trial))
        assert got == want
        assert o.queries == dense.queries


# -- the simulated probe process against row-by-row probing ----------------


def _within_sampling_error(x: np.ndarray, y: np.ndarray, z: float = 4.0) -> bool:
    se = math.sqrt(x.var() / len(x) + y.var() / len(y))
    return abs(x.mean() - y.mean()) <= z * se


@pytest.mark.parametrize("r, sums, lim", [
    (20, (1, 5, 0), 30),  # p = 0.05 reaches the cap in ~23% of draws
    (10, (3, 10), 4),     # p = 0.3 in ~34%; a full column hits at once
    (40, (10, 1), 8),     # p = 0.25 in ~13%, p = 0.025 in ~84%
])
def test_hit_times_match_probing_loop(r, sums, lim):
    a = np.zeros((r, len(sums)), dtype=bool)
    for j, c in enumerate(sums):
        a[:c, j] = True
    draws = 20_000
    js = np.random.default_rng([15, r]).integers(0, len(sums), size=draws)
    o = DenseOracle(a)
    got = o.hit_times_batch(js, lim, np.random.default_rng([16, r]))
    want = probe_hit_times(a, js, lim, np.random.default_rng([17, r]))
    assert o.queries == got.sum()
    assert got.min() >= 1 and got.max() <= lim
    for j, c in enumerate(sums):
        g, w = got[js == j], want[js == j]
        assert ks_statistic(g, w) <= ks_critical(len(g), len(w)), (j, c)
        if c == 0:
            assert (g == lim).all()
        elif c < r:
            assert (g == lim).any() and (g < lim).any()
    assert _within_sampling_error(got, want)


@pytest.mark.parametrize("r, c, eps, delta", [
    (4, 3, 1.0, 0.5),    # sigma 3.47: 4 hits at p = 0.75
    (10, 1, 1.0, 0.5),   # 4 hits at p = 0.1
    (5, 5, 0.8, 0.3),    # a full column: always ceil(sigma) = 10 probes
    (20, 7, 0.5, 0.2),   # sigma 32.2: 33 hits at p = 0.35
])
def test_column_sum_stopping_counts_match_bernoulli_rule(r, c, eps, delta):
    a = column(r, c)
    sigma = 5.0 * eps**-2 * math.log(1.0 / delta)
    trials = 3000
    got, want = [], []
    rng_new = np.random.default_rng([18, r, c])
    rng_ref = np.random.default_rng([19, r, c])
    for _ in range(trials):
        o = DenseOracle(a)
        est = approx_column_sum(o, 0, eps, delta, rng_new)
        assert est == r * sigma / o.queries
        got.append(o.queries)
        want.append(probe_column_sum(a, 0, eps, delta, rng_ref)[1])
    got, want = np.array(got), np.array(want)
    assert got.min() >= math.ceil(sigma) and want.min() >= math.ceil(sigma)
    assert ks_statistic(got, want) <= ks_critical(trials, trials)
    assert _within_sampling_error(got, want)


def test_column_sum_budget_matches_bernoulli_rule():
    # a zero column and a budget below the hit count both raise after
    # charging exactly max_draws probes; a budget equal to it does not
    eps, delta = 1.0, 0.5  # ceil(sigma) = 4 hits
    for a, max_draws in ((column(6, 0), 5000), (column(4, 3), 3), (column(4, 4), 3)):
        o = DenseOracle(a)
        with pytest.raises(DrawBudgetExceeded):
            approx_column_sum(o, 0, eps, delta, np.random.default_rng(0), max_draws)
        assert o.queries == max_draws
        with pytest.raises(DrawBudgetExceeded):
            probe_column_sum(a, 0, eps, delta, np.random.default_rng(0), max_draws)
    o = DenseOracle(column(4, 4))
    assert approx_column_sum(o, 0, eps, delta, np.random.default_rng(0), 4) == 4 * 5 * math.log(2) / 4
    assert o.queries == 4
    assert probe_column_sum(column(4, 4), 0, eps, delta, np.random.default_rng(0), 4)[1] == 4


def test_column_sum_zero_column_raises_at_default_budget():
    o = DenseOracle(column(6, 0))
    with pytest.raises(DrawBudgetExceeded):
        approx_column_sum(o, 0, 0.5, 0.01, np.random.default_rng(0))
    assert o.queries == DEFAULT_MAX_DRAWS


def test_column_sum_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        approx_column_sum(DenseOracle(column(4, 2)), 0, 0.5, 1.0, np.random.default_rng(0))


def test_slow_estimator_matches_one_at_a_time_draws(monkeypatch):
    # the batched memo estimates unseen columns in order of first draw, so
    # estimates and query counts equal the draw-by-draw loop's exactly
    rng = np.random.default_rng(20)
    cases = []
    while len(cases) < 80:
        a = rng.random((int(rng.integers(1, 12)), int(rng.integers(1, 12)))) < rng.random()
        if a.any():
            cases.append(a)

    def run():
        out = []
        for t, a in enumerate(cases):
            o = DenseOracle(a)
            out.append((estimate_nonzero_columns_slow(o, 0.5, np.random.default_rng([21, t])),
                        o.queries))
        return out

    batched = run()
    monkeypatch.setattr(colcount, "_GlobalInverseColumnSum", OneAtATimeInverseColumnSum)
    assert run() == batched
