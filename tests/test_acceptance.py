"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Statistical thresholds and runtime caps are pinned here; the helper
projects the verdict to stdout before asserting so the tally is visible
in verbose runs.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import all_graphs, gnp, random_elimination_state
from fillorder.bruteforce import (
    exact_mindeg_bruteforce,
    fill_degree_bruteforce,
    fill_graph_bruteforce,
    greedy_degree_trace,
    total_fill,
)
from fillorder.buckets import static_one_degree_quantiles
from fillorder.colcount import (
    BernoulliDistribution,
    DenseOracle,
    estimate_fill_1degree,
    estimate_mean,
    estimate_nonzero_columns,
    estimate_nonzero_columns_slow,
)
from fillorder.component import ComponentGraph
from fillorder.exact import delta_capped_min_degree, output_sensitive_min_degree
from fillorder.generators import adversary_demo, covering_set_system, gnp_graph, ov_hard_graph, random_ov_instance
from fillorder.graph import complete_graph
from fillorder.ordering import approx_min_degree_sequence, exp_decayed_candidates, sample_decreasing_exponentials
from fillorder.sketch import new_sketch
from test_ordering import ks_test_against_cdf


def record(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {verdict} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _sketch_matches_oracle(g, order, seed) -> bool:
    sk = new_sketch(g, np.random.default_rng(seed))
    eliminated = []
    for v in order:
        sk.pivot_vertex(int(v))
        eliminated.append(int(v))
        fill = fill_graph_bruteforce(g, eliminated)
        for u, nbrs in fill.items():
            want = min([u] + list(nbrs), key=sk.key_of)
            if sk.query_min(u) != want:
                return False
    return True


def test_criterion_01_sketch_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checks = 0
    ok = True
    # all graphs with up to 4 vertices under all pivot orders
    for n in range(1, 5):
        for g in all_graphs(n):
            for order in itertools.permutations(range(n)):
                ok &= _sketch_matches_oracle(g, order, [n, g.m, checks % 512])
                checks += 1
    # all graphs on 5 vertices under sampled orders
    for g in all_graphs(5):
        for _ in range(6):
            ok &= _sketch_matches_oracle(g, rng.permutation(5), [5, g.m, checks % 512])
            checks += 1
    # sampled graphs on 6 and 7 vertices under sampled orders
    for n in (6, 7):
        for _ in range(40):
            g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
            for _ in range(8):
                ok &= _sketch_matches_oracle(g, rng.permutation(n), [n, g.m, checks % 512])
                checks += 1
    # 100 random G(40, 0.2) graphs under random pivot sequences
    for t in range(100):
        g = gnp(40, 0.2, rng)
        ok &= _sketch_matches_oracle(g, rng.permutation(40), [40, t])
        checks += 1
    elapsed = time.time() - t0
    record(1, "sketch exactness", ok and elapsed < 120,
           f"{checks} pivot sequences verified, {elapsed:.0f}s")


def test_criterion_02_exact_ordering_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(102)
    dc = os_ = 0
    runs = 100
    for s in range(runs):
        g = gnp(16, 0.25, rng)
        truth = exact_mindeg_bruteforce(g).order
        dc += delta_capped_min_degree(g, g.n, seed=s).order == truth
        os_ += output_sensitive_min_degree(g, seed=s).order == truth
    elapsed = time.time() - t0
    record(2, "exact ordering equivalence",
           dc >= 99 and os_ >= 99 and elapsed < 300,
           f"delta-capped {dc}/100, output-sensitive {os_}/100, {elapsed:.0f}s")


def test_criterion_03_quantile_accuracy():
    t0 = time.time()
    eps = 0.1
    k41 = complete_graph(41)
    good_k41 = 0
    for s in range(100):
        q = static_one_degree_quantiles(k41, eps, seed=s)
        good_k41 += bool(np.all((q >= (1 - eps) / 41) & (q <= (1 + eps) / 41)))
    # random graphs: check the vertices satisfying deg+1 > 2/eps = 20
    rng = np.random.default_rng(103)
    g = gnp(40, 0.6, rng)
    heavy = [v for v in range(40) if g.degree(v) + 1 > 20]
    assert heavy
    good_rand = 0
    for s in range(100):
        q = static_one_degree_quantiles(g, eps, seed=s)
        good_rand += all(
            (1 - eps) / (g.degree(v) + 1) <= q[v] <= (1 + eps) / (g.degree(v) + 1)
            for v in heavy)
    elapsed = time.time() - t0
    record(3, "quantile accuracy",
           good_k41 >= 95 and good_rand >= 95,
           f"K41 {good_k41}/100 seeds, random {good_rand}/100 seeds "
           f"({len(heavy)} heavy vertices), {elapsed:.0f}s")


def test_criterion_04_mean_estimator():
    eps = 0.2
    sigma = 5 * eps**-2 * math.log(100)
    all_ok = True
    details = []
    for p in (0.1, 0.5, 0.9):
        hits = 0
        counters = []
        for t in range(1000):
            est = estimate_mean(BernoulliDistribution(p), sigma,
                                np.random.default_rng([104, int(p * 10), t]))
            hits += abs(est - p) <= eps * p
            counters.append(sigma / est)  # the stopping counter
        mean_count = float(np.mean(counters))
        ok = hits >= 980 and mean_count <= 2 * sigma / p
        all_ok &= ok
        details.append(f"p={p}: {hits}/1000 within eps, mean draws {mean_count:.0f} "
                       f"(cap {2 * sigma / p:.0f})")
    record(4, "mean estimator", all_ok, "; ".join(details))


def _nzc_trial_matrices():
    rng = np.random.default_rng(105)
    identity = np.eye(50, dtype=bool)
    single = np.ones((1, 50), dtype=bool)
    rand = rng.random((50, 50)) < 0.3
    rand[0, :] |= ~rand.any(axis=0)  # keep every column countable
    return {"identity": identity, "single-row": single, "random": rand}


def test_criterion_05_nonzero_column_estimators():
    t0 = time.time()
    eps = 0.2
    all_ok = True
    details = []
    trials = 1000
    for name, a in _nzc_trial_matrices().items():
        exact = int((a.sum(axis=0) > 0).sum())
        fast_hits = slow_hits = 0
        queries = []
        for t in range(trials):
            o = DenseOracle(a)
            est = estimate_nonzero_columns(o, eps, np.random.default_rng([1051, t]))
            fast_hits += (1 - eps) * exact <= est <= (1 + eps) * exact
            queries.append(o.queries)
        slow_trials = trials if name != "identity" else 400
        for t in range(slow_trials):
            est = estimate_nonzero_columns_slow(DenseOracle(a), eps,
                                                np.random.default_rng([1052, t]))
            slow_hits += (1 - eps) * exact <= est <= (1 + eps) * exact
        budget = 100 * a.shape[0] * math.log2(50) ** 2 * eps**-2
        ok = (fast_hits >= 0.99 * trials and slow_hits >= 0.99 * slow_trials
              and np.mean(queries) <= budget)
        all_ok &= ok
        details.append(f"{name}: fast {fast_hits}/{trials}, slow {slow_hits}/{slow_trials}, "
                       f"queries {np.mean(queries):.0f}<= {budget:.0f}")
    elapsed = time.time() - t0
    record(5, "nonzero-column estimators", all_ok,
           "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_06_fill_degree_estimation():
    t0 = time.time()
    rng = np.random.default_rng(106)
    eps = 0.25
    hits = 0
    trials = 1000
    for t in range(trials):
        g, eliminated, u = random_elimination_state(rng, n_max=50, p=0.15)
        cg = ComponentGraph(g)
        for v in eliminated:
            cg.pivot(v)
        truth = fill_degree_bruteforce(g, eliminated, u) + 1
        est = estimate_fill_1degree(cg, u, eps, np.random.default_rng([106, t]))
        hits += (1 - eps) * truth <= est <= (1 + eps) * truth
    elapsed = time.time() - t0
    record(6, "fill 1-degree estimation", hits >= 990,
           f"{hits}/{trials} within (1 +/- {eps}), {elapsed:.0f}s")


def test_criterion_07_approximation_quality():
    t0 = time.time()
    g = gnp(60, 0.15, np.random.default_rng(107))
    good = 0
    runs = 100
    for s in range(runs):
        r = approx_min_degree_sequence(g, 0.5, seed=s)
        pivot_deg, min_deg = greedy_degree_trace(g, r.order)
        good += all(p <= 1.5 * m for p, m in zip(pivot_deg, min_deg))
    elapsed = time.time() - t0
    record(7, "approximation quality",
           good >= 95 and elapsed < 600,
           f"{good}/{runs} runs within 1.5x at every step (m={g.m}), {elapsed:.0f}s")


def test_criterion_08_candidate_machinery():
    t0 = time.time()
    # KS of the top order statistic against (1 - e^-x)^k
    ks_ok = True
    for k in (10, 1000):
        rng = np.random.default_rng([108, k])
        tops = [sample_decreasing_exponentials(k, 8.0, rng)[0] for _ in range(10_000)]
        p = ks_test_against_cdf(tops, lambda x: (1 - math.exp(-x)) ** k)
        ks_ok &= p > 0.01
    # the decayed minimum is always among the candidates: unreturned decay
    # factors lie below the sampling window's edge (max delta - c2*eps_hat)
    eps_hat = 1 / 64
    member_ok = 0
    trials = 10_000
    for t in range(trials):
        rng = np.random.default_rng([1081, t])
        s = int(rng.integers(1, 30))
        values = (rng.random() + 0.5) * (1 + 8 * eps_hat * rng.random(s))
        cands = exp_decayed_candidates(list(range(s)), eps_hat, 0, rng, c2=8.0)
        got = min((1 - c.delta) * values[c.vertex] for c in cands)
        edge = max(c.delta for c in cands) - 8.0 * eps_hat
        rest = set(range(s)) - {c.vertex for c in cands}
        bound = min(((1 - edge) * values[v] for v in rest), default=np.inf)
        member_ok += got <= bound * (1 + 1e-12)
    # expected candidate count
    rng = np.random.default_rng(1082)
    counts = [len(exp_decayed_candidates(list(range(1000)), eps_hat, 0, rng, c2=8.0))
              for _ in range(2000)]
    count_ok = np.mean(counts) <= math.e**8 + 3 * np.std(counts) / math.sqrt(len(counts))
    elapsed = time.time() - t0
    record(8, "candidate machinery",
           ks_ok and member_ok == trials and count_ok,
           f"KS ok={ks_ok}, membership {member_ok}/{trials}, "
           f"mean count {np.mean(counts):.0f} <= {math.e**8:.0f}, {elapsed:.0f}s")


def test_criterion_09_decay_distortion():
    n, eps = 1024, 0.25
    eps_hat = eps / (2 * math.log2(n))
    rng = np.random.default_rng(109)
    trials = 10_000
    values = rng.random((trials, n)) + 0.5
    deltas = eps_hat * rng.exponential(size=(trials, n))
    decayed_min = ((1 - deltas) * values).min(axis=1)
    ok_frac = float(np.mean(decayed_min >= (1 - eps) * values.min(axis=1)))
    record(9, "decay distortion", ok_frac >= 0.998,
           f"{ok_frac:.2%} of {trials} trials kept (1-eps) floor")


def test_criterion_10_covering_set_system():
    all_ok = True
    details = []
    for n in (1, 4, 10, 100, 1000):
        cs = covering_set_system(n)
        covered = np.zeros((n + 1, n + 1), dtype=bool)
        size_ok = True
        for sub in cs.subsets:
            arr = np.array(sub)
            covered[np.repeat(arr, len(arr)), np.tile(arr, len(arr))] = True
            size_ok &= len(sub) <= 10 * math.sqrt(n)
        cover_ok = bool(covered[1:, 1:].all())
        p = next(p for p in range(2, 4 * n + 4)
                 if p * p >= n and all(p % d for d in range(2, int(math.isqrt(p)) + 1)))
        count_ok = len(cs.subsets) <= p * p + p
        all_ok &= cover_ok and size_ok and count_ok
        details.append(f"n={n}: {len(cs.subsets)} subsets")
    record(10, "covering set system", all_ok, "; ".join(details))


def test_criterion_11_ov_gadget_ordering():
    t0 = time.time()
    ok = True
    cases = 0
    for nvec, d, dens, seed in [(2, 2, 0.5, 0), (4, 3, 0.5, 1), (6, 4, 0.4, 2),
                                (8, 4, 0.5, 3), (8, 2, 0.7, 4)]:
        vectors = random_ov_instance(nvec, d, dens, seed)
        g, parts = ov_hard_graph(vectors)
        order = exact_mindeg_bruteforce(g).order
        pos = {v: i for i, v in enumerate(order)}
        ok &= max(pos[v] for v in parts["dim"]) < min(
            pos[v] for v in parts["vec"] + parts["pad"])
        cases += 1
    elapsed = time.time() - t0
    record(11, "ov gadget ordering", ok,
           f"{cases} instances eliminate dimension vertices first, {elapsed:.0f}s")


def test_criterion_12_adversary_demo():
    t0 = time.time()
    fixed_ok = 0
    for s in range(100):
        rep = adversary_demo(4096, 0.5, "fixed", seed=s)
        fixed_ok += rep["recovered_fraction"] == 1.0 and rep["final_size"] == rep["t_size"]
    fresh_ok = 0
    for s in range(100):
        rep = adversary_demo(4096, 0.5, "fresh", seed=s)
        fresh_ok += rep["final_size"] >= 4096 - 10 * rep["t_size"]
    elapsed = time.time() - t0
    record(12, "adversary demo", fixed_ok == 100 and fresh_ok >= 95,
           f"fixed exact {fixed_ok}/100, fresh large {fresh_ok}/100, {elapsed:.0f}s")


def test_criterion_13_amortized_cost_proxy():
    rng = np.random.default_rng(113)
    all_ok = True
    details = []
    for n, p in ((400, 0.02), (2000, 0.003)):
        g = gnp_graph(n, p, rng)
        sk = new_sketch(g, np.random.default_rng(n))
        for v in rng.permutation(n):
            sk.pivot_vertex(int(v))
        log2n = math.ceil(math.log2(n))
        changed_ok = sk.counters["changed_total"] <= 50 * g.m * log2n
        updates_ok = sk.counters["updates"] <= 50 * g.m * log2n**2
        all_ok &= changed_ok and updates_ok
        details.append(f"n={n}: changed {sk.counters['changed_total']}, "
                       f"updates {sk.counters['updates']}")
    record(13, "amortized cost proxy", all_ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_14_scaling_smoke():
    times = {}
    evals = {}
    for n in (20000, 40000):
        g = gnp_graph(n, 10.0 / n, np.random.default_rng(114))
        t0 = time.time()
        r = approx_min_degree_sequence(g, 0.5, seed=1)
        times[g.m] = time.time() - t0
        # ordering quality, outside the timed region: every reported degree
        # is an exact fill degree, so the fill is their sum minus m
        fill = total_fill(g, r.order)
        assert fill == sum(r.reported_degree) - g.m, (g.m, fill)
        evals[g.m] = f"exact {r.counters['exact_evals']}, fill {fill}"
    (m1, t1), (m2, t2) = sorted(times.items())
    record(14, "scaling smoke",
           t1 < 300 and t2 < 300 and t2 / t1 <= 3,
           f"m={m1}: {t1:.0f}s ({evals[m1]}), m={m2}: {t2:.0f}s ({evals[m2]}), "
           f"growth {t2 / t1:.2f}x")
