"""Differential tests: the array-backed SketchEnsemble against k per-copy
DynamicSketch structures (tests/sketch_reference.py) and against explicit
fill graphs, after every pivot."""

import bisect
import itertools

import numpy as np
import pytest

from conftest import all_graphs, gnp
from fillorder import ordering, sketch
from fillorder import rng as rngmod
from fillorder.bruteforce import fill_graph_bruteforce
from fillorder.buckets import ApproxDegreeDS
from fillorder.generators import grid2d_graph
from fillorder.graph import from_edges, path_graph, star_graph
from fillorder.ordering import approx_min_degree_sequence
from fillorder.sketch import SketchEnsemble
from sketch_reference import ReferenceApproxDegreeDS, ReferenceEnsemble


def _assert_same_state(ens, ref, remaining) -> None:
    rows = sorted(remaining)
    assert np.array_equal(ens.minimizers(rows), ref.minimizers(rows))
    assert np.array_equal(ens.min_key_floats(rows), ref.min_key_floats(rows))


def _drive(g, order, seed, k, grow=()) -> None:
    """Pivot `order` on both structures, comparing minimizer ids, minimum
    key values, changed rows and changed (row, copy) counts after every
    pivot; `grow` maps a step to a number of copies added before it."""
    ens = SketchEnsemble(g, seed, k)
    ref = ReferenceEnsemble(g, seed, k)
    grow = dict(grow)
    remaining = set(range(g.n))
    _assert_same_state(ens, ref, remaining)
    changed_before = 0
    for t, v in enumerate(order):
        if t in grow:
            assert list(ens.add_copies(grow[t])) == [s.index for s in ref.add_copies(grow[t])]
            _assert_same_state(ens, ref, remaining)
            changed_before = ens.sketch_counters()["sketch_changed_total"]
        rows = ens.pivot(int(v))
        ref_rows, pairs = ref.pivot(int(v))
        remaining.discard(int(v))
        assert rows.tolist() == ref_rows
        changed = ens.sketch_counters()["sketch_changed_total"]
        assert changed - changed_before == pairs
        changed_before = changed
        _assert_same_state(ens, ref, remaining)
    if not grow:
        got, want = ens.sketch_counters(), ref.sketch_counters()
        for name in ("sketch_melds", "sketch_pivots", "sketch_changed_total"):
            assert got[name] == want[name], name


@pytest.mark.parametrize("n,p", [(12, 0.3), (30, 0.1), (40, 0.2), (60, 0.05)])
@pytest.mark.parametrize("k", [1, 6])
def test_random_graphs_match_reference(n, p, k):
    rng = np.random.default_rng([n, k, int(100 * p)])
    for trial in range(3):
        g = gnp(n, p, rng)
        _drive(g, rng.permutation(n), seed=trial, k=k)


def test_criterion_1_family_matches_reference():
    rng = np.random.default_rng(11)
    checks = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for order in itertools.permutations(range(n)):
                _drive(g, order, seed=checks % 64, k=3)
                checks += 1
    for g in all_graphs(5):
        _drive(g, rng.permutation(5), seed=checks % 64, k=3)
        checks += 1
    for n in (6, 7):
        for _ in range(20):
            g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
            _drive(g, rng.permutation(n), seed=checks % 64, k=3)
            checks += 1
    assert checks > 1000


def _check_against_fill_graph(g, order, seed, k) -> None:
    """Pivot `order` on an ensemble and compare, after every pivot, each
    copy's minimizer and minimum key with the (draw, vertex)-smallest key
    over the closed neighborhood in the explicit fill graph."""
    draws = [rngmod.substream(seed, rngmod.SKETCH_KEYS, i).integers(1, 2**64, size=g.n,
                                                                     dtype=np.uint64)
             for i in range(k)]
    ens = SketchEnsemble(g, seed, k)
    eliminated = []
    for v in [None, *order]:
        if v is not None:
            ens.pivot(int(v))
            eliminated.append(int(v))
        fill = fill_graph_bruteforce(g, eliminated)
        rows = sorted(fill)
        want = [[min((u, *fill[u]), key=lambda x: (int(d[x]), x)) for d in draws] for u in rows]
        assert ens.minimizers(rows).tolist() == want
        assert ens.min_key_floats(rows).tolist() == \
            [[float(d[x]) / 2**64 for d, x in zip(draws, w)] for w in want]


def test_criterion_1_family_matches_fill_graph():
    rng = np.random.default_rng(16)
    checks = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for order in itertools.permutations(range(n)):
                _check_against_fill_graph(g, order, seed=checks % 64, k=3)
                checks += 1
    for g in all_graphs(5):
        _check_against_fill_graph(g, rng.permutation(5), seed=checks % 64, k=3)
        checks += 1
    for n in (6, 7):
        for _ in range(20):
            g = gnp(n, float(rng.uniform(0.1, 0.9)), rng)
            _check_against_fill_graph(g, rng.permutation(n), seed=checks % 64, k=3)
            checks += 1
    assert checks > 1000


def test_equal_draws_break_ties_by_vertex_id(monkeypatch):
    # every copy draws the same key for every vertex, so each minimum is
    # held by the smallest vertex id in the closed fill neighborhood
    monkeypatch.setattr(rngmod, "sketch_key_draws",
                        lambda seed, first, count, n: np.full((count, n), 7, dtype=np.uint64))
    g = path_graph(6)
    ens = SketchEnsemble(g, 0, 2)
    assert ens.minimizers(range(6)).tolist() == [[0, 0], [0, 0], [1, 1], [2, 2], [3, 3], [4, 4]]
    ens.pivot(3)
    assert ens.minimizers([0, 1, 2, 4, 5]).tolist() == [[0, 0], [0, 0], [1, 1], [2, 2], [4, 4]]
    ens.pivot(0)
    assert ens.minimizers([1, 2, 4, 5]).tolist() == [[1, 1], [1, 1], [2, 2], [4, 4]]


def test_copies_added_mid_run_match_replayed_reference():
    rng = np.random.default_rng(12)
    for trial in range(4):
        g = gnp(25, 0.2, rng)
        _drive(g, rng.permutation(25), seed=trial, k=2, grow={3: 3, 11: 6, 20: 1})


def _scratch_bucket(q: float, eps: float) -> int:
    """Smallest i >= 0 with (1+eps)^-(i+1) <= q, by bisection over i."""
    hi = 1
    while (1 + eps) ** -hi > q:
        hi *= 2
    return bisect.bisect_left(range(hi), True, key=lambda i: (1 + eps) ** -(i + 1) <= q)


def _sorted_buckets(report):
    return [(b, sorted(members)) for b, members in report]


def test_quantiles_and_buckets_match_reference():
    # bucket ids and membership match the per-copy reference and the
    # from-scratch partition; member order within a bucket is not compared
    rng = np.random.default_rng(13)
    cases = [(30, 0.15, 40, 0.25), (50, 0.08, 96, 0.25), (20, 0.4, 7, 0.25),
             (30, 0.15, 24, 0.5), (30, 0.15, 24, 0.1), (30, 0.15, 24, 1 / 64),
             (25, 0.2, 12, 1e-3), (25, 0.2, 12, 2e-4)]
    for trial, (n, p, k, eps) in enumerate(cases):
        g = gnp(n, p, rng)
        ds = ApproxDegreeDS(g, eps, seed=trial, k=k)
        ref = ReferenceApproxDegreeDS(g, eps, seed=trial, k=k)
        remaining = set(range(n))
        for v in rng.permutation(n):
            assert {u: ds.estimate(u) for u in remaining} == \
                {u: ref.estimate(u) for u in remaining}
            full = _sorted_buckets(ds.report())
            assert full == _sorted_buckets(ref.report())
            scratch: dict[int, list[int]] = {}
            for u in sorted(remaining):
                scratch.setdefault(_scratch_bucket(ds.estimate(u), eps), []).append(u)
            assert full == sorted(scratch.items())
            for cap in (1, 2, 5):
                assert _sorted_buckets(ds.report(max_buckets=cap)) == full[:cap] == \
                    _sorted_buckets(ref.report(max_buckets=cap))
            ds.pivot(int(v))
            ref.pivot(int(v))
            remaining.discard(int(v))
        assert ds.ensemble.sketch_counters()["sketch_changed_total"] == \
            ref.ensemble.sketch_counters()["sketch_changed_total"]


@pytest.mark.parametrize("g", [grid2d_graph(100), gnp(60, 0.1, np.random.default_rng(14)),
                               star_graph(12)], ids=["grid10x10", "gnp60", "star12"])
def test_approx_ordering_matches_reference(g, monkeypatch):
    for seed in (0, 1):
        got = approx_min_degree_sequence(g, 0.5, seed)
        with monkeypatch.context() as m:
            m.setattr(ordering, "ApproxDegreeDS", ReferenceApproxDegreeDS)
            want = approx_min_degree_sequence(g, 0.5, seed)
        assert got.order == want.order
        assert got.reported_degree == want.reported_degree
        skip = {"sketch_updates", "sketch_informs"}
        assert {c: v for c, v in got.counters.items() if c not in skip} == \
            {c: v for c, v in want.counters.items() if c not in skip}


def test_isolated_and_edgeless_pivots():
    g = from_edges(5, [(0, 1)])
    ens = SketchEnsemble(g, 3, 4)
    assert ens.pivot(4).tolist() == []
    held_by_0 = bool((ens.minimizers([1]) == 0).any())
    assert ens.pivot(0).tolist() == ([1] if held_by_0 else [])
    assert ens.minimizers([1]).tolist() == [[1, 1, 1, 1]]


def test_rank_range_limit_is_a_clear_error(monkeypatch):
    monkeypatch.setattr(sketch, "RANK_LIMIT", 4)
    with pytest.raises(ValueError, match="int32"):
        SketchEnsemble(path_graph(5), 0, 2)
    SketchEnsemble(path_graph(4), 0, 2)


def test_blocked_gathers_match_reference(monkeypatch):
    # a tiny gather block splits every reduction over many blocks
    monkeypatch.setattr(sketch, "_GATHER_BLOCK", 16)
    rng = np.random.default_rng(15)
    g = gnp(30, 0.2, rng)
    _drive(g, rng.permutation(30), seed=5, k=4, grow={10: 3})
