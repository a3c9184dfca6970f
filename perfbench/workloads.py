"""The benchmark's four workloads.

Each workload builds its inputs and references from the workload seed
(untimed), offers a timed `setup()` and a `round()` of library calls that
repeats identical work, and judges the outputs of all rounds in `check()`
against the references in `reference.py`.  Library functions are looked up
through their modules at call time, so `layers.Tracer` can wrap them.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import inputs
import reference

APPROX_EPS = 0.5
ESTIMATE_EPS = 0.25
# G(n, m) structures are drawn once from this seed, so the difficulty of an
# instance does not swing between workload seeds; --seed relabels them
STRUCTURE_SEED = 0
# labelling and algorithm seed of the approx probe, which never depend on --seed
PROBE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    grid: tuple[int, int]  # approx-grid
    gnm_n: int  # approx-gnp: G(n, m) with m = 5n
    exact_grid: tuple[int, int]  # exact-small
    exact_gnm_n: int  # exact-small: G(n, m) with m = 2n
    estimate_n: int  # estimate: G(n, m) with m = 5n
    estimate_queries: int


FULL = Sizes(grid=(18, 18), gnm_n=200, exact_grid=(5, 6), exact_gnm_n=30,
             estimate_n=400, estimate_queries=48)
SMOKE = Sizes(grid=(6, 6), gnm_n=40, exact_grid=(3, 3), exact_gnm_n=10,
              estimate_n=60, estimate_queries=4)


def gnm_structure(n: int, m: int) -> np.ndarray:
    return inputs.gnm_edges(n, m, np.random.default_rng(STRUCTURE_SEED))


@dataclass
class Round:
    call_s: float  # the library calls the workload measures
    total_fill_s: float  # bruteforce.total_fill on the round's orders
    outputs: list
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Verdict:
    attempted: int
    failed: int
    total_fill: int  # fill of one round's orders, from the replay
    problems: list[str]  # broken checks; any makes the run incorrect
    notes: list[str]  # diagnostics that do not affect the verdict


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _window(tracer):
    return tracer.window() if tracer is not None else nullcontext()


def _violations(rep: reference.Replay, eps: float) -> int:
    return sum(p > (1.0 + eps) * low for p, low in zip(rep.pivot_degree, rep.step_min))


def _replay_checked(inst, order, problems: list[str], what: str):
    try:
        return reference.replay(inst.n, inst.edges, order)
    except ValueError as e:
        problems.append(f"{what}: {e}")
        return None


def _check_fill(inst, rep, program_fill: int, problems: list[str], what: str) -> None:
    identity = sum(rep.pivot_degree) - inst.m
    if not program_fill == rep.total_fill == identity:
        problems.append(f"{what}: total_fill {program_fill}, replay {rep.total_fill}, "
                        f"sum of pivot degrees - m = {identity}")


def _same_every_round(rounds, key, problems: list[str], what: str) -> None:
    first = key(rounds[0])
    if any(key(r) != first for r in rounds[1:]):
        problems.append(f"{what} differs between rounds with the same seed")


class Workload:
    def __init__(self, fo, seed: int):
        self.fo = fo
        self.seed = seed

    def setup(self, tracer=None) -> None:
        raise NotImplementedError

    def round(self, tracer=None) -> Round:
        raise NotImplementedError

    def check(self, rounds: list[Round]) -> Verdict:
        raise NotImplementedError


class Approx(Workload):
    """`approx_min_degree_sequence` at eps = 1/2 and default parameters,
    then `total_fill`, on two labellings of one graph: the seeded one, and
    the probe, whose labelling and algorithm seed are fixed.  The probe's
    pivots beyond (1+eps) times the step minimum count as failed; the
    seeded instance's are only reported, because their number depends on
    the seed."""

    def __init__(self, fo, seed, name, n, edges):
        super().__init__(fo, seed)
        self.insts = [inputs.relabel(name, n, edges, np.random.default_rng(seed)),
                      inputs.relabel(name, n, edges, np.random.default_rng(PROBE_SEED))]
        self.alg_seeds = [seed, PROBE_SEED]
        self.texts = [inst.edge_text() for inst in self.insts]

    def setup(self, tracer=None):
        with _window(tracer):
            self.graphs = [self.fo.graphio.load_graph(text, "edges") for text in self.texts]

    def round(self, tracer=None):
        fo = self.fo
        outputs = []
        call_s = fill_s = 0.0
        with _window(tracer):
            for g, alg_seed in zip(self.graphs, self.alg_seeds):
                res, dt = _timed(fo.ordering.approx_min_degree_sequence,
                                 g, APPROX_EPS, alg_seed)
                fill, fdt = _timed(fo.bruteforce.total_fill, g, res.order)
                call_s += dt
                fill_s += fdt
                outputs.append((res, fill))
        n = self.insts[0].n
        counts = {"buckets.k_used": max(res.counters["k"] for res, _ in outputs),
                  "buckets.k_theory": fo.buckets.sketch_count(
                      n, fo.ordering.decay_scale(APPROX_EPS, n))}
        for name in ("updates", "informs", "melds", "changed_total"):
            counts[f"sketch.{name}"] = sum(r.counters[f"sketch_{name}"] for r, _ in outputs)
        for name in ("candidates_total", "survivors_total", "exact_evals",
                     "label_evals", "estimator_calls"):
            counts[f"ordering.{name}"] = sum(r.counters[name] for r, _ in outputs)
        counts["ordering.survivor_ratio"] = (counts["ordering.survivors_total"]
                                             / max(1, counts["ordering.candidates_total"]))
        return Round(call_s, fill_s, outputs, counts)

    def check(self, rounds):
        problems: list[str] = []
        notes: list[str] = []
        _same_every_round(rounds, lambda r: [(res.order, res.reported_degree, fill)
                                             for res, fill in r.outputs],
                          problems, "approx orders")
        total_fill = failed = 0
        for i, (inst, (res, fill)) in enumerate(zip(self.insts, rounds[0].outputs)):
            what = "probe" if i else "seeded labelling"
            rep = _replay_checked(inst, res.order, problems, what)
            if rep is None:
                continue
            total_fill += rep.total_fill
            _check_fill(inst, rep, fill, problems, what)
            c = res.counters
            # a reported degree is exact only when every evaluation was exact
            if c["label_evals"] == 0 and c["estimator_calls"] == 0 \
                    and res.reported_degree != rep.pivot_degree:
                problems.append(f"{what}: reported degrees differ from replayed fill degrees")
            bad = _violations(rep, APPROX_EPS)
            worst = max(p / max(1, low) for p, low in zip(rep.pivot_degree, rep.step_min))
            notes.append(f"{what}: {bad} of {inst.n} pivots beyond (1+eps) x step minimum, "
                         f"worst ratio {worst:.3f}" + ("" if i else " (not counted)"))
            if i:
                failed = bad
        return Verdict(attempted=len(rounds) * sum(inst.n for inst in self.insts),
                       failed=len(rounds) * failed, total_fill=total_fill,
                       problems=problems, notes=notes)


class ApproxGrid(Approx):
    def __init__(self, fo, seed, sizes):
        rows, cols = sizes.grid
        super().__init__(fo, seed, f"grid{rows}x{cols}", rows * cols,
                         inputs.grid_edges(rows, cols))


class ApproxGnp(Approx):
    def __init__(self, fo, seed, sizes):
        n = sizes.gnm_n
        super().__init__(fo, seed, f"gnm{n}_{5 * n}", n, gnm_structure(n, 5 * n))


class ExactSmall(Workload):
    """The three exact drivers, then `total_fill`, on seeded labellings of
    a small grid and a small G(n, m); the delta-capped driver gets delta =
    the largest step minimum of the reference order.  An ordering that
    differs from the reference, in order or reported degrees, counts as
    failed."""

    ALGORITHMS = ("bruteforce", "delta-capped", "output-sensitive")

    def __init__(self, fo, seed, sizes):
        super().__init__(fo, seed)
        rng = np.random.default_rng(seed)
        rows, cols = sizes.exact_grid
        n = sizes.exact_gnm_n
        self.insts = [
            inputs.relabel(f"grid{rows}x{cols}", rows * cols,
                           inputs.grid_edges(rows, cols), rng),
            inputs.relabel(f"gnm{n}_{2 * n}", n, gnm_structure(n, 2 * n), rng),
        ]
        self.texts = [inst.edge_text() for inst in self.insts]
        self.refs = [reference.greedy_min_degree(i.n, i.edges) for i in self.insts]
        self.deltas = [max(ref.step_min) for ref in self.refs]

    def setup(self, tracer=None):
        with _window(tracer):
            self.graphs = [self.fo.graphio.load_graph(text, "edges") for text in self.texts]

    def round(self, tracer=None):
        fo = self.fo
        outputs = []
        call_s = fill_s = 0.0
        counts = {"sketch.updates": 0, "sketch.informs": 0, "sketch.melds": 0,
                  "sketch.changed_total": 0, "exact.k": 0, "exact.doublings": 0}
        with _window(tracer):
            for g, delta in zip(self.graphs, self.deltas):
                for alg in self.ALGORITHMS:
                    if alg == "bruteforce":
                        res, dt = _timed(fo.bruteforce.exact_mindeg_bruteforce, g)
                    elif alg == "delta-capped":
                        res, dt = _timed(fo.exact.delta_capped_min_degree, g, delta, self.seed)
                    else:
                        res, dt = _timed(fo.exact.output_sensitive_min_degree, g, self.seed)
                    fill, fdt = _timed(fo.bruteforce.total_fill, g, res.order)
                    call_s += dt
                    fill_s += fdt
                    outputs.append((res, fill))
                    c = res.counters
                    if alg != "bruteforce":
                        for name in ("updates", "informs", "melds", "changed_total"):
                            counts[f"sketch.{name}"] += c[f"sketch_{name}"]
                        counts["exact.k"] += c["k"]
                        counts["exact.doublings"] += c.get("doublings", 0)
        return Round(call_s, fill_s, outputs, counts)

    def check(self, rounds):
        problems: list[str] = []
        _same_every_round(rounds, lambda r: [(res.order, res.reported_degree, fill)
                                             for res, fill in r.outputs],
                          problems, "exact orders")
        failed = total_fill = 0
        per_graph = len(self.ALGORITHMS)
        for i, (res, fill) in enumerate(rounds[0].outputs):
            inst, ref = self.insts[i // per_graph], self.refs[i // per_graph]
            what = f"{inst.name} {self.ALGORITHMS[i % per_graph]}"
            rep = _replay_checked(inst, res.order, problems, what)
            if rep is not None:
                _check_fill(inst, rep, fill, problems, what)
                total_fill += rep.total_fill
            failed += not (res.order == ref.order and res.reported_degree == ref.pivot_degree)
        return Verdict(attempted=len(rounds) * len(rounds[0].outputs),
                       failed=len(rounds) * failed, total_fill=total_fill,
                       problems=problems, notes=[])


class Estimate(Workload):
    """Pivot the first quarter of the exact minimum-degree order of a seeded
    labelling of a G(n, m) (set-up), then answer a seeded batch of
    `estimate_fill_1degree` queries at eps = 1/4 on the remaining vertices
    and run `total_fill` on the whole order.  An estimate outside
    (1 +/- eps) of the BFS fill 1-degree counts as failed."""

    def __init__(self, fo, seed, sizes):
        super().__init__(fo, seed)
        rng = np.random.default_rng(seed)
        n = sizes.estimate_n
        self.inst = inputs.relabel(f"gnm{n}_{5 * n}", n, gnm_structure(n, 5 * n), rng)
        self.insts = [self.inst]
        self.text = self.inst.edge_text()
        self.md = reference.greedy_min_degree(n, self.inst.edges)
        self.order = self.md.order
        self.prefix = self.order[: n // 4]
        self.queries = rng.choice(self.order[n // 4:], size=sizes.estimate_queries,
                                  replace=False).tolist()
        eliminated = set(self.prefix)
        adj = self.inst.adjacency()
        self.truth = [reference.bfs_fill_degree(adj, eliminated, v) + 1 for v in self.queries]

    def setup(self, tracer=None):
        fo = self.fo
        with _window(tracer):
            self.g = fo.graphio.load_graph(self.text, "edges")
            cg = fo.component.ComponentGraph(self.g)
            for v in self.prefix:
                cg.pivot(v)
        self.cg = cg

    def round(self, tracer=None):
        fo = self.fo
        estimates = []
        call_s = 0.0
        with _window(tracer):
            for i, v in enumerate(self.queries):
                rng = np.random.default_rng([self.seed, i])
                est, dt = _timed(fo.colcount.estimate_fill_1degree, self.cg, v,
                                 ESTIMATE_EPS, rng)
                estimates.append(est)
                call_s += dt
            fill, fill_s = _timed(fo.bruteforce.total_fill, self.g, self.order)
        return Round(call_s, fill_s, [estimates, fill])

    def check(self, rounds):
        problems: list[str] = []
        notes: list[str] = []
        _same_every_round(rounds, lambda r: r.outputs, problems, "estimates")
        estimates, fill = rounds[0].outputs
        bad = sum(not (1 - ESTIMATE_EPS) * t <= e <= (1 + ESTIMATE_EPS) * t
                  for e, t in zip(estimates, self.truth))
        worst = max(abs(e / t - 1) for e, t in zip(estimates, self.truth))
        notes.append(f"largest relative estimate error {worst:.4f}")
        _check_fill(self.inst, self.md, fill, problems, "minimum-degree order")
        return Verdict(attempted=len(rounds) * len(self.queries), failed=len(rounds) * bad,
                       total_fill=self.md.total_fill, problems=problems, notes=notes)


WORKLOADS = {
    "approx-grid": ApproxGrid,
    "approx-gnp": ApproxGnp,
    "exact-small": ExactSmall,
    "estimate": Estimate,
}
