"""Nearly-linear approximate greedy minimum-degree ordering.

Each step asks the bucketing structure for vertices grouped by
approximate 1-degree and gives distinct uniform members of each bucket
decay factors eps_hat * X, X running down the top order statistics of
exponential variables.  A candidate of bucket b has trim value
(1 - delta) * (1+eps_hat)^b; those beyond (1+eps_hat)^TRIM_EXPONENT
times the smallest are trimmed, except in bucket 0.  Each survivor's
exact fill 1-degree is evaluated, and the minimizer of
(1 - delta) * fill 1-degree is pivoted.  The decay decorrelates the pivot
choice from the sketch internals; the evaluation is exact and
deterministic, so it is independent of the sketch randomness.

Only survivors are drawn (`trimmed_candidates`): a bucket's smallest trim
value is its top order statistic's, so every bucket's top is drawn first
and fixes the threshold, and a bucket's sequence is extended, and its
members picked, only while it survives.  The survivors have the law of
drawing every bucket's whole window with `exp_decayed_candidates` and
trimming afterwards; tests/test_candidate_law.py compares the two.

The sketch copy count and the candidate window are computed from the
graph and eps; the candidate, trim and survivor limits are the module
constants below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .buckets import ApproxDegreeDS, sketch_count
# not called here; perfbench/layers.py times colcount by wrapping
# ordering.estimate_fill_1degree
from .colcount import estimate_fill_1degree
from .exact import clog2
from .graph import StaticGraph
from .result import OrderingResult

# Candidate draws stop below (top order statistic - CANDIDATE_C2).
CANDIDATE_C2 = 2.0
# Candidates whose perturbed bucket value exceeds (1 + eps_hat)^TRIM_EXPONENT
# times the best one are trimmed; at most SURVIVOR_CAP survivors are evaluated.
TRIM_EXPONENT = 7
SURVIVOR_CAP = 16


@dataclass(slots=True)
class Candidate:
    delta: float
    vertex: int
    bucket: int


def sample_decreasing_exponentials(k: int, c2: float, rng) -> list[float]:
    """Top order statistics of k unit exponentials, largest first,
    stopping before the first value below (max - c2)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    # top order statistic via inverse CDF (1 - e^-x)^k
    x = -math.log(-math.expm1(math.log(u) / k))
    out = [x]
    cutoff = x - c2
    for i in range(1, k):
        nxt = out[-1] - rng.exponential(1.0 / i)
        if nxt < cutoff:
            break
        out.append(nxt)
    return out


def exp_decayed_candidates(members, eps_hat: float, label: int, rng,
                           c2: float = 8.0) -> list[Candidate]:
    """Assign decay factors eps_hat * X to distinct uniformly random
    members, where X runs over the sampled top order statistics.

    `members` needs only len() and integer indexing.
    `approx_min_degree_sequence` draws through `trimmed_candidates`
    instead; this whole-window form is the law that sampler keeps, and
    perfbench/layers.py still wraps it."""
    s = len(members)
    if s == 0:
        return []
    xs = sample_decreasing_exponentials(s, c2, rng)
    swap: dict[int, int] = {}
    out = []
    for i, x in enumerate(xs):
        j = int(rng.integers(i, s))
        pick = swap.get(j, j)
        swap[j] = swap.get(i, i)
        out.append(Candidate(delta=eps_hat * x, vertex=members[pick], bucket=label))
    return out


def trimmed_candidates(report, eps_hat: float, rng) -> tuple[list[tuple[float, int, float]], int]:
    """One step's trim survivors as (trim value, vertex, delta) triples,
    at most SURVIVOR_CAP of them, and the number of (delta, member) pairs
    drawn.

    The law is that of `exp_decayed_candidates` with c2 = CANDIDATE_C2 on
    every reported (bucket, members) pair, followed by the trim: a
    candidate of bucket b with decay delta has trim value
    (1 - delta) * (1+eps_hat)^b and survives if b = 0 or its value is at
    most (1+eps_hat)^TRIM_EXPONENT times the smallest one, and the
    SURVIVOR_CAP smallest (trim value, vertex) pairs are kept.  A trim
    value falls as the decay rises, so the smallest one of a bucket is its
    top order statistic's, and a bucket's survivors are a prefix of its
    decreasing sequence.  So every bucket's top is drawn first, one
    uniform each, which fixes the threshold; then each bucket's sequence
    is extended only while it survives, and members are picked (distinct,
    uniform, by a partial Fisher-Yates shuffle) only for those draws."""
    base = 1.0 + eps_hat
    sizes = [len(members) for _, members in report]
    u = rng.random(len(sizes))
    zero = u == 0.0
    while zero.any():
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    # top order statistic of s unit exponentials, by the inverse CDF (1 - e^-x)^s
    tops = (-np.log(-np.expm1(np.log(u) / sizes))).tolist()
    powers = [base**b for b, _ in report]
    top_trims = [(1.0 - eps_hat * x) * p for x, p in zip(tops, powers)]
    threshold = base**TRIM_EXPONENT * min(top_trims)

    # (trim value, delta, draw index i, members) per draw, each bucket's
    # draws together; draw i of a bucket of s members is swapped with a
    # uniform position in [i, s)
    drawn: list[tuple[float, float, int, list[int]]] = []
    sizes_drawn: list[int] = []
    for (b, members), s, x, p, trim in zip(report, sizes, tops, powers, top_trims):
        if b and trim > threshold:
            continue
        drawn.append((trim, eps_hat * x, 0, members))
        cutoff = x - CANDIDATE_C2
        i = 1
        while i < s:
            x -= rng.standard_exponential() / i
            if x < cutoff:
                break
            delta = eps_hat * x
            trim = (1.0 - delta) * p
            if b and trim > threshold:
                break
            drawn.append((trim, delta, i, members))
            i += 1
        sizes_drawn.extend([s] * i)
    picks = rng.integers([d[2] for d in drawn], sizes_drawn).tolist()

    out: list[tuple[float, int, float]] = []
    for (trim, delta, i, members), j in zip(drawn, picks):
        if i == 0:
            swap: dict[int, int] = {}
        pick = swap.get(j, j)
        swap[j] = swap.get(i, i)
        out.append((trim, members[pick], delta))
    drawn_total = len(out)
    if drawn_total > SURVIVOR_CAP:
        out.sort()
        del out[SURVIVOR_CAP:]
    return out, drawn_total


def decay_scale(eps: float, n: int) -> float:
    """Per-step decay parameter: eps over twice the log, capped at 1/64 so
    seven bucket widths stay within the candidate window."""
    return min(eps / (2.0 * clog2(n)), 1.0 / 64.0)


def _sketch_budget(n: int, m: int) -> int:
    """Practical cap on sketch copies so full runs stay near-linear in m."""
    cost = max(1, m) * clog2(max(n, 2))
    return max(8, min(96, 20_000_000 // cost))


def approx_min_degree_sequence(
    g: StaticGraph,
    eps: float,
    seed: int,
) -> OrderingResult:
    """Approximate greedy minimum-degree ordering: every pivoted vertex has
    fill degree within (1 + eps) of the step minimum with high probability.
    Each reported degree is the pivot's exact fill degree."""
    if not 0 < eps <= 0.5:
        raise ValueError("eps must be in (0, 1/2]")
    if g.n == 0:
        raise ValueError("empty graph")
    t0 = time.perf_counter()
    seed = rngmod.normalize_seed(seed)
    n = g.n
    eps_hat = decay_scale(eps, n)
    k = min(sketch_count(n, eps_hat), _sketch_budget(n, g.m))
    ds = ApproxDegreeDS(g, eps_hat, seed, k=k)
    cg = ds.cgraph
    base = 1.0 + eps_hat

    # buckets beyond this window cannot survive the trim: their perturbed
    # values exceed the threshold even at maximal decay
    d_max = min(0.75, eps_hat * (CANDIDATE_C2 + math.log(4.0 * n) + 10.0))
    candidate_window = TRIM_EXPONENT + math.ceil(
        -math.log(1.0 - d_max) / math.log(base)) + 1

    order: list[int] = []
    reported: list[int] = []
    counters = {
        "k": k,
        "candidates_total": 0,
        "survivors_total": 0,
        # estimator_calls and label_evals always read 0: every survivor is
        # evaluated exactly; perfbench/workloads.py still reads both keys
        "estimator_calls": 0,
        "exact_evals": 0,
        "label_evals": 0,
    }

    for crng in rngmod.substreams(seed, rngmod.CANDIDATES, n):
        survivors, drawn = trimmed_candidates(
            ds.report(max_buckets=candidate_window), eps_hat, crng)
        counters["candidates_total"] += drawn
        counters["survivors_total"] += len(survivors)
        counters["exact_evals"] += len(survivors)

        best = None
        for _, v, delta in survivors:
            d = cg.fill_degree_exact(v)
            key = ((1.0 - delta) * (d + 1), v)
            if best is None or key < best[0]:
                best = (key, d)

        (_, u), d_u = best
        order.append(u)
        reported.append(d_u)
        ds.pivot(u)

    counters.update(ds.ensemble.sketch_counters())
    return OrderingResult(order, reported, "approx", seed, counters,
                          time.perf_counter() - t0)
