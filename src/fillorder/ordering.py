"""Nearly-linear approximate greedy minimum-degree ordering.

Each step asks the bucketing structure for vertices grouped by
approximate 1-degree, draws a small decayed candidate set per bucket via
top order statistics of exponential variables, trims candidates whose
perturbed bucket value cannot win, evaluates each survivor's exact fill
1-degree, and pivots the minimizer of (1 - delta) * fill 1-degree.  The
decay decorrelates the pivot choice from the sketch internals; the
evaluation is exact and deterministic, so it is independent of the
sketch randomness.

The sketch copy count and the candidate window are computed from the
graph and eps; the candidate, trim and survivor limits are the module
constants below.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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

    `members` needs only len() and integer indexing."""
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

    for t in range(n):
        candidates: list[Candidate] = []
        crng = rngmod.substream(seed, rngmod.CANDIDATES, t)
        for b, members in ds.report(max_buckets=candidate_window):
            candidates.extend(
                exp_decayed_candidates(members, eps_hat, b, crng, c2=CANDIDATE_C2))
        counters["candidates_total"] += len(candidates)

        trim_value = {id(c): (1.0 - c.delta) * base**c.bucket for c in candidates}
        threshold = base**TRIM_EXPONENT * min(trim_value.values())
        survivors = [c for c in candidates
                     if c.bucket == 0 or trim_value[id(c)] <= threshold]
        if len(survivors) > SURVIVOR_CAP:
            survivors.sort(key=lambda c: (trim_value[id(c)], c.vertex))
            survivors = survivors[:SURVIVOR_CAP]
        counters["survivors_total"] += len(survivors)

        best = None
        for c in survivors:
            v = c.vertex
            d = cg.fill_degree_exact(v)
            key = ((1.0 - c.delta) * (d + 1), v)
            if best is None or key < best[0]:
                best = (key, d)
        counters["exact_evals"] += len(survivors)

        (_, u), d_u = best
        order.append(u)
        reported.append(d_u)
        ds.pivot(u)

    counters.update(ds.ensemble.sketch_counters())
    return OrderingResult(order, reported, "approx", seed, counters,
                          time.perf_counter() - t0)
