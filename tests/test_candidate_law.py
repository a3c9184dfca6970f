"""`trimmed_candidates` against the pipeline it replaced.

The sampler draws each bucket's top order statistic first and extends a
bucket's sequence only while it survives the trim; the reference draws
every bucket's whole window, then trims and caps.  Both must give one
law of survivors.  Over 20,000 seeded steps per layout, a two-sample
chi-square compares how often each vertex survives and the number of
survivors, and two-sample KS tests compare the smallest and the largest
surviving decay of a step.  Layout "mixed" has a bucket 0 whose
exemption from the trim binds in about half the steps, a bucket larger
than SURVIVOR_CAP, a bucket past the threshold, and the cap binding in
about a fifth of the steps."""

import math
from collections import Counter

import numpy as np
import pytest

from candidate_reference import reference_trimmed_candidates
from fillorder.ordering import SURVIVOR_CAP, trimmed_candidates
from test_ordering import kolmogorov_pvalue

STEPS = 20_000
P_MIN = 1e-3


def layout(spec):
    """(bucket id, members) pairs with consecutive vertex ids."""
    out, v = [], 0
    for b, s in spec:
        out.append((b, list(range(v, v + s))))
        v += s
    return out


LAYOUTS = {
    "mixed": (1 / 64, layout([(0, 3), (1, 3000), (4, 40), (40, 5)])),
    "no-bucket-0": (1 / 64, layout([(2, 20), (3, 1), (5, 60), (9, 8), (12, 2), (30, 4)])),
}


def chi2_pvalue(stat: float, df: int) -> float:
    """Upper tail of chi-square, by the Wilson-Hilferty approximation."""
    if df <= 0:
        return 1.0
    z = ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
    return 0.5 * math.erfc(z / math.sqrt(2))


def homogeneity_pvalue(a: Counter, b: Counter, df_offset: int, pool_below: int = 10) -> float:
    """Two-sample chi-square over the categories of two counters from
    samples of one size; categories with fewer than `pool_below` counts
    in both together are pooled into one."""
    stat, cells = 0.0, 0
    pooled_a = pooled_b = 0
    for key in set(a) | set(b):
        x, y = a[key], b[key]
        if x + y < pool_below:
            pooled_a += x
            pooled_b += y
            continue
        stat += (x - y) ** 2 / (x + y)
        cells += 1
    if pooled_a + pooled_b:
        stat += (pooled_a - pooled_b) ** 2 / (pooled_a + pooled_b)
        cells += 1
    return chi2_pvalue(stat, cells - df_offset)


def ks_two_sample_pvalue(xs, ys) -> float:
    xs, ys = np.sort(xs), np.sort(ys)
    grid = np.concatenate([xs, ys])
    d = np.max(np.abs(np.searchsorted(xs, grid, side="right") / len(xs)
                      - np.searchsorted(ys, grid, side="right") / len(ys)))
    return kolmogorov_pvalue(d, len(xs) * len(ys) / (len(xs) + len(ys)))


def sample(sampler, report, eps_hat, stream):
    bucket_of = {v: b for b, members in report for v in members}
    vertices, counts = Counter(), Counter()
    low, high = [], []
    for t in range(STEPS):
        survivors, drawn = sampler(report, eps_hat, np.random.default_rng([stream, t]))
        picked = [v for _, v, _ in survivors]
        assert len(set(picked)) == len(picked) <= min(SURVIVOR_CAP, drawn)
        assert all(v in bucket_of for v in picked)
        vertices.update(picked)
        counts[len(survivors)] += 1
        deltas = [delta for _, _, delta in survivors]
        low.append(min(deltas))
        high.append(max(deltas))
    return vertices, counts, low, high


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_survivors_have_the_reference_law(name):
    eps_hat, report = LAYOUTS[name]
    got = sample(trimmed_candidates, report, eps_hat, 1)
    want = sample(reference_trimmed_candidates, report, eps_hat, 2)
    # a vertex survives at most once a step, so its count is binomial in
    # each sampler and every category is a free comparison
    p_vertices = homogeneity_pvalue(got[0], want[0], df_offset=0)
    p_counts = homogeneity_pvalue(got[1], want[1], df_offset=1)
    p_low = ks_two_sample_pvalue(got[2], want[2])
    p_high = ks_two_sample_pvalue(got[3], want[3])
    assert min(p_vertices, p_counts, p_low, p_high) > P_MIN, \
        (p_vertices, p_counts, p_low, p_high)


class StubRng:
    """A Generator whose `random` calls return `first` (all of each
    requested size) until it is used up, then delegate."""

    def __init__(self, first: list[float], seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._first = list(first)

    def random(self, size=None):
        if not self._first:
            return self._rng.random(size)
        value = self._first.pop(0)
        return value if size is None else np.full(size, value)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("sampler", [trimmed_candidates, reference_trimmed_candidates],
                         ids=["sampler", "reference"])
def test_trim_value_equal_to_threshold_survives(sampler):
    # at eps_hat = 1 the powers of 1 + eps_hat are exact, so equal tops in
    # buckets 1 and 8 give bucket 8 a trim value of exactly 2^7 times
    # bucket 1's, the threshold
    report = [(1, [10]), (8, [20])]
    survivors, _ = sampler(report, 1.0, StubRng([0.5, 0.5]))
    assert sorted(v for _, v, _ in survivors) == [10, 20]


@pytest.mark.parametrize("sampler", [trimmed_candidates, reference_trimmed_candidates],
                         ids=["sampler", "reference"])
def test_zero_uniform_is_redrawn(sampler):
    # a zero uniform inverts to a top of exactly 0, through log(0) = -inf,
    # a value the top order statistic takes with probability 0
    report = [(0, [4, 5, 6]), (2, [7])]
    for seed in range(20):
        survivors, drawn = sampler(report, 1 / 64, StubRng([0.0], seed))
        assert drawn >= 1 and survivors
        deltas = [delta for _, _, delta in survivors]
        assert all(math.isfinite(delta) for delta in deltas) and max(deltas) > 0
