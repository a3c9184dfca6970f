"""Row-by-row probing reference for the dense oracle's simulated probes.

`DenseOracle` draws its capped hitting times and column-sum stopping
counts from their closed-form laws.  These are the probing versions they
replaced, kept in behaviour so differential tests can compare the two
laws: rounds of uniform row probes until each column is hit, and the
stopping-rule mean estimate over Bernoulli row probes of one column.
The slow estimator's batch of memoised column-sum reciprocals is also kept
here in its draw-by-draw form, which the batched form must match exactly.
"""

from __future__ import annotations

import math

import numpy as np

from fillorder.colcount import DEFAULT_MAX_DRAWS, approx_column_sum, estimate_mean


def probe_hit_times(a: np.ndarray, js: np.ndarray, lim: int, rng) -> np.ndarray:
    """For each column j: uniform row probes of `a` until one hits a
    nonzero of column j, capped at lim (the capping probe included).
    The probe count, hence the oracle's query count, is the sum."""
    m = len(js)
    res = np.zeros(m, dtype=np.int64)
    active = np.arange(m)
    while active.size:
        rows = rng.integers(0, a.shape[0], size=active.size)
        res[active] += 1
        hit = a[rows, js[active]]
        done = hit | (res[active] >= lim)
        active = active[~done]
    return res


class ColumnProbes:
    """Draws of 0/1 entries of column j at uniform rows of `a`."""

    def __init__(self, a: np.ndarray, j: int):
        self.a = a
        self.j = int(j)

    def draw_batch(self, rng, size: int) -> np.ndarray:
        rows = rng.integers(0, self.a.shape[0], size=size)
        return self.a[rows, self.j].astype(np.float64)


def probe_column_sum(a: np.ndarray, j: int, eps: float, delta: float, rng,
                     max_draws: int = DEFAULT_MAX_DRAWS) -> tuple[float, int]:
    """(column sum estimate, stopping count) of the stopping rule over
    Bernoulli row probes; the estimate is r * sigma / count."""
    sigma = 5.0 * eps**-2 * math.log(1.0 / delta)
    est = estimate_mean(ColumnProbes(a, j), sigma, rng, max_draws)
    return a.shape[0] * est, round(sigma / est)


def column(r: int, c: int) -> np.ndarray:
    """An r x 1 matrix whose only column sums to c."""
    a = np.zeros((r, 1), dtype=bool)
    a[:c, 0] = True
    return a


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the empirical distribution functions, over the pooled values."""
    x = np.sort(x)
    y = np.sort(y)
    grid = np.union1d(x, y)
    fx = np.searchsorted(x, grid, side="right") / len(x)
    fy = np.searchsorted(y, grid, side="right") / len(y)
    return float(np.abs(fx - fy).max())


def ks_critical(n: int, m: int, alpha: float = 1e-3) -> float:
    """Asymptotic two-sample KS critical value at level alpha; on discrete
    laws the test is conservative."""
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))


class OneAtATimeInverseColumnSum:
    """The slow estimator's draw distribution, one draw at a time: a
    uniform nonzero entry maps to (1 - eps) over its column's estimated
    sum, clamped into [0, 1], each column estimated once, at its first
    draw."""

    def __init__(self, oracle, eps: float, delta: float, max_draws: int):
        self.oracle = oracle
        self.eps = eps
        self.delta = delta
        self.max_draws = max_draws
        self.memo: dict[int, float] = {}

    def draw_batch(self, rng, size: int) -> np.ndarray:
        js = self.oracle.sample_nonzero_batch(rng, size)
        out = np.empty(size)
        for t in range(size):
            j = int(js[t])
            val = self.memo.get(j)
            if val is None:
                est = approx_column_sum(self.oracle, j, self.eps, self.delta, rng,
                                        self.max_draws)
                val = min(1.0, (1.0 - self.eps) / est) if est > 0 else 1.0
                self.memo[j] = val
            out[t] = val
        return out
