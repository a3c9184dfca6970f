"""Local estimation of fill 1-degrees via implicit nonzero-column counting.

A partially eliminated vertex's fill 1-neighborhood is the union of the
remaining neighborhoods of its component neighbors plus its own closed
remaining neighborhood.  Writing those sets as rows of an implicit 0/1
matrix, the fill 1-degree equals the number of nonzero columns, which is
estimated by sampling with three oracle operations: row sizes, uniform
draws from a row, and single entry lookups.  One `DenseOracle` answers
them for explicit matrices and, through `FillNeighborhoodOracle`, for a
component graph, whose rows it stores densely over the distinct columns
that occur in them.

All estimators run on a stopping-rule mean estimator: draw from a [0,1]
distribution until the running sum crosses a threshold, then return
threshold / draw count.  Draws are generated in batches; the batch is cut
at the exact crossing point, so results match one-at-a-time sampling.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .component import ComponentGraph

DEFAULT_MAX_DRAWS = 10**10


class DrawBudgetExceeded(RuntimeError):
    """The stopping rule failed to trigger within the draw budget,
    which indicates a (near-)zero-mean distribution."""


def _loge(n: int) -> float:
    """Natural log clamped to 1; the thresholds below are Chernoff
    exponents, so the natural log is the coherent base (the truncation
    bound (1-p)^lim <= n^-10 needs it exactly)."""
    return max(1.0, math.log(n))


def _ceil_loge(n: int) -> int:
    return max(1, math.ceil(math.log(n)))


def estimate_mean(dist, sigma: float, rng, max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Stopping-rule mean estimate for a distribution over [0, 1].

    `dist` must provide draw_batch(rng, size) -> ndarray of floats.
    Returns sigma / counter where counter is the first prefix length whose
    sum reaches sigma."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    total = 0.0
    count = 0
    batch = 64
    while True:
        size = min(batch, max_draws - count)
        if size <= 0:
            raise DrawBudgetExceeded(f"no crossing after {count} draws")
        xs = dist.draw_batch(rng, size)
        if xs.min() < 0.0 or xs.max() > 1.0:
            raise ValueError("distribution produced a value outside [0, 1]")
        cs = np.cumsum(xs)
        need = sigma - total
        if cs[-1] >= need:
            idx = int(np.searchsorted(cs, need, side="left"))
            return sigma / (count + idx + 1)
        total += float(cs[-1])
        count += size
        # ramp geometrically but do not overshoot the predicted crossing
        predicted = int(1.05 * (sigma - total) * count / max(total, 1e-300)) + 16
        batch = max(64, min(batch * 2, 1 << 16, predicted))


class ConstantDistribution:
    def __init__(self, value: float):
        self.value = value

    def draw_batch(self, rng, size: int) -> np.ndarray:
        return np.full(size, self.value)


class BernoulliDistribution:
    def __init__(self, p: float):
        self.p = p

    def draw_batch(self, rng, size: int) -> np.ndarray:
        return (rng.random(size) < self.p).astype(np.float64)


# ---------------------------------------------------------------------------
# matrix oracles


class DenseOracle:
    """Oracle over an explicit 0/1 matrix."""

    def __init__(self, matrix: np.ndarray, n_ref: int | None = None):
        a = np.asarray(matrix, dtype=bool)
        if a.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        self._a = a
        self.r = a.shape[0]
        self.n_ref = n_ref if n_ref is not None else a.shape[1]
        self._flat_rows, self._flat_cols = np.nonzero(a)
        self.queries = 0

    @property
    def nnz(self) -> int:
        self.queries += self.r  # one RowSize per row
        return len(self._flat_cols)

    def sample_nonzero_batch(self, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform nonzero entries, drawn as a size-weighted row choice
        followed by a uniform in-row choice."""
        self.queries += size
        t = rng.integers(0, len(self._flat_cols), size=size)
        return self._flat_rows[t], self._flat_cols[t]

    def query_values(self, rows: np.ndarray, j: int) -> np.ndarray:
        self.queries += len(rows)
        return self._a[rows, j].astype(np.float64)

    def hit_times_batch(self, js: np.ndarray, lim: int, rng) -> np.ndarray:
        """For each column j: number of uniform row probes until hitting a
        nonzero of column j, capped at lim (the capping probe included)."""
        m = len(js)
        res = np.zeros(m, dtype=np.int64)
        active = np.arange(m)
        a = self._a
        while active.size:
            rows = rng.integers(0, self.r, size=active.size)
            res[active] += 1
            hit = a[rows, js[active]]
            done = hit | (res[active] >= lim)
            active = active[~done]
        self.queries += int(res.sum())
        return res


class FillNeighborhoodOracle(DenseOracle):
    """Matrix view of one remaining vertex of a component graph.

    Row 0 holds the closed remaining neighborhood of the target vertex;
    each further row is the remaining neighborhood of one component
    neighbor, in component-id order.  Only columns that occur in some row
    are stored, ascending, and `cols` maps a stored column to its vertex
    id; the nonzero column count equals the fill 1-degree, and `n_ref` is
    the vertex count, which sets the estimators' log factors."""

    def __init__(self, cgraph: ComponentGraph, u: int):
        if not cgraph.is_remaining(u):
            raise ValueError(f"vertex {u} is not remaining")
        rows = [[u, *cgraph.remaining_neighbors(u)]]
        # ascending component ids fix the row order, hence seeded estimates
        rows += [cgraph.remaining_neighbors(x) for x in sorted(cgraph.component_neighbors(u))]
        sizes = [len(row) for row in rows]
        flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                           count=sum(sizes))
        self.cols, at = np.unique(flat, return_inverse=True)
        mask = np.zeros((len(rows), len(self.cols)), dtype=bool)
        mask[np.repeat(np.arange(len(rows)), sizes), at] = True
        super().__init__(mask, n_ref=cgraph.n)


# ---------------------------------------------------------------------------
# estimators


class _ColumnBernoulli:
    def __init__(self, oracle, j: int):
        self.oracle = oracle
        self.j = int(j)

    def draw_batch(self, rng, size: int) -> np.ndarray:
        rows = rng.integers(0, self.oracle.r, size=size)
        return self.oracle.query_values(rows, self.j)


def approx_column_sum(oracle, j: int, eps: float, delta: float, rng,
                      max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Columns sum estimate within (1 +/- eps) with failure probability
    delta; cost scales inversely with the column sum."""
    sigma = 5.0 * eps**-2 * math.log(1.0 / delta)
    return oracle.r * estimate_mean(_ColumnBernoulli(oracle, j), sigma, rng, max_draws)


class _GlobalInverseColumnSum:
    """Uniform nonzero entry -> reciprocal of its (memoized) estimated
    column sum, clamped into [0, 1]."""

    def __init__(self, oracle, eps: float, delta: float, max_draws: int):
        self.oracle = oracle
        self.eps = eps
        self.delta = delta
        self.max_draws = max_draws
        self.memo: dict[int, float] = {}

    def draw_batch(self, rng, size: int) -> np.ndarray:
        _, js = self.oracle.sample_nonzero_batch(rng, size)
        memo = self.memo
        out = np.empty(size)
        for t in range(size):
            j = int(js[t])
            val = memo.get(j)
            if val is None:
                est = approx_column_sum(self.oracle, j, self.eps, self.delta, rng,
                                        self.max_draws)
                val = min(1.0, 1.0 / est) if est > 0 else 1.0
                memo[j] = val
            out[t] = val
        return out


def estimate_nonzero_columns_slow(oracle, eps: float, rng,
                                  max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Nonzero-column estimate built from per-column sum estimates."""
    nnz = oracle.nnz
    if nnz == 0:
        raise ValueError("matrix has no nonzero entries")
    nref = max(2, oracle.n_ref)
    sigma = 50.0 * eps**-2 * _loge(nref)
    dist = _GlobalInverseColumnSum(oracle, eps, float(nref) ** -10, max_draws)
    return nnz * estimate_mean(dist, sigma, rng, max_draws)


class _NormalizedHitTime:
    def __init__(self, oracle, lim: int):
        self.oracle = oracle
        self.lim = lim

    def draw_batch(self, rng, size: int) -> np.ndarray:
        _, js = self.oracle.sample_nonzero_batch(rng, size)
        counters = self.oracle.hit_times_batch(js, self.lim, rng)
        return counters / self.lim


def estimate_nonzero_columns(oracle, eps: float, rng,
                             max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Nonzero-column estimate from capped hitting times; expected oracle
    cost O(r log^2 n / eps^2)."""
    nnz = oracle.nnz
    if nnz == 0:
        raise ValueError("matrix has no nonzero entries")
    r = oracle.r
    nref = oracle.n_ref
    lim = 10 * r * _ceil_loge(nref)
    sigma = 5.0 * eps**-2 * _loge(nref)
    mean = estimate_mean(_NormalizedHitTime(oracle, lim), sigma, rng, max_draws)
    return nnz * lim / r * mean


def estimate_fill_1degree(cgraph: ComponentGraph, u: int, eps: float, rng,
                          max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Estimate of deg+(u) + 1 for a remaining vertex of a component
    graph, within (1 +/- eps) with high probability."""
    oracle = FillNeighborhoodOracle(cgraph, u)
    return estimate_nonzero_columns(oracle, eps, rng, max_draws)
