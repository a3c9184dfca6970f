"""Local estimation of fill 1-degrees via implicit nonzero-column counting.

A partially eliminated vertex's fill 1-neighborhood is the union of the
remaining neighborhoods of its component neighbors plus its own closed
remaining neighborhood.  Writing those sets as rows of an implicit 0/1
matrix, the fill 1-degree equals the number of nonzero columns, which is
estimated by sampling with three oracle operations: row sizes, uniform
draws from a row, and single entry lookups.  One `DenseOracle` answers
them for explicit matrices and, through `FillNeighborhoodOracle`, for a
component graph.  Either way the oracle keeps only the column indices of
the nonzeros, row by row, and the column sums; no dense matrix.

All estimators run on a stopping-rule mean estimator: draw from a [0,1]
distribution until the running sum crosses a threshold, then return
threshold / draw count.  Draws are generated in batches; the batch is cut
at the exact crossing point, so results match one-at-a-time sampling.

The estimators' inner loops probe uniform rows until some column is hit:
once (capped hitting times) or until a count of hits (column sums).  An
explicit matrix knows every column sum c_j, so `DenseOracle` simulates
that probe process from its law instead of probing: a capped hitting time
is min(Geometric(c_j / r), lim), and the probes until the h-th hit number
h + NegativeBinomial(h, c_j / r).  `queries` counts the probes the
simulated process makes, so query counts keep the law of row-by-row
probing.
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
    """Oracle over an explicit 0/1 matrix, kept as the column indices of
    its nonzeros, row-major and ascending within a row, and its column
    sums."""

    def __init__(self, matrix: np.ndarray, n_ref: int | None = None):
        a = np.asarray(matrix, dtype=bool)
        if a.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        self._set_rows(a.shape[0], np.nonzero(a)[1], a.shape[1],
                       a.shape[1] if n_ref is None else n_ref)

    def _set_rows(self, r: int, flat_cols: np.ndarray, ncols: int, n_ref: int) -> None:
        """r rows over ncols columns, with nonzeros in columns flat_cols."""
        self.r = r
        self.n_ref = n_ref
        self._flat_cols = flat_cols
        self._colsum = np.bincount(flat_cols, minlength=ncols)
        # Geometric(p) is ceil(E / -log(1 - p)) for E ~ Exp(1): the per-column
        # scale 1 / -log(1 - c_j / r), infinite for an all-zero column
        with np.errstate(divide="ignore"):
            self._hit_scale = np.where(self._colsum > 0,
                                       -1.0 / np.log1p(-self._colsum / self.r), np.inf)
        self.queries = 0

    @property
    def nnz(self) -> int:
        self.queries += self.r  # one RowSize per row
        return len(self._flat_cols)

    def sample_nonzero_batch(self, rng, size: int) -> np.ndarray:
        """Columns of `size` uniform nonzero entries, drawn as a
        size-weighted row choice followed by a uniform in-row choice."""
        self.queries += size
        t = rng.integers(0, len(self._flat_cols), size=size)
        return self._flat_cols[t]

    def hit_times_batch(self, js: np.ndarray, lim: int, rng) -> np.ndarray:
        """For each column j: number of uniform row probes until hitting a
        nonzero of column j, capped at lim (the capping probe included).

        Simulated from the column sum: min(Geometric(c_j / r), lim), and
        lim for an all-zero column; `queries` grows by the probe count.
        The geometric draw is the inverse transform of one exponential,
        which costs half of `rng.geometric` with per-column p."""
        e = rng.standard_exponential(len(js)) * self._hit_scale[js]
        res = np.clip(np.ceil(e), 1, lim).astype(np.int64)
        self.queries += int(res.sum())
        return res

    def probes_until_hits(self, j: int, hits: int, rng, max_draws: int) -> int:
        """Number of uniform row probes until the hits-th nonzero of column
        j, simulated as hits + NegativeBinomial(hits, c_j / r).  Raises
        DrawBudgetExceeded, after charging max_draws probes, when that
        number exceeds max_draws or the column is all zero."""
        c = self._colsum[j]
        # an all-zero column never reaches its first hit
        count = hits + int(rng.negative_binomial(hits, c / self.r)) if c else math.inf
        if count > max_draws:
            self.queries += max_draws
            raise DrawBudgetExceeded(f"no crossing after {max_draws} draws")
        self.queries += count
        return count


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
        # rows sorted, so the unique-column inverse is ascending within each
        # row; ascending component ids fix the row order, hence seeded estimates
        rows = [sorted([u, *cgraph.remaining_neighbors(u)])]
        rows += [sorted(cgraph.remaining_neighbors(x))
                 for x in sorted(cgraph.component_neighbors(u))]
        flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                           count=sum(map(len, rows)))
        self.cols, at = np.unique(flat, return_inverse=True)
        self._set_rows(len(rows), at, len(self.cols), cgraph.n)


# ---------------------------------------------------------------------------
# estimators


def approx_column_sum(oracle, j: int, eps: float, delta: float, rng,
                      max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Columns sum estimate within (1 +/- eps) with failure probability
    delta; cost scales inversely with the column sum.

    The stopping-rule mean estimate over Bernoulli(c_j / r) row probes:
    the running sum of 0/1 probes first reaches sigma at the ceil(sigma)-th
    hit, so the draw count is the oracle's probe count to that hit."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    sigma = 5.0 * eps**-2 * math.log(1.0 / delta)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    count = oracle.probes_until_hits(j, math.ceil(sigma), rng, max_draws)
    return oracle.r * sigma / count


class _GlobalInverseColumnSum:
    """Uniform nonzero entry -> (1 - eps) over its (memoized) estimated
    column sum, clamped into [0, 1].  The (1 - eps) factor keeps the clamp
    from binding while the column-sum estimate is within its (1 +/- eps)
    bound, so the draw is unbiased up to that factor; the caller divides
    it back out."""

    def __init__(self, oracle, eps: float, delta: float, max_draws: int):
        self.oracle = oracle
        self.eps = eps
        self.delta = delta
        self.max_draws = max_draws
        self.memo: dict[int, float] = {}

    def draw_batch(self, rng, size: int) -> np.ndarray:
        js = self.oracle.sample_nonzero_batch(rng, size)
        cols, first, at = np.unique(js, return_index=True, return_inverse=True)
        memo = self.memo
        # unseen columns in order of first draw, as drawing one at a time would
        for j in cols[np.argsort(first)].tolist():
            if j not in memo:
                est = approx_column_sum(self.oracle, j, self.eps, self.delta, rng,
                                        self.max_draws)
                memo[j] = min(1.0, (1.0 - self.eps) / est) if est > 0 else 1.0
        return np.array([memo[j] for j in cols.tolist()])[at]


def estimate_nonzero_columns_slow(oracle, eps: float, rng,
                                  max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Nonzero-column estimate built from per-column sum estimates;
    needs 0 < eps < 1."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    nnz = oracle.nnz
    if nnz == 0:
        raise ValueError("matrix has no nonzero entries")
    nref = max(2, oracle.n_ref)
    sigma = 50.0 * eps**-2 * _loge(nref)
    dist = _GlobalInverseColumnSum(oracle, eps, float(nref) ** -10, max_draws)
    return nnz * estimate_mean(dist, sigma, rng, max_draws) / (1.0 - eps)


class _NormalizedHitTime:
    def __init__(self, oracle, lim: int):
        self.oracle = oracle
        self.lim = lim

    def draw_batch(self, rng, size: int) -> np.ndarray:
        js = self.oracle.sample_nonzero_batch(rng, size)
        counters = self.oracle.hit_times_batch(js, self.lim, rng)
        return counters / self.lim


def estimate_nonzero_columns(oracle, eps: float, rng,
                             max_draws: int = DEFAULT_MAX_DRAWS) -> float:
    """Nonzero-column estimate from capped hitting times; expected oracle
    cost O(r log^2 n / eps^2)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
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
    if eps <= 0:
        raise ValueError("eps must be positive")
    oracle = FillNeighborhoodOracle(cgraph, u)
    return estimate_nonzero_columns(oracle, eps, rng, max_draws)
