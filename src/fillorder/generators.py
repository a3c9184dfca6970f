"""Test-instance generators: random graphs, pair-covering set systems, the
orthogonal-vectors gadget, and the adaptive-adversary demonstration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .graph import StaticGraph, from_edges


def next_prime(x: int) -> int:
    """Smallest prime >= x (trial division; fine at the sizes used)."""
    p = max(2, x)
    while True:
        if all(p % d for d in range(2, int(math.isqrt(p)) + 1)):
            return p
        p += 1


@dataclass
class CoveringSetSystem:
    """Subsets of [n] (1-based) such that every ordered pair of elements
    co-occurs in at least one subset, each subset has O(sqrt n) elements,
    and there are O(n) subsets."""

    n: int
    subsets: list[list[int]]


def covering_set_system(n: int) -> CoveringSetSystem:
    """Diagonals and rows of a p x p array over GF(p), p = next prime at
    least sqrt(n), mapped onto [n]."""
    if n < 1:
        raise ValueError("n must be positive")
    root = math.isqrt(n)
    if root * root != n:
        root += 1
    p = next_prime(root)
    # id of cell (x, y) is x*p + y + 1; keep ids within [n]
    subsets: list[list[int]] = []
    for a in range(p):
        for b in range(p):
            sub = [x * p + ((a * x + b) % p) + 1 for x in range(p)]
            sub = sorted(i for i in sub if i <= n)
            if sub:
                subsets.append(sub)
    for a in range(p):
        sub = [a * p + y + 1 for y in range(p) if a * p + y + 1 <= n]
        if sub:
            subsets.append(sub)
    return CoveringSetSystem(n, subsets)


def ov_hard_graph(vectors: list[tuple[int, ...]]) -> tuple[StaticGraph, dict[str, list[int]]]:
    """Graph on which a minimum-degree ordering decides orthogonality.

    One vertex per vector; per dimension, one vertex per covering subset,
    joined to the vectors with a 1 in that dimension whose index the
    subset covers; plus a pad clique of 20*ceil(sqrt(n)) vertices fully
    joined to the vector vertices."""
    nvec = len(vectors)
    if nvec < 1:
        raise ValueError("need at least one vector")
    d = len(vectors[0])
    if d < 1 or any(len(v) != d for v in vectors):
        raise ValueError("vectors must share a positive dimension")
    system = covering_set_system(nvec)
    vec_ids = list(range(nvec))
    edges: list[tuple[int, int]] = []
    nxt = nvec
    dim_ids: list[int] = []
    for j in range(d):
        for sub in system.subsets:
            sid = nxt
            nxt += 1
            dim_ids.append(sid)
            for i in sub:  # 1-based vector index
                if vectors[i - 1][j]:
                    edges.append((i - 1, sid))
    pad = 20 * math.ceil(math.sqrt(nvec))
    pad_ids = list(range(nxt, nxt + pad))
    for a in range(pad):
        for b in range(a + 1, pad):
            edges.append((pad_ids[a], pad_ids[b]))
        for i in vec_ids:
            edges.append((pad_ids[a], i))
    g = from_edges(nxt + pad, edges)
    return g, {"vec": vec_ids, "dim": dim_ids, "pad": pad_ids}


def gnp_graph(n: int, p: float, rng) -> StaticGraph:
    """Erdos-Renyi G(n, p)."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("invalid G(n, p) parameters")
    total = n * (n - 1) // 2
    if total == 0:
        return from_edges(n, [])
    if total <= 4_000_000:
        # pair t of the mask is the t-th (u, v), u < v, in row-major order
        mask = rng.random(total) < p
        us, vs = np.triu_indices(n, 1)
        return from_edges(n, zip(us[mask].tolist(), vs[mask].tolist()))
    # sparse sampling: draw the edge count, then distinct pairs
    m = int(rng.binomial(total, p))
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        us = rng.integers(0, n, size=2 * (m - len(chosen)) + 16)
        vs = rng.integers(0, n, size=len(us))
        for u, v in zip(us, vs):
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            chosen.add((int(e[0]), int(e[1])))
            if len(chosen) == m:
                break
    return from_edges(n, sorted(chosen))


def grid2d_graph(n: int) -> StaticGraph:
    """sqrt(n) x sqrt(n) grid; n must be a perfect square."""
    s = math.isqrt(n)
    if s * s != n:
        raise ValueError(f"grid2d needs a perfect square, got {n}")
    edges = []
    for r in range(s):
        for c in range(s):
            v = r * s + c
            if c + 1 < s:
                edges.append((v, v + 1))
            if r + 1 < s:
                edges.append((v, v + s))
    return from_edges(n, edges)


def random_ov_instance(n: int, d: int, density: float, seed: int) -> list[tuple[int, ...]]:
    rng = rngmod.substream(rngmod.normalize_seed(seed), rngmod.GENERATOR, 1)
    return [tuple(int(b) for b in (rng.random(d) < density)) for _ in range(n)]


def adversary_demo(n: int, eps: float, mode: str, seed: int) -> dict:
    """Membership-deletion attack against a scaled-intersection cardinality
    estimate over a secret sample T.

    Each round deletes one element and queries the estimate; if it moved
    from the last accepted value, the deletion is rolled back (set and
    estimate together).  With a fixed T the surviving set is exactly T:
    the estimate moves iff the deleted element is in T.  Regenerating T
    on every query decorrelates the comparisons, so deletions only stick
    while the fresh sample misses the deleted pool, and the set stays
    close to full size.
    """
    if n < 16:
        raise ValueError("n must be at least 16")
    if mode not in ("fixed", "fresh"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = rngmod.substream(rngmod.normalize_seed(seed), rngmod.DEMO)
    t_size = max(1, math.ceil(math.log2(n) * eps**-2))
    if t_size > n:
        # T is drawn without replacement, so it cannot outgrow the set
        raise ValueError(f"epsilon must be at least sqrt(log2(n) / n) = "
                         f"{math.sqrt(math.log2(n) / n):.4g} for n = {n}")
    member = np.ones(n, dtype=bool)

    fixed_t = rng.choice(n, size=t_size, replace=False)

    def intersection(t_idx) -> int:
        # the estimate n * |S cap T| / |T| changes iff this count changes
        return int(member[t_idx].sum())

    def query() -> int:
        t_idx = fixed_t if mode == "fixed" else rng.choice(n, size=t_size, replace=False)
        return intersection(t_idx)

    baseline = query()
    for i in range(n):
        member[i] = False
        cur = query()
        if cur != baseline:
            member[i] = True  # roll back; the accepted estimate is unchanged
        else:
            baseline = cur

    final = np.flatnonzero(member)
    if mode == "fixed":
        t_set = set(int(x) for x in fixed_t)
        recovered = len(t_set & set(int(x) for x in final)) / t_size
    else:
        recovered = query() / t_size
    return {
        "n": n,
        "epsilon": eps,
        "mode": mode,
        "t_size": t_size,
        "final_size": int(member.sum()),
        "deletions": int(n - member.sum()),
        "recovered_fraction": float(recovered),
    }
