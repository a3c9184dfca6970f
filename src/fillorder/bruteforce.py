"""Reference oracles for fill structure.

These are deliberately simple (BFS and explicit set unions) so they can
serve as independent ground truth for the sketching data structures.
`fill_degree_bruteforce` and `fill_graph_bruteforce` recompute from
scratch for any eliminated set.  The two ordering oracles,
`exact_mindeg_bruteforce` and `greedy_degree_trace`, share one
incremental elimination on explicit fill sets, so neither rebuilds the
fill graph at a step.  `total_fill` is not a set replay of the fill but
counts it from the elimination tree's column counts, in O(m log n) time
and O(n + m) memory, so that it also runs at scale.  All of them use only
the graph and the order, never the component graph or the sketches.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable

from .graph import StaticGraph
from .result import OrderingResult


def fill_degree_bruteforce(g: StaticGraph, eliminated: Iterable[int], v: int) -> int:
    """Fill degree of remaining vertex v: the number of remaining vertices
    (excluding v) reachable from v through paths whose internal vertices are
    all eliminated.  BFS that terminates at remaining vertices."""
    elim = set(eliminated)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if v in elim:
        raise ValueError(f"vertex {v} is eliminated")
    seen = {v}
    terminals = set()
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w in seen:
                continue
            seen.add(w)
            if w in elim:
                queue.append(w)
            else:
                terminals.add(w)
    return len(terminals)


def _eliminated_components(g: StaticGraph, elim: set[int]) -> tuple[dict[int, int], list[set[int]]]:
    """Connected components of the eliminated induced subgraph.

    Returns (component id per eliminated vertex, remaining-neighbor set per
    component)."""
    comp_of: dict[int, int] = {}
    comp_nrem: list[set[int]] = []
    for x in elim:
        if x in comp_of:
            continue
        cid = len(comp_nrem)
        nrem: set[int] = set()
        comp_nrem.append(nrem)
        queue = deque([x])
        comp_of[x] = cid
        while queue:
            y = queue.popleft()
            for w in g.adj[y]:
                if w in elim:
                    if w not in comp_of:
                        comp_of[w] = cid
                        queue.append(w)
                else:
                    nrem.add(w)
    return comp_of, comp_nrem


def fill_graph_bruteforce(g: StaticGraph, eliminated: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Explicit fill-graph adjacency over the remaining vertices.

    Two remaining vertices are adjacent iff they are connected by a
    (possibly empty) path of eliminated vertices."""
    elim = set(eliminated)
    comp_of, comp_nrem = _eliminated_components(g, elim)
    out: dict[int, tuple[int, ...]] = {}
    for v in range(g.n):
        if v in elim:
            continue
        nbrs: set[int] = set()
        for w in g.adj[v]:
            if w in elim:
                nbrs |= comp_nrem[comp_of[w]]
            else:
                nbrs.add(w)
        nbrs.discard(v)
        out[v] = tuple(sorted(nbrs))
    return out


def _eliminate(g: StaticGraph, order: list[int] | None = None) -> tuple[list[int], list[int], list[int]]:
    """Eliminate every vertex of g on explicit fill sets, the elimination
    graph of George & Liu 1989: adj[u] is u's fill neighborhood among the
    remaining vertices, and pivoting v joins its neighbors into a clique.
    Pivots `order` if given, else the lexicographically-first minimum
    (fill degree, vertex).  Returns (pivots, pivot degrees, the minimum
    fill degree over the remaining vertices at each step)."""
    adj: list[set[int]] = [set(g.adj[v]) for v in range(g.n)]
    remaining = set(range(g.n))
    pivots: list[int] = []
    pivot_deg: list[int] = []
    min_deg: list[int] = []
    for t in range(g.n):
        d, v = min((len(adj[u]), u) for u in remaining)
        if order is not None:
            v = order[t]
        pivots.append(v)
        pivot_deg.append(len(adj[v]))
        min_deg.append(d)
        nbrs = adj[v]
        for a in nbrs:
            fill = adj[a]
            fill |= nbrs
            fill.discard(a)
            fill.discard(v)
        adj[v] = set()
        remaining.discard(v)
    return pivots, pivot_deg, min_deg


def exact_mindeg_bruteforce(g: StaticGraph) -> OrderingResult:
    """Lexicographically-first minimum-degree ordering on the explicit
    elimination graph.  Deterministic; no RNG."""
    t0 = time.perf_counter()
    order, degrees, _ = _eliminate(g)
    return OrderingResult(
        order=order,
        reported_degree=degrees,
        algorithm="bruteforce",
        seed=0,
        counters={"steps": g.n},
        wall_time=time.perf_counter() - t0,
    )


def total_fill(g: StaticGraph, order: list[int]) -> int:
    """Number of edges appearing in some intermediate fill graph that are
    absent from g, each counted once.

    The edges of the filled graph are the off-diagonal nonzeros of the
    Cholesky factor L of g's matrix permuted by `order`, so the fill is
    sum(colcount(L)) - n - m.  The column counts come from the elimination
    tree, without forming L: Gilbert, Ng & Peyton 1994 (*An efficient
    algorithm to compute row and column counts for sparse Cholesky
    factorization*), in the form of CSparse's cs_etree and cs_counts.
    O(m log n) time and O(n + m) memory; no recursion.  Columns below are
    positions in `order`."""
    n = g.n
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation")
    pos = [0] * n
    for k, v in enumerate(order):
        pos[v] = k

    # Liu's elimination tree: parent[k] is the first later column that the
    # fill of column k reaches; ancestor is the same forest, path-compressed.
    # Flat lists of ints, not one list per column, so that a large call
    # leaves the garbage collector few objects to scan
    parent = [-1] * n
    ancestor = [-1] * n
    later: list[int] = []  # column k's later neighbours: later[start[k]:start[k + 1]]
    start = [0]
    for k, v in enumerate(order):
        for w in g.adj[v]:
            i = pos[w]
            if i > k:
                later.append(i)
                continue
            while -1 < i < k:
                nxt = ancestor[i]
                ancestor[i] = k
                if nxt == -1:
                    parent[i] = k
                i = nxt
        start.append(len(later))

    # postorder: the reverse of a preorder; each column's children form a
    # linked list from head[j] through sibling
    head = [-1] * n
    sibling = [-1] * n
    stack = []
    for j, p in enumerate(parent):
        if p == -1:
            stack.append(j)
        else:
            sibling[j] = head[p]
            head[p] = j
    post = []
    while stack:
        j = stack.pop()
        post.append(j)
        c = head[j]
        while c != -1:
            stack.append(c)
            c = sibling[c]
    post.reverse()

    # first[j]: the postorder index of j's first descendant; delta[j] starts
    # at 1 for a leaf of the tree
    first = [-1] * n
    delta = [0] * n
    for k, j in enumerate(post):
        delta[j] = 1 if first[j] == -1 else 0
        while j != -1 and first[j] == -1:
            first[j] = k
            j = parent[j]

    # delta[j] becomes colcount[j] minus the counts of j's children: +1 per
    # row subtree that j is a leaf of, -1 at the least common ancestor of
    # consecutive leaves of one row subtree, -1 at j's parent
    maxfirst = [-1] * n
    prevleaf = [-1] * n
    ancestor = list(range(n))  # processed columns, joined to their parents
    for j in post:
        p = parent[j]
        if p != -1:
            delta[p] -= 1
        fj = first[j]
        for i in later[start[j]:start[j + 1]]:
            if fj <= maxfirst[i]:
                continue  # j is not a leaf of row i's subtree
            maxfirst[i] = fj
            jprev = prevleaf[i]
            prevleaf[i] = j
            delta[j] += 1
            if jprev == -1:
                continue
            q = jprev
            while q != ancestor[q]:
                q = ancestor[q]
            # q is the least common ancestor of jprev and j
            while jprev != q:
                up = ancestor[jprev]
                ancestor[jprev] = q
                jprev = up
            delta[q] -= 1
        if p != -1:
            ancestor[j] = p

    # a column's count is its delta summed over its subtree; every child
    # precedes its parent in column order
    for j, p in enumerate(parent):
        if p != -1:
            delta[p] += delta[j]
    return sum(delta) - n - g.m


def greedy_degree_trace(g: StaticGraph, order: list[int]) -> tuple[list[int], list[int]]:
    """Replay an elimination order; at each step report the pivot's fill
    degree and the minimum fill degree over remaining vertices.

    Maintains the fill graph explicitly with sets, independent of the
    component-graph machinery."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation")
    _, pivot_deg, min_deg = _eliminate(g, order)
    return pivot_deg, min_deg
