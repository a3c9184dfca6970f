"""Reference fill figures for the benchmark's instances.

    python3 perfbench/figures.py --seeds 1-10

For each instance a workload orders (for `estimate`, its graph), prints the
fill of the exact greedy minimum-degree order (the benchmark's own replay)
and, when scipy imports, the fill of SuperLU's MMD_AT_PLUS_A column order.  SuperLU's `perm_c`
maps a column to its position, so it is inverted before it is replayed as
an elimination order.  Needs numpy (and optionally scipy), not fillorder.
"""

from __future__ import annotations

import argparse
import statistics

import numpy as np

import inputs
import reference
import workloads
from collect import parse_seeds


def superlu_mmd_fill(inst: inputs.Instance) -> int | None:
    try:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
    except ImportError:
        return None
    e = inst.edges
    deg = np.bincount(e.ravel(), minlength=inst.n)
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(inst.n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(inst.n)])
    vals = np.concatenate([-np.ones(2 * len(e)), deg + 1.0])
    a = sp.csc_matrix((vals, (rows, cols)), shape=(inst.n, inst.n))
    lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    order = np.argsort(lu.perm_c)
    return reference.replay(inst.n, inst.edges, order).total_fill


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    rows: dict[tuple[str, str], list[tuple[int, int | None]]] = {}
    for seed in parse_seeds(args.seeds):
        for workload, cls in workloads.WORKLOADS.items():
            # building a workload draws its inputs; the program is not needed
            for inst in cls(None, seed, workloads.FULL).insts:
                exact = reference.greedy_min_degree(inst.n, inst.edges).total_fill
                rows.setdefault((workload, f"{inst.name} (n={inst.n}, m={inst.m})"),
                                []).append((exact, superlu_mmd_fill(inst)))
    print("| workload | instance | exact-MD fill, median [min, max] | "
          "SuperLU MMD fill, median [min, max] |")
    print("|---|---|---|---|")
    for (workload, name), vals in rows.items():
        cells = []
        for col in zip(*vals):
            if None in col:
                cells.append("scipy not available")
            else:
                cells.append(f"{statistics.median(col):g} [{min(col)}, {max(col)}]")
        print(f"| {workload} | {name} | {cells[0]} | {cells[1]} |")


if __name__ == "__main__":
    main()
