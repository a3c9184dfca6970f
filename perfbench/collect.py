"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --label baseline
    python3 perfbench/collect.py --workloads approx-gnp --seeds 1-5 --trace 1

Runs `run.py` once per (workload, seed), one process at a time, and writes
every run's result plus, per metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
to perfbench/results/<label>.json.  The printed table flags an
end-to-end spread at or above a third of the metric's bound in
BENCHMARK.json, and any difference in the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="all", help="comma list or 'all'")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default=time.strftime("run-%Y%m%d-%H%M%S"))
    args = ap.parse_args()
    chosen = names if args.workloads == "all" else args.workloads.split(",")

    import numpy

    report = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": numpy.__version__, "machine": platform.machine()},
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in chosen:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            out.update(seed=seed, wall_s=wall)
            runs.append(out)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']}", flush=True)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report["workloads"][workload] = {"runs": runs, "metrics": metrics,
                                         "failed_shares": shares}
        ok &= all(r["correct"] for r in runs) and len(shares) == 1
        print(f"\n{workload}: failed share(s) {shares}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] >= bound / 3:
                flag = f"  <-- spread >= bound/3 ({bound / 3:.3f})"
            print(f"  {name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
        print()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.label}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
