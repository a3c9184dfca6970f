"""fillorder benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload approx-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from its `src/`.
The workload's inputs come from --seed.  The benchmark sets up the inputs
several times (median -> setup_s), then repeats identical rounds of library
calls for about --seconds, checks every output against its own references,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  --smoke runs every workload at
toy sizes in both modes and exits non-zero if any check fails.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import layers  # noqa: E402  (after the bytecode switch)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# set-up is timed in short batches, one before every round, so that its
# samples span the run as the rounds do
SETUP_BATCH_S = 0.05
SETUP_BATCH_MAX = 20

END_TO_END = [
    ("setup_s", "s"),
    ("call_s", "s"),
    ("total_fill_s", "s"),
    ("total_fill", "edges"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    "graphio.load_s",
    "component.pivot_self_s",
    "component.fill_degree_exact_s",
    "component.fill_degree_exact_calls",
    "component.fill_eval_cost_s",
    "sketch.on_pivot_begin_s",
    "sketch.on_unlink_s",
    "sketch.on_meld_s",
    "sketch.finish_pivot_s",
    "sketch.updates",
    "sketch.informs",
    "sketch.melds",
    "sketch.changed_total",
    "buckets.init_s",
    "buckets.pivot_self_s",
    "buckets.report_s",
    "buckets.k_used",
    "buckets.k_theory",
    "ordering.candidates_s",
    "ordering.driver_self_s",
    "ordering.candidates_total",
    "ordering.survivors_total",
    "ordering.survivor_ratio",
    "ordering.exact_evals",
    "ordering.label_evals",
    "ordering.estimator_calls",
    "exact.add_copies_s",
    "exact.ensemble_pivot_s",
    "exact.table_s",
    "exact.driver_self_s",
    "exact.k",
    "exact.doublings",
    "bruteforce.exact_mindeg_s",
    "bruteforce.total_fill_s",
    "colcount.oracle_build_s",
    "colcount.estimate_self_s",
    "colcount.estimate_p50_ms",
    "colcount.oracle_queries",
    "trace.overhead_s",
    "host.probe_ms",
]


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at this moment.
    Shared hosts swing by up to 2x over seconds; this shows when they did."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(50_000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return time.perf_counter() - t0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_program():
    """Import fillorder from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fillorder
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import fillorder from {src}: {e}")
    if Path(fillorder.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: fillorder imported from {fillorder.__file__}, not {src}")
    return fillorder


def run(fo, workload: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    wl = workloads.WORKLOADS[workload](fo, seed, sizes)
    tracer = layers.Tracer(fo) if trace else None

    setup_times = []

    def setup_batch():
        t0 = time.perf_counter()
        for _ in range(SETUP_BATCH_MAX):
            ts = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - ts)
            if time.perf_counter() - t0 >= SETUP_BATCH_S:
                break

    setup_layers = {}
    if tracer is not None:
        wl.setup(tracer)
        setup_layers = tracer.snapshot()

    rounds, traced_rounds, traced_layers, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        setup_batch()
        probes.append(host_probe())
        traced = tracer is not None and (len(rounds) + len(traced_rounds)) % 2 == 1
        ts = time.perf_counter()
        r = wl.round(tracer if traced else None)
        last = time.perf_counter() - ts
        if traced:
            traced_rounds.append(r)
            traced_layers.append({**tracer.snapshot(), **r.counts})
        else:
            rounds.append(r)
        enough = traced_rounds or tracer is None
        if enough and time.perf_counter() - start + last > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = wl.check(rounds + traced_rounds)
    host_probe_ms = 1e3 * statistics.median(probes)
    print(f"[{workload}] setup reps {len(setup_times)}; call_s per round: untraced "
          f"{[round(r.call_s, 4) for r in rounds]}, traced "
          f"{[round(r.call_s, 4) for r in traced_rounds]}; host probe "
          f"{host_probe_ms:.2f} ms", file=sys.stderr)
    for line in verdict.notes:
        print(f"[{workload}] {line}", file=sys.stderr)
    for line in verdict.problems:
        print(f"[{workload}] CHECK FAILED: {line}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "call_s": statistics.median(r.call_s for r in rounds),
            "total_fill_s": statistics.median(r.total_fill_s for r in rounds),
            "total_fill": verdict.total_fill,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        values = {}
        for name in PER_LAYER:
            per_round = statistics.median(d.get(name, 0) for d in traced_layers)
            values[name] = per_round + setup_layers.get(name, 0)
        values["trace.overhead_s"] = (statistics.median(r.call_s for r in traced_rounds)
                                      - statistics.median(r.call_s for r in rounds))
        values["host.probe_ms"] = host_probe_ms
        units = {name: layer_unit(name) for name in PER_LAYER}
    return {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def smoke(fo) -> int:
    ok = True
    t0 = time.perf_counter()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            out = run(fo, name, seed=1, seconds=0.0, trace=trace, sizes=workloads.SMOKE)
            ok &= out["correct"]
            print(f"smoke {name} trace={int(trace)}: correct={out['correct']} "
                  f"attempted={out['attempted']} failed={out['failed']} "
                  f"metrics={len(out['metrics'])}")
    print(f"smoke {'passed' if ok else 'FAILED'} in {time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy sizes in both modes")
    args = ap.parse_args(argv)
    fo = import_program()
    if args.smoke:
        return smoke(fo)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    out = run(fo, args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
