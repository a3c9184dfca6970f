"""Command-line interface.

Subcommands: `order` runs an ordering algorithm on an input graph,
`estimate` probes fill 1-degrees or degree buckets on a partial
elimination, `gen` writes generated instances, `demo` runs the
adversary demonstration.  All output is JSON on stdout; reports embed
the seed and parameters, and identical invocations produce identical
bytes (timings only appear under --timing).

Exit codes: 0 ok, 1 parse/IO error, 2 invalid flags, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time

from .bruteforce import exact_mindeg_bruteforce, fill_degree_bruteforce, greedy_degree_trace, total_fill
from .buckets import ApproxDegreeDS, sketch_count
from .colcount import estimate_fill_1degree
from .component import ComponentGraph
from .exact import delta_capped_min_degree, output_sensitive_min_degree
from .generators import adversary_demo, gnp_graph, grid2d_graph, ov_hard_graph, random_ov_instance
from .graph import StaticGraph
from .graphio import ParseError, graph_to_edge_text, load_graph, write_matrix_market
from .ordering import approx_min_degree_sequence
from . import rng as rngmod

VERIFY_LIMIT = 2000

EXIT_OK = 0
EXIT_IO = 1
EXIT_FLAGS = 2
EXIT_VERIFY = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message


def _default_seed() -> int:
    env = os.environ.get("FILLORDER_SEED")
    return int(env) if env else 0


def _load_input(args) -> StaticGraph:
    if not args.input:
        raise _CliError(EXIT_FLAGS, "missing --input")
    try:
        with open(args.input, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise _CliError(EXIT_IO, f"cannot read {args.input}: {e}") from e
    try:
        g = load_graph(data, args.format, one_based=getattr(args, "one_based", False))
    except ParseError as e:
        raise _CliError(EXIT_IO, f"parse error: {e}") from e
    except ValueError as e:
        raise _CliError(EXIT_IO, str(e)) from e
    if g.n == 0:
        raise _CliError(EXIT_IO, "input graph has no vertices")
    return g


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_order(args) -> int:
    g = _load_input(args)
    seed = args.seed
    t0 = time.perf_counter()
    if args.algorithm == "bruteforce":
        result = exact_mindeg_bruteforce(g)
    elif args.algorithm == "delta-capped":
        delta = args.delta if args.delta is not None else g.n
        if delta < 1:
            raise _CliError(EXIT_FLAGS, "--delta must be at least 1")
        result = delta_capped_min_degree(g, delta, seed)
    elif args.algorithm == "output-sensitive":
        result = output_sensitive_min_degree(g, seed)
    elif args.algorithm == "approx":
        if not 0 < args.epsilon <= 0.5:
            raise _CliError(EXIT_FLAGS, "--epsilon must be in (0, 1/2]")
        result = approx_min_degree_sequence(g, args.epsilon, seed)
    else:  # pragma: no cover - argparse restricts choices
        raise _CliError(EXIT_FLAGS, f"unknown algorithm {args.algorithm}")
    wall = time.perf_counter() - t0
    if args.algorithm in ("bruteforce", "approx"):
        # both report each pivot's fill degree computed exactly at
        # elimination, and each edge of the filled graph is counted once,
        # at its earlier endpoint.  The sketch drivers' degrees are
        # minimizer counts, exact only with high probability and only
        # below the copy budget, so their fill is replayed.
        fill = sum(result.reported_degree) - g.m
    else:
        fill = total_fill(g, result.order)

    report = {
        "schema": 1,
        "input": args.input,
        "format": args.format,
        "n": g.n,
        "m": g.m,
        "algorithm": args.algorithm,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "seed": seed,
        "order": result.order,
        "reported_degree": result.reported_degree,
        "total_fill": fill,
        "counters": dict(sorted(result.counters.items())),
    }
    verify_failed = False
    if args.verify:
        if g.n > VERIFY_LIMIT:
            raise _CliError(EXIT_FLAGS,
                            f"--verify supports at most {VERIFY_LIMIT} vertices (got {g.n})")
        pivot_deg, min_deg = greedy_degree_trace(g, result.order)
        if args.algorithm == "approx":
            ok = all(p <= (1.0 + args.epsilon) * m for p, m in zip(pivot_deg, min_deg))
        else:
            ok = all(p == m for p, m in zip(pivot_deg, min_deg))
        report["verify"] = {
            "true_degree": pivot_deg,
            "min_degree": min_deg,
            "passed": ok,
        }
        verify_failed = not ok
    if args.timing:
        report["wall_time"] = wall
    _emit(args, report)
    return EXIT_VERIFY if verify_failed else EXIT_OK


def _parse_vertex_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError as e:
        raise _CliError(EXIT_FLAGS, f"bad vertex list {text!r}") from e


def _cmd_estimate(args) -> int:
    if args.mode == "buckets" and not 0 < args.epsilon <= 0.5:
        raise _CliError(EXIT_FLAGS, "--epsilon must be in (0, 1/2]")
    if not args.epsilon > 0:
        raise _CliError(EXIT_FLAGS, "--epsilon must be positive")
    if args.sketches is not None and args.sketches < 1:
        raise _CliError(EXIT_FLAGS, "--sketches must be at least 1")
    g = _load_input(args)
    eliminate = _parse_vertex_list(args.eliminate)
    bad = [v for v in eliminate if not 0 <= v < g.n] or \
        [v for v in set(eliminate) if eliminate.count(v) > 1]
    if bad:
        raise _CliError(EXIT_FLAGS, f"bad --eliminate vertices: {bad}")
    seed = args.seed
    if args.mode == "degree":
        if args.vertex is None:
            raise _CliError(EXIT_FLAGS, "missing --vertex")
        if not 0 <= args.vertex < g.n or args.vertex in eliminate:
            raise _CliError(EXIT_FLAGS, f"vertex {args.vertex} not remaining")
        cg = ComponentGraph(g)
        for v in eliminate:
            cg.pivot(v)
        true_deg1 = fill_degree_bruteforce(g, eliminate, args.vertex) + 1
        est = estimate_fill_1degree(
            cg, args.vertex, args.epsilon,
            rngmod.substream(rngmod.normalize_seed(seed), rngmod.ESTIMATOR, 0, args.vertex))
        payload = {
            "schema": 1,
            "mode": "degree",
            "vertex": args.vertex,
            "eliminated": eliminate,
            "epsilon": args.epsilon,
            "seed": seed,
            "true": true_deg1,
            "estimate": est,
        }
    else:  # buckets
        if len(eliminate) == g.n:
            raise _CliError(EXIT_FLAGS, "--eliminate leaves no vertex to bucket")
        k = args.sketches if args.sketches is not None else min(sketch_count(g.n, args.epsilon), 2000)
        ds = ApproxDegreeDS(g, args.epsilon, seed, k=k)
        for v in eliminate:
            ds.pivot(v)
        payload = {
            "schema": 1,
            "mode": "buckets",
            "eliminated": eliminate,
            "epsilon": args.epsilon,
            "seed": seed,
            "sketches": k,
            "buckets": [
                {"bucket": b.bucket_id, "vertices": list(b),
                 "range": [(1 + args.epsilon) ** -(b.bucket_id + 1),
                           (1 + args.epsilon) ** -b.bucket_id]}
                for b in ds.report()
            ],
        }
    _emit(args, payload)
    return EXIT_OK


def _cmd_gen(args) -> int:
    seed = args.seed
    if args.model == "gnp":
        if args.p is None:
            raise _CliError(EXIT_FLAGS, "gnp requires --p")
        g = gnp_graph(args.n, args.p, rngmod.substream(rngmod.normalize_seed(seed), rngmod.GENERATOR))
    elif args.model == "grid2d":
        try:
            g = grid2d_graph(args.n)
        except ValueError as e:
            raise _CliError(EXIT_FLAGS, str(e)) from e
    elif args.model == "ov":
        vectors = random_ov_instance(args.n, args.d, args.density, seed)
        g, _ = ov_hard_graph(vectors)
    else:  # pragma: no cover
        raise _CliError(EXIT_FLAGS, f"unknown model {args.model}")
    if args.out_format == "edges":
        text = graph_to_edge_text(g)
    else:
        buf = io.StringIO()
        write_matrix_market(g, buf)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_demo(args) -> int:
    if args.what != "adversary":
        raise _CliError(EXIT_FLAGS, f"unknown demo {args.what!r}")
    try:
        report = adversary_demo(args.n, args.epsilon, args.mode, args.seed)
    except ValueError as e:
        raise _CliError(EXIT_FLAGS, str(e)) from e
    _emit(args, {"schema": 1, **report})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fillorder",
        description="Exact and approximate greedy minimum-degree orderings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="compute an elimination ordering")
    p_order.add_argument("--input", required=False)
    p_order.add_argument("--format", choices=["mtx", "edges"], default="edges")
    p_order.add_argument("--one-based", action="store_true")
    p_order.add_argument("--algorithm", default="bruteforce",
                         choices=["bruteforce", "delta-capped", "output-sensitive", "approx"])
    p_order.add_argument("--epsilon", type=float, default=0.5)
    p_order.add_argument("--delta", type=int, default=None)
    p_order.add_argument("--seed", type=int, default=_default_seed())
    p_order.add_argument("--verify", action="store_true")
    p_order.add_argument("--timing", action="store_true")
    p_order.add_argument("--output")
    p_order.set_defaults(func=_cmd_order)

    p_est = sub.add_parser("estimate", help="probe fill degrees on a partial elimination")
    p_est.add_argument("--input", required=False)
    p_est.add_argument("--format", choices=["mtx", "edges"], default="edges")
    p_est.add_argument("--one-based", action="store_true")
    p_est.add_argument("--mode", choices=["degree", "buckets"], default="degree")
    p_est.add_argument("--vertex", type=int, default=None)
    p_est.add_argument("--eliminate", default="")
    p_est.add_argument("--epsilon", type=float, default=0.25)
    p_est.add_argument("--sketches", type=int, default=None)
    p_est.add_argument("--seed", type=int, default=_default_seed())
    p_est.add_argument("--output")
    p_est.set_defaults(func=_cmd_estimate)

    p_gen = sub.add_parser("gen", help="generate benchmark instances")
    p_gen.add_argument("--model", required=True, choices=["gnp", "grid2d", "ov"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--d", type=int, default=4)
    p_gen.add_argument("--density", type=float, default=0.5)
    p_gen.add_argument("--out-format", choices=["edges", "mtx"], default="edges")
    p_gen.add_argument("--seed", type=int, default=_default_seed())
    p_gen.add_argument("--output")
    p_gen.set_defaults(func=_cmd_gen)

    p_demo = sub.add_parser("demo", help="run demonstrations")
    p_demo.add_argument("what", choices=["adversary"])
    p_demo.add_argument("--mode", choices=["fixed", "fresh"], default="fixed")
    p_demo.add_argument("--n", type=int, default=4096)
    p_demo.add_argument("--epsilon", type=float, default=0.5)
    p_demo.add_argument("--seed", type=int, default=_default_seed())
    p_demo.add_argument("--output")
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_FLAGS if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _CliError as e:
        print(f"fillorder: {e.message}", file=sys.stderr)
        return e.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
