"""Exact and approximate greedy minimum-degree elimination orderings."""

from .graph import StaticGraph, from_edges
from .graphio import load_graph
from .bruteforce import (
    exact_mindeg_bruteforce,
    fill_degree_bruteforce,
    fill_graph_bruteforce,
    total_fill,
)
from .component import ComponentGraph
from .sketch import SketchEnsemble
from .exact import delta_capped_min_degree, output_sensitive_min_degree
from .buckets import ApproxDegreeDS, static_one_degree_quantiles
from .colcount import (
    estimate_fill_1degree,
    estimate_mean,
    estimate_nonzero_columns,
    estimate_nonzero_columns_slow,
)
from .ordering import approx_min_degree_sequence
from .result import OrderingResult

__all__ = [
    "ApproxDegreeDS",
    "ComponentGraph",
    "OrderingResult",
    "SketchEnsemble",
    "StaticGraph",
    "approx_min_degree_sequence",
    "delta_capped_min_degree",
    "estimate_fill_1degree",
    "estimate_mean",
    "estimate_nonzero_columns",
    "estimate_nonzero_columns_slow",
    "exact_mindeg_bruteforce",
    "fill_degree_bruteforce",
    "fill_graph_bruteforce",
    "from_edges",
    "load_graph",
    "output_sensitive_min_degree",
    "static_one_degree_quantiles",
    "total_fill",
]

__version__ = "0.1.0"
