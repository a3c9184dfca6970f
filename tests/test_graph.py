import pytest

from fillorder.graph import StaticGraph, from_edges, figure_example_graph
from fillorder.graphio import (
    ParseError,
    graph_to_edge_text,
    load_edge_list,
    load_graph,
    load_matrix_market,
    write_matrix_market,
)
import io


def test_two_edge_path_from_edge_list():
    g = load_graph("0 1\n1 2", "edges")
    assert g.n == 3 and g.m == 2
    assert g.adj[1] == (0, 2)


def test_matrix_market_identity_pattern_drops_diagonal():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 1\n2 2\n3 3\n"
    g = load_matrix_market(text)
    assert g.n == 3 and g.m == 0


def test_figure_graph_adjacency():
    g = figure_example_graph()
    assert g.n == 7 and g.m == 7
    # v5 (id 4) is adjacent to v4, v6, v7 (ids 3, 5, 6)
    assert g.adj[4] == (3, 5, 6)


def test_duplicate_edges_and_self_loops_dropped():
    g = from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)])
    assert g.m == 1
    assert g.adj[2] == ()


def test_asymmetric_adjacency_rejected():
    with pytest.raises(ValueError):
        StaticGraph(2, [(1,), ()])


def test_adjacency_must_be_sorted():
    with pytest.raises(ValueError):
        StaticGraph(3, [(2, 1), (2,), (0, 1)])


def test_edge_list_one_based():
    g = load_edge_list("1 2\n2 3\n", one_based=True)
    assert g.n == 3 and g.adj[1] == (0, 2)


def test_edge_list_comments_and_errors():
    g = load_edge_list("# header\n0 1  # trailing\n\n1 2\n")
    assert g.m == 2
    with pytest.raises(ParseError) as e:
        load_edge_list("0 1\n1 two\n")
    assert e.value.line == 2


def test_matrix_market_general_requires_symmetric_pattern():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.5\n"
    with pytest.raises(ParseError):
        load_matrix_market(text)
    ok = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5\n2 1 1.5\n"
    assert load_matrix_market(ok).m == 1


def test_matrix_market_errors_carry_line_numbers():
    with pytest.raises(ParseError):
        load_matrix_market("not a header\n")
    with pytest.raises(ParseError) as e:
        load_matrix_market("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n9 1\n")
    assert e.value.line == 3


def test_roundtrip_through_writers():
    g = figure_example_graph()
    assert load_graph(graph_to_edge_text(g), "edges") == g
    buf = io.StringIO()
    write_matrix_market(g, buf)
    assert load_graph(buf.getvalue(), "mtx") == g


def test_unknown_format_name_is_refused():
    with pytest.raises(ValueError, match="unknown format 'edge-list'"):
        load_graph("0 1\n", "edge-list")
