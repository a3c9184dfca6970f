"""Graph ingestion: Matrix Market coordinate patterns and plain edge lists."""

from __future__ import annotations

import io
from typing import IO

from .graph import StaticGraph, from_edges


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _text_lines(source) -> list[str]:
    if isinstance(source, (bytes, bytearray)):
        return source.decode("utf-8", errors="replace").splitlines()
    if isinstance(source, str):
        return source.splitlines()
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    return data.splitlines()


def load_matrix_market(source) -> StaticGraph:
    """Parse a Matrix Market coordinate file as a symmetric 0/1 pattern.

    Accepts `real`, `pattern`, and `integer` fields; values are ignored.
    Diagonal entries and duplicates are dropped.  A `general` matrix must
    have a symmetric nonzero pattern.
    """
    lines = _text_lines(source)
    if not lines:
        raise ParseError("empty input")
    header = lines[0].strip().lower().split()
    if len(header) < 5 or header[0] not in ("%%matrixmarket",) or header[1] != "matrix":
        raise ParseError("missing %%MatrixMarket matrix header", 1)
    fmt, field, symmetry = header[2], header[3], header[4]
    if fmt != "coordinate":
        raise ParseError(f"unsupported format {fmt!r} (only coordinate)", 1)
    if field not in ("real", "pattern", "integer"):
        raise ParseError(f"unsupported field {field!r}", 1)
    if symmetry not in ("symmetric", "general"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1)

    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing size line")
    size_parts = lines[idx].split()
    if len(size_parts) != 3:
        raise ParseError("size line must be 'rows cols nnz'", idx + 1)
    try:
        rows, cols, nnz = (int(p) for p in size_parts)
    except ValueError:
        raise ParseError("size line must be integers", idx + 1) from None
    if rows != cols:
        raise ParseError(f"matrix is {rows}x{cols}, expected square", idx + 1)

    entries: set[tuple[int, int]] = set()
    count = 0
    for lineno in range(idx + 1, len(lines)):
        raw = lines[lineno].strip()
        if not raw or raw.startswith("%"):
            continue
        parts = raw.split()
        if len(parts) < 2:
            raise ParseError("entry needs at least row and column", lineno + 1)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad entry {raw!r}", lineno + 1) from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(f"entry ({i}, {j}) out of range", lineno + 1)
        entries.add((i - 1, j - 1))
        count += 1
    if count != nnz:
        raise ParseError(f"expected {nnz} entries, found {count}")

    if symmetry == "general":
        for i, j in entries:
            if i != j and (j, i) not in entries:
                raise ParseError(f"general matrix has asymmetric pattern at ({i + 1}, {j + 1})")
    return from_edges(rows, [(i, j) for i, j in entries if i != j])


def load_edge_list(source, one_based: bool = False) -> StaticGraph:
    """Parse whitespace-separated `u v` pairs; `#` starts a comment.

    Vertex ids must be integers; n is 1 + the largest id seen (after the
    1-based shift), so isolated low-numbered vertices are preserved.
    """
    lines = _text_lines(source)
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {text!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {text!r}", lineno) from None
        if one_based:
            u, v = u - 1, v - 1
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {text!r}", lineno)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    return from_edges(max_id + 1, edges)


def load_graph(source, format: str, one_based: bool = False) -> StaticGraph:
    if format == "mtx":
        return load_matrix_market(source)
    if format == "edges":
        return load_edge_list(source, one_based=one_based)
    raise ValueError(f"unknown format {format!r}")


def write_edge_list(g: StaticGraph, out: IO[str]) -> None:
    for u, v in g.edges():
        out.write(f"{u} {v}\n")


def write_matrix_market(g: StaticGraph, out: IO[str]) -> None:
    edges = g.edges()
    out.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
    out.write(f"{g.n} {g.n} {len(edges)}\n")
    for u, v in edges:
        hi, lo = max(u, v), min(u, v)
        out.write(f"{hi + 1} {lo + 1}\n")


def graph_to_edge_text(g: StaticGraph) -> str:
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()
