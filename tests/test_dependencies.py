"""The runtime dependencies of fillorder are the ones pyproject.toml lists.

One test runs the library in a fresh interpreter where `sortedcontainers`
cannot be imported; the other compares the third-party modules that
`src/fillorder` imports with the `dependencies` of pyproject.toml, so a
dependency can be neither added unnoticed nor left stale.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WITHOUT_SORTEDCONTAINERS = """
import sys
sys.modules["sortedcontainers"] = None  # any import of it raises ImportError

import numpy as np
import fillorder
from fillorder.generators import grid2d_graph
from fillorder.graph import figure_example_graph
from fillorder.sketch import new_sketch

sk = new_sketch(figure_example_graph(), np.random.default_rng(7))
for v in (4, 6, 1):
    sk.pivot_vertex(v)
    cg = sk.cgraph
    for u in cg.remaining_vertices():
        closed = cg.fill_neighborhood(u) | {u}
        assert sk.query_min(u) == min(closed, key=sk.key_of), u

g = grid2d_graph(36)  # 6 x 6
approx = fillorder.approx_min_degree_sequence(g, 0.5, seed=3)
capped = fillorder.delta_capped_min_degree(g, 4, seed=3)
assert sorted(approx.order) == sorted(capped.order) == list(range(g.n))
"""


def test_library_runs_without_sortedcontainers():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SORTEDCONTAINERS],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _imported_top_level(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _declared_dependencies() -> set[str]:
    # a regex rather than tomllib, which needs Python 3.11; the project
    # supports 3.10
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9._-]+", spec).group(0).lower().replace("-", "_")
            for spec in re.findall(r"\"([^\"]+)\"", block)}


def test_third_party_imports_match_declared_dependencies():
    imported = set().union(*map(_imported_top_level, (SRC / "fillorder").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"fillorder"}
    assert third_party == _declared_dependencies() == {"numpy"}
