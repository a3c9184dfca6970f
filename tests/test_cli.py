import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import gnp
from fillorder.bruteforce import total_fill
from fillorder.cli import main
from fillorder.graph import complete_graph
from fillorder.graphio import graph_to_edge_text
from sketch_reference import ReferenceApproxDegreeDS


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("0 1\n1 2\n2 3\n0 3\n")
    return str(path)


def test_order_bruteforce_c4(capsys, c4_file):
    code, out, _ = run_cli(capsys, "order", "--input", c4_file,
                           "--algorithm", "bruteforce", "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == [0, 1, 2, 3]
    assert report["total_fill"] == 1
    assert report["verify"]["passed"] is True
    assert "wall_time" not in report


def test_order_approx_verifies(capsys, tmp_path):
    path = tmp_path / "p6.edges"
    path.write_text("\n".join(f"{i} {i+1}" for i in range(5)))
    code, out, _ = run_cli(capsys, "order", "--input", str(path),
                           "--algorithm", "approx", "--epsilon", "0.5",
                           "--seed", "7", "--verify")
    assert code == 0
    report = json.loads(out)
    pd = report["verify"]["true_degree"]
    md = report["verify"]["min_degree"]
    assert all(p <= 1.5 * m for p, m in zip(pd, md))


def test_order_missing_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "order")
    assert code == 2
    assert "input" in err


def test_order_unreadable_input_exits_1(capsys):
    code, _, _ = run_cli(capsys, "order", "--input", "/nonexistent/file.edges")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["order", "--algorithm", "approx"],
    ["order", "--algorithm", "delta-capped"],
    ["order", "--algorithm", "output-sensitive"],
    ["order", "--algorithm", "bruteforce"],
    ["estimate", "--mode", "degree", "--vertex", "0"],
    ["estimate", "--mode", "buckets"],
], ids=lambda argv: argv[-1] if argv[0] == "order" else argv[2])
def test_input_without_vertices_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "empty.edges"
    path.write_text("# comments only\n")
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "fillorder: input graph has no vertices\n"


def test_order_parse_error_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("zero one\n")
    code, _, _ = run_cli(capsys, "order", "--input", str(path))
    assert code == 1


def test_order_bad_flag_combination(capsys, c4_file):
    code, _, _ = run_cli(capsys, "order", "--input", c4_file,
                         "--algorithm", "delta-capped", "--delta", "0")
    assert code == 2


def test_order_byte_identical_given_seed(capsys, c4_file):
    _, out1, _ = run_cli(capsys, "order", "--input", c4_file,
                         "--algorithm", "approx", "--seed", "5")
    _, out2, _ = run_cli(capsys, "order", "--input", c4_file,
                         "--algorithm", "approx", "--seed", "5")
    assert out1 == out2


def test_gen_grid2d_edge_count(capsys):
    code, out, _ = run_cli(capsys, "gen", "--model", "grid2d", "--n", "9")
    assert code == 0
    assert len(out.strip().splitlines()) == 12


def test_gen_mtx_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.mtx"
    code, _, _ = run_cli(capsys, "gen", "--model", "gnp", "--n", "12", "--p", "0.3",
                         "--seed", "4", "--out-format", "mtx", "--output", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "order", "--input", str(out_path),
                           "--format", "mtx", "--algorithm", "bruteforce")
    assert code == 0 and json.loads(out)["n"] == 12


@pytest.mark.parametrize("argv, flag", [
    (("--model", "gnp", "--n", "-1", "--p", "0.5"), "--n"),
    (("--model", "gnp", "--n", "5", "--p", "2"), "--p"),
    (("--model", "gnp", "--n", "5", "--p", "-0.1"), "--p"),
    (("--model", "gnp", "--n", "5", "--p", "nan"), "--p"),
    (("--model", "ov", "--n", "0"), "--n"),
    (("--model", "ov", "--n", "4", "--d", "0"), "--d"),
    (("--model", "ov", "--n", "4", "--density", "1.5"), "--density"),
    (("--model", "ov", "--n", "4", "--density", "-0.5"), "--density"),
    (("--model", "gnp", "--n", "0", "--p", "0.5"), "--n"),
    (("--model", "grid2d", "--n", "0"), "--n"),
    (("--model", "grid2d", "--n", "-4"), "--n"),
])
def test_gen_rejects_invalid_parameters(capsys, argv, flag):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and flag in err


@pytest.mark.parametrize("epsilon", ["0", "-0.5", "nan"])
def test_demo_rejects_nonpositive_epsilon(capsys, epsilon):
    code, out, err = run_cli(capsys, "demo", "adversary", "--n", "64", "--epsilon", epsilon)
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "--epsilon" in err


@pytest.mark.parametrize("epsilon", ["0.1", "0.3"])
def test_demo_rejects_epsilon_too_small_for_n(capsys, epsilon):
    # n = 64 needs eps >= sqrt(6 / 64) ~ 0.306 for the sample T to fit
    code, out, err = run_cli(capsys, "demo", "adversary", "--n", "64", "--epsilon", epsilon)
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "--epsilon" in err and "0.3062" in err


def test_demo_accepts_smallest_epsilon_for_n(capsys):
    code, out, _ = run_cli(capsys, "demo", "adversary", "--n", "64", "--epsilon", "0.31")
    assert code == 0 and json.loads(out)["t_size"] == 63


def test_demo_rejects_n_below_16(capsys):
    code, out, err = run_cli(capsys, "demo", "adversary", "--n", "8")
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "--n must be at least 16" in err


def test_demo_adversary_fixed(capsys):
    code, out, _ = run_cli(capsys, "demo", "adversary", "--mode", "fixed",
                           "--n", "64", "--epsilon", "0.5", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["recovered_fraction"] == 1.0


def test_estimate_degree_on_figure_state(capsys, tmp_path):
    path = tmp_path / "fig.edges"
    path.write_text("1 0\n1 2\n1 6\n6 0\n6 4\n4 5\n3 4\n")
    code, out, _ = run_cli(capsys, "estimate", "--input", str(path),
                           "--vertex", "1", "--eliminate", "4,6",
                           "--epsilon", "0.25", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["true"] == 5
    assert 0.75 * 5 <= report["estimate"] <= 1.25 * 5


def test_estimate_buckets_mode(capsys, tmp_path):
    path = tmp_path / "p4.edges"
    path.write_text("0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "estimate", "--input", str(path),
                           "--mode", "buckets", "--epsilon", "0.25", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    members = sorted(v for b in report["buckets"] for v in b["vertices"])
    assert members == [0, 1, 2, 3]


@pytest.mark.parametrize("mode", ["degree", "buckets"])
def test_estimate_rejects_nonpositive_epsilon(capsys, c4_file, mode):
    code, out, err = run_cli(capsys, "estimate", "--input", c4_file, "--mode", mode,
                             "--vertex", "0", "--epsilon", "0")
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "--epsilon" in err


def test_estimate_buckets_rejects_epsilon_above_half(capsys, c4_file):
    code, out, err = run_cli(capsys, "estimate", "--input", c4_file, "--mode", "buckets",
                             "--epsilon", "0.7")
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "--epsilon" in err


def test_estimate_buckets_rejects_eliminating_every_vertex(capsys, c4_file):
    code, out, err = run_cli(capsys, "estimate", "--input", c4_file, "--mode", "buckets",
                             "--eliminate", "0,1,2,3", "--sketches", "4")
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "--eliminate" in err


@pytest.mark.parametrize("sketches", ["0", "-3"])
def test_estimate_buckets_rejects_sketches_below_one(capsys, c4_file, sketches):
    code, out, err = run_cli(capsys, "estimate", "--input", c4_file, "--mode", "buckets",
                             "--sketches", sketches)
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "--sketches" in err


def test_env_seed_default(capsys, c4_file, monkeypatch):
    monkeypatch.setenv("FILLORDER_SEED", "41")
    code, out, _ = run_cli(capsys, "order", "--input", c4_file, "--algorithm", "approx")
    assert code == 0
    assert json.loads(out)["seed"] == 41


@pytest.mark.parametrize("value", ["abc", "1.5", "0x10"])
def test_env_seed_not_an_integer_exits_2(capsys, c4_file, monkeypatch, value):
    monkeypatch.setenv("FILLORDER_SEED", value)
    code, out, err = run_cli(capsys, "order", "--input", c4_file, "--algorithm", "approx")
    assert code == 2 and out == ""
    assert err.startswith("fillorder:") and "FILLORDER_SEED" in err and "Traceback" not in err
    # an explicit --seed does not read the variable
    code, out, _ = run_cli(capsys, "gen", "--model", "grid2d", "--n", "4", "--seed", "3")
    assert code == 0 and out


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.delenv("FILLORDER_SEED", raising=False)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "fillorder", "gen", "--model", "grid2d",
                           "--n", "9"], capture_output=True, timeout=60, env=env)
    code, out, _ = run_cli(capsys, "gen", "--model", "grid2d", "--n", "9")
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def test_verify_refused_above_limit(capsys, tmp_path):
    path = tmp_path / "big.edges"
    path.write_text("\n".join(f"{i} {i+1}" for i in range(2100)))
    code, _, err = run_cli(capsys, "order", "--input", str(path), "--verify")
    assert code == 2
    assert "2000" in err


@pytest.mark.parametrize("algorithm", ["bruteforce", "delta-capped", "output-sensitive", "approx"])
def test_order_total_fill_matches_replay(capsys, tmp_path, algorithm):
    g = gnp(40, 0.12, np.random.default_rng(21))
    path = tmp_path / "g.edges"
    path.write_text(graph_to_edge_text(g))
    code, out, _ = run_cli(capsys, "order", "--input", str(path),
                           "--algorithm", algorithm, "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["total_fill"] == total_fill(g, report["order"])


def test_order_total_fill_with_undersized_delta(capsys, tmp_path):
    # delta = 1 on K50 gives too few copies to see every closed neighbour,
    # so the reported degrees undercount; the fill must still be exact
    path = tmp_path / "k50.edges"
    path.write_text(graph_to_edge_text(complete_graph(50)))
    code, out, _ = run_cli(capsys, "order", "--input", str(path),
                           "--algorithm", "delta-capped", "--delta", "1", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert sum(report["reported_degree"]) - report["m"] < 0
    assert report["total_fill"] == total_fill(complete_graph(50), report["order"]) == 0


def test_estimate_buckets_pinned_to_reference(capsys, tmp_path):
    g = gnp(60, 0.08, np.random.default_rng(22))
    path = tmp_path / "g.edges"
    path.write_text(graph_to_edge_text(g))
    eliminate = [5, 17, 3, 40, 22]
    code, out, _ = run_cli(capsys, "estimate", "--input", str(path), "--mode", "buckets",
                           "--eliminate", ",".join(map(str, eliminate)),
                           "--epsilon", "0.25", "--sketches", "40", "--seed", "4")
    assert code == 0
    ref = ReferenceApproxDegreeDS(g, 0.25, seed=4, k=40)
    for v in eliminate:
        ref.pivot(v)
    assert json.loads(out) == {
        "schema": 1,
        "mode": "buckets",
        "eliminated": eliminate,
        "epsilon": 0.25,
        "seed": 4,
        "sketches": 40,
        "buckets": [
            {"bucket": b, "vertices": sorted(members),
             "range": [1.25 ** -(b + 1), 1.25 ** -b]}
            for b, members in ref.report()
        ],
    }
