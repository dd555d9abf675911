from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_text, path_graph
import mixdom
from mixdom.cli import main
from mixdom.graph import Graph, is_mixed_dominating_set, parse_gr, write_gr
from mixdom.treedec import parse_td, validate_td

G1 = str(FIXTURES / "g1.gr")
FIG_TD = str(FIXTURES / "fig1b.td")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_solve_reports_the_domination_number(capsys):
    report = run_json(capsys, "solve", "--graph", G1)
    assert report["schema"] == "mixdom-report/1"
    assert report["algorithm"] == "amds"
    assert report["graph"] == {"vertices": 5, "edges": 6}
    assert report["width"] == 2
    assert report["gamma"] == 2
    assert "minimum_sets" not in report


def test_solve_enumerates_minimum_sets(capsys):
    report = run_json(capsys, "solve", "--graph", G1, "--enumerate")
    assert report["minimum_set_count"] == 2
    assert report["minimum_sets"] == [
        {"vertices": [4], "edges": [[1, 2]]},
        {"vertices": [4], "edges": [[2, 3]]},
    ]


def test_solve_accepts_a_decomposition_file(capsys):
    report = run_json(capsys, "solve", "--graph", G1, "--td", FIG_TD)
    assert report["width"] == 2
    assert report["gamma"] == 2


def test_solve_with_the_six_state_program(capsys):
    report = run_json(capsys, "solve", "--graph", G1, "--algo", "six")
    assert report["gamma"] == 2
    assert "minimum_sets" not in report


def test_solve_with_the_oracle(capsys):
    report = run_json(capsys, "solve", "--graph", G1, "--algo", "oracle", "--enumerate")
    assert report["gamma"] == 2
    assert report["width"] is None
    assert report["minimum_set_count"] == 2


def test_six_cannot_enumerate(capsys):
    rc, _, err = run_cli(capsys, "solve", "--graph", G1, "--algo", "six", "--enumerate")
    assert rc == 2
    assert "enumerate" in err


def test_solve_writes_a_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.txt"
    report = run_json(
        capsys, "solve", "--graph", G1, "--td", FIG_TD, "--trace", str(trace_path)
    )
    assert report["gamma"] == 2
    sections = trace_path.read_text().split("\n\n")
    assert len(sections) == 12
    first = sections[0].splitlines()
    assert first[0] == "bag 1: leaf"
    assert first[1].startswith("vertices: ")
    assert first[2:] == ["2 |  | 1", "5 |  | 0"]


def test_trace_command_prints_the_same_tables(capsys, tmp_path):
    trace_path = tmp_path / "trace.txt"
    run_json(capsys, "solve", "--graph", G1, "--td", FIG_TD, "--trace", str(trace_path))
    rc, out, _ = run_cli(capsys, "trace", "--graph", G1, "--td", FIG_TD)
    assert rc == 0
    assert out == trace_path.read_text()


def test_malformed_graph_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw 2 1\n1 5\n")
    rc, _, err = run_cli(capsys, "solve", "--graph", str(bad))
    assert rc == 1
    assert "error:" in err


def test_missing_file_exits_one(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "solve", "--graph", str(tmp_path / "absent.gr"))
    assert rc == 1
    assert "cannot read" in err


def test_validate_accepts_the_fixture(capsys):
    rc, out, _ = run_cli(capsys, "validate", "--graph", G1, "--td", FIG_TD)
    assert rc == 0
    assert out.startswith("ok:")


def test_validate_reports_problems(capsys, tmp_path):
    td = tmp_path / "bad.td"
    td.write_text("s td 1 1 5\nb 1 1\n")
    rc, _, err = run_cli(capsys, "validate", "--graph", G1, "--td", str(td))
    assert rc == 2
    assert err.strip()


def test_solve_rejects_a_wrong_decomposition(capsys, tmp_path):
    td = tmp_path / "bad.td"
    td.write_text("s td 1 1 5\nb 1 1\n")
    rc, _, err = run_cli(capsys, "solve", "--graph", G1, "--td", str(td))
    assert rc == 2
    assert "error:" in err


def test_oracle_size_guard_exits_three(capsys, tmp_path):
    n = 25
    lines = [f"p tw {n} {n - 1}"] + [f"{v} {v + 1}" for v in range(1, n)]
    big = tmp_path / "path.gr"
    big.write_text("\n".join(lines) + "\n")
    rc, _, err = run_cli(capsys, "oracle", "--graph", str(big))
    assert rc == 3
    assert "guard" in err


def test_decompose_emits_a_valid_decomposition(capsys, tmp_path):
    out = tmp_path / "g1.td"
    rc, _, _ = run_cli(capsys, "decompose", "--graph", G1, "--out", str(out))
    assert rc == 0
    td = parse_td(out.read_text())
    g = parse_gr(fixture_text("g1.gr"))
    assert validate_td(g, td) == []
    assert td.width() == 2


def test_empty_graph_solves_to_zero(capsys, tmp_path):
    empty = tmp_path / "empty.gr"
    empty.write_text("p tw 0 0\n")
    report = run_json(capsys, "solve", "--graph", str(empty), "--enumerate")
    assert report["gamma"] == 0
    assert report["minimum_sets"] == [{"vertices": [], "edges": []}]


def test_bench_times_both_programs(capsys):
    report = run_json(capsys, "bench", "--n", "30", "--width", "2", "--seed", "5")
    assert report["command"] == "bench"
    assert {r["algorithm"] for r in report["runs"]} == {"amds", "six"}
    gammas = {r["gamma"] for r in report["runs"]}
    assert len(gammas) == 1
    assert report["width"] <= 2


@pytest.mark.parametrize("algo", ["amds", "six"])
def test_solve_on_a_long_path(capsys, tmp_path, default_recursion_limit, algo):
    path = tmp_path / "p1500.gr"
    path.write_text(write_gr(path_graph(1500)))
    report = run_json(capsys, "solve", "--graph", str(path), "--algo", algo)
    assert report["gamma"] == 600
    assert report["width"] == 1


@pytest.mark.parametrize("command", ["solve", "trace", "validate"])
@pytest.mark.parametrize(
    "td_text, message",
    [
        ("s td 1 3 5\nb 1 1 2 5\n", "out-of-range vertex"),
        ("s td 0 0 3\n", "missing bag"),
    ],
)
def test_unusable_decomposition_exits_two(capsys, tmp_path, command, td_text, message):
    graph = tmp_path / "p3.gr"
    graph.write_text("p tw 3 2\n1 2\n2 3\n")
    td = tmp_path / "bad.td"
    td.write_text(td_text)
    rc, _, err = run_cli(capsys, command, "--graph", str(graph), "--td", str(td))
    assert rc == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "option, value",
    [
        pytest.param("--n", "0", id="0"),
        pytest.param("--n", "-1", id="-1"),
        pytest.param("--width", "-1", id="width-negative"),
        pytest.param("--keep", "1.5", id="keep-above-one"),
        pytest.param("--keep", "-0.1", id="keep-below-zero"),
        pytest.param("--keep", "nan", id="keep-nan"),
    ],
)
def test_bench_rejects_an_empty_graph_size(capsys, option, value):
    rc, out, err = run_cli(capsys, "bench", option, value)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and option in err


def test_bag_line_without_an_id_exits_one(capsys, tmp_path):
    td = tmp_path / "bad.td"
    td.write_text("s td 1 2 5\nb\n")
    rc, _, err = run_cli(capsys, "solve", "--graph", G1, "--td", str(td))
    assert rc == 1
    assert err.startswith("error:") and "line 2" in err


@pytest.mark.parametrize("option", ["--out", "--trace"])
def test_unwritable_output_exits_one(capsys, tmp_path, option):
    target = str(tmp_path / "absent" / "out.txt")
    rc, out, err = run_cli(capsys, "solve", "--graph", G1, option, target)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "cannot write" in err


def test_validate_names_vertices_as_the_files_do(capsys, tmp_path):
    graph = tmp_path / "p3.gr"
    graph.write_text("p tw 3 2\n1 2\n2 3\n")
    td = tmp_path / "short.td"
    td.write_text("s td 1 2 3\nb 1 1 2\n")
    rc, _, err = run_cli(capsys, "validate", "--graph", str(graph), "--td", str(td))
    assert rc == 2
    assert "vertex 3 appears in no bag" in err
    assert "edge (2, 3) is contained in no bag" in err


@pytest.mark.parametrize(
    "edge_lines, message",
    [
        ("1 2\n3 3\n", "line 3: self-loop at vertex 3"),
        ("1 2\n2 1\n", "line 3: duplicate edge (1, 2)"),
    ],
    ids=["self-loop", "duplicate"],
)
def test_graph_errors_name_lines_and_vertices_as_the_file_does(
    capsys, tmp_path, edge_lines, message
):
    graph = tmp_path / "bad.gr"
    graph.write_text("p tw 3 2\n" + edge_lines)
    rc, _, err = run_cli(capsys, "solve", "--graph", str(graph))
    assert rc == 1
    assert err.startswith("error:") and message in err


def test_a_path_of_ten_thousand_vertices_end_to_end(
    capsys, tmp_path, default_recursion_limit
):
    n = 10_000
    graph = tmp_path / "p10000.gr"
    graph.write_text(write_gr(path_graph(n)))
    report = run_json(capsys, "solve", "--graph", str(graph))
    # ceil(2n/5), one less when n = 3 (mod 5)
    assert report["gamma"] == -(-2 * n // 5) - (1 if n % 5 == 3 else 0) == 4000
    assert report["width"] == 1
    td = tmp_path / "p10000.td"
    rc, _, err = run_cli(capsys, "decompose", "--graph", str(graph), "--out", str(td))
    assert rc == 0, err
    rc, out, err = run_cli(capsys, "validate", "--graph", str(graph), "--td", str(td))
    assert rc == 0, err
    assert out.startswith("ok: 10000 bags, width 1")


@pytest.mark.parametrize("algo", ["amds", "six"])
def test_a_star_of_ten_thousand_vertices_solves_quickly(capsys, tmp_path, algo):
    # every bag holds the hub, so a bag must cost its own size and not the
    # hub's degree
    n = 10_000
    graph = tmp_path / "star.gr"
    graph.write_text(write_gr(Graph(n, [(0, v) for v in range(1, n)])))
    started = time.perf_counter()
    report = run_json(capsys, "solve", "--graph", str(graph), "--algo", algo)
    seconds = time.perf_counter() - started
    assert report["gamma"] == 1
    assert seconds < 10.0, f"{algo} on the star took {seconds:.2f}s"


def test_enumerating_a_long_path_stays_fast(tmp_path):
    # the minimum sets of a path are expanded from the optimal root rows
    # only; carrying whole witness sets on every row took 44 s at n = 150
    n = 300
    g = path_graph(n)
    graph = tmp_path / "p300.gr"
    graph.write_text(write_gr(g))
    src = str(Path(mixdom.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "mixdom.cli", "solve", "--graph", str(graph),
         "--enumerate"],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["gamma"] == 120
    assert report["minimum_set_count"] == 121
    masks = {
        g.mixed_set(
            [v - 1 for v in s["vertices"]],
            [g.edge_id(u - 1, v - 1) for u, v in s["edges"]],
        )
        for s in report["minimum_sets"]
    }
    assert len(masks) == 121
    for mask in masks:
        assert mask.bit_count() == 120
        assert is_mixed_dominating_set(g, mask)


def test_solve_does_not_import_the_reference_joins():
    script = "\n".join(
        [
            "import sys",
            "from mixdom.cli import main",
            "for extra in ([], ['--algo', 'six'], ['--enumerate']):",
            f"    assert main(['solve', '--graph', {G1!r}, *extra]) == 0",
            "print(sorted(m for m in sys.modules if m.startswith('mixdom')))",
        ]
    )
    src = str(Path(mixdom.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    modules = done.stdout.splitlines()[-1]
    assert "'mixdom.cli'" in modules
    assert "mixdom.reference" not in modules
