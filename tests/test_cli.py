from __future__ import annotations

import ast
import importlib
import json
import os
import random
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES, fixture_text, partial_ktree, path_graph
import mixdom
from mixdom.cli import main
from mixdom.graph import Graph, is_mixed_dominating_set, parse_gr, write_gr
from mixdom.oracle import brute_force
from mixdom.treedec import (
    make_very_nice,
    min_fill_decompose,
    parse_td,
    postorder_traversal,
    validate_td,
)

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
    assert report["algorithm"] == "six"
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


@pytest.mark.parametrize(
    "td, golden", [(None, "g1.trace"), (FIG_TD, "g1-fig1b.trace")]
)
def test_traces_of_the_figure_graph_match_the_goldens(capsys, tmp_path, td, golden):
    # the paper-facing tables, byte for byte: trace prints them, and
    # solve --trace writes the same text
    expected = (FIXTURES / "golden" / golden).read_text()
    td_args = ["--td", td] if td else []
    rc, out, _ = run_cli(capsys, "trace", "--graph", G1, *td_args)
    assert rc == 0
    assert out == expected
    trace_path = tmp_path / "trace.txt"
    run_json(capsys, "solve", "--graph", G1, *td_args, "--trace", str(trace_path))
    assert trace_path.read_text() == expected


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


def test_running_out_of_memory_exits_one(capsys, monkeypatch):
    # a header such as "p tw 100000000000 0" makes Graph allocate more
    # than a memory limit of a few GB allows
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr("mixdom.cli.parse_gr", exhausted)
    rc, out, err = run_cli(capsys, "solve", "--graph", G1)
    assert (rc, out, err) == (1, "", "error: out of memory\n")


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


def grid_text(rows: int, cols: int) -> str:
    n = rows * cols
    edges = [(v, v + 1) for v in range(n) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range(n - cols)]
    return write_gr(Graph(n, edges))


REPORT_GRAPHS = {
    "g1": fixture_text("g1.gr"),
    "grid-3x4": grid_text(3, 4),
    # vertices 4 and 8 isolated; edge lines out of order, endpoints reversed
    "isolated-unordered": "p tw 8 5\n7 6\n3 1\n6 5\n2 1\n3 2\n",
    "empty": "p tw 0 0\n",
}


def per_set_json_dumps(g: Graph, masks) -> str:
    """The minimum sets as one json.dumps per set, sorted by (vertices,
    edges), each edge an endpoint pair and each set's edges sorted."""
    n = g.vertex_count
    sets = []
    for mask in masks:
        vertices = [v + 1 for v in range(n) if mask >> v & 1]
        edges = sorted(
            [u + 1, v + 1] for j, (u, v) in enumerate(g.edges) if mask >> n + j & 1
        )
        sets.append({"vertices": vertices, "edges": edges})
    sets.sort(key=lambda s: (s["vertices"], s["edges"]))
    return "[\n" + ",\n".join("    " + json.dumps(s) for s in sets) + "\n  ]"


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("name", list(REPORT_GRAPHS))
def test_minimum_sets_read_as_one_json_dumps_per_set(capsys, tmp_path, command, name):
    path = tmp_path / f"{name}.gr"
    path.write_text(REPORT_GRAPHS[name])
    rc, out, err = run_cli(capsys, command, "--graph", str(path), "--enumerate")
    assert rc == 0, err
    g = parse_gr(REPORT_GRAPHS[name])
    masks = brute_force(g, enumerate_all=True).min_sets
    assert json.loads(out)["minimum_set_count"] == len(masks)
    sets = out.split('\n  "minimum_sets": ', 1)[1].split(',\n  "seconds": ', 1)[0]
    assert sets == per_set_json_dumps(g, masks)


GOLDEN_REPORT = """\
{
  "schema": "mixdom-report/1",
  "command": "solve",
  "algorithm": "amds",
  "graph": {"vertices": 5, "edges": 3},
  "width": 1,
  "gamma": 3,
  "minimum_set_count": 8,
  "minimum_sets": [
    {"vertices": [1, 3, 5], "edges": []},
    {"vertices": [1, 5], "edges": [[3, 4]]},
    {"vertices": [2, 3, 5], "edges": []},
    {"vertices": [2, 4, 5], "edges": []},
    {"vertices": [2, 5], "edges": [[3, 4]]},
    {"vertices": [3, 5], "edges": [[1, 2]]},
    {"vertices": [4, 5], "edges": [[1, 2]]},
    {"vertices": [5], "edges": [[1, 2], [3, 4]]}
  ],
  "seconds": """


def test_an_enumerating_report_reads_as_pinned(capsys, tmp_path):
    # the path 1-2-3-4 and the isolated vertex 5
    path = tmp_path / "small.gr"
    path.write_text("p tw 5 3\n4 3\n2 1\n3 2\n")
    rc, out, err = run_cli(capsys, "solve", "--graph", str(path), "--enumerate")
    assert rc == 0, err
    head, seconds = out.rsplit(" ", 1)
    assert head + " " == GOLDEN_REPORT
    assert seconds.endswith("\n}\n")
    assert float(seconds[: -len("\n}\n")]) >= 0


@pytest.fixture(params=["empty-graph", "oracle", "trace-empty-graph"])
def shortcut(request, tmp_path):
    """A command that needs no decomposition: solve on an empty graph,
    exhaustive search, or trace on an empty graph."""
    if request.param == "oracle":
        return ["solve", "--graph", G1, "--algo", "oracle"]
    empty = tmp_path / "empty.gr"
    empty.write_text("p tw 0 0\n")
    command = "trace" if request.param == "trace-empty-graph" else "solve"
    return [command, "--graph", str(empty)]


@pytest.mark.parametrize(
    "td_text, code",
    [
        pytest.param(None, 1, id="missing"),
        pytest.param("b 1 1\n", 1, id="malformed"),
        pytest.param("s td 1 1 9\nb 1 9\n", 2, id="does-not-fit"),
    ],
)
def test_solve_checks_a_given_decomposition_before_any_shortcut(
    capsys, tmp_path, shortcut, td_text, code
):
    td = tmp_path / "given.td"
    if td_text is not None:
        td.write_text(td_text)
    rc, out, err = run_cli(capsys, *shortcut, "--td", str(td))
    assert rc == code
    assert out == ""
    assert err.startswith("error:")


def test_a_given_decomposition_leaves_shortcut_reports_unchanged(capsys, tmp_path):
    empty = tmp_path / "empty.gr"
    empty.write_text("p tw 0 0\n")
    td = tmp_path / "empty.td"
    td.write_text("s td 1 0 0\nb 1\n")
    report = run_json(capsys, "solve", "--graph", str(empty), "--td", str(td))
    assert (report["gamma"], report["width"]) == (0, None)
    report = run_json(
        capsys, "solve", "--graph", G1, "--algo", "oracle", "--td", FIG_TD
    )
    assert (report["gamma"], report["width"]) == (2, None)


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


@pytest.mark.parametrize("command", ["solve", "trace", "validate"])
def test_a_header_for_another_vertex_count_exits_two(capsys, tmp_path, command):
    # the bags fit the 3-vertex path, but the header declares 99 vertices
    graph = tmp_path / "p3.gr"
    graph.write_text("p tw 3 2\n1 2\n2 3\n")
    td = tmp_path / "t.td"
    td.write_text("s td 1 3 99\nb 1 1 2 3\n")
    rc, out, err = run_cli(capsys, command, "--graph", str(graph), "--td", str(td))
    assert rc == 2
    assert out == ""
    assert "header declares 99 vertices, the graph has 3" in err
    td.write_text("s td 1 3 3\nb 1 1 2 3\n")
    rc, _, err = run_cli(capsys, command, "--graph", str(graph), "--td", str(td))
    assert rc == 0, err


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
    "text, message",
    [
        ("p tw 3 2\n1 2\n3 3\n", "line 3: self-loop at vertex 3"),
        ("p tw 3 2\n1 2\n2 1\n", "line 3: duplicate edge (1, 2)"),
        ("c bad count\np tw x 2\n", "line 2: 'x' is not an integer"),
        ("p tw 3 2\n1 2\n1 a\n", "line 3: 'a' is not an integer"),
    ],
    ids=["self-loop", "duplicate", "header-token", "edge-token"],
)
def test_graph_errors_name_lines_and_vertices_as_the_file_does(
    capsys, tmp_path, text, message
):
    graph = tmp_path / "bad.gr"
    graph.write_text(text)
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


def loaded_modules(*lines: str) -> set[str]:
    """The mixdom modules, dataclasses and random that a fresh interpreter
    has loaded after running the given lines.  The interpreter runs
    without site (-S), whose start-up hooks may import random."""
    script = "\n".join(
        [
            "import sys",
            *lines,
            "print(sorted(m for m in sys.modules"
            " if m.startswith('mixdom') or m in ('dataclasses', 'random')))",
        ]
    )
    src = str(Path(mixdom.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_engine():
    modules = loaded_modules("import mixdom.cli")
    assert "mixdom.cli" in modules
    assert not modules & {"mixdom.dp", "mixdom.mds6", "mixdom.flags", "dataclasses"}


def test_solve_does_not_import_the_reference_joins():
    # one fresh interpreter per mode, so each mode's engine is seen apart
    for extra, engine, other in [
        ([], "mixdom.mds6", "mixdom.dp"),
        (["--enumerate"], "mixdom.dp", "mixdom.mds6"),
        (["--algo", "six"], "mixdom.mds6", "mixdom.dp"),
    ]:
        modules = loaded_modules(
            "from mixdom.cli import main",
            f"assert main(['solve', '--graph', {G1!r}, *{extra!r}]) == 0",
        )
        assert "mixdom.cli" in modules
        assert "mixdom.reference" not in modules
        assert "mixdom.tables" not in modules
        assert engine in modules and other not in modules, extra
        assert "mixdom.flags" in modules, extra
        assert "dataclasses" not in modules
        assert "random" not in modules


def test_the_default_algorithm_follows_the_mode(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    for extra, algo in [
        ([], "six"),
        (["--enumerate"], "amds"),
        (["--trace", str(trace)], "amds"),
        (["--algo", "amds"], "amds"),
        (["--algo", "oracle"], "oracle"),
    ]:
        report = run_json(capsys, "solve", "--graph", G1, *extra)
        assert (report["algorithm"], report["gamma"]) == (algo, 2), extra
    assert trace.read_text().startswith("bag 1: leaf")


def test_a_run_loads_only_the_modules_it_runs():
    # a capped six-state solve compiles neither the full-table join, the
    # .td format, the oracle, the nine-state engine nor the reference
    modules = loaded_modules(
        "from mixdom.cli import main",
        f"assert main(['solve', '--graph', {G1!r}, '--algo', 'six']) == 0",
    )
    assert "mixdom.mds6" in modules
    assert not modules & {
        "mixdom.transform6",
        "mixdom.tdfile",
        "mixdom.oracle",
        "mixdom.dp",
        "mixdom.reference",
    }
    for extra, module in [
        (["--td", FIG_TD], "mixdom.tdfile"),
        (["--algo", "oracle"], "mixdom.oracle"),
    ]:
        modules = loaded_modules(
            "from mixdom.cli import main",
            f"assert main(['solve', '--graph', {G1!r}, *{extra!r}]) == 0",
        )
        assert module in modules, extra
    assert "mixdom.transform6" in loaded_modules(
        "from mixdom.mds6 import transform_join6"
    )
    assert "mixdom.tdfile" in loaded_modules("from mixdom.treedec import parse_td")


def test_join6_of_full_tables_loads_the_transform_in_a_fresh_interpreter():
    # the reference's _supremum also lives in the transform module, so
    # the reference is imported only after join6 has run
    lines = [
        "import random",
        "from itertools import product",
        "from mixdom.mds6 import SixTable, join6",
        "rng = random.Random(5)",
        "keys = list(product((1, 3, 4, 5, 6, 7), repeat=2))",
        "a, b = (SixTable((0, 1), {k: {rng.randrange(3): rng.randrange(1, 4)}"
        " for k in rng.sample(keys, 20)}) for _ in range(2))",
        "assert 'mixdom.transform6' not in sys.modules",
        "joined = {cap: join6(a, b, cost_cap=cap).rows for cap in (None, 3)}",
        "assert 'mixdom.transform6' in sys.modules",
        "from mixdom.reference import direct_join6",
        "for cap, rows in joined.items():",
        "    assert rows == direct_join6(a, b, cost_cap=cap).rows",
    ]
    assert "mixdom.transform6" in loaded_modules(*lines)


def test_every_traced_name_is_a_callable():
    # the benchmark's trace patches these names from outside; a rename
    # would leave its per-layer metrics null instead of failing a test
    layers = runpy.run_path(str(Path(__file__).parents[1] / "perfbench/layers.py"))
    names = [layers["ROOT_SPAN"][1:], *layers["SPANS"].values()]
    for module, attribute in names:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            module,
            attribute,
        )


def test_six_state_span_counts_read_run6_tables(monkeypatch):
    # the benchmark counts rows and ledger entries of every six-state bag
    # table through SixTable.rows; run its counting functions on the
    # tables of a capped and an uncapped walk
    layers = runpy.run_path(str(Path(__file__).parents[1] / "perfbench/layers.py"))
    counts = {
        span: fn for span, fn in layers["COUNTS"].items() if span.startswith("mds6.")
    }
    assert set(counts) == {"mds6.leaf", "mds6.introduce", "mds6.forget", "mds6.join"}
    calls = []
    for span in counts:
        module, attribute = layers["SPANS"][span]
        target = importlib.import_module(module)

        def recorded(*args, _span=span, _fn=getattr(target, attribute), **kwargs):
            result = _fn(*args, **kwargs)
            calls.append((_span, args, result))
            return result

        monkeypatch.setattr(target, attribute, recorded)
    from mixdom.mds6 import run6
    from mixdom.oracle import greedy_upper_bound

    g = parse_gr(fixture_text("g1.gr"))
    ntd = make_very_nice(min_fill_decompose(g))
    for cap in (None, greedy_upper_bound(g)):
        run6(g, ntd, cost_cap=cap)
    assert {span for span, _, _ in calls} == set(counts)
    for span, args, result in calls:
        counted = counts[span](args, result)
        assert counted["rows_out"] == len(dict(result.rows.items())), span
        assert counted["ledger_entries"] == sum(map(len, result.rows.values())), span
        if span == "mds6.join":
            assert counted["rows_in"] == len(args[0].rows) + len(args[1].rows)


def test_traced_forget_sees_the_table_the_walk_keeps(monkeypatch):
    # the benchmark times and counts the nine-state forget by wrapping
    # forget_reduce, so every row the walk drops at a forget must be gone
    # when that wrapper returns: what it records is the table kept
    from mixdom import dp
    from mixdom.oracle import greedy_upper_bound

    layers = runpy.run_path(str(Path(__file__).parents[1] / "perfbench/layers.py"))
    module, attribute = layers["SPANS"]["dp.forget"]
    count = layers["COUNTS"]["dp.forget"]
    forget_reduce = getattr(importlib.import_module(module), attribute)
    calls = []

    def recorded(*args, **kwargs):
        result = forget_reduce(*args, **kwargs)
        calls.append((len(result), count(args, result)["rows_out"], args, result))
        return result

    monkeypatch.setattr(dp, attribute, recorded)
    rng = random.Random(5)
    cases = [parse_gr(fixture_text("g1.gr"))]
    cases += [partial_ktree(rng, 14, 3), partial_ktree(rng, 10, 4)]
    for enumerate_sets in (False, True):
        cut = 0
        for g in cases:
            ntd = make_very_nice(min_fill_decompose(g))
            calls.clear()
            res = dp.run_dp(
                g,
                ntd,
                enumerate_sets=enumerate_sets,
                collect_tables=True,
                cost_cap=greedy_upper_bound(g),
            )
            kept = [
                table
                for idx, table in zip(postorder_traversal(ntd), res.tables)
                if ntd.nodes[idx].kind == "forget"
            ]
            # the root bag's forgets come last and are not collected
            assert len(calls) == len(kept) + len(ntd.nodes[ntd.root].bag)
            for (at_return, counted, args, result), table in zip(calls, kept):
                assert result is table
                assert at_return == counted == len(table)
                # the uncut forget of the same child, so the cases are
                # known to exercise the cut
                cut += len(forget_reduce(*args[:3])) > len(table)
        assert cut, enumerate_sets


def test_every_traced_span_fires(capsys, monkeypatch):
    # a scheme that bound its bag operations before the benchmark patched
    # them (say as class attributes) would bypass the wrappers and leave
    # per-layer metrics at zero while the names above still resolve
    layers = runpy.run_path(str(Path(__file__).parents[1] / "perfbench/layers.py"))
    root, *root_name = layers["ROOT_SPAN"]
    spans = {root: tuple(root_name), **layers["SPANS"]}
    calls = dict.fromkeys(spans, 0)

    def counting(span, fn):
        def counted(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)

        return counted

    for span, (module, attribute) in spans.items():
        target = importlib.import_module(module)
        fn = getattr(target, attribute)
        monkeypatch.setattr(target, attribute, counting(span, fn))
    g = parse_gr(fixture_text("g1.gr"))
    kinds = {node.kind for node in make_very_nice(min_fill_decompose(g)).nodes}
    assert kinds == {"leaf", "introduce", "forget", "join"}
    cli = importlib.import_module("mixdom.cli")
    for extra in (["--algo", "amds"], ["--algo", "six"]):
        assert cli.main(["solve", "--graph", G1, *extra]) == 0
    capsys.readouterr()
    assert [span for span, count in calls.items() if not count] == []
