"""Command line interface.

Subcommands: solve (dynamic programs or exhaustive search), decompose,
validate, oracle, trace, and bench.  Graphs and decompositions travel in
the 1-based text formats of graph.parse_gr and treedec.parse_td.

Exit codes: 0 success, 1 unreadable or malformed input or unwritable
output, 2 decomposition problems (validation failure, mismatch with the
graph, unusable options), 3 exhaustive search refused by the size guard.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from .dp import DPResult, render_table, run_dp
from .graph import Graph, parse_gr
from .mds6 import run6
from .oracle import SizeGuardError, brute_force, greedy_upper_bound
from .treedec import (
    NiceTreeDecomposition,
    TreeDecomposition,
    make_very_nice,
    min_fill_decompose,
    parse_td,
    postorder_traversal,
    validate_td,
    write_td,
)

SCHEMA = "mixdom-report/1"


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(1, f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(1, f"cannot write {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    try:
        return parse_gr(_read_text(path))
    except ValueError as exc:
        raise CliError(1, f"{path}: {exc}") from exc


def _load_td(path: str) -> TreeDecomposition:
    try:
        return parse_td(_read_text(path))
    except ValueError as exc:
        raise CliError(1, f"{path}: {exc}") from exc


def _problems(g: Graph, td: TreeDecomposition) -> list[str]:
    try:
        return validate_td(g, td)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc


def _decomposition(g: Graph, args) -> TreeDecomposition:
    if args.td:
        td = _load_td(args.td)
        problems = _problems(g, td)
        if problems:
            raise CliError(2, "; ".join(problems))
        return td
    return min_fill_decompose(g)


def _very_nice(g: Graph, td: TreeDecomposition) -> NiceTreeDecomposition:
    try:
        return make_very_nice(td)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc


def _element_lists(g: Graph, mask: int) -> dict:
    """1-based vertices and edge endpoint pairs of a mixed set, read off its
    set bits only, lowest first."""
    vertices = []
    edges = []
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        if i < g.vertex_count:
            vertices.append(i + 1)
        else:
            edges.append([x + 1 for x in g.endpoints(i - g.vertex_count)])
        mask ^= low
    edges.sort()
    return {"vertices": vertices, "edges": edges}


def _family(g: Graph, masks) -> list[dict]:
    out = [_element_lists(g, mask) for mask in masks]
    out.sort(key=lambda s: (s["vertices"], s["edges"]))
    return out


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _report(args, payload: dict) -> None:
    """One top-level field per line, and one item per line in a list such
    as the minimum sets.  Each piece goes through json.dumps without
    indent, which runs the C encoder; an indented dump of a report with
    thousands of sets took several times as long."""
    fields = []
    for key, value in payload.items():
        if isinstance(value, list) and value:
            items = ",\n".join("    " + json.dumps(item) for item in value)
            text = "[\n" + items + "\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f"  {json.dumps(key)}: {text}")
    _emit(args, "{\n" + ",\n".join(fields) + "\n}\n")


def _render_trace(g: Graph, ntd: NiceTreeDecomposition, tau, tables) -> str:
    sections = []
    for pos, idx in enumerate(tau):
        node = ntd.nodes[idx]
        head = f"bag {pos + 1}: {node.kind}"
        if node.vertex is not None:
            head += f" vertex {node.vertex + 1}"
        sections.append(head + "\n" + render_table(tables[pos]))
    return "\n\n".join(sections) + "\n"


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    if args.algo != "amds" and args.trace:
        raise CliError(2, "--trace requires --algo amds")
    if args.algo == "six" and args.enumerate:
        raise CliError(2, "--algo six computes the number only; drop --enumerate")

    started = time.perf_counter()
    width = None
    if args.algo == "oracle":
        try:
            result = brute_force(g, enumerate_all=args.enumerate)
        except SizeGuardError as exc:
            raise CliError(3, str(exc)) from exc
        gamma, min_sets = result.gamma, result.min_sets
    elif g.vertex_count == 0:
        gamma, min_sets = 0, frozenset({0}) if args.enumerate else None
    else:
        td = _decomposition(g, args)
        width = td.width()
        ntd = _very_nice(g, td)
        tau = postorder_traversal(ntd)
        # pruning bound; traces show the full tables, so no cap there
        cap = None if args.trace else greedy_upper_bound(g)
        try:
            if args.algo == "six":
                gamma, min_sets = run6(g, ntd, tau=tau, cost_cap=cap).gamma, None
            else:
                res: DPResult = run_dp(
                    g,
                    ntd,
                    tau=tau,
                    enumerate_sets=args.enumerate,
                    collect_tables=bool(args.trace),
                    cost_cap=cap,
                )
                gamma, min_sets = res.gamma, res.min_sets
                if args.trace:
                    _write_text(args.trace, _render_trace(g, ntd, tau, res.tables))
        except ValueError as exc:
            raise CliError(2, str(exc)) from exc
    seconds = time.perf_counter() - started

    payload = {
        "schema": SCHEMA,
        "command": "solve",
        "algorithm": args.algo,
        "graph": {"vertices": g.vertex_count, "edges": g.edge_count},
        "width": width,
        "gamma": gamma,
    }
    if min_sets is not None:
        payload["minimum_set_count"] = len(min_sets)
        payload["minimum_sets"] = _family(g, min_sets)
    payload["seconds"] = round(seconds, 6)
    _report(args, payload)
    return 0


def cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    td = min_fill_decompose(g)
    _emit(args, write_td(td, g.vertex_count))
    return 0


def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    td = _load_td(args.td)
    problems = _problems(g, td)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 2
    print(f"ok: {len(td.bags)} bags, width {td.width()}")
    return 0


def cmd_oracle(args) -> int:
    args.algo = "oracle"
    args.td = None
    args.trace = None
    return cmd_solve(args)


def cmd_trace(args) -> int:
    g = _load_graph(args.graph)
    if g.vertex_count == 0:
        raise CliError(2, "nothing to trace: the graph has no vertices")
    td = _decomposition(g, args)
    ntd = _very_nice(g, td)
    tau = postorder_traversal(ntd)
    try:
        res = run_dp(g, ntd, tau=tau, collect_tables=True)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc
    _emit(args, _render_trace(g, ntd, tau, res.tables))
    return 0


def _random_partial_ktree(rng: random.Random, n: int, width: int, keep: float) -> Graph:
    """Random n-vertex graph of treewidth at most width: grow a k-tree,
    then drop each edge independently with probability 1 - keep."""
    k = min(width, max(n - 1, 0))
    edges = {(u, v) for u in range(k + 1) for v in range(u + 1, min(k + 1, n))}
    cliques = [tuple(range(min(k, n)))] if n > k else []
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        for u in base:
            edges.add((u, v))
        for drop in range(len(base)):
            cliques.append(base[:drop] + base[drop + 1:] + (v,))
    kept = [e for e in sorted(edges) if rng.random() < keep]
    return Graph(n, kept)


def cmd_bench(args) -> int:
    if args.n < 1:
        raise CliError(2, f"--n must be at least 1, got {args.n}")
    if args.width < 0:
        raise CliError(2, f"--width must be at least 0, got {args.width}")
    if not 0 <= args.keep <= 1:
        raise CliError(2, f"--keep must lie in [0, 1], got {args.keep}")
    rng = random.Random(args.seed)
    g = _random_partial_ktree(rng, args.n, args.width, args.keep)
    td = min_fill_decompose(g)
    ntd = make_very_nice(td)
    tau = postorder_traversal(ntd)
    lines = {
        "schema": SCHEMA,
        "command": "bench",
        "graph": {"vertices": g.vertex_count, "edges": g.edge_count},
        "width": td.width(),
        "seed": args.seed,
        "runs": [],
    }
    gammas = set()
    cap = greedy_upper_bound(g)
    for algo in ("amds", "six") if args.algo == "both" else (args.algo,):
        started = time.perf_counter()
        if algo == "amds":
            gamma = run_dp(g, ntd, tau=tau, cost_cap=cap).gamma
        else:
            gamma = run6(g, ntd, tau=tau, cost_cap=cap).gamma
        lines["runs"].append(
            {
                "algorithm": algo,
                "gamma": gamma,
                "seconds": round(time.perf_counter() - started, 6),
            }
        )
        gammas.add(gamma)
    if len(gammas) > 1:
        raise CliError(2, f"algorithms disagree: {sorted(gammas)}")
    _report(args, lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixdom",
        description="Exact mixed domination on graphs of small treewidth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("--graph", required=True, help="input graph (.gr)")

    def add_out(p):
        p.add_argument("--out", help="write output here instead of stdout")

    solve = sub.add_parser("solve", help="compute the mixed domination number")
    add_graph(solve)
    solve.add_argument("--td", help="tree decomposition (.td); derived if absent")
    solve.add_argument(
        "--algo",
        choices=("amds", "six", "oracle"),
        default="amds",
        help="nine-state program, six-state program, or exhaustive search",
    )
    solve.add_argument(
        "--enumerate",
        action="store_true",
        help="also list every minimum mixed dominating set",
    )
    solve.add_argument("--trace", help="write per-bag tables here (amds only)")
    add_out(solve)
    solve.set_defaults(func=cmd_solve)

    decompose = sub.add_parser("decompose", help="emit a tree decomposition")
    add_graph(decompose)
    add_out(decompose)
    decompose.set_defaults(func=cmd_decompose)

    validate = sub.add_parser("validate", help="check a decomposition")
    add_graph(validate)
    validate.add_argument("--td", required=True, help="tree decomposition (.td)")
    validate.set_defaults(func=cmd_validate)

    oracle = sub.add_parser("oracle", help="exhaustive search on small graphs")
    add_graph(oracle)
    oracle.add_argument("--enumerate", action="store_true")
    add_out(oracle)
    oracle.set_defaults(func=cmd_oracle)

    trace = sub.add_parser("trace", help="print per-bag dynamic program tables")
    add_graph(trace)
    trace.add_argument("--td", help="tree decomposition (.td); derived if absent")
    add_out(trace)
    trace.set_defaults(func=cmd_trace)

    bench = sub.add_parser("bench", help="time the programs on a random graph")
    bench.add_argument("--n", type=int, default=100, help="vertex count")
    bench.add_argument("--width", type=int, default=3, help="treewidth bound")
    bench.add_argument("--keep", type=float, default=0.8, help="edge keep rate")
    bench.add_argument("--seed", type=int, default=0, help="random seed")
    bench.add_argument("--algo", choices=("amds", "six", "both"), default="both")
    add_out(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
