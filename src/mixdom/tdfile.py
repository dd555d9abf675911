"""The .td text format and the check of a given tree decomposition.

Only the commands that read or write a decomposition (solve --td, trace
--td, decompose, validate) load this module; a plain solve derives its
decomposition with treedec.min_fill_decompose and checks it in walk.py.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, content_lines, line_ints
from .treedec import TreeDecomposition


def validate_td(g: Graph, td: TreeDecomposition) -> list[str]:
    """All violations of the decomposition properties; empty list means ok.

    Checks that the bag graph is a tree, every vertex and edge of g is
    covered by a bag, and each vertex's bags form a connected subtree,
    and that a decomposition read from a .td file declared g's vertex
    count.  Messages name bags and vertices 1-based, as the .gr and .td
    files number them.  A bag vertex or tree edge out of range raises
    ValueError instead.
    """
    violations: list[str] = []
    n_bags = len(td.bags)
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.vertex_count):
                raise ValueError(f"bag {i + 1} contains out-of-range vertex {v + 1}")
    for a, b in td.edges:
        if not (0 <= a < n_bags and 0 <= b < n_bags):
            raise ValueError(f"tree edge ({a + 1}, {b + 1}) references a missing bag")
    if not (0 <= td.root < n_bags):
        raise ValueError(f"root {td.root + 1} references a missing bag")
    if td.vertex_count not in (None, g.vertex_count):
        violations.append(
            f"header declares {td.vertex_count} vertices, the graph has {g.vertex_count}"
        )

    # tree structure: connected with exactly n_bags - 1 edges
    if len(td.edges) != n_bags - 1:
        violations.append(f"tree has {len(td.edges)} edges for {n_bags} bags")
    adjacency: list[list[int]] = [[] for _ in range(n_bags)]
    for a, b in td.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {td.root}
    stack = [td.root]
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n_bags:
        violations.append("bag tree is not connected")

    # index the bags by vertex once; every check below reads only the
    # bags of the vertices it is about
    holding: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            holding[v].append(i)
    for v in range(g.vertex_count):
        if not holding[v]:
            violations.append(f"vertex {v + 1} appears in no bag")
    for u, v in g.edges:
        a, b = (u, v) if len(holding[u]) <= len(holding[v]) else (v, u)
        if not any(b in td.bags[i] for i in holding[a]):
            violations.append(f"edge ({u + 1}, {v + 1}) is contained in no bag")

    # occurrence connectivity: the bags holding v must form a subtree
    for v, bags_of_v in enumerate(holding):
        if not bags_of_v:
            continue
        own = set(bags_of_v)
        start = bags_of_v[0]
        reach = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in adjacency[i]:
                if j in own and j not in reach:
                    reach.add(j)
                    stack.append(j)
        if len(reach) != len(own):
            violations.append(f"bags containing vertex {v + 1} are not connected")
    return violations


# -- .td serialization (1-based on disk, 0-based in memory) ----------------


def parse_td(text: str) -> TreeDecomposition:
    """Parse decomposition text: "s td <#bags> <width+1> <n>" header,
    "b <bag-id> <v...>" bag lines, then tree edge lines "i j".  The
    result keeps n as its vertex_count, which validate_td compares with
    the graph's."""
    header: tuple[int, int, int] | None = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for line_num, line in content_lines(text):
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ValueError(f"line {line_num}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise ValueError(f"line {line_num}: malformed header {line!r}")
            header = tuple(line_ints(line_num, parts[2:]))
        elif parts[0] == "b":
            if header is None:
                raise ValueError(f"line {line_num}: bag before header")
            if len(parts) < 2:
                raise ValueError(f"line {line_num}: bag line without a bag id")
            bag_id, *vertices = line_ints(line_num, parts[1:])
            if not (1 <= bag_id <= header[0]):
                raise ValueError(f"line {line_num}: bag id {bag_id} out of range")
            for v in vertices:
                if not (1 <= v <= header[2]):
                    raise ValueError(f"line {line_num}: vertex {v} out of range 1..{header[2]}")
            if bag_id - 1 in bags:
                raise ValueError(f"line {line_num}: duplicate bag {bag_id}")
            bags[bag_id - 1] = frozenset(v - 1 for v in vertices)
        else:
            if header is None:
                raise ValueError(f"line {line_num}: edge before header")
            if len(parts) != 2:
                raise ValueError(f"line {line_num}: malformed edge line {line!r}")
            a, b = line_ints(line_num, parts)
            if not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise ValueError(f"line {line_num}: edge bag id out of range")
            edges.append((a - 1, b - 1))
    if header is None:
        raise ValueError("missing header line")
    if len(bags) != header[0]:
        raise ValueError(f"header declares {header[0]} bags, found {len(bags)}")
    bag_list = tuple(bags[i] for i in range(header[0]))
    width_plus_1 = max((len(b) for b in bag_list), default=0)
    if width_plus_1 != header[1]:
        raise ValueError(
            f"header declares max bag size {header[1]}, found {width_plus_1}"
        )
    return TreeDecomposition(bag_list, tuple(edges), 0, header[2])


def write_td(td: TreeDecomposition, vertex_count: int) -> str:
    """The decomposition as .td text, for a graph of vertex_count vertices."""
    width_plus_1 = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {len(td.bags)} {width_plus_1} {vertex_count}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1), *[str(v + 1) for v in sorted(bag)]]))
    lines.extend(f"{a + 1} {b + 1}" for a, b in td.edges)
    return "\n".join(lines) + "\n"


def from_bags(bags: Iterable[Iterable[int]], edges: Iterable[tuple[int, int]], root: int = 0) -> TreeDecomposition:
    """Convenience constructor from plain iterables."""
    return TreeDecomposition(
        tuple(frozenset(b) for b in bags), tuple(edges), root
    )
