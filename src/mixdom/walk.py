"""The bag walk shared by the nine-state (dp.py) and six-state (mds6.py)
programs.

walk() checks the decomposition against the graph, visits the bags of a
very nice decomposition children first, hands each bag to the program's
operation for its kind, releases child tables once their parent is built,
and reads the optimum off the root table.  A program supplies a BagScheme:
its leaf, introduce, forget and join operations, plus how to find the
cheapest cost in a table, how to drop costs above a limit and how to read
gamma from a root table.

Cost window.  When a cost_cap is given, every table is cut after its bag
is built: rows (nine-state) or ledger entries (six-state) costing more
than the table's minimum plus the number of bag vertices k are dropped.
This is exact for the optimum and for the family of minimum sets:

    Let R0 be the cheapest row, with partial solution S0, and R a row
    with partial solution S and cost(R) > cost(R0) + k.  Every processed
    vertex outside the bag is dominated in both rows, and every processed
    edge outside the bag is dominated or waits on a bag endpoint.  Let F
    be any set of not yet processed elements completing S to a mixed
    dominating set.  Then S0, plus every bag vertex, plus F dominates too:
    a bag vertex dominates itself, its neighbours and its incident edges,
    which covers every bag element, every edge waiting on the bag and
    everything a processed element of S could dominate beyond the
    processed part (such an element reaches the rest of the graph only
    through a bag vertex).  Its size is at most cost(R0) + k + |F|, which
    is less than cost(R) + |F|.  So no extension of R is a minimum set,
    and every minimum set still restricts to a row inside the window.

Without a cost_cap nothing is cut, so the tables are the full ones the
paper's worked examples and traces show.
"""

from __future__ import annotations

from typing import Protocol, TypeVar

from .graph import Graph
from .treedec import NiceTreeDecomposition, postorder_traversal

T = TypeVar("T")


class BagScheme(Protocol[T]):
    """The per-program half of the walk: bag operations on tables of type T."""

    def leaf(self, g: Graph, bag: frozenset[int], cost_cap: int | None) -> T: ...

    def introduce(self, g: Graph, child: T, vertex: int, cost_cap: int | None) -> T: ...

    def forget(self, g: Graph, child: T, vertex: int) -> T: ...

    def join(self, g: Graph, left: T, right: T, cost_cap: int | None) -> T: ...

    def min_cost(self, table: T) -> int | None:
        """Cheapest cost in the table; None when it is empty."""

    def drop_above(self, table: T, limit: int) -> T:
        """The table without the costs above limit."""

    def root_gamma(self, table: T) -> int | None:
        """Cheapest cost of a feasible root row; None when there is none."""


def _check_decomposition(g: Graph, ntd: NiceTreeDecomposition) -> None:
    """Raise ValueError unless every bag holds vertices of g and matches its
    operation, and the bags cover every vertex and edge of g.

    In a very nice decomposition every edge inside some bag is inside the
    bag that introduces its later endpoint, so edge coverage is read off
    the introduce bags alone.
    """
    seen_vertices: set[int] = set()
    seen_edges: set[int] = set()
    for node in ntd.nodes:
        for v in node.bag:
            if not 0 <= v < g.vertex_count:
                raise ValueError(f"bag vertex {v} is not in the graph")
        seen_vertices.update(node.bag)
        below = [ntd.nodes[c].bag for c in node.children]
        if node.kind == "leaf":
            expected = node.bag
        elif node.kind == "introduce":
            expected = below[0] | {node.vertex}
            seen_edges.update(
                g.edge_id(node.vertex, u)
                for u in below[0]
                if g.has_edge(node.vertex, u)
            )
        elif node.kind == "forget":
            expected = below[0] - {node.vertex}
        elif node.kind == "join":
            expected = node.bag if below == [node.bag, node.bag] else None
        else:
            raise ValueError(f"unknown bag kind {node.kind}")
        if node.bag != expected:
            raise ValueError("bag content does not match the operation")
    if seen_vertices != set(range(g.vertex_count)) or seen_edges != set(
        range(g.edge_count)
    ):
        raise ValueError("decomposition does not cover the graph")


def walk(
    g: Graph,
    ntd: NiceTreeDecomposition,
    scheme: BagScheme[T],
    tau: list[int] | None = None,
    collect_tables: bool = False,
    cost_cap: int | None = None,
) -> tuple[T, int, tuple[T, ...] | None]:
    """Run one program along tau (default: postorder, root last) and return
    the root table, gamma and, with collect_tables, every bag's table in
    walk order.

    cost_cap is handed to every leaf, introduce and join operation (a
    forget keeps costs) and, when set, also turns on the cost window of
    the module docstring.  Raises ValueError when the decomposition does
    not fit the graph or no feasible root row is left under the cap.
    """
    if tau is None:
        tau = postorder_traversal(ntd)
    _check_decomposition(g, ntd)
    tables: dict[int, T] = {}
    collected: list[T] = []
    for idx in tau:
        node = ntd.nodes[idx]
        if node.kind == "leaf":
            t = scheme.leaf(g, node.bag, cost_cap)
        elif node.kind == "introduce":
            t = scheme.introduce(g, tables[node.children[0]], node.vertex, cost_cap)
        elif node.kind == "forget":
            t = scheme.forget(g, tables[node.children[0]], node.vertex)
        else:
            t = scheme.join(
                g, tables[node.children[0]], tables[node.children[1]], cost_cap
            )
        if cost_cap is not None:
            low = scheme.min_cost(t)
            if low is not None:
                t = scheme.drop_above(t, low + len(node.bag))
        if collect_tables:
            collected.append(t)
        else:
            for c in node.children:
                del tables[c]
        tables[idx] = t

    root = tables[tau[-1]]
    gamma = scheme.root_gamma(root)
    if gamma is None:
        if cost_cap is not None:
            raise ValueError(f"cost_cap {cost_cap} is below the optimum")
        raise AssertionError("no feasible root row; the full set always dominates")
    return root, gamma, tuple(collected) if collect_tables else None
