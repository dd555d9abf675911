"""The bag walk shared by the nine-state (dp.py) and six-state (mds6.py)
programs.

walk() checks the decomposition against the graph, reading the bags it
reaches from the root and requiring it to reach each one once, visits the
bags of a very nice decomposition children first, hands each bag to the
program's operation for its kind and releases child tables once their
parent is built.  It then forgets the root bag's vertices in ascending
order, and gamma is the cheapest cost in the one row left: a forget drops
the rows its vertex cannot be completed from, so the forget rule is the
root's feasibility test.  Beyond the check, the walk only orders the
bags: a program supplies a BagScheme built for one graph and one cost
cap, with its leaf, introduce, forget and join operations and how to
find the cheapest cost in a table, and every pruning rule belongs to it.

Pruning.  A scheme built with a cost_cap prunes its tables; without one
nothing is cut, so the tables are the full ones the paper's worked
examples and traces show.  Costs never decrease along either program (an
introduce adds selections, a forget keeps costs, a join charges at least
each side's cost), so a row over the cap extends only to sets over it:
a cap at least the size of some mixed dominating set loses neither the
optimum nor any minimum set.  Each bag operation cuts the table it
forms, except the six-state join, whose table its scheme cuts.  A cut
applies the cost window below and, where flags.py says so, drops the
dominated rows; flags.py gives that argument.  Every cut keeps its
table's minimum, so the window stays exact, and the root bag's forgets
are the same operation, so they are windowed too.  Without enumeration a
capped nine-state introduce also offers each child row only the
selections some minimum set of X ∪ M form needs; dp.py ("Selections")
gives that argument.

Cost window.  Under a cap no table keeps a row (nine-state) or ledger
entry (six-state) costing more than the table's minimum plus the number
of bag vertices k.  This is exact for the optimum and for the family of
minimum sets:

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
"""

from __future__ import annotations

from collections import Counter
from typing import Protocol, TypeVar

from .graph import Graph
from .treedec import NiceTreeDecomposition, postorder_traversal

T = TypeVar("T")


class BagScheme(Protocol[T]):
    """The per-program half of the walk: bag operations on tables of type T,
    for one graph and under one cost cap (None: full tables)."""

    cost_cap: int | None

    def leaf(self, bag: frozenset[int]) -> T: ...

    def introduce(self, child: T, vertex: int) -> T: ...

    def forget(self, child: T, vertex: int) -> T: ...

    def join(self, left: T, right: T) -> T: ...

    def min_cost(self, table: T) -> int | None:
        """Cheapest cost in the table; None when it is empty."""


_ARITY = {"leaf": 0, "introduce": 1, "forget": 1, "join": 2}


def _check_decomposition(
    g: Graph, ntd: NiceTreeDecomposition, tau: list[int] | None
) -> list[int]:
    """Raise ValueError unless the decomposition is a tree of bags that fits
    g, and return the order to walk it in: tau, or a postorder by default.

    The check walks the tree from ntd.root and reads only what it reaches:
    every node must be reached exactly once (no unreachable bag, no child
    listed twice), hold vertices of g and match its operation, every
    vertex must leave the decomposition exactly once, and the bags must
    cover every edge of g.  A given tau must list every node once, each
    after its children, which puts the root last.

    A vertex leaves at each forget of it, and at the root if the root bag
    holds it.  With every bag matching its operation, the bags holding a
    vertex form subtrees that are each left once: above a top bag other
    than the root sits a bag without the vertex, and only a forget drops
    one.  So one exit per vertex is the running-intersection property,
    and it also puts every vertex in some bag.

    In a very nice decomposition every edge inside some bag is inside a
    bag that introduces one endpoint over a child holding the other: a
    lowest bag holding both ends is no leaf (one vertex), no forget (its
    child holds more) and no join (its children hold the same).  So edge
    coverage is read off the introduce bags alone, wherever the
    decomposition puts its joins.
    """
    nodes = ntd.nodes
    if not 0 <= ntd.root < len(nodes):
        raise ValueError(f"root {ntd.root} is not a node")
    exits = Counter(nodes[ntd.root].bag)
    seen_edges: set[int] = set()
    reached = [False] * len(nodes)
    reached[ntd.root] = True
    walked = 0
    stack = [ntd.root]
    while stack:
        idx = stack.pop()
        walked += 1
        node = nodes[idx]
        if _ARITY.get(node.kind) != len(node.children):
            raise ValueError(
                f"bag {idx} of kind {node.kind} has {len(node.children)} children"
            )
        for c in node.children:
            if not 0 <= c < len(nodes) or reached[c]:
                raise ValueError(f"node {c} is reached twice or does not exist")
            reached[c] = True
            stack.append(c)
        for v in node.bag:
            if not 0 <= v < g.vertex_count:
                raise ValueError(f"bag vertex {v} is not in the graph")
        below = [nodes[c].bag for c in node.children]
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
            exits.update(below[0] - node.bag)
        else:
            expected = node.bag if below == [node.bag, node.bag] else None
        if node.bag != expected:
            raise ValueError("bag content does not match the operation")
    if walked != len(nodes):
        raise ValueError(
            f"{len(nodes) - walked} bags are not reachable from the root"
        )
    for v in range(g.vertex_count):
        if exits[v] != 1:
            raise ValueError(f"vertex {v} leaves the decomposition {exits[v]} times")
    if seen_edges != set(range(g.edge_count)):
        raise ValueError("decomposition does not cover the graph")
    if tau is None:
        return postorder_traversal(ntd)
    done = [False] * len(nodes)
    for idx in tau:
        if not 0 <= idx < len(nodes) or done[idx]:
            raise ValueError(f"tau lists node {idx} twice or does not exist")
        for c in nodes[idx].children:
            if not done[c]:
                raise ValueError(f"tau lists node {idx} before its children")
        done[idx] = True
    if len(tau) != len(nodes):
        raise ValueError("tau does not list every node")
    return tau


def walk(
    g: Graph,
    ntd: NiceTreeDecomposition,
    scheme: BagScheme[T],
    tau: list[int] | None = None,
    collect_tables: bool = False,
) -> tuple[T, int, tuple[T, ...] | None]:
    """Run one program along tau (default: postorder, root last) and return
    the empty bag's table left after forgetting the root bag, gamma and,
    with collect_tables, every bag's table in walk order (the root bag's
    forgets are not collected).

    Raises ValueError when the decomposition does not fit the graph, tau
    is not an order of all its bags with children first, or no feasible
    row is left under the scheme's cost cap.
    """
    tau = _check_decomposition(g, ntd, tau)
    tables: dict[int, T] = {}
    collected: list[T] = []
    for idx in tau:
        node = ntd.nodes[idx]
        if node.kind == "leaf":
            t = scheme.leaf(node.bag)
        elif node.kind == "introduce":
            t = scheme.introduce(tables[node.children[0]], node.vertex)
        elif node.kind == "forget":
            t = scheme.forget(tables[node.children[0]], node.vertex)
        else:
            t = scheme.join(tables[node.children[0]], tables[node.children[1]])
        if collect_tables:
            collected.append(t)
        else:
            for c in node.children:
                del tables[c]
        tables[idx] = t

    for v in sorted(ntd.nodes[tau[-1]].bag):
        t = scheme.forget(t, v)
    gamma = scheme.min_cost(t)
    if gamma is None:
        if scheme.cost_cap is not None:
            raise ValueError(f"cost_cap {scheme.cost_cap} is below the optimum")
        raise AssertionError("no feasible root row; the full set always dominates")
    return t, gamma, tuple(collected) if collect_tables else None
