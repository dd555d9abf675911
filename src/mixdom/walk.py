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

Memo.  Under a cap and without enumeration a bag operation's table is a
function of the bag's shape, of its child tables shifted to cost 0 and of
how far the cap sits above their minimum.  So both programs' operations
keep the tables they form in one memo, keyed by the operation, the shape,
each child's rows as (word, cost - minimum[, count]) and that slack, each
table stored shifted the same way, and a key met before rebuilds its table
by adding the minimum back.  This is exact:

    Every cost an operation forms is a child cost plus an amount that
    the words and the shape fix (a selection, a branch, a join pair's
    shared members), so shifting the child costs by c shifts every
    formed cost by c, and a join's by the sum of both shifts.  Every cut
    is relative: the cost window is the table's own minimum plus k, and
    the dominated-row pass compares costs within one table, so both
    shift alike.  The cap is the one absolute bound, cost <= cap, which
    reads as shifted cost <= cap - minimum, the slack.  Past the point
    where the operation's own limit is tighter, a larger slack changes
    nothing, so the key clips the slack there: at k for an introduce,
    whose cheapest pair is the child's cheapest row; at the largest
    shifted pair cost for a join; at 1, the dearer leaf row, for a leaf.
    A forget reads no cap, so its key holds no slack.  The graph enters
    only through the shape: the bag's vertex count, its edge endpoint
    positions and the vertex's position (six-state: the vertex's
    position and its bag neighbours' positions).  A six-state table's
    counts are read as they are, so they are part of the key.  The key
    lists the rows in the order the table holds them, so a hit rebuilds
    the table the operation would have formed, in the same order.

An enumerating walk's rows link to the row objects they were built from,
and an uncapped walk builds the full tables that traces show, so neither
uses the memo.  Nor does an operation whose child tables hold more than
MEMO_CHILD_ROWS rows in all: its key would cost a good share of the
operation, and such tables seldom repeat.  Over the perfbench graphs and
the bench rungs of width 3 to 5, 9 of 264 operations on 129 to 256 child
rows and 1 of 203 on more met a key seen before.  The memo holds at most
MEMO_ROWS rows, counting each entry's child rows and table rows, and is
emptied when a new entry would pass that bound.  It lives inside the
operations, so anything that wraps an operation from outside still sees
every bag.
"""

from __future__ import annotations

from typing import Protocol, TypeVar

from .graph import Graph
from .treedec import NiceTreeDecomposition

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

# the rows the memo holds at most, and the child rows past which an
# operation does not use it (module docstring, "Memo")
MEMO_ROWS = 1 << 15
MEMO_CHILD_ROWS = 128


class Memo(dict):
    """Tables of capped, non-enumerating bag operations by key (module
    docstring, "Memo"); rows counts the rows of the entries held."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound
        self.rows = 0

    def store(self, key, value, rows: int) -> None:
        """Keep value under key, emptying the memo first when rows more
        would pass the bound; an entry larger than the bound is not kept."""
        if self.rows + rows > self.bound:
            self.clear()
            if rows > self.bound:
                return
        self.rows += rows
        self[key] = value

    def clear(self) -> None:
        super().clear()
        self.rows = 0


# the one memo of both programs; each key starts with its operation's name
memo = Memo(MEMO_ROWS)


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

    A bag is compared with its child's by subset tests and sizes, without
    building either side's expected set: B is C plus v exactly when v is
    in B, C is inside B and B has one vertex more than C unless C holds v,
    and B is C less v exactly when the same holds with B and C swapped and
    v outside B.
    """
    nodes = ntd.nodes
    n = g.vertex_count
    if not 0 <= ntd.root < len(nodes):
        raise ValueError(f"root {ntd.root} is not a node")
    exits = [0] * n
    for v in nodes[ntd.root].bag:
        if 0 <= v < n:
            exits[v] += 1
    covered = bytearray(g.edge_count)
    has_edge, edge_id = g.has_edge, g.edge_id
    reached = [False] * len(nodes)
    reached[ntd.root] = True
    order = []  # root first, each node before its children, last child first
    stack = [ntd.root]
    while stack:
        idx = stack.pop()
        order.append(idx)
        bag, kind, v, children = nodes[idx]
        if _ARITY.get(kind) != len(children):
            raise ValueError(f"bag {idx} of kind {kind} has {len(children)} children")
        for c in children:
            if not 0 <= c < len(nodes) or reached[c]:
                raise ValueError(f"node {c} is reached twice or does not exist")
            reached[c] = True
            stack.append(c)
        if bag and not (0 <= min(bag) and max(bag) < n):
            bad = next(u for u in bag if not 0 <= u < n)
            raise ValueError(f"bag vertex {bad} is not in the graph")
        if kind == "leaf":
            continue
        below = nodes[children[0]].bag
        if kind == "introduce":
            for u in below:
                if has_edge(v, u):
                    covered[edge_id(v, u)] = 1
            fits = v in bag and below <= bag and len(bag) == len(below) + (v not in below)
        elif kind == "forget":
            fits = v not in bag and bag <= below and len(below) == len(bag) + (v in below)
            if fits and v in below and 0 <= v < n:
                exits[v] += 1
        else:
            fits = below == bag == nodes[children[1]].bag
        if not fits:
            raise ValueError("bag content does not match the operation")
    if len(order) != len(nodes):
        raise ValueError(
            f"{len(nodes) - len(order)} bags are not reachable from the root"
        )
    if exits.count(1) != n:
        v = next(v for v, count in enumerate(exits) if count != 1)
        raise ValueError(f"vertex {v} leaves the decomposition {exits[v]} times")
    if 0 in covered:
        raise ValueError("decomposition does not cover the graph")
    if tau is None:
        # each node is reached before its children, the last child first,
        # so the reverse is a postorder with the first child first
        order.reverse()
        return order
    done = [False] * len(nodes)
    for idx in tau:
        if not 0 <= idx < len(nodes) or done[idx]:
            raise ValueError(f"tau lists node {idx} twice or does not exist")
        _, _, _, children = nodes[idx]
        for c in children:
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
    nodes = ntd.nodes
    for idx in tau:
        bag, kind, vertex, children = nodes[idx]
        if kind == "leaf":
            t = scheme.leaf(bag)
        elif kind == "introduce":
            t = scheme.introduce(tables[children[0]], vertex)
        elif kind == "forget":
            t = scheme.forget(tables[children[0]], vertex)
        else:
            t = scheme.join(tables[children[0]], tables[children[1]])
        if collect_tables:
            collected.append(t)
        else:
            for c in children:
                del tables[c]
        tables[idx] = t

    for v in sorted(nodes[tau[-1]].bag):
        t = scheme.forget(t, v)
    gamma = scheme.min_cost(t)
    if gamma is None:
        if scheme.cost_cap is not None:
            raise ValueError(f"cost_cap {scheme.cost_cap} is below the optimum")
        raise AssertionError("no feasible root row; the full set always dominates")
    return t, gamma, tuple(collected) if collect_tables else None
