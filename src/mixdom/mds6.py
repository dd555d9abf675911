"""A six-state dynamic program computing the mixed domination number.

Unlike the nine-state program in dp.py, tables here carry no edge slots:
every edge is settled the moment it is introduced.  A selected edge marks
its endpoints, an edge left undominated is assigned to one endpoint (its
owner) by branching, and only a later selected edge at the owner can
rescue it.  Merged with the observation that the two selected-vertex
states behave identically onward, six vertex states remain:

    1  in the solution
    3  not in the solution, with an incident solution edge
    4  dominated; every incident processed edge dominated or owned elsewhere
    5  undominated; no owned undominated edge
    6  dominated, owning an undominated edge
    7  undominated, owning an undominated edge

Rows map a state tuple to a cost ledger: how many branch outcomes realize
the tuple at each cost.  The counts ride along so that joins can run
through the per-slot zeta transform of the state lattice that _supremum
defines (generalised fast subset convolution, van Rooij, Bodlaender and
Rossmanith, ESA 2009): two tables multiply pointwise and the true pair
counts come back by Moebius inversion; exact integers keep the inversion
lossless.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .treedec import NiceTreeDecomposition
from .walk import walk

CostLedger = dict[int, int]
Rows6 = dict[tuple, CostLedger]

IN_SOLUTION = 1
EDGE_MARK = 3
SETTLED = (1, 3, 4)  # states that survive a forget
STATES = (1, 3, 4, 5, 6, 7)


def _supremum(a: int, b: int) -> int | None:
    """The merge of two states, their least upper bound in the state
    lattice: 5 below 4 and 7, both below 6, 3 on top, and 1 apart, since
    membership must agree (None when it does not)."""
    if (a == IN_SOLUTION) != (b == IN_SOLUTION):
        return None
    if a == IN_SOLUTION:
        return IN_SOLUTION
    if EDGE_MARK in (a, b):
        return EDGE_MARK
    dominated = a in (4, 6) or b in (4, 6)
    pending = a in (6, 7) or b in (6, 7)
    if dominated:
        return 6 if pending else 4
    return 7 if pending else 5


def _below(s: int, x: int) -> bool:
    return _supremum(s, x) == x


def _moebius_row(y: int) -> tuple[tuple[int, int], ...]:
    """(x, mu(y, x)) for every x with mu(y, x) != 0, where mu is the
    lattice's Moebius function: mu(y, y) = 1 and, for y < x, mu(y, x) is
    minus the sum of mu(y, z) over y <= z < x.  States are visited in
    order of how many states lie below them, so each z comes before x."""
    mu: dict[int, int] = {}
    for x in sorted(STATES, key=lambda x: sum(_below(z, x) for z in STATES)):
        if _below(y, x):
            mu[x] = 1 if x == y else -sum(m for z, m in mu.items() if _below(z, x))
    return tuple((x, m) for x, m in mu.items() if m)


# The per-slot zeta and Moebius maps of the lattice.  Transform
# coordinates are labeled by states: coordinate x sums the states below x.
_ZETA = {s: tuple((x, 1) for x in STATES if _below(s, x)) for s in STATES}
_MOEBIUS = {y: _moebius_row(y) for y in STATES}


@dataclass(frozen=True)
class SixTable:
    vertices: tuple[int, ...]  # ascending bag vertices, one slot each
    rows: Rows6


@dataclass(frozen=True)
class Run6Result:
    gamma: int
    tables: tuple[SixTable, ...] | None = None


def _add(ledger: CostLedger, cost: int, count: int) -> None:
    ledger[cost] = ledger.get(cost, 0) + count


def _merge(
    dst: Rows6,
    key: tuple,
    ledger: CostLedger,
    shift: int = 0,
    cost_cap: int | None = None,
) -> None:
    tgt = dst.setdefault(key, {})
    for cost, count in ledger.items():
        if cost_cap is not None and cost + shift > cost_cap:
            continue
        _add(tgt, cost + shift, count)
    if not tgt:
        del dst[key]


def leaf6(g: Graph, bag_vertices) -> SixTable:
    bag = tuple(bag_vertices)
    if len(bag) != 1:
        raise ValueError(f"leaf bag must be a single vertex, got {sorted(bag)}")
    return SixTable(bag, {(1,): {1: 1}, (5,): {0: 1}})


def introduce6(
    g: Graph, table: SixTable, v_new: int, cost_cap: int | None = None
) -> SixTable:
    """Extend every row by the new vertex, branching over its membership,
    over each new edge's membership, and over who owns each new edge that
    comes out undominated."""
    if v_new in table.vertices:
        raise ValueError(f"vertex {v_new} is already in the bag")
    vertices = tuple(sorted(table.vertices + (v_new,)))
    pos_new = vertices.index(v_new)
    old_pos = [i for i in range(len(vertices)) if i != pos_new]
    nbrs = [i for i in old_pos if g.has_edge(v_new, vertices[i])]
    rows: Rows6 = {}

    for ckey, ledger in table.rows.items():
        budget = None if cost_cap is None else cost_cap - min(ledger)
        base = [0] * len(vertices)
        for cpos, i in enumerate(old_pos):
            base[i] = ckey[cpos]
        for dv in (0, 1):
            for bits in range(1 << len(nbrs)):
                selected = [u for t, u in enumerate(nbrs) if bits >> t & 1]
                if budget is not None and dv + len(selected) > budget:
                    continue
                states = base.copy()
                for u in selected:
                    if states[u] != IN_SOLUTION:
                        states[u] = EDGE_MARK
                if dv:
                    for u in nbrs:
                        if states[u] == 5:
                            states[u] = 4
                        elif states[u] == 7:
                            states[u] = 6
                shift = dv + len(selected)
                if dv or selected:
                    # every unselected new edge is dominated from v's side
                    states[pos_new] = 1 if dv else EDGE_MARK
                    _merge(rows, tuple(states), ledger, shift, cost_cap)
                    continue
                # nothing selected: new edges at already-marked neighbors
                # are dominated, the rest need an owner
                open_edges = [u for u in nbrs if states[u] not in (1, 3)]
                dominated = any(base[u] == IN_SOLUTION for u in nbrs)
                for owners in range(1 << len(open_edges)):
                    branch = states.copy()
                    pend_new = False
                    for t, u in enumerate(open_edges):
                        if owners >> t & 1:
                            pend_new = True
                        elif branch[u] == 4:
                            branch[u] = 6
                        elif branch[u] == 5:
                            branch[u] = 7
                    if dominated:
                        branch[pos_new] = 6 if pend_new else 4
                    else:
                        branch[pos_new] = 7 if pend_new else 5
                    _merge(rows, tuple(branch), ledger, 0, cost_cap)
    return SixTable(vertices, rows)


def forget6(table: SixTable, forgotten: int) -> SixTable:
    """Drop the vertex; rows where it is undominated or still owns an
    undominated edge cannot be completed and disappear.  Costs are kept,
    so a forget needs no cost cap."""
    if forgotten not in table.vertices:
        raise ValueError(f"vertex {forgotten} is not in the bag")
    pos = table.vertices.index(forgotten)
    vertices = tuple(v for v in table.vertices if v != forgotten)
    rows: Rows6 = {}
    for key, ledger in table.rows.items():
        if key[pos] in SETTLED:
            _merge(rows, key[:pos] + key[pos + 1:], ledger)
    return SixTable(vertices, rows)


def _transform(rows: Rows6, mapping: dict) -> Rows6:
    """Apply a per-slot linear map (zeta or its inverse) slot by slot."""
    cur = rows
    for i in range(len(next(iter(rows), ()))):
        nxt: Rows6 = {}
        for key, ledger in cur.items():
            for target, sign in mapping[key[i]]:
                tgt = nxt.setdefault(key[:i] + (target,) + key[i + 1:], {})
                for cost, count in ledger.items():
                    _add(tgt, cost, sign * count)
        cur = nxt
    return cur


def zeta6(rows: Rows6) -> Rows6:
    """Per-slot zeta transform: coordinate x of a slot sums the ledgers of
    every state below x in the state lattice."""
    return _transform(rows, _ZETA)


def moebius6(rows: Rows6) -> Rows6:
    """Inverse of zeta6, without zero counts and empty ledgers."""
    out: Rows6 = {}
    for key, ledger in _transform(rows, _MOEBIUS).items():
        clean = {cost: count for cost, count in ledger.items() if count}
        if clean:
            out[key] = clean
    return out


def join6(
    a: SixTable,
    b: SixTable,
    stats: dict | None = None,
    cost_cap: int | None = None,
) -> SixTable:
    """Join through the lattice transform: zeta6 both tables, multiply
    ledgers pointwise, invert with moebius6, and shift costs by the doubly
    selected vertices.  Coordinate x of the product counts the pairs whose
    supremum lies below x, so the inversion yields the pair counts of
    every supremum while touching at most 6^k transform tuples instead of
    pairing rows quadratically.

    With a cost cap, product entries that can only feed capped-away costs
    are dropped early.  A transform key fixes which slots both sides
    selected (its IN_SOLUTION slots, each charged doubly), so the final
    cost of an entry is known up to that constant shift and the kept
    entries invert to the exact uncapped counts at costs within the cap.
    """
    if a.vertices != b.vertices:
        raise ValueError("join children must share the same bag")
    za, zb = zeta6(a.rows), zeta6(b.rows)
    if stats is not None:
        stats["transform_tuples"] = len(za.keys() | zb.keys())
    product: Rows6 = {}
    for key in za.keys() & zb.keys():
        led: CostLedger = {}
        cap_here = None
        if cost_cap is not None:
            cap_here = cost_cap + key.count(IN_SOLUTION)
        for ca, na in za[key].items():
            for cb, nb in zb[key].items():
                if cap_here is not None and ca + cb > cap_here:
                    continue
                _add(led, ca + cb, na * nb)
        if led:
            product[key] = led
    rows: Rows6 = {}
    for key, ledger in moebius6(product).items():
        overlap = key.count(IN_SOLUTION)
        shifted = {
            cost - overlap: count
            for cost, count in ledger.items()
            if cost_cap is None or cost - overlap <= cost_cap
        }
        if any(count < 0 for count in shifted.values()):
            raise AssertionError(f"negative pair count at {key}")
        if shifted:
            rows[key] = shifted
    return SixTable(a.vertices, rows)


class _SixState:
    """The six-state program's half of the bag walk.  Bag operations are
    looked up as module globals on every call, so wrappers installed on
    this module from outside see each call."""

    def leaf(self, g, bag, cost_cap):
        return leaf6(g, bag)

    def introduce(self, g, child, vertex, cost_cap):
        return introduce6(g, child, vertex, cost_cap)

    def forget(self, g, child, vertex):
        return forget6(child, vertex)

    def join(self, g, left, right, cost_cap):
        return join6(left, right, cost_cap=cost_cap)

    def min_cost(self, table: SixTable) -> int | None:
        return min((min(ledger) for ledger in table.rows.values()), default=None)

    def drop_above(self, table: SixTable, limit: int) -> SixTable:
        rows: Rows6 = {}
        for key, ledger in table.rows.items():
            if max(ledger) > limit:
                ledger = {cost: n for cost, n in ledger.items() if cost <= limit}
            if ledger:
                rows[key] = ledger
        return SixTable(table.vertices, rows)

    def root_gamma(self, table: SixTable) -> int | None:
        return min(
            (
                cost
                for key, ledger in table.rows.items()
                if all(s in SETTLED for s in key)
                for cost, count in ledger.items()
                if count
            ),
            default=None,
        )


def run6(
    g: Graph,
    ntd: NiceTreeDecomposition,
    tau: list[int] | None = None,
    collect_tables: bool = False,
    cost_cap: int | None = None,
) -> Run6Result:
    """Run the six-state program and return the mixed domination number.

    cost_cap prunes ledger entries above the cap at every bag and turns on
    the cost window of walk.py, which also drops entries costing more than
    their table's minimum plus the bag size; see walk.py for why neither
    changes the optimum.  The result is unchanged as long as the cap is at
    least the size of some mixed dominating set, e.g. greedy_upper_bound.
    """
    _, gamma, tables = walk(g, ntd, _SixState(), tau, collect_tables, cost_cap)
    return Run6Result(gamma, tables)
