"""The 9-state dynamic program over very nice tree decompositions.

Computes the mixed domination number and, on request, every minimum mixed
dominating set.  Each bag carries a table of rows; a row assigns one state
to every bag vertex and bag edge (see tables.py for the state meanings),
records the cheapest cost of any partial solution realizing those states,
and optionally the witness sets achieving that cost.

Rows are keyed by the full state tuple (vertex states in ascending vertex
id order, then edge states in ascending edge order).  A row's states pin
down exactly which bag elements its partial solutions select, which is
what makes min-cost deduplication sound.

Bag operations follow the paper's rules: an introduce merges the child's
table with the bag-local table through the ⋆_int/∗_int combination tables
(introduce_combine), a join merges its two children's tables through
⋆_join/∗_join (join_combine), and a forget projects the vanished vertex
away (forget_reduce).  run_dp uses the same merges and leaves out only
pairs that cannot add a row; the shortcuts section below says which.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graph import Graph, is_mixed_dominating_set
from .tables import AST_INT, AST_JOIN, STAR_INT, STAR_JOIN, PoisonCellError
from .treedec import NiceTreeDecomposition
from .walk import walk

MEMBER_VERTEX_STATES = (1, 2)
ROOT_OK_VERTEX = (1, 2, 3, 4)
ROOT_OK_EDGE = (1, 2)


class BagLayout:
    """Canonical slot assignment for one bag: vertices ascending by id,
    then the bag-induced edges ascending by (endpoint, endpoint)."""

    def __init__(self, g: Graph, bag_vertices):
        self.vertices: tuple[int, ...] = tuple(sorted(bag_vertices))
        vset = set(self.vertices)
        eids = sorted(
            eid
            for v in self.vertices
            for eid in g.incident_edges(v)
            if g.endpoints(eid)[0] in vset and g.endpoints(eid)[1] in vset
        )
        self.edges: tuple[int, ...] = tuple(dict.fromkeys(eids))
        self.vpos = {v: i for i, v in enumerate(self.vertices)}
        k = len(self.vertices)
        self.edge_offset = k
        self.epos = {e: k + j for j, e in enumerate(self.edges)}
        self.width = k + len(self.edges)
        # per vertex position: positions of its incident bag edges, and of
        # its bag neighbors (graph-adjacent vertices inside the bag)
        incident: list[list[int]] = [[] for _ in range(k)]
        endpoints: list[tuple[int, int]] = []
        for j, eid in enumerate(self.edges):
            u, v = g.endpoints(eid)
            endpoints.append((self.vpos[u], self.vpos[v]))
            incident[self.vpos[u]].append(k + j)
            incident[self.vpos[v]].append(k + j)
        self.edge_endpoints = tuple(endpoints)
        self.incident = tuple(tuple(x) for x in incident)
        self.neighbors = tuple(
            tuple(self.vpos[u] for u in g.adjacency(v) if u in vset)
            for v in self.vertices
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BagLayout):
            return self.vertices == other.vertices and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))


@dataclass(frozen=True)
class StateRow:
    """One table row in display form."""

    vertex_states: tuple[int, ...]
    edge_states: tuple[int, ...]
    cost: int
    witnesses: frozenset[int] | None = None


def row_key(row: StateRow) -> tuple[int, ...]:
    """Injective table key for a row: the state tuple itself."""
    return row.vertex_states + row.edge_states


class StateTable:
    """Rows of one bag, deduplicated by state tuple keeping minimum cost.

    rows maps the state tuple to [cost, witnesses]; witnesses is None when
    enumeration is off, else the set of global element bitmasks achieving
    that cost.

    cost_cap, when set, silently drops rows costing more.  Costs never
    decrease along the dynamic program (introduces add selections, forgets
    keep cost, joins charge at least each side's cost), so capping at the
    size of any known mixed dominating set is lossless for the optimum and
    for enumeration while keeping tables small on dense bags.  The tighter
    per-bag cost window that run_dp adds under a cap lives in walk.py,
    together with its soundness argument.
    """

    def __init__(
        self,
        layout: BagLayout,
        track_witnesses: bool,
        cost_cap: int | None = None,
    ):
        self.layout = layout
        self.track_witnesses = track_witnesses
        self.cost_cap = cost_cap
        self.rows: dict[tuple[int, ...], list] = {}

    def insert(self, key: tuple[int, ...], cost: int, witnesses: set[int] | None) -> None:
        if self.cost_cap is not None and cost > self.cost_cap:
            return
        entry = self.rows.get(key)
        if entry is None:
            self.rows[key] = [cost, set(witnesses) if witnesses is not None else None]
        elif cost < entry[0]:
            entry[0] = cost
            if self.track_witnesses:
                entry[1] = set(witnesses) if witnesses is not None else None
        elif cost == entry[0] and self.track_witnesses and witnesses:
            entry[1].update(witnesses)

    def state_rows(self) -> Iterator[StateRow]:
        k = len(self.layout.vertices)
        for key in sorted(self.rows):
            cost, wit = self.rows[key]
            yield StateRow(
                key[:k], key[k:], cost, frozenset(wit) if wit is not None else None
            )

    def __len__(self) -> int:
        return len(self.rows)


def enumerate_btable(
    g: Graph,
    bag_vertices,
    track_witnesses: bool = True,
    cost_cap: int | None = None,
) -> StateTable:
    """Bag-local table: one row per subset of the bag's vertices and
    induced edges, with states derived straight from the subset."""
    layout = BagLayout(g, bag_vertices)
    return _local_rows(g, layout, (1 << layout.width) - 1, track_witnesses, cost_cap)


def _local_rows(
    g: Graph,
    layout: BagLayout,
    free: int,
    track_witnesses: bool,
    cost_cap: int | None,
) -> StateTable:
    """Bag-local rows of every selection among the slots in the bitmask
    free (bit p is slot p of layout); the other slots stay unselected.
    Selections are inserted cheapest first."""
    table = StateTable(layout, track_witnesses, cost_cap)
    k = len(layout.vertices)
    m = len(layout.edges)
    slots = [p for p in range(layout.width) if free >> p & 1]
    for choice in sorted(range(1 << len(slots)), key=int.bit_count):
        bits = 0
        for t, p in enumerate(slots):
            if choice >> t & 1:
                bits |= 1 << p
        member_v = [bits >> i & 1 for i in range(k)]
        member_e = [bits >> (k + j) & 1 for j in range(m)]
        edge_states = []
        for j, (a, b) in enumerate(layout.edge_endpoints):
            if member_e[j]:
                edge_states.append(1)
            elif (
                member_v[a]
                or member_v[b]
                or any(member_e[p - k] for p in layout.incident[a] if p - k != j)
                or any(member_e[p - k] for p in layout.incident[b] if p - k != j)
            ):
                edge_states.append(2)
            else:
                edge_states.append(3)
        vertex_states = []
        for i in range(k):
            inc_md = any(member_e[p - k] for p in layout.incident[i])
            if member_v[i]:
                vertex_states.append(1 if inc_md else 2)
            elif inc_md:
                vertex_states.append(3)
            else:
                dominated = any(member_v[a] for a in layout.neighbors[i])
                uncovered = any(edge_states[p - k] == 3 for p in layout.incident[i])
                if dominated:
                    vertex_states.append(6 if uncovered else 4)
                else:
                    vertex_states.append(7 if uncovered else 5)
        witnesses = None
        if track_witnesses:
            mask = 0
            for i in range(k):
                if member_v[i]:
                    mask |= 1 << layout.vertices[i]
            for j in range(m):
                if member_e[j]:
                    mask |= 1 << (g.vertex_count + layout.edges[j])
            witnesses = {mask}
        table.insert(
            tuple(vertex_states) + tuple(edge_states), choice.bit_count(), witnesses
        )
    return table


def leaf_table(
    g: Graph,
    bag_vertices,
    track_witnesses: bool = True,
    cost_cap: int | None = None,
) -> StateTable:
    """Table of a leaf bag: the single vertex is selected (state 2, cost 1)
    or not (state 5, cost 0)."""
    bag = tuple(bag_vertices)
    if len(bag) != 1:
        raise ValueError(f"leaf bag must be a single vertex, got {sorted(bag)}")
    return enumerate_btable(g, bag, track_witnesses, cost_cap)


def _member_mask(states, k: int) -> int:
    """Bitmask of the slots whose element a row selects: vertex slots
    (the first k) in state 1 or 2, edge slots in state 1."""
    mask = 0
    for p, s in enumerate(states):
        if s == 1 or (s == 2 and p < k):
            mask |= 1 << p
    return mask


def _resolve_vertices(
    layout: BagLayout,
    candidates: list[tuple[int, ...]],
    edge_states: list[int],
) -> list[int] | None:
    """Second pass of a combine: fix multi-candidate vertex cells from the
    already-resolved edge slots and the single-valued neighbor states."""
    out = [c[0] if len(c) == 1 else 0 for c in candidates]
    for i, cands in enumerate(candidates):
        if len(cands) == 1:
            continue
        k = layout.edge_offset
        uncovered = any(edge_states[p - k] == 3 for p in layout.incident[i])
        if cands == (4, 6) or cands == (5, 7):
            out[i] = cands[1] if uncovered else cands[0]
        elif cands == (4, 5) or cands == (4, 5, 6, 7):
            dominated = any(
                len(candidates[a]) == 1 and candidates[a][0] in MEMBER_VERTEX_STATES
                for a in layout.neighbors[i]
            )
            if cands == (4, 5):
                out[i] = 4 if dominated else 5
            elif dominated:
                out[i] = 6 if uncovered else 4
            else:
                out[i] = 7 if uncovered else 5
        else:
            raise AssertionError(f"unexpected candidate cell {cands}")
    return out


def introduce_combine(
    g: Graph,
    stable_child: StateTable,
    btable: StateTable,
    cost_cap: int | None = None,
) -> StateTable:
    """Merge a child's cumulative table with the bag-local table of an
    introduce bag, pairing every row of one with every row of the other.

    Vertex and edge slots are matched by identity; slots the child does
    not know carry state 0 on its side.  Multi-candidate cells resolve in
    a second pass: edge cells from the child states of their endpoints,
    then vertex cells from the resolved edge slots and neighbor states.
    The cost of a pair is the sum of both costs minus the elements both
    sides selected (counted once per shared member slot); pairs costing
    more than cost_cap are skipped before their states are worked out.
    """
    layout = btable.layout
    child = stable_child.layout
    if not set(child.vertices) <= set(layout.vertices):
        raise ValueError("child bag is not contained in the introduce bag")
    track = stable_child.track_witnesses and btable.track_witnesses
    result = StateTable(layout, track, cost_cap)
    k = len(layout.vertices)
    m = len(layout.edges)
    # child slot index (or None) for each bag slot
    vmap = [child.vpos.get(v) for v in layout.vertices]
    emap = [child.epos.get(e) for e in layout.edges]

    local = [
        (bkey, bcost, bwit, _member_mask(bkey, k))
        for bkey, (bcost, bwit) in btable.rows.items()
    ]
    for ckey, (ccost, cwit) in stable_child.rows.items():
        # the child row's states in bag slot order
        cv = [ckey[p] if p is not None else 0 for p in vmap]
        ce = [ckey[p] if p is not None else 0 for p in emap]
        cmask = _member_mask(cv + ce, k)
        for bkey, bcost, bwit, bmask in local:
            cost = ccost + bcost - (cmask & bmask).bit_count()
            if cost_cap is not None and cost > cost_cap:
                continue
            candidates: list[tuple[int, ...]] = []
            for i in range(k):
                b, s = bkey[i], cv[i]
                cell = STAR_INT[b][s]
                if cell is None:
                    raise PoisonCellError(f"star_int({b}, {s}) is unreachable")
                candidates.append(cell)
            edge_states: list[int] = []
            for j in range(m):
                b, s = bkey[k + j], ce[j]
                cell = AST_INT[b][s]
                if cell is None:
                    raise PoisonCellError(f"ast_int({b}, {s}) is unreachable")
                if len(cell) == 1:
                    edge_states.append(cell[0])
                else:
                    # bag-locally undominated edge: dominated in the union
                    # iff an endpoint brings earlier membership or an
                    # earlier selected edge (child state 1, 2 or 3)
                    x, y = layout.edge_endpoints[j]
                    dominated = cv[x] in (1, 2, 3) or cv[y] in (1, 2, 3)
                    edge_states.append(2 if dominated else 3)
            vertex_states = _resolve_vertices(layout, candidates, edge_states)
            witnesses = None
            if track:
                witnesses = {cw | bw for bw in bwit for cw in cwit}
            result.insert(tuple(vertex_states) + tuple(edge_states), cost, witnesses)
    return result


def forget_reduce(
    g: Graph,
    stable_child: StateTable,
    forgotten: int,
    cost_cap: int | None = None,
) -> StateTable:
    """Remove a vertex from the table, dropping rows it invalidates.

    A row dies when the forgotten vertex is undominated (5, 7, 9) or
    still waits on an already-forgotten undominated edge (8): nothing
    later can fix either.  When it leaves behind undominated bag edges
    (state 6), each such edge's surviving endpoint is marked as carrying a
    forgotten undominated edge (4 or 6 becomes 8, 5 or 7 becomes 9); only
    a future selected edge at that endpoint can clear the mark.
    """
    child = stable_child.layout
    if forgotten not in child.vpos:
        raise ValueError(f"vertex {forgotten} is not in the bag")
    layout = BagLayout(g, [v for v in child.vertices if v != forgotten])
    result = StateTable(layout, stable_child.track_witnesses, cost_cap)
    upos = child.vpos[forgotten]
    k = len(child.vertices)
    keep_v = [i for i in range(k) if i != upos]
    keep_e = [child.epos[e] for e in layout.edges]
    u_edges = [p for p in child.incident[upos]]

    for ckey, (cost, wit) in stable_child.rows.items():
        su = ckey[upos]
        if su in (5, 7, 8, 9):
            continue
        states = list(ckey)
        if su == 6:
            for p in u_edges:
                if states[p] != 3:
                    continue
                a, b = child.edge_endpoints[p - k]
                x = b if a == upos else a
                sx = states[x]
                if sx in (4, 6):
                    states[x] = 8
                elif sx in (5, 7):
                    states[x] = 9
                elif sx not in (8, 9):
                    raise AssertionError(
                        f"endpoint of an undominated edge in state {sx}"
                    )
        key = tuple(states[i] for i in keep_v) + tuple(states[p] for p in keep_e)
        result.insert(key, cost, set(wit) if wit is not None else None)
    return result


def join_combine(
    g: Graph,
    stable_a: StateTable,
    stable_b: StateTable,
    cost_cap: int | None = None,
) -> StateTable:
    """Merge the tables of a join bag's two children pairwise.

    Both children share the bag, so slots line up one to one.  Edge cells
    are single-valued; the two-candidate vertex cells pick their first
    entry iff no incident bag edge remains undominated after the merge.
    """
    if stable_a.layout != stable_b.layout:
        raise ValueError("join children must share the same bag layout")
    result = StateTable(
        stable_a.layout,
        stable_a.track_witnesses and stable_b.track_witnesses,
        cost_cap,
    )
    _join_pairs(result, stable_a.rows.items(), stable_b.rows.items())
    return result


def _join_pairs(result: StateTable, rows_a, rows_b) -> None:
    """Insert into result the merge of every row of rows_a with every row
    of rows_b; result's layout is the bag both sides share."""
    layout = result.layout
    track = result.track_witnesses
    k = len(layout.vertices)
    m = len(layout.edges)
    for akey, (acost, awit) in rows_a:
        for bkey, (bcost, bwit) in rows_b:
            candidates: list[tuple[int, ...]] = []
            overlap = 0
            for i in range(k):
                sa, sb = akey[i], bkey[i]
                cell = STAR_JOIN[sa][sb]
                if cell is None:
                    raise PoisonCellError(f"star_join({sa}, {sb}) is unreachable")
                candidates.append(cell)
                if sa in MEMBER_VERTEX_STATES and sb in MEMBER_VERTEX_STATES:
                    overlap += 1
            edge_states: list[int] = []
            for j in range(m):
                sa, sb = akey[k + j], bkey[k + j]
                cell = AST_JOIN[sa][sb]
                if cell is None:
                    raise PoisonCellError(f"ast_join({sa}, {sb}) is unreachable")
                edge_states.append(cell[0])
                if sa == 1 and sb == 1:
                    overlap += 1
            vertex_states = _resolve_vertices(layout, candidates, edge_states)
            witnesses = None
            if track:
                witnesses = {aw | bw for aw in awit for bw in bwit}
            result.insert(
                tuple(vertex_states) + tuple(edge_states),
                acost + bcost - overlap,
                witnesses,
            )


# -- shortcuts run_dp takes -------------------------------------------------
#
# The cumulative tables are closed under adding bag elements to a partial
# solution (domination only improves, so survival at earlier forgets is
# preserved).  So at an introduce bag, a bag-local row that re-selects
# elements the child already knows adds nothing: pairing the enriched
# child row with a smaller local row gives the same union at the same cost
# and witnesses.  run_dp therefore merges the child only with the local
# rows that select among the new vertex and its new edges.  At a join,
# pairs disagreeing on membership are redundant for the same reason, so
# rows are paired within groups sharing the selected bag elements.
# test_dp.py checks both shortcuts against the full pairing operations.


def _introduce_extend(
    g: Graph,
    stable_child: StateTable,
    v_new: int,
    cost_cap: int | None = None,
) -> StateTable:
    child = stable_child.layout
    if v_new in child.vpos:
        raise ValueError(f"vertex {v_new} is already in the bag")
    layout = BagLayout(g, child.vertices + (v_new,))
    pos = layout.vpos[v_new]
    # the new vertex and its bag edges, all of which are new
    free = 1 << pos
    for p in layout.incident[pos]:
        free |= 1 << p
    local = _local_rows(g, layout, free, stable_child.track_witnesses, cost_cap)
    return introduce_combine(g, stable_child, local, cost_cap)


def _join_grouped(
    g: Graph,
    stable_a: StateTable,
    stable_b: StateTable,
    cost_cap: int | None = None,
) -> StateTable:
    if stable_a.layout != stable_b.layout:
        raise ValueError("join children must share the same bag layout")
    layout = stable_a.layout
    k = len(layout.vertices)
    groups_a: dict[int, list] = {}
    for item in stable_a.rows.items():
        groups_a.setdefault(_member_mask(item[0], k), []).append(item)
    groups_b: dict[int, list] = {}
    for item in stable_b.rows.items():
        groups_b.setdefault(_member_mask(item[0], k), []).append(item)
    track = stable_a.track_witnesses and stable_b.track_witnesses
    result = StateTable(layout, track, cost_cap)
    for sig, rows_a in groups_a.items():
        rows_b = groups_b.get(sig)
        if rows_b:
            _join_pairs(result, rows_a, rows_b)
    return result


@dataclass(frozen=True)
class DPResult:
    gamma: int
    min_sets: frozenset[int] | None = None
    tables: tuple[StateTable, ...] | None = None


class _NineState:
    """The nine-state program's half of the bag walk.  Bag operations are
    looked up as module globals on every call, so wrappers installed on
    this module from outside see each call."""

    def __init__(self, track_witnesses: bool):
        self.track_witnesses = track_witnesses

    def leaf(self, g, bag, cost_cap):
        return leaf_table(g, bag, self.track_witnesses, cost_cap)

    def introduce(self, g, child, vertex, cost_cap):
        return _introduce_extend(g, child, vertex, cost_cap)

    def forget(self, g, child, vertex, cost_cap):
        return forget_reduce(g, child, vertex, cost_cap)

    def join(self, g, left, right, cost_cap):
        return _join_grouped(g, left, right, cost_cap)

    def min_cost(self, table: StateTable) -> int | None:
        return min((entry[0] for entry in table.rows.values()), default=None)

    def drop_above(self, table: StateTable, limit: int) -> StateTable:
        rows = table.rows
        for key in [key for key, entry in rows.items() if entry[0] > limit]:
            del rows[key]
        return table

    def root_gamma(self, table: StateTable) -> int | None:
        return min((cost for _, cost, _ in _root_rows(table)), default=None)


def _root_rows(table: StateTable):
    """(key, cost, witnesses) of the rows that are feasible at the root."""
    k = len(table.layout.vertices)
    for key, (cost, wit) in table.rows.items():
        if all(s in ROOT_OK_VERTEX for s in key[:k]) and all(
            s in ROOT_OK_EDGE for s in key[k:]
        ):
            yield key, cost, wit


def run_dp(
    g: Graph,
    ntd: NiceTreeDecomposition,
    tau: list[int] | None = None,
    enumerate_sets: bool = False,
    collect_tables: bool = False,
    cost_cap: int | None = None,
) -> DPResult:
    """Run the dynamic program along a postorder traversal.

    Returns the mixed domination number; with enumerate_sets, also every
    minimum mixed dominating set as a bitmask over V ∪ E (each re-checked
    against the definition before being returned).

    cost_cap prunes rows costing more than the cap at every bag and turns
    on the cost window of walk.py, which also drops rows costing more than
    their table's minimum plus the bag size; see walk.py for why neither
    changes the result.  The result (optimum and enumeration) is unchanged
    as long as the cap is at least the size of some mixed dominating set,
    e.g. greedy_upper_bound.  Without a cap the tables are the full ones.
    """
    root, gamma, tables = walk(
        g, ntd, _NineState(enumerate_sets), tau, collect_tables, cost_cap
    )
    min_sets: frozenset[int] | None = None
    if enumerate_sets:
        out: set[int] = set()
        for _, cost, wit in _root_rows(root):
            if cost == gamma:
                out.update(wit)
        for mask in out:
            if not is_mixed_dominating_set(g, mask):
                raise AssertionError(f"witness {mask:#x} is not a dominating set")
        min_sets = frozenset(out)
    return DPResult(gamma, min_sets, tables)


def render_table(t: StateTable, one_based: bool = True) -> str:
    """Rows as "v-states | e-states | cost" lines under a slot header."""
    shift = 1 if one_based else 0
    layout = t.layout
    header_v = " ".join(str(v + shift) for v in layout.vertices)
    header_e = " ".join(
        f"({layout.vertices[a] + shift},{layout.vertices[b] + shift})"
        for a, b in layout.edge_endpoints
    )
    header = f"vertices: {header_v}"
    if header_e:
        header += f"; edges: {header_e}"
    lines = [header]
    k = len(layout.vertices)
    for key in sorted(t.rows):
        cost = t.rows[key][0]
        vs = " ".join(map(str, key[:k]))
        es = " ".join(map(str, key[k:]))
        lines.append(f"{vs} | {es} | {cost}")
    return "\n".join(lines)
