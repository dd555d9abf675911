"""The 9-state dynamic program over very nice tree decompositions.

Computes the mixed domination number and, on request, every minimum mixed
dominating set.  Each bag carries a table of rows; a row assigns one state
to every bag vertex and bag edge (see tables.py for the state meanings),
records the cheapest cost of any partial solution realizing those states,
and optionally links to the rows it was built from at that cost.

Rows are keyed by the full state tuple (vertex states in ascending vertex
id order, then edge states in ascending edge order).  A row's states pin
down exactly which bag elements its partial solutions select, which is
what makes min-cost deduplication sound.

Bag operations follow the paper's rules: an introduce merges the child's
table with the bag-local table through the ⋆_int/∗_int combination tables
(introduce_combine), a join merges its two children's tables through
⋆_join/∗_join, both in one pair-merge kernel (_merge_pairs), and a forget
projects the vanished vertex away (forget_reduce).  run_dp uses the same
kernel and leaves out only pairs that cannot add a row; the shortcuts
section below says which.  The join that pairs every row with every row,
join_combine, is a reference operation in reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
        k = len(self.vertices)
        self.vpos = {v: i for i, v in enumerate(self.vertices)}
        # bag-induced edges from vertex pairs, so a bag costs O(k^2) and not
        # its vertices' degrees; edge ids ascend with their endpoint pairs
        pairs = [(u, v) for u, v in combinations(self.vertices, 2) if g.has_edge(u, v)]
        self.edges: tuple[int, ...] = tuple(g.edge_id(u, v) for u, v in pairs)
        self.epos = {e: k + j for j, e in enumerate(self.edges)}
        self.width = k + len(self.edges)
        self.edge_endpoints = tuple((self.vpos[u], self.vpos[v]) for u, v in pairs)
        # per vertex position: positions of its incident bag edges, and of
        # its bag neighbors (graph-adjacent vertices inside the bag)
        incident: list[list[int]] = [[] for _ in range(k)]
        neighbors: list[list[int]] = [[] for _ in range(k)]
        for j, (a, b) in enumerate(self.edge_endpoints):
            incident[a].append(k + j)
            incident[b].append(k + j)
            neighbors[a].append(b)
            neighbors[b].append(a)
        self.incident = tuple(tuple(x) for x in incident)
        self.neighbors = tuple(tuple(x) for x in neighbors)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BagLayout):
            return self.vertices == other.vertices and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))


class StateTable:
    """Rows of one bag, deduplicated by state tuple keeping minimum cost.

    rows maps the state tuple to [cost, links].  links is None when
    enumeration is off, else a list with one link per way the row reaches
    its cost.  A link is a tuple of parts, each a global element bitmask
    (a bag-local selection) or the [cost, links] entry of a row it was
    built from: (local row, child row) at an introduce, (left row, right
    row) at a join, (child row,) at a forget.  The row's partial solutions
    are the union, over its links, of the ORs of one solution per part;
    row_witnesses expands them.

    A table holds no cost cap.  Costs never decrease along the dynamic
    program (introduces add selections, forgets keep cost, joins charge at
    least each side's cost), so the operations drop a row over the cap
    where its cost is formed: _local_rows stops at the cap and
    _merge_pairs skips over-cap pairs.  Capping at the size of any known
    mixed dominating set is lossless for the optimum and for enumeration
    while keeping tables small on dense bags.  The tighter per-bag cost
    window that run_dp adds under a cap lives in walk.py, together with
    its soundness argument.
    """

    def __init__(self, layout: BagLayout, track_witnesses: bool):
        self.layout = layout
        self.track_witnesses = track_witnesses
        self.rows: dict[tuple[int, ...], list] = {}

    def insert(self, key: tuple[int, ...], cost: int, link: tuple | None) -> None:
        """Record link as one way to reach the row key at cost: a cheaper
        cost replaces the row's links, an equal one adds to them and a
        dearer one is dropped.  link is ignored when enumeration is off."""
        entry = self.rows.get(key)
        if entry is None:
            self.rows[key] = [cost, [link] if self.track_witnesses else None]
        elif cost < entry[0]:
            entry[0] = cost
            if self.track_witnesses:
                entry[1] = [link]
        elif cost == entry[0] and self.track_witnesses:
            entry[1].append(link)

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
    Selections are inserted cheapest first, up to cost_cap."""
    table = StateTable(layout, track_witnesses)
    k = len(layout.vertices)
    m = len(layout.edges)
    slots = [p for p in range(layout.width) if free >> p & 1]
    for choice in sorted(range(1 << len(slots)), key=int.bit_count):
        if cost_cap is not None and choice.bit_count() > cost_cap:
            break
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
        link = None
        if track_witnesses:
            mask = 0
            for i in range(k):
                if member_v[i]:
                    mask |= 1 << layout.vertices[i]
            for j in range(m):
                if member_e[j]:
                    mask |= 1 << (g.vertex_count + layout.edges[j])
            link = (mask,)
        table.insert(
            tuple(vertex_states) + tuple(edge_states), choice.bit_count(), link
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
    k = len(layout.vertices)
    for i, cands in enumerate(candidates):
        if len(cands) == 1:
            continue
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
    introduce bag, pairing every row of one with every row of the other
    through ⋆_int/∗_int (see _merge_pairs).

    Vertex and edge slots are matched by identity; slots the child does
    not know carry state 0 on its side.
    """
    layout = btable.layout
    child = stable_child.layout
    if not set(child.vertices) <= set(layout.vertices):
        raise ValueError("child bag is not contained in the introduce bag")
    track = stable_child.track_witnesses and btable.track_witnesses
    result = StateTable(layout, track)
    k = len(layout.vertices)
    # child slot index (or None) for each bag slot
    slots = [child.vpos.get(v) for v in layout.vertices]
    slots += [child.epos.get(e) for e in layout.edges]
    aligned = []
    for ckey, centry in stable_child.rows.items():
        states = [ckey[p] if p is not None else 0 for p in slots]
        aligned.append((states, centry[0], centry, _member_mask(states, k)))
    _merge_pairs(result, _rows(btable), aligned, STAR_INT, AST_INT, cost_cap)
    return result


def forget_reduce(g: Graph, stable_child: StateTable, forgotten: int) -> StateTable:
    """Remove a vertex from the table, dropping rows it invalidates.

    A row dies when the forgotten vertex is undominated (5, 7, 9) or
    still waits on an already-forgotten undominated edge (8): nothing
    later can fix either.  When it leaves behind undominated bag edges
    (state 6), each such edge's surviving endpoint is marked as carrying a
    forgotten undominated edge (4 or 6 becomes 8, 5 or 7 becomes 9); only
    a future selected edge at that endpoint can clear the mark.  Costs are
    kept, so a forget needs no cost cap.
    """
    child = stable_child.layout
    if forgotten not in child.vpos:
        raise ValueError(f"vertex {forgotten} is not in the bag")
    layout = BagLayout(g, [v for v in child.vertices if v != forgotten])
    track = stable_child.track_witnesses
    result = StateTable(layout, track)
    upos = child.vpos[forgotten]
    k = len(child.vertices)
    keep_v = [i for i in range(k) if i != upos]
    keep_e = [child.epos[e] for e in layout.edges]

    for ckey, entry in stable_child.rows.items():
        su = ckey[upos]
        if su in (5, 7, 8, 9):
            continue
        states = list(ckey)
        if su == 6:
            for p in child.incident[upos]:
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
        result.insert(key, entry[0], (entry,) if track else None)
    return result


def _rows(table: StateTable) -> list[tuple]:
    """The table's rows as (states, cost, entry, member mask) tuples."""
    k = len(table.layout.vertices)
    return [
        (key, entry[0], entry, _member_mask(key, k))
        for key, entry in table.rows.items()
    ]


def _merge_pairs(result: StateTable, rows_a, rows_b, star, ast, cost_cap) -> None:
    """Insert into result the union of every row of rows_a with every row
    of rows_b.  Rows are (states, cost, entry, member mask) tuples in
    result's slot order, entry being the row's [cost, links]; star and ast
    are the vertex and edge combination tables, indexed (state in rows_a,
    state in rows_b).  With enumeration on, each pair is one link.

    A pair costs both costs minus the elements both sides select.  Pairs
    over cost_cap are skipped before their states are worked out.  A
    multi-candidate edge cell (the introduce's bag-locally undominated
    edge) is dominated iff an endpoint's cell is a member or carries a
    selected edge (1, 2 or 3); vertex cells then go to _resolve_vertices.
    """
    layout = result.layout
    track = result.track_witnesses
    k = len(layout.vertices)
    for akey, acost, aentry, amask in rows_a:
        for bkey, bcost, bentry, bmask in rows_b:
            cost = acost + bcost - (amask & bmask).bit_count()
            if cost_cap is not None and cost > cost_cap:
                continue
            candidates: list[tuple[int, ...]] = []
            for i in range(k):
                cell = star[akey[i]][bkey[i]]
                if cell is None:
                    raise PoisonCellError(
                        f"vertex cell {akey[i], bkey[i]} is unreachable"
                    )
                candidates.append(cell)
            edge_states: list[int] = []
            for p in range(k, layout.width):
                cell = ast[akey[p]][bkey[p]]
                if cell is None:
                    raise PoisonCellError(
                        f"edge cell {akey[p], bkey[p]} is unreachable"
                    )
                if len(cell) == 1:
                    edge_states.append(cell[0])
                else:
                    x, y = layout.edge_endpoints[p - k]
                    if candidates[x][0] in (1, 2, 3) or candidates[y][0] in (1, 2, 3):
                        edge_states.append(2)
                    else:
                        edge_states.append(3)
            vertex_states = _resolve_vertices(layout, candidates, edge_states)
            result.insert(
                tuple(vertex_states) + tuple(edge_states),
                cost,
                (aentry, bentry) if track else None,
            )


# -- shortcuts run_dp takes -------------------------------------------------
#
# The cumulative tables are closed under adding bag elements to a partial
# solution (domination only improves, so survival at earlier forgets is
# preserved).  So at an introduce bag, a bag-local row that re-selects
# elements the child already knows adds nothing: pairing the enriched
# child row with a smaller local row gives the same union at the same cost
# and partial solutions.  run_dp therefore merges the child only with the
# local rows that select among the new vertex and its new edges.  At a join,
# pairs disagreeing on membership are redundant for the same reason, so
# rows are paired within groups sharing the selected bag elements.  Both
# shortcuts feed the same _merge_pairs as the full operations.
# test_dp.py checks both against the full pairing operations.


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
    # member mask -> (rows of a, rows of b) selecting exactly those elements
    groups: dict[int, tuple[list, list]] = {}
    for side, table in enumerate((stable_a, stable_b)):
        for row in _rows(table):
            groups.setdefault(row[3], ([], []))[side].append(row)
    result = StateTable(
        stable_a.layout, stable_a.track_witnesses and stable_b.track_witnesses
    )
    for rows_a, rows_b in groups.values():
        _merge_pairs(result, rows_a, rows_b, STAR_JOIN, AST_JOIN, cost_cap)
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

    def forget(self, g, child, vertex):
        return forget_reduce(g, child, vertex)

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
        return min((entry[0] for entry in _root_rows(table)), default=None)


def _root_rows(table: StateTable):
    """The [cost, links] entries of the rows that are feasible at the root."""
    k = len(table.layout.vertices)
    for key, entry in table.rows.items():
        if all(s in ROOT_OK_VERTEX for s in key[:k]) and all(
            s in ROOT_OK_EDGE for s in key[k:]
        ):
            yield entry


def row_witnesses(entries) -> set[int]:
    """Every partial solution of the given [cost, links] row entries, as
    global element bitmasks.

    An entry's solutions are the union, over its links, of the ORs of one
    solution per part (a bitmask part is its own single solution).  Entries
    are expanded children first, without recursion, each once however many
    links share it, and an entry's set is released once every link that
    uses it has been expanded.  From the optimal root rows every reachable
    row extends only to minimum sets, so the work follows the output.
    """
    # post-order over the entries reachable through links, and how many
    # link parts (plus the callers' own) are left to read each entry's set
    order: list[list] = []
    readers: dict[int, int] = {}
    seen: set[int] = set()
    stack: list[tuple[list, bool]] = []
    for entry in entries:
        readers[id(entry)] = readers.get(id(entry), 0) + 1
        stack.append((entry, False))
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            order.append(entry)
            continue
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        stack.append((entry, True))
        for link in entry[1]:
            for part in link:
                if not isinstance(part, int):
                    readers[id(part)] = readers.get(id(part), 0) + 1
                    if id(part) not in seen:
                        stack.append((part, False))

    solutions: dict[int, set[int]] = {}
    for entry in order:
        out: set[int] = set()
        for link in entry[1]:
            acc = {0}
            for part in link:
                if isinstance(part, int):
                    acc = {a | part for a in acc}
                else:
                    acc = {a | b for a in acc for b in solutions[id(part)]}
            out |= acc
        solutions[id(entry)] = out
        for link in entry[1]:
            for part in link:
                if not isinstance(part, int):
                    readers[id(part)] -= 1
                    if not readers[id(part)]:
                        del solutions[id(part)]
    return set().union(*(solutions[id(entry)] for entry in entries))


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
        out = row_witnesses([e for e in _root_rows(root) if e[0] == gamma])
        for mask in out:
            if not is_mixed_dominating_set(g, mask):
                raise AssertionError(f"witness {mask:#x} is not a dominating set")
        min_sets = frozenset(out)
    return DPResult(gamma, min_sets, tables)


def render_table(t: StateTable) -> str:
    """Rows as "v-states | e-states | cost" lines under a slot header,
    vertices numbered 1-based as in the .gr file."""
    layout = t.layout
    header_v = " ".join(str(v + 1) for v in layout.vertices)
    header_e = " ".join(
        f"({layout.vertices[a] + 1},{layout.vertices[b] + 1})"
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
