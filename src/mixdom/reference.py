"""The paper's table-driven operations, which pair rows one by one.

introduce_combine and join_combine merge decoded nine-state rows through
the ⋆_int/∗_int and ⋆_join/∗_join tables of tables.py in one pair-merge
kernel (_merge_pairs); direct_join6 merges six-state rows by their
supremum, and direct_introduce6 branches six-state rows one choice at a
time.  They are the specification the engine is checked against, and
the engine (dp.py, mds6.py) never calls them: run_dp merges flag words in
its own kernel, and run6 joins flag words or runs the lattice transform.
Neither the engine modules nor the CLI import this module or tables.py.
"""

from __future__ import annotations

from itertools import product

from .dp import StateTable
from .graph import Graph
from .mds6 import IN_SOLUTION, Rows6, SixTable, _add
from .tables import AST_INT, AST_JOIN, STAR_INT, STAR_JOIN, PoisonCellError
from .transform6 import _supremum


def _member_mask(states, k: int) -> int:
    """Bitmask of the slots whose element a row selects: vertex slots
    (the first k) in state 1 or 2, edge slots in state 1."""
    mask = 0
    for p, s in enumerate(states):
        if s == 1 or (s == 2 and p < k):
            mask |= 1 << p
    return mask


def _open_edge_state(candidates: list[tuple[int, ...]], x: int, y: int) -> int:
    """State of an unselected bag edge between the vertex cells x and y:
    dominated (2) iff an endpoint's cell is a member or carries a selected
    edge (1, 2 or 3), else undominated (3)."""
    if candidates[x][0] in (1, 2, 3) or candidates[y][0] in (1, 2, 3):
        return 2
    return 3


def _resolve_vertices(
    candidates: list[tuple[int, ...]],
    edge_states: list[int],
    incident: list[list[int]],
    neighbors: list[list[int]],
) -> list[int]:
    """Second pass of a combine: fix multi-candidate vertex cells from the
    already-resolved edge states and the single-valued neighbor states.
    incident and neighbors list, per vertex position, its bag edges (as
    indices into edge_states) and its bag neighbors.  Every
    multi-candidate cell starts with 4 or 5, so a neighbor is a member iff
    its cell's first candidate is."""
    out = []
    for i, cands in enumerate(candidates):
        if len(cands) == 1:
            out.append(cands[0])
            continue
        if cands == (4, 5) or cands == (4, 5, 6, 7):
            dominated = any(candidates[a][0] in (1, 2) for a in neighbors[i])
            if len(cands) == 2:
                out.append(4 if dominated else 5)
                continue
            cands = (4, 6) if dominated else (5, 7)
        elif cands != (4, 6) and cands != (5, 7):
            raise AssertionError(f"unexpected candidate cell {cands}")
        uncovered = any(edge_states[j] == 3 for j in incident[i])
        out.append(cands[1] if uncovered else cands[0])
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
    child_edges = {e: len(child.vertices) + j for j, e in enumerate(child.edges)}
    slots += [child_edges.get(e) for e in layout.edges]
    aligned = []
    for ckey, centry in stable_child.rows.items():
        states = [ckey[p] if p is not None else 0 for p in slots]
        aligned.append((states, centry[0], centry, _member_mask(states, k)))
    _merge_pairs(result, _rows(btable), aligned, STAR_INT, AST_INT, cost_cap)
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
    edge) is settled by _open_edge_state; vertex cells then go to
    _resolve_vertices.
    """
    layout = result.layout
    track = result.track_witnesses
    k = len(layout.vertices)
    ends = layout.edge_endpoints
    incident = [[j for j, e in enumerate(ends) if i in e] for i in range(k)]
    neighbors = [[b if a == i else a for a, b in ends if i in (a, b)] for i in range(k)]
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
                    edge_states.append(
                        _open_edge_state(candidates, *layout.edge_endpoints[p - k])
                    )
            vertex_states = _resolve_vertices(
                candidates, edge_states, incident, neighbors
            )
            result.insert(
                tuple(vertex_states) + tuple(edge_states),
                cost,
                (aentry, bentry) if track else None,
            )


def join_combine(
    g: Graph,
    stable_a: StateTable,
    stable_b: StateTable,
    cost_cap: int | None = None,
) -> StateTable:
    """Merge the tables of a join bag's two children pairwise through
    ⋆_join/∗_join (see _merge_pairs).

    Both children share the bag, so slots line up one to one.  Edge cells
    are single-valued; the two-candidate vertex cells pick their first
    entry iff no incident bag edge remains undominated after the merge.
    """
    if stable_a.layout != stable_b.layout:
        raise ValueError("join children must share the same bag layout")
    result = StateTable(
        stable_a.layout, stable_a.track_witnesses and stable_b.track_witnesses
    )
    _merge_pairs(
        result, _rows(stable_a), _rows(stable_b), STAR_JOIN, AST_JOIN, cost_cap
    )
    return result


def direct_join6(
    a: SixTable, b: SixTable, cost_cap: int | None = None
) -> SixTable:
    """Six-state join by pairs: merge the slots of every two rows to their
    supremum, counting pairs.  Only rows selecting the same bag vertices
    are paired, since _supremum rejects every other pair."""
    if a.vertices != b.vertices:
        raise ValueError("join children must share the same bag")
    by_members: dict[tuple, list] = {}
    for bkey, bled in b.rows.items():
        members = tuple(s == IN_SOLUTION for s in bkey)
        by_members.setdefault(members, []).append((bkey, bled))
    rows: Rows6 = {}
    for akey, aled in a.rows.items():
        for bkey, bled in by_members.get(tuple(s == IN_SOLUTION for s in akey), ()):
            key = tuple(map(_supremum, akey, bkey))
            overlap = key.count(IN_SOLUTION)
            tgt = rows.setdefault(key, {})
            for ca, na in aled.items():
                for cb, nb in bled.items():
                    cost = ca + cb - overlap
                    if cost_cap is None or cost <= cost_cap:
                        _add(tgt, cost, na * nb)
            if not tgt:
                del rows[key]
    return SixTable(a.vertices, rows)


# A six-state vertex once it owns an undominated edge, and once a selected
# neighbour dominates it (mds6.py module docstring).
_OWNING = {4: 6, 5: 7, 6: 6, 7: 7}
_DOMINATED = {4: 4, 5: 4, 6: 6, 7: 6}


def direct_introduce6(g: Graph, table: SixTable, v_new: int) -> SixTable:
    """The full table of introducing v_new, from what the six states
    mean, one branch at a time: v_new selected or not, each new edge (to
    a bag neighbour) selected or not, and for each new edge left
    undominated an owner, v_new or the neighbour.  A branch costs the
    elements it selects, and each child ledger entry adds its count to
    the branch's row at the entry's cost plus the branch's."""
    vertices = tuple(sorted(table.vertices + (v_new,)))
    pos = vertices.index(v_new)
    nbrs = [i for i, u in enumerate(vertices) if i != pos and g.has_edge(v_new, u)]
    rows: Rows6 = {}
    for key, ledger in table.rows.items():
        old = key[:pos] + (None,) + key[pos:]
        for v_in, *chosen in product((False, True), repeat=1 + len(nbrs)):
            picked = [i for i, c in zip(nbrs, chosen) if c]
            state = list(old)
            for i in nbrs:
                if i in picked:
                    # a selected edge marks its end, or keeps a member
                    state[i] = old[i] if old[i] == IN_SOLUTION else 3
                elif v_in:
                    state[i] = _DOMINATED.get(old[i], old[i])
            # an unselected new edge is dominated by a selected end, or by
            # a selected edge at an end: a marked neighbour, or one at v
            undominated = [
                i for i in nbrs
                if not (v_in or picked or old[i] in (IN_SOLUTION, 3))
            ]
            v_dominated = any(old[i] == IN_SOLUTION for i in nbrs)
            for owners in product((False, True), repeat=len(undominated)):
                out = list(state)
                for i, by_neighbour in zip(undominated, owners):
                    if by_neighbour:
                        out[i] = _OWNING[out[i]]
                v_owns = not all(owners)
                if v_in:
                    out[pos] = IN_SOLUTION
                elif picked:
                    out[pos] = 3
                else:
                    out[pos] = {(True, False): 4, (False, False): 5,
                                (True, True): 6, (False, True): 7}[v_dominated, v_owns]
                tgt = rows.setdefault(tuple(out), {})
                for cost, count in ledger.items():
                    _add(tgt, cost + v_in + len(picked), count)
    return SixTable(vertices, rows)
