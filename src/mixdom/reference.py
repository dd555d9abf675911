"""Reference joins that pair rows one by one, as the paper states them.

The engine (dp.py, mds6.py) never calls these: run_dp joins within groups
of rows that select the same bag elements, and run6 joins through the
lattice transform.  The tests check the engine's joins against these.
"""

from __future__ import annotations

from .dp import StateTable, _merge_pairs, _rows
from .graph import Graph
from .mds6 import IN_SOLUTION, Rows6, SixTable, _add, _supremum
from .tables import AST_JOIN, STAR_JOIN


def join_combine(
    g: Graph,
    stable_a: StateTable,
    stable_b: StateTable,
    cost_cap: int | None = None,
) -> StateTable:
    """Merge the tables of a join bag's two children pairwise through
    ⋆_join/∗_join (see dp._merge_pairs).

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
