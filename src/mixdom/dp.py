"""The 9-state dynamic program over very nice tree decompositions.

Computes the mixed domination number and, on request, every minimum mixed
dominating set.  Each bag carries a table of rows; a row assigns one state
to every bag vertex and bag edge (see tables.py for the state meanings),
records the cheapest cost of any partial solution realizing those states,
and optionally links to the rows it was built from at that cost.

Flag words.  Inside the engine a row is keyed by an integer with one byte
per bag slot, slot p in bits 8p..8p+7 (vertices ascending by id, then the
bag edges ascending).  A vertex byte holds four flags: MEMBER (selected),
MARKED (has a selected incident edge), DOMINATED, and WAITING (has an
undominated edge that was already forgotten).  An edge byte holds MEMBER
and DOMINATED.  The nine states map onto flags as

    vertex  1 M+K+D   2 M+D   3 K+D   4, 6 D   5, 7 none   8 D+W   9 W
    edge    1 M+D     2 D     3 none

A word is canonical when a member or marked vertex is dominated and not
waiting, and a member edge is dominated; every word the engine builds is.
States 6 and 7 are not stored: they are 4 and 5 with an undominated bag
edge at the vertex, and the edge bytes of the same word say whether there
is one.  So canonical words and nine-state tuples are one to one
(decode_word, encode_row).

Every flag is "some selected element does this", so the flags of the
union of two partial solutions are the OR of their flags, with one
correction: a member or marked vertex no longer waits, because its
selection dominates its forgotten edges.  Each ⋆/∗ cell of tables.py is
therefore `a | b` followed by one mask that clears WAITING under MEMBER or
MARKED (test_tables.py checks this cell by cell).  The two-candidate cells
(4 or 6, 5 or 7) need no lookup at all: the edge bytes of the union decide
them when the word is decoded.

Bag operations.  A leaf or bag-local table lists the words of every
selection among its slots (_selections, built once per bag shape).  A
forget tests the forgotten byte, marks the far end of each undominated
bag edge as waiting and drops the forgotten bytes.  Introduce and join
both hand groups of rows to one merge kernel (_merge), which ORs every
pair of a group: an introduce moves each child word into the new layout,
adds the two cross terms the child decides (the new vertex is dominated
by a member neighbour; a new edge is dominated by a member or marked old
endpoint) and pairs the moved words with the bag-local words of the new
vertex and its new edges; a join groups the rows of both children by
their member flags.  A pair costs both costs minus the elements both
sides select.

Selections.  Under a cost cap and without enumeration an introduce of v
pairs a child row only with the bag-local selections that obey three
rules: (i) if v is selected, none of its new edges is; (ii) at most one
new edge is selected; (iii) a new edge vu is selected only when u is not
a member in the child row.  So each child row meets at most d + 2 of the
2^(d+1) selections of v and its d new edges, and the empty selection is
always among them.  This is exact:

    Lemma (Jain, Jayakrishnan, Panolan, Sahu, WG 2017): some minimum
    mixed dominating set is a vertex set X plus a matching M with no
    edge of M at a vertex of X.  Take a minimum set S.  If an edge uv
    and its end u are both in S, then S - uv + v dominates too, since u
    and v together dominate all that uv does; if v is in S as well,
    S - uv is a smaller one, which is impossible.  If edges uv and vw
    are both in S, S - uv + u dominates too, since u and vw together
    dominate all that uv does.  Each exchange keeps |S| and adds a
    vertex, so they stop, at a minimum set of X ∪ M form.  Such a set
    obeys (i)-(iii) at every introduce of every branch, since u is a
    member in a child row exactly when the set holds u.

    Dominance: whether the rules allow a selection depends only on the
    selection and on which bag neighbours are members.  A row and the
    row one slot better that the forget's pass lets replace it share
    their members (flags.py, "Soundness"), so they are offered the same
    selections and the monotonicity argument carries over unchanged.

    Window: a set of X ∪ M form is a minimum set, so the cost window of
    walk.py keeps the rows it passes through.

The rules do not also forbid an edge at an old end that is only marked:
that would offer a row and a better one different selections, which the
dominance argument does not cover.  An enumerating walk must list every
minimum set and an uncapped one builds the full tables, so both offer
every selection.

Dominated rows.  Under a cost cap forget_reduce drops them in its cut;
flags.py holds the pass, the argument and when it runs.

Memo.  Under a cost cap and without enumeration each bag operation first
asks the memo of walk.py, which gives the argument, for the table of its
bag shape and shifted child rows, and keeps the table it forms there.  A
table from the memo gets its layout as a computed one does, from the
child's layout (BagLayout.introduced, BagLayout.forgotten).

This module holds only the engine and does not read the ⋆/∗ tables.  The
paper's table-driven operations, introduce_combine and join_combine, live
in reference.py as the specification the tests check the engine against.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .flags import (
    DOMINATED,
    MARKED,
    MEMBER,
    WAITING,
    bag_steps,
    byte_ones,
    undominated,
)
from .graph import Graph, is_mixed_dominating_set
from .treedec import NiceTreeDecomposition
from .walk import MEMO_CHILD_ROWS, memo, walk

# state 0 (slot unused) only ever appears in rows built by hand
UNUSED = 16

VERTEX_BYTE = {
    0: UNUSED,
    1: MEMBER | MARKED | DOMINATED,
    2: MEMBER | DOMINATED,
    3: MARKED | DOMINATED,
    4: DOMINATED,
    5: 0,
    6: DOMINATED,
    7: 0,
    8: DOMINATED | WAITING,
    9: WAITING,
}
EDGE_BYTE = {0: UNUSED, 1: MEMBER | DOMINATED, 2: DOMINATED, 3: 0}
# vertex byte -> (state when every incident bag edge is dominated, state
# when one is not)
VERTEX_STATES = {
    UNUSED: (0, 0),
    MEMBER | MARKED | DOMINATED: (1, 1),
    MEMBER | DOMINATED: (2, 2),
    MARKED | DOMINATED: (3, 3),
    DOMINATED: (4, 6),
    0: (5, 7),
    DOMINATED | WAITING: (8, 8),
    WAITING: (9, 9),
}
EDGE_STATES = {UNUSED: 0, MEMBER | DOMINATED: 1, DOMINATED: 2, 0: 3}


class BagLayout:
    """Canonical slot assignment for one bag: vertices ascending by id,
    then the bag-induced edges ascending by (endpoint, endpoint)."""

    __slots__ = ("vertices", "edges", "width", "edge_endpoints")

    def __init__(self, g: Graph, bag_vertices):
        self.vertices: tuple[int, ...] = tuple(sorted(bag_vertices))
        vpos = self.vpos
        # bag-induced edges from vertex pairs, so a bag costs O(k^2) and not
        # its vertices' degrees; edge ids ascend with their endpoint pairs
        pairs = [(u, v) for u, v in combinations(self.vertices, 2) if g.has_edge(u, v)]
        self.edges: tuple[int, ...] = tuple(g.edge_id(u, v) for u, v in pairs)
        self.width = len(self.vertices) + len(self.edges)
        self.edge_endpoints = tuple((vpos[u], vpos[v]) for u, v in pairs)

    @property
    def vpos(self) -> dict[int, int]:
        """Each bag vertex's slot."""
        return {v: i for i, v in enumerate(self.vertices)}

    def introduced(self, g: Graph, v: int, pos: int) -> BagLayout:
        """The layout of this bag plus v at slot pos, built from this one:
        only v's slot and its bag edges are new."""
        vertices = self.vertices
        nbrs = tuple([i for i, u in enumerate(vertices) if g.has_edge(u, v)])
        endpoints, sources = _introduced_edges(
            len(vertices), self.edge_endpoints, pos, nbrs
        )
        new = [g.edge_id(vertices[i], v) for i in nbrs]
        return _layout(
            vertices[:pos] + (v,) + vertices[pos:],
            tuple([self.edges[j] if j >= 0 else new[~j] for j in sources]),
            endpoints,
        )

    def forgotten(self, pos: int) -> BagLayout:
        """The layout of this bag less the vertex at slot pos, built from
        this one."""
        vertices = self.vertices
        endpoints, kept = _forget_shape(len(vertices), self.edge_endpoints, pos)[3:]
        return _layout(
            vertices[:pos] + vertices[pos + 1:],
            tuple([self.edges[j] for j in kept]),
            endpoints,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BagLayout):
            return self.vertices == other.vertices and self.edges == other.edges
        return NotImplemented

    def slot_bits(self, g: Graph) -> list[int]:
        """Per slot, the global element bit of its vertex or edge."""
        bits = [1 << v for v in self.vertices]
        return bits + [1 << (g.vertex_count + e) for e in self.edges]


def _layout(vertices: tuple, edges: tuple, edge_endpoints: tuple) -> BagLayout:
    """A BagLayout from its parts, which must be the ones BagLayout.__init__
    derives."""
    layout = object.__new__(BagLayout)
    layout.vertices = vertices
    layout.edges = edges
    layout.width = len(vertices) + len(edges)
    layout.edge_endpoints = edge_endpoints
    return layout


@lru_cache(maxsize=4096)
def _introduced_edges(k: int, edge_endpoints: tuple, pos: int, nbrs: tuple) -> tuple:
    """The edges of a bag of k vertices with these edges once a vertex is
    introduced at position pos next to the vertices at positions nbrs:
    their endpoint positions, ascending, and where each comes from, j for
    the bag's edge j and ~i for the new edge to nbrs[i]."""
    edges = [
        ((a + (a >= pos), b + (b >= pos)), j)
        for j, (a, b) in enumerate(edge_endpoints)
    ]
    for i, u in enumerate(nbrs):
        u += u >= pos
        edges.append(((min(u, pos), max(u, pos)), ~i))
    edges.sort()
    return tuple(ends for ends, _ in edges), tuple(src for _, src in edges)


def _open_vertices(layout: BagLayout, edge_states) -> list[bool]:
    """Per bag vertex, whether one of its bag edges is undominated (3)."""
    open_at = [False] * len(layout.vertices)
    for (a, b), s in zip(layout.edge_endpoints, edge_states):
        if s == 3:
            open_at[a] = open_at[b] = True
    return open_at


def decode_word(layout: BagLayout, word: int) -> tuple[int, ...]:
    """The nine-state tuple of a flag word: vertex states, then edge
    states.  A dominated or undominated vertex is 6 or 7 when one of its
    bag edges is undominated, else 4 or 5."""
    k = len(layout.vertices)
    data = word.to_bytes(layout.width, "little")
    edges = [EDGE_STATES[b] for b in data[k:]]
    open_at = _open_vertices(layout, edges)
    return tuple([VERTEX_STATES[data[i]][open_at[i]] for i in range(k)] + edges)


def encode_row(layout: BagLayout, key) -> int:
    """The flag word of a nine-state tuple.  Raises ValueError for a tuple
    that no word stands for: a wrong length, an unknown state, or a vertex
    whose 4/5 or 6/7 contradicts its bag edges."""
    key = tuple(key)
    k = len(layout.vertices)
    word = 0
    try:
        if len(key) != layout.width:
            raise KeyError(len(key))
        for p, s in enumerate(key):
            word |= (VERTEX_BYTE[s] if p < k else EDGE_BYTE[s]) << 8 * p
    except (KeyError, TypeError):
        raise ValueError(f"{key} is not a row of this bag") from None
    open_at = _open_vertices(layout, key[k:])
    for i in range(k):
        if key[i] in (4, 5, 6, 7) and (key[i] >= 6) != open_at[i]:
            raise ValueError(f"{key} contradicts its own bag edges")
    return word


class StateTable:
    """Rows of one bag, deduplicated by flag word keeping minimum cost.

    words maps a row's flag word (see the module docstring) to [cost,
    links]; rows is the same table keyed by nine-state tuples, decoded
    on demand, and insert adds a row given as a tuple.  links is None
    when enumeration is off, else a list with one link per way the row
    reaches its cost.  A link is a tuple of parts, each a global element
    bitmask (a bag-local selection) or the [cost, links] entry of a row it
    was built from: (selection,) in a leaf or bag-local table, (child row,
    selection) at an introduce, (left row, right row) at a join, (child
    row,) at a forget.  The row's partial solutions are the union, over
    its links, of the ORs of one solution per part; row_witnesses expands
    them.

    Words and tuples are one to one, so keying by words deduplicates
    exactly as keying by tuples did: a row's states pin down which bag
    elements its partial solutions select, which is what makes min-cost
    deduplication sound.

    A table holds no cost cap: the operation that forms it applies the
    cap and cuts it (walk.py, "Pruning").
    """

    def __init__(self, layout: BagLayout, track_witnesses: bool):
        self.layout = layout
        self.track_witnesses = track_witnesses
        self.words: dict[int, list] = {}

    @property
    def rows(self) -> RowView:
        return RowView(self)

    def insert(self, key: tuple[int, ...], cost: int, link: tuple | None) -> None:
        """Record link as one way to reach the row key (a tuple) at cost."""
        self.add(encode_row(self.layout, key), cost, link)

    def add(self, word: int, cost: int, link: tuple | None) -> None:
        """Record link as one way to reach the row word at cost: a cheaper
        cost replaces the row's links, an equal one adds to them and a
        dearer one is dropped.  link is ignored when enumeration is off."""
        entry = self.words.get(word)
        if entry is None:
            self.words[word] = [cost, [link] if self.track_witnesses else None]
        elif cost < entry[0]:
            entry[0] = cost
            if self.track_witnesses:
                entry[1] = [link]
        elif cost == entry[0] and self.track_witnesses:
            entry[1].append(link)

    def __len__(self) -> int:
        return len(self.words)


class RowView(Mapping):
    """A table's rows keyed by nine-state tuples.  Keys are decoded as they
    are read; values() hands out the entries without decoding."""

    __slots__ = ("_table",)

    def __init__(self, table: StateTable):
        self._table = table

    def __getitem__(self, key) -> list:
        try:
            word = encode_row(self._table.layout, key)
        except ValueError:
            raise KeyError(key) from None
        return self._table.words[word]

    def __iter__(self):
        layout = self._table.layout
        return (decode_word(layout, word) for word in self._table.words)

    def __len__(self) -> int:
        return len(self._table.words)

    def items(self):
        layout = self._table.layout
        return [(decode_word(layout, w), e) for w, e in self._table.words.items()]

    def values(self):
        return self._table.words.values()


# -- bag-local selections ---------------------------------------------------


@lru_cache(maxsize=4096)
def _selections(k: int, edge_endpoints: tuple, free: tuple[int, ...]) -> tuple:
    """Bag-local words of every selection among the slots free, for a bag
    of k vertices with these edges, cheapest first: (cost, word, selected
    slots).

    A selected vertex or edge is a member; an edge's endpoints are marked;
    a vertex is dominated when it or a neighbour is a member or it is
    marked; an edge is dominated when it is a member or an endpoint is a
    member or marked.  The cache is keyed by the bag's shape (vertex
    count, edge endpoint positions), never by its vertex or edge ids.
    """
    out = []
    for choice in sorted(range(1 << len(free)), key=int.bit_count):
        chosen = tuple(p for t, p in enumerate(free) if choice >> t & 1)
        word = 0
        for p in chosen:
            word |= (MEMBER | DOMINATED) << 8 * p
        for j, (a, b) in enumerate(edge_endpoints):
            if word >> 8 * (k + j) & MEMBER:
                word |= (MARKED | DOMINATED) << 8 * a | (MARKED | DOMINATED) << 8 * b
        for j, (a, b) in enumerate(edge_endpoints):
            if word >> 8 * a & MEMBER:
                word |= DOMINATED << 8 * b
            if word >> 8 * b & MEMBER:
                word |= DOMINATED << 8 * a
            if (word >> 8 * a | word >> 8 * b) & (MEMBER | MARKED):
                word |= DOMINATED << 8 * (k + j)
        out.append((len(chosen), word, chosen))
    return tuple(out)


def enumerate_btable(
    g: Graph,
    bag_vertices,
    track_witnesses: bool = True,
    cost_cap: int | None = None,
) -> StateTable:
    """Bag-local table: one row per subset of the bag's vertices and
    induced edges, with states derived straight from the subset, up to
    cost_cap."""
    layout = BagLayout(g, bag_vertices)
    table = StateTable(layout, track_witnesses)
    bits = layout.slot_bits(g)
    for cost, word, chosen in _selections(
        len(layout.vertices), layout.edge_endpoints, tuple(range(layout.width))
    ):
        if cost_cap is not None and cost > cost_cap:
            break
        table.add(word, cost, (sum(bits[p] for p in chosen),))
    return table


def leaf_table(
    g: Graph,
    bag_vertices,
    track_witnesses: bool = True,
    cost_cap: int | None = None,
) -> StateTable:
    """Table of a leaf bag: the single vertex is selected (state 2, cost 1)
    or not (state 5, cost 0).  Under a cap and without enumeration the
    table comes from the memo of walk.py when it holds one."""
    bag = tuple(bag_vertices)
    if len(bag) != 1:
        raise ValueError(f"leaf bag must be a single vertex, got {sorted(bag)}")
    if cost_cap is None or track_witnesses:
        return enumerate_btable(g, bag, track_witnesses, cost_cap)
    key = ("leaf", min(cost_cap, 1))
    table = _recall(key, _layout(bag, (), ()), 0)
    if table is None:
        table = enumerate_btable(g, bag, False, cost_cap)
        _remember(key, table, 0, 0)
    return table


# -- the memo of walk.py ----------------------------------------------------


def _shifted(words: dict, low: int) -> tuple:
    """Gamma-only rows as (word, cost - low), the form in which the memo of
    walk.py keys and keeps them."""
    return tuple([(word, cost - low) for word, (cost, _) in words.items()])


def _recall(key: tuple, layout: BagLayout, low: int) -> StateTable | None:
    """The gamma-only table the memo holds under key, its costs raised by
    low, or None."""
    found = memo.get(key)
    if found is None:
        return None
    table = StateTable(layout, False)
    table.words = {word: [low + cost, None] for word, cost in found}
    return table


def _remember(key: tuple, table: StateTable, low: int, rows_in: int) -> None:
    """Keep a gamma-only table under key, its costs lowered by low."""
    memo.store(key, _shifted(table.words, low), rows_in + len(table.words))


# -- the engine's bag operations --------------------------------------------
#
# The cumulative tables are closed under adding bag elements to a partial
# solution (domination only improves, so survival at earlier forgets is
# preserved).  So at an introduce bag, a bag-local row that re-selects
# elements the child already knows adds nothing: pairing the enriched
# child row with a smaller local row gives the same union at the same cost
# and partial solutions.  An introduce therefore merges the child only with
# the selections among the new vertex and its new edges.  At a join, pairs
# disagreeing on membership are redundant for the same reason, so rows are
# paired within groups sharing the selected bag elements.  test_dp.py
# checks both against the reference operations that pair every row.


def _runs(moves) -> tuple[tuple[int, int], ...]:
    """Group (source slot, target slot) moves, both ascending, into runs of
    adjacent slots that move the same distance: (source bit mask, distance
    in bits) per run."""
    runs: list[list[int]] = []
    last = None
    for src, dst in moves:
        shift = 8 * abs(dst - src)
        if runs and last == src - 1 and runs[-1][1] == shift:
            runs[-1][0] |= 0xFF << 8 * src
        else:
            runs.append([0xFF << 8 * src, shift])
        last = src
    return tuple((mask, shift) for mask, shift in runs)


def _merge(result: StateTable, groups, cost_cap: int | None) -> None:
    """Insert into result the union of every pair of rows of each group
    (shared, rows_a, rows_b).  Rows are (cost, word, part) tuples in
    result's layout, each list cheapest first; shared is the number of
    elements every pair of the group selects on both sides.  With
    enumeration on, a pair's link is (part of a, part of b).

    A pair's union is the OR of its words with WAITING cleared under
    MEMBER or MARKED, and its cost is both costs minus shared.  The
    cheapest pair of each group is known before any is formed, so under a
    cap the pairs over the cap or the cost window of walk.py are skipped.
    """
    groups = [group for group in groups if group[1] and group[2]]
    k = len(result.layout.vertices)
    vertex_ones = byte_ones(k)
    waiting = vertex_ones * WAITING
    limit = sys.maxsize
    if cost_cap is not None and groups:
        low = min(ra[0][0] + rb[0][0] - shared for shared, ra, rb in groups)
        limit = min(cost_cap, low + k)
    track = result.track_witnesses
    # inserts as StateTable.add does, written out because this loop is
    # where the engine spends its time
    out = result.words
    get = out.get
    for shared, ra, rb in groups:
        bmin = rb[0][0]
        for acost, aword, apart in ra:
            acost -= shared
            if acost + bmin > limit:
                break
            for bcost, bword, bpart in rb:
                cost = acost + bcost
                if cost > limit:
                    break
                word = aword | bword
                if word & waiting:
                    word &= ~(((word | word >> 1) & vertex_ones) << 3)
                entry = get(word)
                if entry is None:
                    out[word] = [cost, [(apart, bpart)] if track else None]
                elif cost < entry[0]:
                    entry[0] = cost
                    if track:
                        entry[1] = [(apart, bpart)]
                elif cost == entry[0] and track:
                    entry[1].append((apart, bpart))


@lru_cache(maxsize=4096)
def _introduce_shape(k: int, edge_endpoints: tuple, pos: int) -> tuple:
    """How a bag of k vertices with these edges is built from its child,
    the same bag without the vertex at position pos: the runs that move a
    child word into place, the child's member flags of the new vertex's
    neighbours, the new vertex's DOMINATED flag, per new edge (shift of its
    old endpoint in the child word, the edge's DOMINATED flag), and the
    bag-local selections of the new vertex and its new edges."""
    old_vertices = [i for i in range(k) if i != pos]
    at = {i: c for c, i in enumerate(old_vertices)}
    new_edges = [j for j, ends in enumerate(edge_endpoints) if pos in ends]
    old_edges = [j for j in range(len(edge_endpoints)) if j not in new_edges]
    runs = _runs(
        list(enumerate(old_vertices))
        + [(k - 1 + c, k + j) for c, j in enumerate(old_edges)]
    )
    neighbor_members = 0
    cross = []
    for j in new_edges:
        a, b = edge_endpoints[j]
        u = at[b if a == pos else a]
        neighbor_members |= MEMBER << 8 * u
        cross.append((8 * u, DOMINATED << 8 * (k + j)))
    free = (pos,) + tuple(k + j for j in new_edges)
    local = _selections(k, edge_endpoints, free)
    return runs, neighbor_members, DOMINATED << 8 * pos, tuple(cross), local


@lru_cache(maxsize=4096)
def _x_m_selections(k: int, edge_endpoints: tuple, pos: int, members: int) -> tuple:
    """The bag-local selections of _introduce_shape that the rules of the
    module docstring ("Selections") offer a child row whose word, masked
    to the MEMBER flags of the new vertex's bag neighbours, is members:
    nothing, the new vertex alone, or one new edge whose old endpoint is
    not a member.  Cheapest first, the empty selection leading."""
    blocked = set()
    for j, (a, b) in enumerate(edge_endpoints):
        if pos in (a, b):
            u = a + b - pos  # the old endpoint, at u - 1 in the child past pos
            if members >> 8 * (u - (u > pos)) & MEMBER:
                blocked.add(k + j)
    local = _introduce_shape(k, edge_endpoints, pos)[4]
    return tuple(
        row for row in local if len(row[2]) < 2 and blocked.isdisjoint(row[2])
    )


def _introduce_extend(
    g: Graph,
    stable_child: StateTable,
    v_new: int,
    cost_cap: int | None = None,
) -> StateTable:
    child = stable_child.layout
    if v_new in child.vertices:
        raise ValueError(f"vertex {v_new} is already in the bag")
    pos = bisect_left(child.vertices, v_new)
    layout = child.introduced(g, v_new, pos)
    k = len(layout.vertices)
    key = None
    rows_in = len(stable_child.words)
    if cost_cap is not None and not stable_child.track_witnesses and 0 < rows_in <= MEMO_CHILD_ROWS:
        # the limit of _merge is min(cost_cap, low + k), so the slack is
        # read up to k (walk.py, "Memo")
        low = min(stable_child.words.values())[0]
        key = (
            "introduce", k, layout.edge_endpoints, pos, min(cost_cap - low, k),
            _shifted(stable_child.words, low),
        )
        found = _recall(key, layout, low)
        if found is not None:
            return found
    runs, neighbor_members, v_dominated, cross, local = _introduce_shape(
        k, layout.edge_endpoints, pos
    )
    result = StateTable(layout, stable_child.track_witnesses)
    if result.track_witnesses:
        bits = layout.slot_bits(g)
        local = [(c, w, sum(bits[p] for p in ps)) for c, w, ps in local]
    moved = []
    for cword, centry in stable_child.words.items():
        base = 0
        for mask, shift in runs:
            base |= (cword & mask) << shift
        if cword & neighbor_members:
            base |= v_dominated
        for shift, edge_dominated in cross:
            if cword >> shift & (MEMBER | MARKED):
                base |= edge_dominated
        moved.append((centry[0], base, centry))
    # the empty selection keeps every child row at its cost, so a group's
    # cheapest pair is its cheapest child row
    if cost_cap is None or result.track_witnesses or not neighbor_members:
        moved.sort()
        groups = [(0, moved, local)]
    else:
        # one group per member pattern of the new vertex's bag neighbours
        # in the child word, paired with the selections the pattern allows
        # (module docstring, "Selections")
        by_members: dict[int, list] = {}
        for row, cword in zip(moved, stable_child.words):
            by_members.setdefault(cword & neighbor_members, []).append(row)
        groups = []
        for members, rows in by_members.items():
            rows.sort()
            local = _x_m_selections(k, layout.edge_endpoints, pos, members)
            groups.append((0, rows, local))
    _merge(result, groups, cost_cap)
    if key is not None:
        _remember(key, result, low, rows_in)
    return result


@lru_cache(maxsize=4096)
def _forget_shape(k: int, edge_endpoints: tuple, pos: int) -> tuple:
    """How a bag of k vertices with these edges loses the vertex at
    position pos: per incident edge (shift of its byte, WAITING flag of its
    far end), the DOMINATED flags of all incident edges, the runs that
    move the kept bytes down into the smaller bag's word, and the smaller
    bag's edges: their endpoint positions and which edges of this bag
    they are."""
    incident = []
    all_dominated = 0
    dropped = {pos}
    for j, (a, b) in enumerate(edge_endpoints):
        if pos in (a, b):
            incident.append((8 * (k + j), WAITING << 8 * (b if a == pos else a)))
            all_dominated |= DOMINATED << 8 * (k + j)
            dropped.add(k + j)
    kept = [p for p in range(k + len(edge_endpoints)) if p not in dropped]
    runs = _runs((p, t) for t, p in enumerate(kept))
    kept_edges = tuple(p - k for p in kept if p >= k)
    endpoints = tuple(
        (a - (a > pos), b - (b > pos))
        for a, b in (edge_endpoints[j] for j in kept_edges)
    )
    return tuple(incident), all_dominated, runs, endpoints, kept_edges


def forget_reduce(
    g: Graph,
    stable_child: StateTable,
    forgotten: int,
    cost_cap: int | None = None,
) -> StateTable:
    """Remove a vertex from the table, dropping rows it invalidates.

    A row dies when the forgotten vertex is undominated (5, 7, 9) or
    still waits on an already-forgotten undominated edge (8): nothing
    later can fix either, and one byte test finds both.  When it leaves
    behind undominated bag edges (state 6), each such edge's surviving
    endpoint is marked as waiting (4 or 6 becomes 8, 5 or 7 becomes 9);
    only a future selected edge at that endpoint can clear the mark.
    Costs are kept, so no row goes over the cap, but dropping rows may
    raise the minimum: under a cap the table is cut to the cost window of
    walk.py, and without enumeration that cut is the dominated-row pass
    of flags.py, and the table comes from the memo of walk.py when it
    holds one.
    """
    child = stable_child.layout
    if forgotten not in child.vertices:
        raise ValueError(f"vertex {forgotten} is not in the bag")
    upos = child.vertices.index(forgotten)
    layout = child.forgotten(upos)
    track = stable_child.track_witnesses
    key = None
    rows_in = len(stable_child.words)
    if cost_cap is not None and not track and 0 < rows_in <= MEMO_CHILD_ROWS:
        # a forget reads no cap, so its key holds no slack
        low = min(stable_child.words.values())[0]
        key = (
            "forget", len(child.vertices), child.edge_endpoints, upos,
            _shifted(stable_child.words, low),
        )
        found = _recall(key, layout, low)
        if found is not None:
            return found
    incident, all_dominated, runs = _forget_shape(
        len(child.vertices), child.edge_endpoints, upos
    )[:3]
    result = StateTable(layout, track)
    shift = 8 * upos
    for cword, entry in stable_child.words.items():
        if cword >> shift & (DOMINATED | WAITING) != DOMINATED:
            continue
        if cword & all_dominated != all_dominated:
            for edge_shift, far_waiting in incident:
                if not cword >> edge_shift & DOMINATED:
                    cword |= far_waiting
        word = 0
        for mask, down in runs:
            word |= (cword & mask) >> down
        result.add(word, entry[0], (entry,) if track else None)
    words = result.words
    if cost_cap is not None and words:
        k = len(layout.vertices)
        if track:
            limit = min(entry[0] for entry in words.values()) + k
            result.words = {w: entry for w, entry in words.items() if entry[0] <= limit}
        else:
            steps = bag_steps(k, layout.edge_endpoints)
            result.words = undominated(words, steps, window=k)
    if key is not None:
        _remember(key, result, low, rows_in)
    return result


def _join_grouped(
    g: Graph,
    stable_a: StateTable,
    stable_b: StateTable,
    cost_cap: int | None = None,
) -> StateTable:
    if stable_a.layout != stable_b.layout:
        raise ValueError("join children must share the same bag layout")
    layout = stable_a.layout
    key = None
    rows_in = len(stable_a.words) + len(stable_b.words)
    if (
        cost_cap is not None
        and not (stable_a.track_witnesses or stable_b.track_witnesses)
        and stable_a.words
        and stable_b.words
        and rows_in <= MEMO_CHILD_ROWS
    ):
        # no pair costs more than both sides' dearest shifted rows, so the
        # slack is read up to their sum (walk.py, "Memo")
        low_a = min(stable_a.words.values())[0]
        low_b = min(stable_b.words.values())[0]
        low = low_a + low_b
        dearest = max(stable_a.words.values())[0] + max(stable_b.words.values())[0]
        key = (
            "join", len(layout.vertices), layout.edge_endpoints,
            min(cost_cap, dearest) - low,
            _shifted(stable_a.words, low_a), _shifted(stable_b.words, low_b),
        )
        found = _recall(key, layout, low)
        if found is not None:
            return found
    result = StateTable(
        layout, stable_a.track_witnesses and stable_b.track_witnesses
    )
    members = byte_ones(layout.width)
    # member flags -> (rows of a, rows of b) selecting exactly those
    # elements, as (cost, word, entry) tuples, each list cheapest first
    groups: dict[int, tuple[list, list]] = {}
    for row in sorted((e[0], w, e) for w, e in stable_a.words.items()):
        groups.setdefault(row[1] & members, ([], []))[0].append(row)
    for row in sorted((e[0], w, e) for w, e in stable_b.words.items()):
        group = groups.get(row[1] & members)
        if group is not None:
            group[1].append(row)
    pairs = [(m.bit_count(), ra, rb) for m, (ra, rb) in groups.items()]
    _merge(result, pairs, cost_cap)
    if key is not None:
        _remember(key, result, low, rows_in)
    return result


class DPResult(NamedTuple):
    gamma: int
    min_sets: frozenset[int] | None = None
    tables: tuple[StateTable, ...] | None = None


class _NineState:
    """The nine-state program's half of the bag walk, for one graph and one
    cost cap.  Each method is one call to its bag operation, which cuts
    the table it forms (walk.py).  Bag operations are looked up as module
    globals on every call, so wrappers installed on this module from
    outside see each call; the memo of walk.py is asked inside the
    operations, so they see it whether the memo answers it or not."""

    def __init__(self, g: Graph, track_witnesses: bool, cost_cap: int | None):
        self.g = g
        self.track_witnesses = track_witnesses
        self.cost_cap = cost_cap

    def leaf(self, bag):
        return leaf_table(self.g, bag, self.track_witnesses, self.cost_cap)

    def introduce(self, child, vertex):
        return _introduce_extend(self.g, child, vertex, self.cost_cap)

    def forget(self, child, vertex):
        return forget_reduce(self.g, child, vertex, self.cost_cap)

    def join(self, left, right):
        return _join_grouped(self.g, left, right, self.cost_cap)

    def min_cost(self, table: StateTable) -> int | None:
        return min((entry[0] for entry in table.words.values()), default=None)


def row_witnesses(entries) -> set[int]:
    """Every partial solution of the given [cost, links] row entries, as
    global element bitmasks.

    An entry's solutions are the union, over its links, of the ORs of one
    solution per part (a bitmask part is its own single solution).  Entries
    are expanded children first, without recursion, each once however many
    links share it, and an entry's set is released once every link that
    uses it has been expanded.  From the optimal root rows every reachable
    row extends only to minimum sets, so the work follows the output.

    Each link is expanded by its shape (StateTable): a selection alone is
    one solution, a forget's child row unions its set in, an introduce
    ORs its selection into each of the child row's solutions (or, when it
    selects nothing, unions them in), and a join gives every OR of one
    solution of each side.
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
            a = link[0]
            if len(link) == 1:
                if isinstance(a, int):
                    out.add(a)
                else:
                    out |= solutions[id(a)]
                continue
            b = link[1]
            left = solutions[id(a)]
            if not isinstance(b, int):
                right = solutions[id(b)]
                out.update([x | y for x in left for y in right])
            elif b:
                out.update([x | b for x in left])
            else:
                out |= left
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
    against the definition before being returned).  Both are read off the
    one row left after the walk forgets the root bag (walk.py): its cost
    is gamma, and since a forget keeps a row's cheapest cost and every
    link that reaches it, its links lead to exactly the optimal root rows.

    cost_cap turns on the pruning of walk.py ("Pruning"), which leaves
    the optimum and the minimum sets unchanged as long as the cap is at
    least the size of some mixed dominating set, e.g. greedy_upper_bound.
    Without a cap the tables are the full ones.
    """
    scheme = _NineState(g, enumerate_sets, cost_cap)
    final, gamma, tables = walk(g, ntd, scheme, tau, collect_tables)
    min_sets: frozenset[int] | None = None
    if enumerate_sets:
        out = row_witnesses(final.words.values())
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
    for key, entry in sorted(t.rows.items()):
        cost = entry[0]
        vs = " ".join(map(str, key[:k]))
        es = " ".join(map(str, key[k:]))
        lines.append(f"{vs} | {es} | {cost}")
    return "\n".join(lines)
