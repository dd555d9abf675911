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
the tuple at each cost.  The counts ride along so that a join can run
through the per-slot zeta transform of the state lattice that _supremum
defines (generalised fast subset convolution, van Rooij, Bodlaender and
Rossmanith, ESA 2009): two tables multiply pointwise and the true pair
counts come back by Moebius inversion; exact integers keep the inversion
lossless.  A join of two capped tables with few rows pairs them instead
(Pair join, below).

Flag words.  Inside the engine a row is keyed by an integer with one
byte per bag vertex, slot i in bits 8i..8i+7 (vertices ascending), each
byte holding the vertex flags of flags.py: MEMBER, MARKED, DOMINATED and
WAITING, where WAITING stands for owning an undominated edge.  So 1 is
M+D, 3 is K+D, 4 is D, 5 is no flag, 6 is D+W and 7 is W.
SixTable.rows decodes the words to state tuples on each access, and
SixTable(vertices, rows) encodes rows built by hand.  Each operation
works on the words:

    An introduce moves a child word up by one byte at the new slot and
    adds a delta.  A branch (the new vertex's membership, each new
    edge's, an owner for each new edge left undominated) rewrites only
    the bytes of the new vertex and its neighbours, so the deltas, their
    costs and how many branches give each depend only on the
    neighbours' bytes; _outcomes lists them once per neighbour pattern
    and bag shape, and every row with that pattern reuses them.  A
    forget keeps a row when the forgotten byte has DOMINATED set and
    WAITING clear, which are the states 1, 3 and 4, and shifts the byte
    out.  A join ORs the words of two rows (Pair join, below).

Dominated rows.  Under a cost cap, which also turns on the cost window
of walk.py, no table keeps a row that a better row matches at no higher
cost.  The goodness order of flags.py, in states: 1 stands apart; 3 is
above 4, 5, 6 and 7; 4 is above 5 and 6; 5 and 6 are each above 7; 5
and 6 are incomparable.  This is not the lattice of _supremum, which puts
4 below 6: a 6 owns an undominated edge that a 4 does not, and a forget
drops the 6 but keeps the 4.  flags.py holds the pass (_undominated is a
thin wrapper over it) and the argument that dropping these rows, and the
entries of a ledger above its own cheapest cost, changes no optimum.
Ledger counts stay exact counts of the branch and pair outcomes of the
entries that are kept, so transform_join6's inversion stays exact; they
were never a number of sets, and are not now.

Capped tables.  So under a cost cap a table holds one [cost, count] per
row: the cheapest cost of the row and the number of branch or pair
outcomes at that cost.  introduce6 with a cost cap forms only those, up
to the cap and the window (its minimum is its child's), and runs the
pass; forget6 keeps its child's form and, on a capped table, runs the
pass with the window, which a forget can raise.  join6 returns every
pair outcome's cost under the cap, as transform_join6 and
reference.direct_join6 do, and the walk (_SixState.join) runs the pass
with the window on it.  Without a cost cap no row is dropped, so the
tables are the full ones, {cost: count} ledgers per row; so are the
tables built by hand.  Their introduces add each child entry, times the
branches that give it, at the entry's cost plus the branch's; their
forgets add up ledgers; their joins always run transform_join6.

Packed ledgers.  Inside the transforms (transform_join6, zeta6 and
moebius6), a ledger {cost: count} is one integer, the sum of
count * 2^(w * (cost - base)), with fields of w bits (Kronecker
substitution; Harvey, 2009).  A table's ledgers share one w and one
base, the table's cheapest cost, so an int holds only the few fields of
the cost window above it, not one field per cost from 0.  As long as no
field overflows, packing is exact and linear: the sum of packed ints is
the packed sum, so the per-slot transforms run on packed ints
unchanged, and the product of two packed ints is the packed product of
their ledgers, field c holding the sum of count_a(i) * count_b(c - i).
One integer operation thus does the work of a loop over a ledger.

Fields are signed, so a packed int also holds the negative counts a
Moebius inversion of a non-image produces.  _width(bound) gives bound's
bits plus a sign bit, where bound caps the absolute value of every field
a transform forms, intermediate ones included: the sum of absolute
counts for zeta6 and moebius6 (their coefficients are 0 and +-1, and
each input entry reaches each output entry once), and the product of
the two count totals for transform_join6.  Tables leave each transform
as dicts again.

Pair join.  When both tables are capped, join6 picks its method from a
count it makes before it forms any pair.  Rows merge only when the
MEMBER bits of their flag words agree.  Within such a group the OR of
two bytes, with WAITING cleared under MARKED, is their supremum: two
members are M+D; among the other states the dominated and the owing
flags are each set when either side sets them, which is how _supremum
merges 4, 5, 6 and 7, and a 3 on either side leaves K+D, the top.  A
pair's ledger is the one entry (cost_a + cost_b - members,
count_a * count_b), members being the group's, which both sides select.
The rows of a bag of k vertices form the sum over groups of
|A_g| * |B_g| pairs.  When that is at most 6^k, join6 forms them;
otherwise it runs transform_join6, whose tuples are at most 6^k.  Either
way a join's work stays within the 6^k of the paper's O(6^tw) bound.
Under a cost cap a table holds only undominated rows with one cost each,
so capped joins nearly always pair.  A full table's rows carry whole
ledgers, whose pair products the transform forms one packed multiply per
tuple, so every join with a full table runs the transform.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb
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
from .graph import Graph
from .treedec import NiceTreeDecomposition
from .walk import walk

CostLedger = dict[int, int]
Rows6 = dict[tuple, CostLedger]

IN_SOLUTION = 1
EDGE_MARK = 3
STATES = (1, 3, 4, 5, 6, 7)

# A state as a vertex byte of the flag words (module docstring, "Flag
# words"): 6 and 7 own an undominated edge, which the WAITING flag stands
# for.  _TO_FLAGS and _FROM_FLAGS are bytes.translate tables between
# states and bytes, for rows read or built as state tuples.
_FLAGS = {
    1: MEMBER | DOMINATED,
    3: MARKED | DOMINATED,
    4: DOMINATED,
    5: 0,
    6: DOMINATED | WAITING,
    7: WAITING,
}
_TO_FLAGS = bytes.maketrans(bytes(_FLAGS), bytes(_FLAGS.values()))
_FROM_FLAGS = bytes.maketrans(bytes(_FLAGS.values()), bytes(_FLAGS))


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
_ZETA = {s: tuple(((x,), 1) for x in STATES if _below(s, x)) for s in STATES}
_MOEBIUS = {y: tuple(((x,), m) for x, m in _moebius_row(y)) for y in STATES}


class _Words(NamedTuple):
    vertices: tuple[int, ...]  # ascending bag vertices, one slot each
    # flag word -> ledger {cost: count}, or [cost, count] when capped
    words: dict
    capped: bool


class SixTable(_Words):
    """One bag's table.  rows is the table keyed by state tuples, decoded
    on each access; SixTable(vertices, rows) builds a full table from such
    rows."""

    __slots__ = ()

    def __new__(cls, vertices, rows: Rows6):
        vertices = tuple(vertices)
        if any(u >= v for u, v in zip(vertices, vertices[1:])):
            raise ValueError(f"bag vertices {vertices} are not strictly ascending")
        k = len(vertices)
        words = {_encode(key, k): ledger for key, ledger in rows.items()}
        return _new(cls, (vertices, words, False))

    @property
    def rows(self) -> Rows6:
        k = len(self.vertices)
        return {_decode(word, k): led for word, led in zip(self.words, _ledgers(self))}


_new = tuple.__new__


def _table(vertices: tuple[int, ...], words: dict, capped: bool) -> SixTable:
    return _new(SixTable, (vertices, words, capped))


def _encode(key, k: int) -> int:
    """The flag word of a state tuple of k slots."""
    key = tuple(key)
    if len(key) != k or not all(s in _FLAGS for s in key):
        raise ValueError(f"{key} is not a row of a {k}-vertex bag")
    return int.from_bytes(bytes(key).translate(_TO_FLAGS), "little")


def _decode(word: int, k: int) -> tuple[int, ...]:
    return tuple(word.to_bytes(k, "little").translate(_FROM_FLAGS))


class Run6Result(NamedTuple):
    gamma: int
    tables: tuple[SixTable, ...] | None = None


def _add(ledger: CostLedger, cost: int, count: int) -> None:
    ledger[cost] = ledger.get(cost, 0) + count


def _width(bound: int) -> int:
    """Field width for the packed ledgers of a transform whose fields
    never exceed bound in absolute value: its bits plus a sign bit."""
    return bound.bit_length() + 1


def _base_total(ledgers) -> tuple[int, int]:
    """The cheapest cost in some ledgers, and the sum of their absolute
    counts."""
    ledgers = list(ledgers)
    base = min(map(min, ledgers), default=0)
    return base, sum(map(abs, chain.from_iterable(map(dict.values, ledgers))))


def _pack(ledger: CostLedger, w: int, base: int) -> int:
    x = 0
    for cost, count in ledger.items():
        x += count << w * (cost - base)
    return x


def _ledgers(table: SixTable):
    """The {cost: count} ledger of every row, in the order of its words."""
    if table.capped:
        return [{cost: count} for cost, count in table.words.values()]
    return table.words.values()


def _cheapest(table: SixTable) -> dict[int, list]:
    """Every row of a table as its flag word and [cheapest cost, count]."""
    if table.capped:
        return table.words
    return {word: [c := min(led), led[c]] for word, led in table.words.items()}


def _low(rows: dict[int, list]) -> int | None:
    """The cheapest cost of [cost, count] rows (lists compare by cost
    first)."""
    return min(rows.values())[0] if rows else None


def _unpack(x: int, w: int, base: int) -> CostLedger:
    """The ledger of a packed int with signed w-bit fields, field 0 at
    cost base; zero fields are left out."""
    mask = ~(-1 << w)
    half = mask >> 1
    if 0 < x <= half:
        return {base: x}
    ledger: CostLedger = {}
    while x:
        field = x & mask
        x >>= w
        if field > half:
            field -= mask + 1
            x += 1
        if field:
            ledger[base] = field
        base += 1
    return ledger


def leaf6(g: Graph, bag_vertices) -> SixTable:
    bag = tuple(bag_vertices)
    if len(bag) != 1:
        raise ValueError(f"leaf bag must be a single vertex, got {sorted(bag)}")
    return _table(bag, {MEMBER | DOMINATED: {1: 1}, 0: {0: 1}}, False)


class _Branches(dict):
    """The _outcomes of an introduce at slot pos with neighbours at slots
    nbrs, by child word masked to the neighbours' bytes, each built the
    first time it is looked up: for a capped table, per delta its
    cheapest (cost, delta, branches), sorted by cost; for a full table,
    per delta its (delta, [(cost, branches)])."""

    def __init__(self, pos: int, nbrs: tuple[int, ...], capped: bool):
        super().__init__()
        self.pos = pos
        self.nbrs = nbrs
        self.capped = capped
        self.mask = 0
        for i in nbrs:
            self.mask |= 0xFF << 8 * (i - (i > pos))

    def __missing__(self, masked: int) -> list:
        found = _outcomes(self.pos, self.nbrs, masked)
        if self.capped:
            found = sorted([(led[0][0], delta, led[0][1]) for delta, led in found])
        self[masked] = found
        return found


_shape = lru_cache(maxsize=4096)(_Branches)


@lru_cache(maxsize=None)
def _selected(cost: int, kept: int) -> tuple[tuple[int, int], ...]:
    """(cost + j, C(kept, j)) for j = 0 .. kept."""
    return tuple((cost + j, comb(kept, j)) for j in range(kept + 1))


def _outcomes(pos: int, nbrs: tuple[int, ...], masked: int) -> list[tuple]:
    """The branches of introducing a vertex at slot pos whose neighbours
    sit at slots nbrs, for a child word whose neighbour bytes are masked:
    over the vertex's membership, each new edge's membership, and who owns
    each new edge that comes out undominated.  A branch rewrites only the
    bytes of the vertex and its neighbours, so it adds a fixed delta to
    the moved child word at a fixed cost.  Returns each delta with its
    costs and how many branches give each, cheapest first.

    Each neighbour's byte depends only on its own edge's choice, and the
    vertex's byte tells the three kinds of branch apart, so the deltas are
    sums over the neighbours, one per subset of the neighbours whose
    choice shows.  A member or marked neighbour (1, 3) keeps its byte
    whether its edge is selected or not: selecting j of those kept edges
    adds j to the cost in C(kept, j) ways.  A neighbour that already owns
    an edge (6, 7) keeps its byte whether it owns the new edge or the
    vertex does."""
    olds = [(masked >> 8 * (i - (i > pos)) & 0xFF, 8 * i) for i in nbrs]
    kept = sum(1 for b, _ in olds if b & (MEMBER | MARKED))
    others = [(b, shift) for b, shift in olds if not b & (MEMBER | MARKED)]
    out = []
    for dv in (0, 1):
        # v selected (member) or, with a selected edge, marked; either
        # way every unselected new edge is dominated from v's side
        deltas = [(MEMBER | DOMINATED if dv else MARKED | DOMINATED) << 8 * pos]
        costs = [dv]
        for b, shift in others:
            unselected = (b | DOMINATED if dv else b) - b << shift
            selected = (MARKED | DOMINATED) - b << shift
            deltas = [d + unselected for d in deltas] + [d + selected for d in deltas]
            costs += [c + 1 for c in costs]
        for delta, cost in zip(deltas, costs):
            # selecting nothing at all is a branch of the kind below
            out.append((delta, _selected(cost, kept)[cost == 0:]))
    # nothing selected: new edges at member or marked neighbours are
    # dominated, each other one is owned by v or by its neighbour
    v_byte = (DOMINATED if any(b & MEMBER for b, _ in olds) else 0) << 8 * pos
    v_owns = WAITING << 8 * pos
    deltas = [0]
    waiting = 0  # neighbours that own an edge already
    for b, shift in others:
        if b & WAITING:
            waiting += 1
        else:
            deltas += [d + (WAITING << shift) for d in deltas]
    # the last delta has every neighbour without an edge owning one
    *some, every = deltas
    out += [(d + v_byte + v_owns, [(0, 1 << waiting)]) for d in some]
    out.append((every + v_byte, [(0, 1)]))
    if waiting:
        out.append((every + v_byte + v_owns, [(0, (1 << waiting) - 1)]))
    return [entry for entry in out if entry[1]]


def introduce6(
    g: Graph, table: SixTable, v_new: int, cost_cap: int | None = None
) -> SixTable:
    """Extend every row by the new vertex, by the branches that _outcomes
    lists for the states of its neighbours.

    Under a cost cap the table is capped: a row keeps its cheapest cost
    and the number of branch outcomes at that cost, only costs within the
    cap and the cost window of walk.py are formed, and dominated rows are
    dropped (module docstring).  Without one, a branch adds each child
    entry, its count times the number of ways the branch is taken, at the
    entry's cost plus the branch's."""
    if v_new in table.vertices:
        raise ValueError(f"vertex {v_new} is already in the bag")
    vertices = tuple(sorted(table.vertices + (v_new,)))
    pos = vertices.index(v_new)
    nbrs = tuple(
        i for i, u in enumerate(vertices) if i != pos and g.has_edge(v_new, u)
    )
    branches = _shape(pos, nbrs, cost_cap is not None)
    mask = branches.mask
    below = ~(-1 << 8 * pos)  # the bytes of the slots before pos
    if cost_cap is not None:
        rows = _cheapest(table)
        # the branch selecting nothing keeps every row's cost, so the
        # table's minimum is the child's and its cost window is known
        limit = min(cost_cap, (_low(rows) or 0) + len(vertices))
        out: dict[int, list] = {}
        get = out.get
        for cword, (ccost, count) in rows.items():
            budget = limit - ccost
            base = (cword & below) | (cword & ~below) << 8
            for shift, delta, ways in branches[cword & mask]:
                if shift > budget:
                    break
                word = base + delta
                cost = ccost + shift
                entry = get(word)
                if entry is None or cost < entry[0]:
                    out[word] = [cost, count * ways]
                elif cost == entry[0]:
                    entry[1] += count * ways
        return _undominated(_table(vertices, out, True), window=False)
    rows: dict[int, CostLedger] = {}
    for cword, ledger in zip(table.words, _ledgers(table)):
        base = (cword & below) | (cword & ~below) << 8
        for delta, shifts in branches[cword & mask]:
            tgt = rows.setdefault(base + delta, {})
            for s, ways in shifts:
                for cost, count in ledger.items():
                    cost += s
                    tgt[cost] = tgt.get(cost, 0) + count * ways
    return _table(vertices, rows, False)


def forget6(table: SixTable, forgotten: int) -> SixTable:
    """Drop the vertex; rows where it is undominated or still owns an
    undominated edge cannot be completed and disappear: one byte test,
    DOMINATED set and WAITING clear, finds the survivors (1, 3 and 4).
    Costs are kept, so a forget needs no cost cap; a capped table stays
    capped, cut to its cost window of walk.py and without dominated rows."""
    if forgotten not in table.vertices:
        raise ValueError(f"vertex {forgotten} is not in the bag")
    pos = table.vertices.index(forgotten)
    vertices = table.vertices[:pos] + table.vertices[pos + 1:]
    shift = 8 * pos
    below = ~(-1 << shift)
    if table.capped:
        out: dict[int, list] = {}
        get = out.get
        for word, (cost, count) in table.words.items():
            if word >> shift & (DOMINATED | WAITING) != DOMINATED:
                continue
            word = word & below | word >> 8 & ~below
            entry = get(word)
            if entry is None or cost < entry[0]:
                out[word] = [cost, count]
            elif cost == entry[0]:
                entry[1] += count
        return _undominated(_table(vertices, out, True), window=True)
    rows: dict[int, CostLedger] = {}
    for word, ledger in table.words.items():
        if word >> shift & (DOMINATED | WAITING) == DOMINATED:
            tgt = rows.setdefault(word & below | word >> 8 & ~below, {})
            for cost, count in ledger.items():
                _add(tgt, cost, count)
    return _table(vertices, rows, False)


def _transform(packed: dict[tuple, int], mapping: dict) -> dict[tuple, int]:
    """Apply a per-slot linear map (zeta or its inverse) slot by slot to
    packed ledgers."""
    cur = packed
    for i in range(len(next(iter(packed), ()))):
        nxt: dict[tuple, int] = {}
        for key, x in cur.items():
            head, tail = key[:i], key[i + 1:]
            for target, sign in mapping[key[i]]:
                k = head + target + tail
                nxt[k] = nxt.get(k, 0) + (x if sign > 0 else -x)
        cur = nxt
    return cur


def _transform_rows(rows: Rows6, mapping: dict) -> Rows6:
    base, total = _base_total(rows.values())
    w = _width(total)
    packed = {key: _pack(ledger, w, base) for key, ledger in rows.items()}
    return {
        key: _unpack(x, w, base)
        for key, x in _transform(packed, mapping).items()
        if x
    }


def zeta6(rows: Rows6) -> Rows6:
    """Per-slot zeta transform: coordinate x of a slot sums the ledgers of
    every state below x in the state lattice.  Zero counts and empty
    ledgers are left out."""
    return _transform_rows(rows, _ZETA)


def moebius6(rows: Rows6) -> Rows6:
    """Inverse of zeta6, without zero counts and empty ledgers."""
    return _transform_rows(rows, _MOEBIUS)


def _by_members(words, members: int) -> dict[int, list[int]]:
    """Flag words grouped by their bits in members."""
    groups: dict[int, list[int]] = {}
    for word in words:
        groups.setdefault(word & members, []).append(word)
    return groups


def join6(
    a: SixTable,
    b: SixTable,
    stats: dict | None = None,
    cost_cap: int | None = None,
) -> SixTable:
    """Join two tables of one bag of k vertices: by pairs when both are
    capped and their rows form at most 6^k pairs, else by transform_join6.
    The result holds every pair outcome's cost under the cap.

    Rows pair only within a group of equal MEMBER bits, so the pairs are
    counted per group before any is formed.  A pair's word is the OR of the
    two flag words with WAITING cleared under MARKED, its ledger the one
    entry (cost_a + cost_b - members, count_a * count_b), members being the
    group's, which both sides select (module docstring, "Pair join").  With
    stats, "pairs" counts the pairs formed and "transform_tuples" the
    tuples transformed; one of them is 0.
    """
    if a.vertices != b.vertices:
        raise ValueError("join children must share the same bag")
    k = len(a.vertices)
    ones = byte_ones(k)
    groups_a = _by_members(a.words, ones * MEMBER)
    groups_b = _by_members(b.words, ones * MEMBER)
    pairs = sum(len(g) * len(groups_b.get(m, ())) for m, g in groups_a.items())
    if not (a.capped and b.capped) or pairs > 6 ** k:
        if stats is not None:
            stats["pairs"] = 0
        return transform_join6(a, b, stats, cost_cap)
    if stats is not None:
        stats["pairs"] = pairs
        stats["transform_tuples"] = 0
    waiting = ones * WAITING  # MARKED << 2 lands on WAITING
    rows: dict[int, CostLedger] = {}
    limit = float("inf") if cost_cap is None else cost_cap
    for members, group in groups_a.items():
        partners = [(wb, *b.words[wb]) for wb in groups_b.get(members, ())]
        if not partners:
            continue
        shared = members.bit_count()
        for wa in group:
            ca, na = a.words[wa]
            ca -= shared
            for wb, cb, nb in partners:
                cost = ca + cb
                if cost > limit:
                    continue
                word = wa | wb
                word &= ~(word << 2 & waiting)
                ledger = rows.get(word)
                if ledger is None:
                    rows[word] = {cost: na * nb}
                else:
                    ledger[cost] = ledger.get(cost, 0) + na * nb
    return _table(a.vertices, rows, False)


def transform_join6(
    a: SixTable,
    b: SixTable,
    stats: dict | None = None,
    cost_cap: int | None = None,
) -> SixTable:
    """Join through the lattice transform: zeta-transform both tables,
    multiply ledgers pointwise, invert by Moebius, and shift costs by the
    doubly selected vertices.  Coordinate x of the product counts the pairs
    whose supremum lies below x, so the inversion yields the pair counts of
    every supremum while touching at most 6^k transform tuples instead of
    pairing rows quadratically.  The transform runs on state tuples, so the
    rows are decoded on the way in and encoded on the way out.

    Ledgers are packed (see the module docstring) with field 0 at each
    table's cheapest cost, so one multiply forms a key's whole product
    ledger.  Every product field, and every field on the way through the
    inversion, counts a set of pairs, so it is at most the product of the
    two tables' count totals; that bound sets the field width.

    With a cost cap, product entries that can only feed capped-away costs
    are dropped early.  A transform key fixes which slots both sides
    selected (its IN_SOLUTION slots, each charged doubly), so the final
    cost of an entry is known up to that constant shift, and masking off
    the fields above the cap keeps exact counts in the fields below it: no
    field is negative, so none borrows from the next.  The mask is built
    only when the product reaches past the cap, so a cap far above the
    tables' costs (a star's greedy cap is about n) costs nothing.
    """
    if a.vertices != b.vertices:
        raise ValueError("join children must share the same bag")
    base_a, total_a = _base_total(_ledgers(a))
    base_b, total_b = _base_total(_ledgers(b))
    w = _width(total_a * total_b)
    za = _transform({k: _pack(led, w, base_a) for k, led in a.rows.items()}, _ZETA)
    zb = _transform({k: _pack(led, w, base_b) for k, led in b.rows.items()}, _ZETA)
    if stats is not None:
        stats["transform_tuples"] = len(za.keys() | zb.keys())
    product: dict[tuple, int] = {}
    for key in za.keys() & zb.keys():
        x = za[key] * zb[key]
        if cost_cap is not None:
            keep = w * max(cost_cap + key.count(IN_SOLUTION) - base_a - base_b + 1, 0)
            if x.bit_length() > keep:
                x &= ~(-1 << keep)
        if x:
            product[key] = x
    rows: Rows6 = {}
    for key, x in _transform(product, _MOEBIUS).items():
        if not x:
            continue
        ledger = _unpack(x, w, base_a + base_b - key.count(IN_SOLUTION))
        if any(count < 0 for count in ledger.values()):
            raise AssertionError(f"negative pair count at {key}")
        rows[key] = ledger
    return SixTable(a.vertices, rows)


def _undominated(table: SixTable, window: bool) -> SixTable:
    """The capped table of the rows that no row one vertex better matches at
    no higher cheapest cost, each with its cheapest cost and count; with
    window, also without the rows above the cost window of walk.py."""
    k = len(table.vertices)
    rows = undominated(_cheapest(table), bag_steps(k), k if window else None)
    return _table(table.vertices, rows, True)


class _SixState:
    """The six-state program's half of the bag walk, for one graph and one
    cost cap.  Under a cap, introduce6 and forget6 return capped tables
    (module docstring); a join's table holds every pair outcome under the
    cap, and goes through _undominated with the cost window of walk.py
    here.  Bag operations are looked up as module globals on every call,
    so wrappers installed on this module from outside see each call."""

    def __init__(self, g: Graph, cost_cap: int | None):
        self.g = g
        self.cost_cap = cost_cap

    def leaf(self, bag):
        return leaf6(self.g, bag)

    def introduce(self, child, vertex):
        return introduce6(self.g, child, vertex, self.cost_cap)

    def forget(self, child, vertex):
        return forget6(child, vertex)

    def join(self, left, right):
        table = join6(left, right, cost_cap=self.cost_cap)
        return table if self.cost_cap is None else _undominated(table, window=True)

    def min_cost(self, table: SixTable) -> int | None:
        return _low(_cheapest(table))


def run6(
    g: Graph,
    ntd: NiceTreeDecomposition,
    tau: list[int] | None = None,
    collect_tables: bool = False,
    cost_cap: int | None = None,
) -> Run6Result:
    """Run the six-state program and return the mixed domination number,
    the cheapest cost in the one row left after the walk forgets the root
    bag (walk.py).

    cost_cap prunes ledger entries above the cap at every bag and turns on
    the cost window of walk.py, which also drops entries costing more than
    their table's minimum plus the bag size (the root bag's forgets
    included), and the drop of dominated rows (module docstring); none of
    them changes the optimum.  The result is unchanged as long as the cap
    is at least the size of some mixed dominating set, e.g.
    greedy_upper_bound.
    """
    _, gamma, tables = walk(g, ntd, _SixState(g, cost_cap), tau, collect_tables)
    return Run6Result(gamma, tables)
