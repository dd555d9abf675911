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
the tuple at each cost.  The counts ride along so that a join of full
tables can run through the lattice transform of transform6.py, whose
Moebius inversion needs exact counts.  A join of two capped tables with
few rows pairs them instead (Pair join, below).

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

Dominated rows.  Under a cost cap no table keeps a row that a row one
vertex better matches at no higher cost, nor a ledger entry above its
row's cheapest cost; flags.py holds the goodness order, the pass
(_undominated is a thin wrapper over it) and the argument.  Ledger
counts stay exact counts of the branch and pair outcomes of the entries
that are kept, so transform_join6's inversion stays exact; they were
never a number of sets, and are not now.

Capped tables.  So under a cost cap a table holds one [cost, count] per
row: the cheapest cost of the row and the number of branch or pair
outcomes at that cost.  introduce6 and forget6 cut the tables they form
(walk.py, "Pruning"); join6 returns every pair outcome's cost under the
cap, as transform_join6 and reference.direct_join6 do, and _SixState.join
cuts it.  Without a cost cap no row is dropped, so the tables are the
full ones, {cost: count} ledgers per row; so are the tables built by
hand.  Their introduces add each child entry, times the branches that
give it, at the entry's cost plus the branch's; their forgets add up
ledgers; their joins always run transform_join6.

Pair join.  When both tables are capped, join6 picks its method from a
count it makes before it forms any pair.  Rows merge only when the
MEMBER bits of their flag words agree.  Within such a group the OR of
two bytes, with WAITING cleared under MARKED, is their supremum: two
members are M+D; among the other states the dominated and the owing
flags are each set when either side sets them, which is how _supremum
(transform6.py) merges 4, 5, 6 and 7, and a 3 on either side leaves
K+D, the top.  A
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
from itertools import repeat
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


def leaf6(g: Graph, bag_vertices) -> SixTable:
    bag = tuple(bag_vertices)
    if len(bag) != 1:
        raise ValueError(f"leaf bag must be a single vertex, got {sorted(bag)}")
    return _table(bag, {MEMBER | DOMINATED: {1: 1}, 0: {0: 1}}, False)


class _Branches(dict):
    """The _outcomes of an introduce at slot pos with neighbours at slots
    nbrs, by child word masked to the neighbours' bytes, each built the
    first time it is looked up."""

    def __init__(self, pos: int, nbrs: tuple[int, ...]):
        super().__init__()
        self.pos = pos
        self.nbrs = nbrs
        self.mask = 0
        for i in nbrs:
            self.mask |= 0xFF << 8 * (i - (i > pos))

    def __missing__(self, masked: int) -> list:
        found = self[masked] = _outcomes(self.pos, self.nbrs, masked)
        return found


# one _Branches per bag slot and neighbour slots, kept across walks
_shape = lru_cache(maxsize=4096)(_Branches)


def _outcomes(pos: int, nbrs: tuple[int, ...], masked: int) -> list[tuple]:
    """The branches of introducing a vertex at slot pos whose neighbours
    sit at slots nbrs, for a child word whose neighbour bytes are masked:
    over the vertex's membership, each new edge's membership, and who owns
    each new edge that comes out undominated.  A branch rewrites only the
    bytes of the vertex and its neighbours, so it adds a fixed delta to
    the moved child word at a fixed cost.  Returns (cost, delta, ways) per
    branch, its cheapest cost and how many ways it is taken at that cost.

    Each neighbour's byte depends only on its own edge's choice, and the
    vertex's byte tells the three kinds of branch apart, so the deltas are
    sums over the neighbours, one per subset of the neighbours whose
    choice shows.  A member or marked neighbour (1, 3) keeps its byte
    whether its edge is selected or not: a branch that selects anything
    may also select j of those kept edges, adding j to its cost in
    C(kept, j) ways (_full_ledgers), so its cheapest cost selects none of
    them, except in the branch that marks the vertex through kept edges
    alone, which selects one in kept ways.  A neighbour that already owns
    an edge (6, 7) keeps its byte whether it owns the new edge or the
    vertex does."""
    v = 8 * pos
    kept = 0
    v_byte = 0  # v's byte when nothing is selected
    others = []
    for i in nbrs:
        b = masked >> 8 * (i - (i > pos)) & 0xFF
        if b & (MEMBER | MARKED):
            kept += 1
            if b & MEMBER:
                v_byte = DOMINATED << v
        else:
            others.append((b, 8 * i))
    # per subset of the other neighbours' edges selected: how many, their
    # delta with v marked, and with v selected, which also dominates the
    # edges left unselected.  With nothing selected, new edges at member
    # or marked neighbours are dominated, and each other one is owned by v
    # or by its neighbour: deltas, per subset of the neighbours without an
    # edge that own the new one
    costs = [0]
    marking = [(MARKED | DOMINATED) << v]
    joining = [(MEMBER | DOMINATED) << v]
    deltas = [v_byte]
    waiting = 0  # neighbours that own an edge already
    for b, shift in others:
        selected = (MARKED | DOMINATED) - b << shift
        dominated = (b | DOMINATED) - b << shift
        costs += [c + 1 for c in costs]
        marking += [d + selected for d in marking]
        joining = [d + dominated for d in joining] + [d + selected for d in joining]
        if b & WAITING:
            waiting += 1
        else:
            deltas += [d + (WAITING << shift) for d in deltas]
    # the empty subset with v marked selects kept edges alone, at least
    # one; selecting nothing at all is a branch of the kind below
    out = [(1, marking[0], kept)] if kept else []
    out += zip(costs[1:], marking[1:], repeat(1))
    out += zip([c + 1 for c in costs], joining, repeat(1))
    # the last delta has every neighbour without an edge owning one
    v_owns = WAITING << v
    *some, every = deltas
    out += zip(repeat(0), [d + v_owns for d in some], repeat(1 << waiting))
    out.append((0, every, 1))
    if waiting:
        out.append((0, every + v_owns, (1 << waiting) - 1))
    return out


def _full_ledgers(branches: list[tuple], kept: int, only_kept: int) -> list[tuple]:
    """The branches of _outcomes with their whole ledgers, (delta,
    [(cost, ways)]), for the introduce of a full table.  A branch that
    selects anything costs at least 1 and may also select j of the kept
    edges, j more in C(kept, j) ways; the one that selects kept edges
    alone adds only_kept, the vertex's MARKED|DOMINATED byte, and takes
    at least one of them.  A branch that selects nothing costs 0."""
    out = []
    for cost, delta, ways in branches:
        if cost:
            least = delta == only_kept
            entries = [(cost - least + j, comb(kept, j)) for j in range(least, kept + 1)]
            out.append((delta, entries))
        else:
            out.append((delta, [(0, ways)]))
    return out


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
    branches = _shape(pos, nbrs)
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
                    continue
                word = base + delta
                cost = ccost + shift
                entry = get(word)
                if entry is None or cost < entry[0]:
                    out[word] = [cost, count * ways]
                elif cost == entry[0]:
                    entry[1] += count * ways
        return _undominated(_table(vertices, out, True), window=False)
    keeps = byte_ones(len(vertices)) * (MEMBER | MARKED)
    only_kept = (MARKED | DOMINATED) << 8 * pos
    full: dict[int, list] = {}
    rows: dict[int, CostLedger] = {}
    for cword, ledger in zip(table.words, _ledgers(table)):
        base = (cword & below) | (cword & ~below) << 8
        masked = cword & mask
        found = full.get(masked)
        if found is None:
            kept = (masked & keeps).bit_count()
            found = full[masked] = _full_ledgers(branches[masked], kept, only_kept)
        for delta, shifts in found:
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
        from .transform6 import transform_join6

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


def _undominated(table: SixTable, window: bool) -> SixTable:
    """The capped table of the rows that no row one vertex better matches at
    no higher cheapest cost, each with its cheapest cost and count; with
    window, also without the rows above the cost window of walk.py."""
    k = len(table.vertices)
    rows = undominated(_cheapest(table), bag_steps(k), k if window else None)
    return _table(table.vertices, rows, True)


class _SixState:
    """The six-state program's half of the bag walk, for one graph and one
    cost cap.  Each method is one call to its bag operation, which cuts
    the table it forms, except join, which cuts join6's table (walk.py).
    Bag operations are looked up as module globals on every call, so
    wrappers installed on this module from outside see each call."""

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

    cost_cap turns on the pruning of walk.py ("Pruning"), which leaves
    the optimum unchanged as long as the cap is at least the size of some
    mixed dominating set, e.g. greedy_upper_bound.
    """
    _, gamma, tables = walk(g, ntd, _SixState(g, cost_cap), tau, collect_tables)
    return Run6Result(gamma, tables)


# Names of the full-table join, which moved to transform6.py; reading one
# here loads that module.
_MOVED = {"_supremum", "moebius6", "transform_join6", "zeta6"}


def __getattr__(name: str):
    if name in _MOVED:
        from . import transform6

        return getattr(transform6, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
