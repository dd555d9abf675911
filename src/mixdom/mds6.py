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
lossless.  A join whose tables are small pairs their rows instead (Pair
join, below).

Dominated rows.  Under a cost cap, which also turns on the cost window
of walk.py, no table keeps a row that a better row matches at no higher
cost.  Order a slot's states by how good they are for what is still to
come: 1 stands apart, comparable only to itself, since membership must
agree; among the others, dominated beats undominated and owing no edge
beats owing one, with 3 on top.  So 3 is above 4, 5, 6 and 7; 4 is above
5 and 6; 5 and 6 are each above 7; 5 and 6 are incomparable.  A row R'
is at least as good as a row R when it is in every slot.  This is not
the lattice of _supremum, which puts 4 below 6: a 6 owns an undominated
edge that a 4 does not, and a forget drops the 6 but keeps the 4.

    Each operation is monotone in this order.  An introduce branch of R
    (v's membership, the new edges selected, an owner for each new edge
    left open) maps to the branch of R' with the same choices, owners
    only for the edges R' leaves open, which are among R's; at the same
    cost its result is at least as good: a selected edge turns both
    sides to 3 or keeps 1, selecting v turns 5 into 4 and 7 into 6, an
    owner at u turns 4 into 6 and 5 into 7, and each of these maps keeps
    the order, while v owns an edge in R' only if it does in R.  A
    forget's survivors {1, 3, 4} form an up-set, so R' survives whenever
    R does.  A join's supremum ORs the dominated and the owing flags
    slot by slot and 3 absorbs, so R' with any partner T is at least as
    good as R with T, at the same cost (both share T's 1 slots).  By
    induction every completion of R is matched by a completion of R' at
    no higher cost, so dropping R changes no optimum.  The entries of a
    ledger above its own cheapest cost go by the same argument, R' = R.

The pass (_undominated) drops R when a row one slot better, any strictly
better state in that slot, has a cheapest cost at most R's; it reads the
table as built, so chains of dropped rows end at a kept row, which
dominates each row of its chain: every step is strictly up the order.
The table's minimum is kept, and with it the window of walk.py.  Ledger
counts stay exact counts of the branch and pair outcomes of the entries
that are kept, so transform_join6's inversion stays exact; they were
never a number of sets, and are not now.  The pass runs after every
introduce, forget and join and also cuts the table to its window; only a
forget's or a join's table can reach past it.  Without a cost cap no row is
dropped, so the tables are the full ones.

Packed ledgers.  Inside introduce6, join6 and the transforms, a ledger
{cost: count} is one integer, sum of count * 2^(w * (cost - base)), with
fields of w bits (Kronecker substitution; Harvey, 2009).  A table's
ledgers share one w and one base, the table's cheapest cost, so an int
holds only the few fields of the cost window above it, not one field per
cost from 0.  As long as no field overflows, packing is exact and
linear: the sum of packed ints is the packed sum, so the per-slot
transforms run on packed ints unchanged; shifting by w bits adds 1 to
every cost; and the product of two packed ints is the packed product of
their ledgers, field c holding the sum of count_a(i) * count_b(c - i).
One integer operation thus does the work of a loop over a ledger.

Fields are signed, so a packed int also holds the negative counts a
Moebius inversion of a non-image produces.  _width(bound) gives bound's
bits plus a sign bit, where bound caps the absolute value of every field
an operation forms, intermediate ones included: the sum of absolute
counts for a transform (its coefficients are 0 and +-1, and each input
entry reaches each output entry once), the product of the two count
totals for a join, and the count total times the branches per row for an
introduce.  Tables leave each operation as dicts again.

Pair join.  join6 picks its method per join from a count it makes before
it forms any pair.  Each row becomes a flag word of dp.py's vertex bytes
(its module docstring): MEMBER, MARKED, DOMINATED and WAITING, where
WAITING stands for owning an undominated edge, so 1 is M+D, 3 is K+D, 4
is D, 5 is no flag, 6 is D+W and 7 is W.  Rows merge only when their
MEMBER bits agree.  Within such a group the OR of two bytes, with WAITING
cleared under MARKED, is their supremum: two members are M+D; among the
other states the dominated and the owing flags are each set when either
side sets them, which is how _supremum merges 4, 5, 6 and 7, and a 3 on
either side leaves K+D, the top.  A pair's ledger is the product of the
two packed ledgers (Packed ledgers, above), at the base of both tables'
cheapest costs less the group's members, which both sides select; the
field width and the cap mask are transform_join6's, so both methods give
the same table.  The rows of a bag of k vertices form the sum over
groups of |A_g| * |B_g| pairs.  When that is at most 6^k, join6 forms
them; otherwise it runs transform_join6, whose tuples are at most 6^k.
Either way a join's work stays within the 6^k of the paper's O(6^tw)
bound.  Under a cost cap a table holds only undominated rows with one
cost each, so capped joins nearly always pair; the full tables of an
uncapped walk are where the transform wins.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .graph import Graph
from .treedec import NiceTreeDecomposition
from .walk import walk

CostLedger = dict[int, int]
Rows6 = dict[tuple, CostLedger]

IN_SOLUTION = 1
EDGE_MARK = 3
SETTLED = (1, 3, 4)  # states that survive a forget
STATES = (1, 3, 4, 5, 6, 7)

# A state as a vertex byte of dp.py's flag words (its module docstring),
# for the pair join: 6 and 7 own an undominated edge, which dp.py's
# WAITING flag stands for.  _TO_FLAGS and _FROM_FLAGS are bytes.translate
# tables between states and bytes.
MEMBER, MARKED, DOMINATED, WAITING = 1, 2, 4, 8
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


class SixTable(NamedTuple):
    vertices: tuple[int, ...]  # ascending bag vertices, one slot each
    rows: Rows6


class Run6Result(NamedTuple):
    gamma: int
    tables: tuple[SixTable, ...] | None = None


def _add(ledger: CostLedger, cost: int, count: int) -> None:
    ledger[cost] = ledger.get(cost, 0) + count


def _width(bound: int) -> int:
    """Field width for packed ledgers whose fields never exceed bound in
    absolute value: its bits plus a sign bit."""
    return bound.bit_length() + 1


def _base_total(rows: Rows6) -> tuple[int, int]:
    """The cheapest cost in rows, and the sum of their absolute counts."""
    base = min(map(min, rows.values()), default=0)
    return base, sum(map(abs, chain.from_iterable(map(dict.values, rows.values()))))


def _pack(ledger: CostLedger, w: int, base: int) -> int:
    x = 0
    for cost, count in ledger.items():
        x += count << w * (cost - base)
    return x


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
    return SixTable(bag, {(1,): {1: 1}, (5,): {0: 1}})


def introduce6(
    g: Graph, table: SixTable, v_new: int, cost_cap: int | None = None
) -> SixTable:
    """Extend every row by the new vertex, branching over its membership,
    over each new edge's membership, and over who owns each new edge that
    comes out undominated.

    Each child ledger is packed once; a branch adds it shifted by the
    branch's cost, masked to the costs within the cap and the cost window
    of walk.py.  An output field sums at most one child entry per (row,
    branch), and a row has fewer than 3 * 2^d branches for d new edges, so
    no field exceeds the child count total times 3 * 2^d."""
    if v_new in table.vertices:
        raise ValueError(f"vertex {v_new} is already in the bag")
    vertices = tuple(sorted(table.vertices + (v_new,)))
    pos_new = vertices.index(v_new)
    old_pos = [i for i in range(len(vertices)) if i != pos_new]
    nbrs = [i for i in old_pos if g.has_edge(v_new, vertices[i])]
    low, total = _base_total(table.rows)
    if cost_cap is not None:
        # the branch selecting nothing keeps every row's costs, so the
        # table's minimum is low and its cost window of walk.py is known
        cost_cap = min(cost_cap, low + len(vertices))
    # a row has 2^(d+1) - 1 selections plus 2^(open edges) <= 2^d owners
    w = _width(total * (3 << len(nbrs)))
    keep = None if cost_cap is None else w * max(cost_cap - low + 1, 0)
    selections = [
        [u for t, u in enumerate(nbrs) if bits >> t & 1]
        for bits in range(1 << len(nbrs))
    ]
    packed: dict[tuple, int] = {}
    for ckey, ledger in table.rows.items():
        budget = None if cost_cap is None else cost_cap - min(ledger)
        x = _pack(ledger, w, low)
        # the row's ledger shifted by every cost a branch can add
        shifted = [x << w * s for s in range(len(nbrs) + 2)]
        if keep is not None and shifted[-1].bit_length() > keep:
            # the cap cuts into this row's costs; a mask is built only then
            shifted = [y & ~(-1 << keep) for y in shifted]
        base = [0] * len(vertices)
        for cpos, i in enumerate(old_pos):
            base[i] = ckey[cpos]
        for dv in (0, 1):
            for selected in selections:
                shift = dv + len(selected)
                if budget is not None and shift > budget:
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
                if dv or selected:
                    # every unselected new edge is dominated from v's side
                    states[pos_new] = 1 if dv else EDGE_MARK
                    key = tuple(states)
                    packed[key] = packed.get(key, 0) + shifted[shift]
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
                    key = tuple(branch)
                    packed[key] = packed.get(key, 0) + shifted[0]
    return SixTable(
        vertices, {key: _unpack(x, w, low) for key, x in packed.items()}
    )


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
            tgt = rows.setdefault(key[:pos] + key[pos + 1:], {})
            for cost, count in ledger.items():
                _add(tgt, cost, count)
    return SixTable(vertices, rows)


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
    base, total = _base_total(rows)
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


def _by_members(rows: Rows6, members: int) -> dict[int, list[tuple[int, CostLedger]]]:
    """The (flag word, ledger) of every row, grouped by the word's bits in
    members."""
    groups: dict[int, list[tuple[int, CostLedger]]] = {}
    for key, ledger in rows.items():
        word = int.from_bytes(bytes(key).translate(_TO_FLAGS), "little")
        groups.setdefault(word & members, []).append((word, ledger))
    return groups


def join6(
    a: SixTable,
    b: SixTable,
    stats: dict | None = None,
    cost_cap: int | None = None,
) -> SixTable:
    """Join two tables of one bag of k vertices, by pairs when the rows
    present form at most 6^k pairs, else by transform_join6.

    Rows pair only within a group of equal MEMBER bits, so the pairs are
    counted per group before any is formed.  A pair's word is the OR of the
    two flag words with WAITING cleared under MARKED, its ledger the
    product of the two packed ledgers, shifted by the group's members,
    which both sides select (module docstring, "Pair join").  The field
    width and the cap mask are transform_join6's, so both methods return
    the same table.  With stats, "pairs" counts the pairs formed and
    "transform_tuples" the tuples transformed; one of them is 0.
    """
    if a.vertices != b.vertices:
        raise ValueError("join children must share the same bag")
    k = len(a.vertices)
    ones = int.from_bytes(b"\x01" * k, "little")
    groups_a = _by_members(a.rows, ones * MEMBER)
    groups_b = _by_members(b.rows, ones * MEMBER)
    pairs = sum(len(g) * len(groups_b.get(m, ())) for m, g in groups_a.items())
    if pairs > 6 ** k:
        if stats is not None:
            stats["pairs"] = 0
        return transform_join6(a, b, stats, cost_cap)
    if stats is not None:
        stats["pairs"] = pairs
        stats["transform_tuples"] = 0
    base_a, total_a = _base_total(a.rows)
    base_b, total_b = _base_total(b.rows)
    w = _width(total_a * total_b)
    waiting = ones * WAITING  # MARKED << 2 lands on WAITING
    rows: Rows6 = {}
    for members, group in groups_a.items():
        partners = [(wb, _pack(lb, w, base_b)) for wb, lb in groups_b.get(members, ())]
        if not partners:
            continue
        ored: dict[int, int] = {}
        for wa, la in group:
            x = _pack(la, w, base_a)
            for wb, y in partners:
                word = wa | wb
                ored[word] = ored.get(word, 0) + x * y
        # WAITING cleared under MARKED, once per word rather than per pair
        product: dict[int, int] = {}
        for word, x in ored.items():
            word &= ~(word << 2 & waiting)
            product[word] = product.get(word, 0) + x
        base = base_a + base_b - members.bit_count()
        keep = None if cost_cap is None else w * max(cost_cap - base + 1, 0)
        for word, x in product.items():
            if keep is not None and x.bit_length() > keep:
                x &= ~(-1 << keep)
            if x:
                key = tuple(word.to_bytes(k, "little").translate(_FROM_FLAGS))
                rows[key] = _unpack(x, w, base)
    return SixTable(a.vertices, rows)


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
    pairing rows quadratically.

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
    base_a, total_a = _base_total(a.rows)
    base_b, total_b = _base_total(b.rows)
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


# The states strictly better than each state in the goodness order of the
# module docstring, and the same as steps of a slot's byte in a row code
# (_undominated).
_GOODNESS = {1: (), 3: (), 4: (3,), 5: (3, 4), 6: (3, 4), 7: (3, 4, 5, 6)}
_BETTER = {s: tuple(t - s for t in better) for s, better in _GOODNESS.items()}


def _dominated(key: tuple, code: int, cost: int, lowest) -> bool:
    """Whether some row one slot better than key costs at most cost, where
    lowest maps a row code to its cheapest cost."""
    shift = 0
    for state in key:
        for step in _BETTER[state]:
            if lowest(code + (step << shift), cost + 1) <= cost:
                return True
        shift += 8
    return False


def _undominated(rows: Rows6, window: bool = False) -> Rows6:
    """The rows that no row one slot better matches at no higher cheapest
    cost, each cut to its cheapest cost; with window, also without the
    rows above the cost window of walk.py.

    A row's code holds its states as bytes, slot i in byte i, so the code
    of a row one slot better is the code plus a step shifted into a byte."""
    low: dict[int, int] = {}
    entries = []
    for key, ledger in rows.items():
        code = int.from_bytes(bytes(key), "little")
        cost = min(ledger)
        low[code] = cost
        entries.append((key, code, cost))
    limit = None
    if window and entries:
        limit = min(low.values()) + len(entries[0][0])
    return {
        key: {cost: rows[key][cost]}
        for key, code, cost in entries
        if (limit is None or cost <= limit) and not _dominated(key, code, cost, low.get)
    }


class _SixState:
    """The six-state program's half of the bag walk, for one graph and one
    cost cap.  Under a cap, every table an introduce, forget or join builds
    goes through _undominated with the cost window of walk.py (an
    introduce already stops at it).  Bag operations are looked up as module
    globals on every call, so wrappers installed on this module from
    outside see each call."""

    def __init__(self, g: Graph, cost_cap: int | None):
        self.g = g
        self.cost_cap = cost_cap

    def _kept(self, table: SixTable) -> SixTable:
        if self.cost_cap is None:
            return table
        return SixTable(table.vertices, _undominated(table.rows, window=True))

    def leaf(self, bag):
        return leaf6(self.g, bag)

    def introduce(self, child, vertex):
        return self._kept(introduce6(self.g, child, vertex, self.cost_cap))

    def forget(self, child, vertex):
        return self._kept(forget6(child, vertex))

    def join(self, left, right):
        return self._kept(join6(left, right, cost_cap=self.cost_cap))

    def min_cost(self, table: SixTable) -> int | None:
        return min((min(ledger) for ledger in table.rows.values()), default=None)


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
