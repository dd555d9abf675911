"""The six-state join of full tables, through the lattice transform.

A full table of mds6.py maps each state tuple to a cost ledger: how many
branch outcomes realize the tuple at each cost.  Two such tables join
through the per-slot zeta transform of the state lattice that _supremum
defines (generalised fast subset convolution, van Rooij, Bodlaender and
Rossmanith, ESA 2009): the transformed tables multiply pointwise and the
true pair counts come back by Moebius inversion; exact integers keep the
inversion lossless.  mds6.join6 loads this module only for a join that
meets a full table or would form more than 6^k pairs (mds6.py, "Pair
join"), so a capped walk whose joins all pair never compiles it.

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
"""

from __future__ import annotations

from itertools import chain

from .mds6 import IN_SOLUTION, STATES, CostLedger, Rows6, SixTable, _ledgers

EDGE_MARK = 3


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
