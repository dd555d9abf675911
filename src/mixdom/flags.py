"""Flag words and the dominated-row pass, shared by both dynamic programs.

Both engines key a row by an integer with one byte per bag slot, slot p
in bits 8p..8p+7.  A vertex byte holds four flags: MEMBER (selected),
MARKED (has a selected incident edge), DOMINATED, and WAITING (dp.py: has
an undominated edge that was already forgotten; mds6.py: owns an
undominated edge).  The nine-state words of dp.py add one byte per bag
edge, holding MEMBER and DOMINATED.  Each engine's module docstring maps
its states onto these flags.

Goodness.  Order a slot's bytes by how good they are for what is still
to come.  A member byte stands apart, comparable only to itself, since
membership must agree.  Among the other vertex bytes MARKED|DOMINATED is
on top; below it a byte is at least as good as another when it is
DOMINATED wherever the other is and WAITING only where the other is.  So
DOMINATED is above 0, DOMINATED|WAITING and WAITING; 0 and
DOMINATED|WAITING are each above WAITING; 0 and DOMINATED|WAITING are
incomparable.  A non-member edge byte DOMINATED is above 0.
VERTEX_GOODNESS lists, per vertex byte, the bytes strictly above it.  A
row R' is at least as good as a row R when it is in every slot.  This is not the merge lattice of mds6._supremum, which puts
DOMINATED below DOMINATED|WAITING: a waiting vertex fails a forget that
a dominated one survives.

Soundness.  Each bag operation is monotone in this order: if R' is at
least as good as R, then for every row S an operation builds from R at
some cost, it builds from R' a row at least as good as S at no higher
cost, and R' survives a forget whenever R does.  By induction every
completion of R is matched by a completion of R' at no higher cost, so
dropping R changes no optimum.  Members are never stepped, so R and R'
select the same bag elements and every cost below shifts alike for both.
The facts the steps use:

    OR with a fixed byte t, then clearing WAITING under MEMBER or
    MARKED, is monotone on non-member bytes.  If t is MARKED the result
    is MARKED|DOMINATED for every input.  Otherwise a marked input stays
    on top, and for the others DOMINATED and WAITING of the result are
    those of the input OR'ed with those of t, which keeps the flag by
    flag order.  On an edge byte an OR only adds DOMINATED.

    A vertex that is marked in R is marked in R', since MARKED|DOMINATED
    is on top and members agree.

    In every nine-state word a non-member edge is dominated exactly when
    an end is a member or marked.  The bag-local words dominate an edge
    whose end they select or mark, and an OR keeps it; the other way, a
    dominated edge has a selected end or a selected edge at an end,
    which marks that end.  So the far end of an undominated edge is
    neither member nor marked.

Nine-state (dp.py):

    An introduce moves the child word, so every kept slot keeps its
    order.  Its cross terms are monotone: the new vertex is dominated
    when a neighbour is a member, which R and R' agree on, and a new edge
    when an old endpoint is a member or marked, which holds in R' where
    it holds in R.  The pair with each bag-local word is an OR followed
    by the WAITING clear, monotone by the fact above; a local word sets
    MEMBER only on the new slots, where it makes both sides members.
    Both pairs cost the child's cost plus the same selection.  Which
    selections a gamma-only capped introduce offers depends only on the
    members among the new vertex's bag neighbours (dp.py, "Selections"),
    so it offers R and R' the same ones.

    A forget keeps a row when the forgotten byte has DOMINATED set and
    WAITING clear.  That set (members, MARKED|DOMINATED, DOMINATED) is an
    up-set, so R' survives whenever R does.  It marks the far end of each
    undominated incident edge WAITING.  R' has every edge dominated that
    R has, so R' marks only ends that R marks too; a mark only moves R's
    byte down (the end is neither member nor marked), and where both
    rows mark, the OR with WAITING keeps the order.  Then the forgotten
    bytes go and the rest keep their order.

    A join pairs rows only within a group of equal member flags, so R
    and R' meet the same partners, each pair costing both costs minus
    the same shared members, and a pair's word is the OR with the
    partner followed by the WAITING clear.

Six-state (mds6.py), whose words carry vertex bytes only:

    An introduce branch of R (v's membership, the new edges selected, an
    owner for each new edge left open) maps to the branch of R' with the
    same choices, owners only for the edges R' leaves open, which are
    among R's.  At the same cost its result is at least as good: a
    selected edge turns both ends MARKED|DOMINATED or keeps a member,
    selecting v dominates an undominated neighbour, an owner at u sets
    WAITING, and each of these maps keeps the order, while v owns an
    edge in R' only if it does in R.  The forget's survivors are the
    nine-state ones.  The join ORs within member groups, with WAITING
    cleared under MARKED, as above.  A six-state ledger's entries above
    its own cheapest cost go by the same argument with R' = R.

The pass.  undominated drops a row R when a row one vertex better is in
the table at a cost at most R's.  That row has one vertex byte strictly
better and the rest equal, except that in a nine-state word a vertex
raised to MARKED|DOMINATED also dominates its undominated bag edges: by
the fact above a built word with that vertex marked has them dominated,
and no two built words differ in an edge byte alone, so edges step only
with the vertex that marks them (Steps).  Each step is strictly up the
order.  The pass reads
the table as built, so a chain of dropped rows ends at a kept row, which
dominates each row of its chain.  The cheapest cost is kept, and with it
the cost window of walk.py, which the pass also applies when given the
bag size.

Where it runs.  Only under a cost cap, since the full tables without a
cap are what the traces and worked examples show.  mds6.py runs it on
every capped introduce, forget and join.  dp.py runs it only in
forget_reduce, as its window cut (at introduces and joins it cost more
than it saved), and never while enumerating: a row R that R' matches at
equal cost may still lead to minimum sets of its own.
"""

from __future__ import annotations

from functools import lru_cache
from operator import getitem

MEMBER, MARKED, DOMINATED, WAITING = 1, 2, 4, 8

# The bytes strictly better than each non-member vertex byte (module
# docstring, "Goodness"), MARKED|DOMINATED first; members and the top have
# nothing above them.
VERTEX_GOODNESS = {
    DOMINATED: (MARKED | DOMINATED,),
    0: (MARKED | DOMINATED, DOMINATED),
    DOMINATED | WAITING: (MARKED | DOMINATED, DOMINATED),
    WAITING: (MARKED | DOMINATED, DOMINATED, 0, DOMINATED | WAITING),
}

_ABSENT = (float("inf"),)


def byte_ones(count: int) -> int:
    """A word with bit 0 set in each of its first count bytes."""
    return int.from_bytes(b"\x01" * count, "little")


class Steps(dict):
    """Per flag word of a bag, the amounts that turn it into the words one
    vertex better (module docstring, "The pass"), each built the first
    time it is looked up.  The bag has this many vertex slots, followed by
    one edge slot per (vertex slot, vertex slot) pair of edge_endpoints."""

    def __init__(self, vertices: int, edge_endpoints: tuple = ()):
        super().__init__()
        self.width = vertices + len(edge_endpoints)
        # per vertex slot and flag byte, the amounts that step that byte up
        self.slots = tuple(
            tuple(
                tuple(better - b << 8 * i for better in VERTEX_GOODNESS.get(b, ()))
                for b in range(16)
            )
            for i in range(vertices)
        )
        # per vertex slot, the DOMINATED flags of its bag edges
        marks = [0] * vertices
        for j, ends in enumerate(edge_endpoints):
            for i in ends:
                marks[i] |= DOMINATED << 8 * (vertices + j)
        self.marks = tuple(marks)

    def __missing__(self, word: int) -> tuple[int, ...]:
        bytes_ = word.to_bytes(self.width, "little")
        if self.width == len(self.slots):
            # no edge slots: each vertex byte's amounts as they are
            found = self[word] = sum(map(getitem, self.slots, bytes_), ())
            return found
        clear = ~word  # the flags the word does not set
        out = []
        for slot, marks, byte in zip(self.slots, self.marks, bytes_):
            amounts = slot[byte]
            if amounts:
                # the step to MARKED|DOMINATED, listed first, also
                # dominates the vertex's undominated bag edges
                out.append(amounts[0] + (marks & clear))
                out += amounts[1:]
        found = self[word] = tuple(out)
        return found


# one Steps per bag shape, so a word met at an earlier bag keeps its steps
bag_steps = lru_cache(maxsize=256)(Steps)


def undominated(rows: dict, steps: Steps, window: int | None = None) -> dict:
    """The rows, word -> entry with the cost in entry[0], that no row one
    vertex better matches at no higher cost; with window, also without the
    rows costing more than the cheapest plus window.  Entries are lists
    that compare by cost first, as [cost, count] and [cost, None] do.  A
    table of fewer than two rows is returned as it is."""
    if len(rows) < 2:
        return rows
    limit = _ABSENT[0] if window is None else min(rows.values())[0] + window
    get = rows.get
    kept = {}
    for word, entry in rows.items():
        cost = entry[0]
        if cost > limit:
            continue
        for step in steps[word]:
            if get(word + step, _ABSENT)[0] <= cost:
                break
        else:
            kept[word] = entry
    return kept
