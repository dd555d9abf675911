"""State-combination lookup tables for the 9-state dynamic program.

Partial solutions are merged as unions, so each table cell answers: given
the state an element carries in each operand, what state does it carry in
the union?  Some cells cannot be decided locally and hold several
candidate states; the table consumers resolve those from the element's
surroundings (resolved edge slots and neighbor states).  Cells that no
valid pairing can reach are poison (None) and raise when consulted.

Vertex states:
    0  slot unused
    1  in the solution, with an incident solution edge
    2  in the solution, no incident solution edge
    3  not in the solution, with an incident solution edge
    4  dominated; all incident processed edges dominated
    5  undominated; all incident processed edges dominated
    6  dominated; some incident current-bag edge undominated
    7  undominated; some incident current-bag edge undominated
    8  dominated; some incident already-forgotten edge undominated
    9  undominated; some incident already-forgotten edge undominated

Edge states: 0 unused, 1 in the solution, 2 dominated, 3 undominated.

States 8 and 9 never occur in bag-local tables (they refer to edges that
left the bag), so the bag-local operand of the introduce combination only
ranges over 0..7.
"""

from __future__ import annotations


class PoisonCellError(Exception):
    """A state pairing that no valid table construction can produce."""


# Introduce combination for vertices.  Rows: state in the bag-local table
# (0..7).  Columns: state in the child's cumulative table (0..9).
STAR_INT: tuple[tuple[tuple[int, ...] | None, ...], ...] = (
    ((0,), None, None, None, None, None, None, None, None, None),
    ((1,), (1,), (1,), (1,), (1,), (1,), (1,), (1,), (1,), (1,)),
    ((2,), (1,), (2,), (1,), (2,), (2,), (2,), (2,), (2,), (2,)),
    ((3,), (1,), (1,), (3,), (3,), (3,), (3,), (3,), (3,), (3,)),
    ((4,), (1,), (2,), (3,), (4,), (4,), (4,), (4,), (8,), (8,)),
    ((4, 5), (1,), (2,), (3,), (4,), (5,), (4,), (5,), (8,), (9,)),
    ((4, 6), (1,), (2,), (3,), (4, 6), (4, 6), (4, 6), (4, 6), (8,), (8,)),
    ((4, 5, 6, 7), (1,), (2,), (3,), (4, 6), (5, 7), (4, 6), (5, 7), (8,), (9,)),
)

# Introduce combination for edges.  Rows: bag-local state, columns: child
# cumulative state (edges range over 0..3 only).
AST_INT: tuple[tuple[tuple[int, ...] | None, ...], ...] = (
    ((0,), None, None, None),
    ((1,), (1,), (1,), (1,)),
    ((2,), (1,), (2,), (2,)),
    ((2, 3), (1,), (2,), (3,)),
)

# Join combination for vertices (symmetric).  Both operands are cumulative
# tables, so both range over 0..9.  In the two-candidate cells the first
# entry applies when every incident bag edge is dominated after the join,
# the second otherwise.
STAR_JOIN: tuple[tuple[tuple[int, ...] | None, ...], ...] = (
    ((0,), None, None, None, None, None, None, None, None, None),
    (None, (1,), (1,), (1,), (1,), (1,), (1,), (1,), (1,), (1,)),
    (None, (1,), (2,), (1,), (2,), (2,), (2,), (2,), (2,), (2,)),
    (None, (1,), (1,), (3,), (3,), (3,), (3,), (3,), (3,), (3,)),
    (None, (1,), (2,), (3,), (4,), (4,), (4,), (4,), (8,), (8,)),
    (None, (1,), (2,), (3,), (4,), (5,), (4,), (5,), (8,), (9,)),
    (None, (1,), (2,), (3,), (4,), (4,), (4, 6), (4, 6), (8,), (8,)),
    (None, (1,), (2,), (3,), (4,), (5,), (4, 6), (5, 7), (8,), (9,)),
    (None, (1,), (2,), (3,), (8,), (8,), (8,), (8,), (8,), (8,)),
    (None, (1,), (2,), (3,), (8,), (9,), (8,), (9,), (8,), (9,)),
)

# Join combination for edges (symmetric).
AST_JOIN: tuple[tuple[tuple[int, ...] | None, ...], ...] = (
    ((0,), None, None, None),
    (None, (1,), (1,), (1,)),
    (None, (1,), (2,), (2,)),
    (None, (1,), (2,), (3,)),
)


def _lookup(table, a: int, b: int, name: str) -> tuple[int, ...]:
    try:
        cell = table[a][b]
    except IndexError:
        raise PoisonCellError(f"{name}({a}, {b}): state out of range") from None
    if cell is None:
        raise PoisonCellError(f"{name}({a}, {b}) is unreachable")
    return cell


def star_int(btable_state: int, stable_state: int) -> tuple[int, ...]:
    """Candidate vertex states when an introduce bag's local row is merged
    onto a child row."""
    return _lookup(STAR_INT, btable_state, stable_state, "star_int")


def ast_int(btable_state: int, stable_state: int) -> tuple[int, ...]:
    """Candidate edge states for the introduce merge."""
    return _lookup(AST_INT, btable_state, stable_state, "ast_int")


def star_join(state_a: int, state_b: int) -> tuple[int, ...]:
    """Candidate vertex states when two sibling rows are merged at a join."""
    return _lookup(STAR_JOIN, state_a, state_b, "star_join")


def ast_join(state_a: int, state_b: int) -> tuple[int, ...]:
    """Candidate edge states for the join merge."""
    return _lookup(AST_JOIN, state_a, state_b, "ast_join")
