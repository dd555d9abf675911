from __future__ import annotations

from mixdom.dp import BagLayout, decode_word, encode_row
from mixdom.flags import bag_steps, undominated
from mixdom.graph import Graph

EDGE = Graph(2, [(0, 1)])
LONE = Graph(1, [])


def _pruned(g: Graph, rows: dict, window: int | None = None) -> dict:
    """undominated on nine-state words built by hand from {state tuple:
    cost} rows of g's whole vertex set, read back as tuples."""
    layout = BagLayout(g, range(g.vertex_count))
    words = {encode_row(layout, key): [cost, None] for key, cost in rows.items()}
    steps = bag_steps(len(layout.vertices), layout.edge_endpoints)
    kept = undominated(words, steps, window)
    return {decode_word(layout, word): entry[0] for word, entry in kept.items()}


def test_an_edge_steps_to_dominated_with_the_vertex_that_marks_it():
    # the step of vertex 0 to MARKED|DOMINATED also dominates its open
    # edge, which turns a 6 or 7 at the other end into a 4 or 5
    assert _pruned(EDGE, {(6, 6, 3): 1, (3, 4, 2): 1}) == {(3, 4, 2): 1}
    assert _pruned(EDGE, {(7, 7, 3): 0, (3, 5, 2): 0}) == {(3, 5, 2): 0}
    # a step to DOMINATED alone leaves the edge open
    assert _pruned(EDGE, {(7, 6, 3): 1, (6, 6, 3): 1}) == {(6, 6, 3): 1}
    assert _pruned(EDGE, {(7, 6, 3): 1, (4, 4, 2): 1}) == {(7, 6, 3): 1, (4, 4, 2): 1}


def test_an_edge_byte_never_steps_alone():
    # a built word has a non-member edge dominated exactly when an end is
    # a member or marked, so no two of its rows differ in an edge byte only
    assert _pruned(EDGE, {(6, 6, 3): 1, (4, 4, 2): 1}) == {(6, 6, 3): 1, (4, 4, 2): 1}


def test_members_are_never_replaced():
    # a member vertex stays beside a cheaper marked or dominated one, and
    # a member edge beside a cheaper dominated one
    assert _pruned(LONE, {(2,): 2, (3,): 0, (4,): 0}) == {(2,): 2, (3,): 0}
    assert _pruned(EDGE, {(3, 3, 1): 2, (3, 3, 2): 0}) == {(3, 3, 1): 2, (3, 3, 2): 0}
    # nor does a member replace a non-member
    assert _pruned(LONE, {(2,): 0, (5,): 1}) == {(2,): 0, (5,): 1}


def test_waiting_ranks_below_its_clear_byte():
    # dominated beats waiting, free beats waiting-and-free; dominated and
    # waiting is not above free, nor free above it
    assert _pruned(LONE, {(4,): 1, (8,): 1}) == {(4,): 1}
    assert _pruned(LONE, {(5,): 1, (9,): 1}) == {(5,): 1}
    assert _pruned(LONE, {(8,): 1, (9,): 1}) == {(8,): 1}
    assert _pruned(LONE, {(5,): 1, (8,): 1}) == {(5,): 1, (8,): 1}


def test_a_dearer_better_row_replaces_nothing():
    assert _pruned(LONE, {(3,): 2, (4,): 1}) == {(3,): 2, (4,): 1}
    assert _pruned(EDGE, {(3, 4, 2): 2, (6, 6, 3): 1}) == {(3, 4, 2): 2, (6, 6, 3): 1}


def test_the_window_cuts_rows_above_the_cheapest_plus_its_width():
    rows = {(5,): 0, (3,): 2}
    assert _pruned(LONE, rows) == rows
    assert _pruned(LONE, rows, window=1) == {(5,): 0}
    assert _pruned(LONE, rows, window=2) == rows


def test_tables_of_fewer_than_two_rows_pass_through():
    for rows in ({}, {(1 << 8) | 4: [9, None]}):
        assert undominated(rows, bag_steps(2, ((0, 1),)), window=0) is rows
