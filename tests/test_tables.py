from __future__ import annotations

import pytest

from mixdom.dp import BagLayout, StateTable
from mixdom.graph import Graph
from mixdom.reference import join_combine
from mixdom.tables import AST_INT, AST_JOIN, STAR_INT, STAR_JOIN, PoisonCellError

# Independently transcribed copies of the four tables, compared cell for
# cell against the shipped ones.  None marks an impossible state pairing,
# a frozenset a cell whose final state needs the combine context.
X = None

GOLDEN_STAR_INT = [
    # child state:  0    1  2  3  4       5       6       7       8  9
    [0, X, X, X, X, X, X, X, X, X],                               # bag 0
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],                               # bag 1
    [2, 1, 2, 1, 2, 2, 2, 2, 2, 2],                               # bag 2
    [3, 1, 1, 3, 3, 3, 3, 3, 3, 3],                               # bag 3
    [4, 1, 2, 3, 4, 4, 4, 4, 8, 8],                               # bag 4
    [{4, 5}, 1, 2, 3, 4, 5, 4, 5, 8, 9],                          # bag 5
    [{4, 6}, 1, 2, 3, {4, 6}, {4, 6}, {4, 6}, {4, 6}, 8, 8],      # bag 6
    [{4, 5, 6, 7}, 1, 2, 3, {4, 6}, {5, 7}, {4, 6}, {5, 7}, 8, 9],  # bag 7
]

GOLDEN_AST_INT = [
    [0, X, X, X],
    [1, 1, 1, 1],
    [2, 1, 2, 2],
    [{2, 3}, 1, 2, 3],
]

GOLDEN_STAR_JOIN = [
    [0, X, X, X, X, X, X, X, X, X],
    [X, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [X, 1, 2, 1, 2, 2, 2, 2, 2, 2],
    [X, 1, 1, 3, 3, 3, 3, 3, 3, 3],
    [X, 1, 2, 3, 4, 4, 4, 4, 8, 8],
    [X, 1, 2, 3, 4, 5, 4, 5, 8, 9],
    [X, 1, 2, 3, 4, 4, {4, 6}, {4, 6}, 8, 8],
    [X, 1, 2, 3, 4, 5, {4, 6}, {5, 7}, 8, 9],
    [X, 1, 2, 3, 8, 8, 8, 8, 8, 8],
    [X, 1, 2, 3, 8, 9, 8, 9, 8, 9],
]

GOLDEN_AST_JOIN = [
    [0, X, X, X],
    [X, 1, 1, 1],
    [X, 1, 2, 2],
    [X, 1, 2, 3],
]


def as_cell(value):
    if value is None:
        return None
    if isinstance(value, set):
        return frozenset(value)
    return frozenset([value])


def check_table(shipped, golden):
    assert len(shipped) == len(golden)
    for a, (srow, grow) in enumerate(zip(shipped, golden)):
        assert len(srow) == len(grow)
        for b, gcell in enumerate(grow):
            got = frozenset(srow[b]) if srow[b] is not None else None
            assert got == as_cell(gcell), f"cell ({a}, {b})"


def test_vertex_combine_table_matches_golden():
    check_table(STAR_INT, GOLDEN_STAR_INT)


def test_edge_combine_table_matches_golden():
    check_table(AST_INT, GOLDEN_AST_INT)


def test_vertex_join_table_matches_golden():
    check_table(STAR_JOIN, GOLDEN_STAR_JOIN)


def test_edge_join_table_matches_golden():
    check_table(AST_JOIN, GOLDEN_AST_JOIN)


def test_join_tables_are_symmetric():
    for table in (STAR_JOIN, AST_JOIN):
        size = len(table)
        for a in range(size):
            for b in range(size):
                assert table[a][b] == table[b][a], f"cell ({a}, {b})"


def test_combine_cell_examples():
    assert STAR_INT[3][2] == (1,)
    assert set(STAR_INT[7][5]) == {5, 7}
    assert STAR_INT[0][0] == (0,)
    assert AST_INT[1][0] == (1,)
    assert set(AST_INT[3][0]) == {2, 3}
    assert AST_INT[2][3] == (2,)


def test_join_cell_examples():
    assert STAR_JOIN[2][3] == (1,)
    assert set(STAR_JOIN[6][6]) == {4, 6}
    assert AST_JOIN[2][3] == (2,)
    assert STAR_JOIN[8][4] == (8,)
    assert STAR_JOIN[9][5] == (9,)


def test_impossible_pairings_raise():
    # no valid table reaches a poison cell, so only hand-made rows do: the
    # merge kernel raises on a vertex cell and on an edge cell
    g = Graph(2, [(0, 1)])

    def one_row(key):
        t = StateTable(BagLayout(g, [0, 1]), False)
        t.insert(key, 0, None)
        return t

    with pytest.raises(PoisonCellError, match="vertex cell"):
        join_combine(g, one_row((0, 1, 1)), one_row((1, 1, 1)))
    with pytest.raises(PoisonCellError, match="edge cell"):
        join_combine(g, one_row((1, 1, 3)), one_row((1, 1, 0)))
