"""The memo of capped bag operations (walk.py, "Memo"): tables answered from
it equal the operations run on an emptied memo, most bags of a width-1
walk are answered from it, and it keeps to its bound."""

from __future__ import annotations

import random

import pytest

from conftest import connected_graphs_up_to, partial_ktree, path_graph, random_tree
from mixdom import cli, dp, mds6
from mixdom.dp import BagLayout, run_dp
from mixdom.mds6 import run6
from mixdom.oracle import greedy_upper_bound
from mixdom.treedec import make_very_nice, min_fill_decompose, postorder_traversal
from mixdom.walk import MEMO_ROWS, Memo, memo, walk


def _fresh(op, *args):
    """op run on an emptied memo, leaving the walk's memo as it is."""
    saved = dp.memo, mds6.memo
    dp.memo = mds6.memo = Memo(MEMO_ROWS)
    try:
        return op(*args)
    finally:
        dp.memo, mds6.memo = saved


class Watched:
    """A program's scheme whose calls note whether the memo answered them."""

    def __init__(self, scheme, hits: list):
        self.scheme = scheme
        self.cost_cap = scheme.cost_cap
        self.hits = hits
        self.answered: list[bool] = []

    def _call(self, name, *args):
        before = len(self.hits)
        table = getattr(self.scheme, name)(*args)
        self.answered.append(len(self.hits) > before)
        return table

    def leaf(self, bag):
        return self._call("leaf", bag)

    def introduce(self, child, vertex):
        return self._call("introduce", child, vertex)

    def forget(self, child, vertex):
        return self._call("forget", child, vertex)

    def join(self, left, right):
        return self._call("join", left, right)

    def min_cost(self, table):
        return self.scheme.min_cost(table)


def _six_join(a, b, cap):
    # the scheme's join: join6's table cut as _SixState.join cuts it
    return mds6._undominated(mds6.join6(a, b, cost_cap=cap), window=True)


def _check_walks(monkeypatch, g, ntd, cap) -> int:
    """Walk both programs under cap with the memo as it is, and check every
    table the memo answered against its operation run on an emptied memo,
    on the collected child tables; a computed table is that operation.
    Returns the number of tables checked."""
    hits: list = []
    get = memo.get

    def noted(key):
        found = get(key)
        if found is not None:
            hits.append(key)
        return found

    monkeypatch.setattr(memo, "get", noted)
    nine = Watched(dp._NineState(g, False, cap), hits)
    six = Watched(mds6._SixState(g, cap), hits)
    nine_tables = walk(g, ntd, nine, collect_tables=True)[2]
    six_tables = walk(g, ntd, six, collect_tables=True)[2]
    monkeypatch.undo()
    order = postorder_traversal(ntd)
    at = {idx: i for i, idx in enumerate(order)}
    checked = 0
    for i, idx in enumerate(order):
        node = ntd.nodes[idx]
        got, got6 = nine_tables[i], six_tables[i]
        # layouts are derived from the child's; they are the bag's own
        own = BagLayout(g, node.bag)
        layout = got.layout
        assert (layout.vertices, layout.edges, layout.edge_endpoints, layout.width) == (
            own.vertices, own.edges, own.edge_endpoints, own.width
        ), (g.edges, ntd.root, node)
        label = (g.vertex_count, g.edges, ntd.root, cap, node.kind)
        kids = [at[c] for c in node.children]
        if nine.answered[i]:
            kid = [nine_tables[c] for c in kids]
            if node.kind == "leaf":
                want = _fresh(dp.leaf_table, g, node.bag, False, cap)
            elif node.kind == "introduce":
                want = _fresh(dp._introduce_extend, g, *kid, node.vertex, cap)
            elif node.kind == "forget":
                want = _fresh(dp.forget_reduce, g, *kid, node.vertex, cap)
            else:
                want = _fresh(dp._join_grouped, g, *kid, cap)
            assert list(got.words.items()) == list(want.words.items()), label
            assert got.layout == want.layout, label
            checked += 1
        if six.answered[i]:
            kid = [six_tables[c] for c in kids]
            if node.kind == "introduce":
                want = _fresh(mds6.introduce6, g, *kid, node.vertex, cap)
            elif node.kind == "forget":
                want = _fresh(mds6.forget6, *kid, node.vertex)
            else:
                want = _fresh(_six_join, *kid, cap)
            # six-state counts included
            assert list(got6.words.items()) == list(want.words.items()), label
            assert (got6.vertices, got6.capped) == (want.vertices, want.capped), label
            checked += 1
    return checked


def test_memo_tables_equal_the_operations_on_an_emptied_memo_on_the_c06_suite(monkeypatch):
    # the memo is kept across walks, so a table may come from an entry that
    # another graph, root or cap made; cap = gamma puts the cap within k of
    # the tables' minimum near the root, where the slack decides the table.
    # The connected graphs of at most five vertices are walked at every
    # root; the random graphs of up to eight, whose walks cost the most,
    # at the min-fill root and one random root
    from test_acceptance import equivalence_suite

    small = sum(1 for _ in connected_graphs_up_to(5))
    rng = random.Random(83)
    checked = 0
    for i, g in enumerate(equivalence_suite()):
        td = min_fill_decompose(g)
        greedy = greedy_upper_bound(g)
        gamma = run6(g, make_very_nice(td), cost_cap=greedy).gamma
        if i < small:
            roots = range(len(td.bags))
        else:
            roots = {td.root, rng.randrange(len(td.bags))}
        for root in roots:
            ntd = make_very_nice(td, root=root)
            for cap in {greedy, gamma}:
                checked += _check_walks(monkeypatch, g, ntd, cap)
    assert checked > 100000


def test_memo_tables_equal_the_operations_on_an_emptied_memo_on_partial_ktrees(monkeypatch):
    rng = random.Random(59)
    cases = [partial_ktree(rng, 30, 3, keep=0.6) for _ in range(3)]
    cases += [partial_ktree(rng, 26, 4, keep=0.6) for _ in range(2)]
    cases += [random_tree(rng, 200), path_graph(60)]
    for g in cases:
        td = min_fill_decompose(g)
        greedy = greedy_upper_bound(g)
        gamma = run6(g, make_very_nice(td), cost_cap=greedy).gamma
        roots = [td.root, rng.randrange(len(td.bags))]
        for root in roots:
            for cap in (greedy, gamma):
                assert _check_walks(monkeypatch, g, make_very_nice(td, root=root), cap)


def _computed(monkeypatch, run) -> int:
    """How many operations of run() were computed, not answered from the
    memo: each computed one stores its table, starting from an empty memo."""
    stored = []
    store = memo.store
    monkeypatch.setattr(memo, "store", lambda *args: stored.append(1) or store(*args))
    memo.clear()
    run()
    monkeypatch.undo()
    return len(stored)


@pytest.mark.parametrize(
    "g, nine_most, six_most",
    [
        (path_graph(1200), 20, 20),
        (random_tree(random.Random(3), 1000), 160, 560),
    ],
    ids=["path-1200", "tree-1000"],
)
def test_width_one_walks_answer_most_bags_from_the_memo(monkeypatch, g, nine_most, six_most):
    # a path meets a handful of distinct shifted tables, a random tree a
    # few hundred; six-state counts grow along a tree, so more of its
    # tables are new.  A memo that stopped answering would compute all
    ntd = make_very_nice(min_fill_decompose(g))
    cap = greedy_upper_bound(g)
    operations = len(ntd.nodes) + len(ntd.nodes[ntd.root].bag)
    nine = _computed(monkeypatch, lambda: run_dp(g, ntd, cost_cap=cap))
    six = _computed(monkeypatch, lambda: run6(g, ntd, cost_cap=cap))
    assert operations > 2000
    assert 0 < nine <= nine_most, (nine, operations)
    assert 0 < six <= six_most, (six, operations)


def _rows(key, value) -> int:
    """The rows a memo entry holds: its child rows, the last one or two
    parts of its key, and its table's rows."""
    op = key[0]
    children = () if op == "leaf" else key[-2:] if op in ("join", "join6") else key[-1:]
    table = value[0] if op == "join6" else value
    return sum(map(len, children)) + len(table)


def test_memo_keeps_to_its_bound_after_a_width_five_bench(capsys):
    memo.clear()
    assert cli.main(["bench", "--n", "40", "--width", "5", "--seed", "3"]) == 0
    capsys.readouterr()
    held = sum(_rows(key, value) for key, value in memo.items())
    assert 0 < held == memo.rows <= memo.bound == MEMO_ROWS


def test_memo_stores_only_what_fits():
    small = Memo(10)
    small.store("a", ((1, 0),), 6)
    small.store("b", ((2, 0),), 4)
    assert (dict(small), small.rows) == ({"a": ((1, 0),), "b": ((2, 0),)}, 10)
    small.store("c", ((3, 0),), 3)
    assert (dict(small), small.rows) == ({"c": ((3, 0),)}, 3)
    small.store("d", ((4, 0),), 11)
    assert (dict(small), small.rows) == ({}, 0)
