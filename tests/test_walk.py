"""The shared bag walk: its protocol with a scheme, decomposition checks,
the cost window, deep decompositions."""

from __future__ import annotations

import math
import random

import pytest

from conftest import fixture_text, gnp_graph, partial_ktree, path_graph, random_tree
from mixdom.dp import run_dp
from mixdom.graph import Graph, parse_gr
from mixdom.mds6 import run6
from mixdom.oracle import brute_force, greedy_upper_bound
from mixdom.treedec import (
    NiceBag,
    NiceTreeDecomposition,
    make_very_nice,
    min_fill_decompose,
    postorder_traversal,
)
from mixdom.walk import walk


class Recorder:
    """A bag scheme that logs its calls; each table is the number of the
    call that made it, and min_cost returns gamma."""

    def __init__(self, cost_cap=None, gamma=3):
        self.cost_cap = cost_cap
        self.gamma = gamma
        self.calls = []

    def _log(self, *call):
        self.calls.append(call)
        return len(self.calls)

    def leaf(self, *args):
        return self._log("leaf", *args)

    def introduce(self, *args):
        return self._log("introduce", *args)

    def forget(self, *args):
        return self._log("forget", *args)

    def join(self, *args):
        return self._log("join", *args)

    def min_cost(self, *args):
        self._log("min_cost", *args)
        return self.gamma


def without_root_forgets(ntd: NiceTreeDecomposition) -> NiceTreeDecomposition:
    """The decomposition cut below the forget chain that empties its root
    bag, so the walk's own root forgets decide which rows are feasible."""
    top = ntd.root
    while ntd.nodes[top].kind == "forget":
        top = ntd.nodes[top].children[0]
    return NiceTreeDecomposition(list(ntd.nodes[: top + 1]), top)


def expected_calls(ntd: NiceTreeDecomposition) -> tuple[list, tuple[int, ...]]:
    """The calls a walk of ntd makes to a Recorder, and the tables it
    collects: one call per bag in postorder, with the bag or the child
    tables and the vertex only (no graph, no cost cap), then one forget
    per root-bag vertex in ascending order, then min_cost."""
    calls = []
    made = {}
    for idx in postorder_traversal(ntd):
        node = ntd.nodes[idx]
        kids = tuple(made[c] for c in node.children)
        if node.kind == "leaf":
            calls.append(("leaf", node.bag))
        elif node.kind == "join":
            calls.append(("join", *kids))
        else:
            calls.append((node.kind, *kids, node.vertex))
        made[idx] = len(calls)
    collected = tuple(range(1, len(calls) + 1))
    for v in sorted(ntd.nodes[ntd.root].bag):
        calls.append(("forget", len(calls), v))
    calls.append(("min_cost", len(calls)))
    return calls, collected


def test_walk_hands_each_bag_to_the_scheme_then_forgets_the_root_bag():
    g = parse_gr(fixture_text("g1.gr"))
    td = min_fill_decompose(g)
    shapes = set()
    for root in range(len(td.bags)):
        ntd = without_root_forgets(make_very_nice(td, root=root))
        calls, collected = expected_calls(ntd)
        scheme = Recorder()
        final, gamma, tables = walk(g, ntd, scheme, collect_tables=True)
        assert scheme.calls == calls, root
        assert (final, gamma) == (len(calls) - 1, 3)
        assert tables == collected
        kinds = frozenset(node.kind for node in ntd.nodes)
        shapes.add((len(ntd.nodes[ntd.root].bag) > 1, kinds))
    # some root has every bag kind below a root bag of several vertices
    assert (True, frozenset({"leaf", "introduce", "forget", "join"})) in shapes


def test_walk_names_the_cap_when_no_row_is_left():
    g = parse_gr(fixture_text("g1.gr"))
    ntd = make_very_nice(min_fill_decompose(g))
    with pytest.raises(ValueError, match="cost_cap 1 is below the optimum"):
        walk(g, ntd, Recorder(cost_cap=1, gamma=None))
    with pytest.raises(AssertionError, match="no feasible root row"):
        walk(g, ntd, Recorder(gamma=None))


def test_window_keeps_gamma_and_min_sets_at_every_root():
    # rooting the decomposition at each of its bags changes which partial
    # solutions meet at every bag, and so which rows the window cuts
    rng = random.Random(61)
    decompositions = 0
    for _ in range(120):
        g = gnp_graph(rng, rng.randint(2, 7), rng.choice((0.3, 0.5, 0.8)))
        expected = brute_force(g, enumerate_all=True)
        cap = greedy_upper_bound(g)
        td = min_fill_decompose(g)
        label = f"n={g.vertex_count} edges={g.edges}"
        for root in range(len(td.bags)):
            ntd = make_very_nice(td, root=root)
            # the same decomposition without its final forget chain: its
            # root bag holds several vertices and edges, and the walk's own
            # forgets of that bag decide which rows are feasible
            for nice in (ntd, without_root_forgets(ntd)):
                nine = run_dp(g, nice, enumerate_sets=True, cost_cap=cap)
                assert nine.gamma == expected.gamma, (label, root)
                assert nine.min_sets == expected.min_sets, (label, root)
                six = run6(g, nice, cost_cap=cap)
                assert six.gamma == expected.gamma, (label, root)
                decompositions += 1
    assert decompositions > 1000


def test_window_bounds_ledgers_and_row_spread_on_a_random_tree():
    g = random_tree(random.Random(67), 300)
    td = min_fill_decompose(g)
    ntd = make_very_nice(td)
    cap = greedy_upper_bound(g)
    six = run6(g, ntd, collect_tables=True, cost_cap=cap)
    for table in six.tables:
        for key, ledger in table.rows.items():
            assert len(ledger) <= td.width() + 2, key
    nine = run_dp(g, ntd, collect_tables=True, cost_cap=cap)
    for table in nine.tables:
        spent = [entry[0] for entry in table.rows.values()]
        assert max(spent) - min(spent) <= len(table.layout.vertices)
    assert six.gamma == nine.gamma
    # the dominated-row pass leaves one cost per ledger, inside the window,
    # on the tree and on partial 4-trees with their wider bags
    rng = random.Random(71)
    capped = [six]
    for _ in range(4):
        h = partial_ktree(rng, 30, 4)
        nice = make_very_nice(min_fill_decompose(h))
        capped.append(
            run6(h, nice, collect_tables=True, cost_cap=greedy_upper_bound(h))
        )
    for run in capped:
        for table in run.tables:
            low = min(min(ledger) for ledger in table.rows.values())
            for key, ledger in table.rows.items():
                assert len(ledger) == 1, key
                assert min(ledger) <= low + len(table.vertices), key


def test_deep_path_needs_no_recursion(default_recursion_limit):
    # the mixed domination number of the n-vertex path is ceil((2n - 1) / 5)
    for n in range(2, 12):
        assert brute_force(path_graph(n)).gamma == math.ceil((2 * n - 1) / 5)
    g = path_graph(1500)
    ntd = make_very_nice(min_fill_decompose(g))
    cap = greedy_upper_bound(g)
    assert run_dp(g, ntd, cost_cap=cap).gamma == 600
    assert run6(g, ntd, cost_cap=cap).gamma == 600


def test_bag_that_does_not_match_its_operation_is_rejected():
    g = Graph(2, [(0, 1)])
    nodes = [
        NiceBag(frozenset({0}), "leaf", None, ()),
        NiceBag(frozenset({0, 1}), "introduce", 1, (0,)),
        NiceBag(frozenset({1}), "forget", 1, (1,)),
    ]
    ntd = NiceTreeDecomposition(nodes, 2)
    with pytest.raises(ValueError, match="does not match"):
        run_dp(g, ntd)
    with pytest.raises(ValueError, match="does not match"):
        run6(g, ntd)


def test_vertex_forgotten_in_both_branches_of_a_join_is_rejected():
    # path 0-1-2: vertex 1 is forgotten below each side of the join at {0},
    # so its bags form two subtrees and a walk would treat it as two
    # vertices
    g = path_graph(3)
    nodes = [
        NiceBag(frozenset({0}), "leaf", None, ()),
        NiceBag(frozenset({0, 1}), "introduce", 1, (0,)),
        NiceBag(frozenset({0}), "forget", 1, (1,)),
        NiceBag(frozenset({0}), "leaf", None, ()),
        NiceBag(frozenset({0, 2}), "introduce", 2, (3,)),
        NiceBag(frozenset({0, 1, 2}), "introduce", 1, (4,)),
        NiceBag(frozenset({0, 2}), "forget", 1, (5,)),
        NiceBag(frozenset({0}), "forget", 2, (6,)),
        NiceBag(frozenset({0}), "join", None, (2, 7)),
    ]
    ntd = NiceTreeDecomposition(nodes, 8)
    assert brute_force(g).gamma == 1
    with pytest.raises(ValueError, match="vertex 1 leaves the decomposition 2"):
        run_dp(g, ntd, enumerate_sets=True)
    with pytest.raises(ValueError, match="vertex 1 leaves the decomposition 2"):
        run6(g, ntd)


def test_bag_unreachable_from_the_root_is_rejected():
    # two isolated vertices: the root leaf {0}, and a leaf {1} -> forget 1
    # that hangs off no parent; walking only the root would solve vertex 0
    # alone
    g = Graph(2, [])
    nodes = [
        NiceBag(frozenset({0}), "leaf", None, ()),
        NiceBag(frozenset({1}), "leaf", None, ()),
        NiceBag(frozenset(), "forget", 1, (1,)),
    ]
    ntd = NiceTreeDecomposition(nodes, 0)
    assert brute_force(g).gamma == 2
    for enumerate_sets in (False, True):
        with pytest.raises(ValueError, match="not reachable"):
            run_dp(g, ntd, enumerate_sets=enumerate_sets)
    with pytest.raises(ValueError, match="not reachable"):
        run6(g, ntd)


def test_tau_that_leaves_out_bags_is_rejected():
    # every proper prefix of a postorder solves only part of the path
    g = path_graph(6)
    ntd = make_very_nice(min_fill_decompose(g))
    tau = postorder_traversal(ntd)
    assert brute_force(g).gamma == 3
    assert run_dp(g, ntd, tau=tau).gamma == run6(g, ntd, tau=tau).gamma == 3
    for end in range(1, len(tau)):
        with pytest.raises(ValueError, match="tau"):
            run_dp(g, ntd, tau=tau[:end])
        with pytest.raises(ValueError, match="tau"):
            run6(g, ntd, tau=tau[:end])
    # every node once, but a parent before its child
    swapped = tau[:-2] + [tau[-1], tau[-2]]
    with pytest.raises(ValueError, match="before its children"):
        run_dp(g, ntd, tau=swapped)


def test_join_that_lists_one_child_twice_is_rejected():
    g = Graph(1, [])
    nodes = [
        NiceBag(frozenset({0}), "leaf", None, ()),
        NiceBag(frozenset({0}), "join", None, (0, 0)),
    ]
    ntd = NiceTreeDecomposition(nodes, 1)
    with pytest.raises(ValueError, match="reached twice"):
        run_dp(g, ntd)
    with pytest.raises(ValueError, match="reached twice"):
        run6(g, ntd)
