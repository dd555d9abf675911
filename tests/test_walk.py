"""The shared bag walk: decomposition checks, the cost window, deep
decompositions."""

from __future__ import annotations

import math
import random

import pytest

from conftest import gnp_graph, path_graph, random_tree
from mixdom.dp import run_dp
from mixdom.graph import Graph
from mixdom.mds6 import run6
from mixdom.oracle import brute_force, greedy_upper_bound
from mixdom.treedec import (
    NiceBag,
    NiceTreeDecomposition,
    make_very_nice,
    min_fill_decompose,
)


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
            nine = run_dp(g, ntd, enumerate_sets=True, cost_cap=cap)
            assert nine.gamma == expected.gamma, (label, root)
            assert nine.min_sets == expected.min_sets, (label, root)
            assert run6(g, ntd, cost_cap=cap).gamma == expected.gamma, (label, root)
            decompositions += 1
    assert decompositions > 500


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
