from __future__ import annotations

import random
import time
from collections import Counter
from itertools import permutations

import pytest

from conftest import fixture_text, gnp_graph, path_graph, random_tree, reference_min_fill
from mixdom.cli import _random_partial_ktree
from mixdom.dp import run_dp
from mixdom.graph import Graph, parse_gr
from mixdom.mds6 import run6
from mixdom.oracle import brute_force, greedy_upper_bound
from mixdom.treedec import (
    NiceTreeDecomposition,
    TreeDecomposition,
    from_bags,
    make_very_nice,
    min_fill_decompose,
    parse_td,
    postorder_traversal,
    validate_td,
    write_td,
)


@pytest.fixture
def fig_td() -> TreeDecomposition:
    return parse_td(fixture_text("fig1b.td"))


def exact_treewidth(g: Graph) -> int:
    """Minimum over all elimination orders; usable only for tiny graphs."""
    best = max(g.vertex_count - 1, 0)
    for order in permutations(range(g.vertex_count)):
        adjacency = {v: set(g.adjacency(v)) for v in range(g.vertex_count)}
        width = 0
        for v in order:
            nbrs = adjacency.pop(v)
            width = max(width, len(nbrs))
            for x in nbrs:
                adjacency[x].discard(v)
                adjacency[x].update(nbrs - {x})
            if width >= best:
                break
        best = min(best, width)
    return best


def check_very_nice(ntd: NiceTreeDecomposition) -> None:
    """Assert every structural invariant of a very nice decomposition."""
    assert len(ntd.nodes[ntd.root].bag) == 1
    for node in ntd.nodes:
        if node.kind == "leaf":
            assert node.children == ()
            assert len(node.bag) == 1
            assert node.vertex is None
        elif node.kind == "introduce":
            (c,) = node.children
            assert node.vertex in node.bag
            assert ntd.nodes[c].bag == node.bag - {node.vertex}
        elif node.kind == "forget":
            (c,) = node.children
            assert node.vertex not in node.bag
            assert ntd.nodes[c].bag == node.bag | {node.vertex}
        elif node.kind == "join":
            a, b = node.children
            assert ntd.nodes[a].bag == node.bag
            assert ntd.nodes[b].bag == node.bag
            assert node.vertex is None
        else:
            raise AssertionError(f"unknown kind {node.kind}")
    # a tree: each non-root node is a child exactly once, the root never,
    # and every node is reached from the root
    children = Counter(c for node in ntd.nodes for c in node.children)
    assert children == Counter(i for i in range(len(ntd.nodes)) if i != ntd.root)
    assert sorted(postorder_traversal(ntd)) == list(range(len(ntd.nodes)))


def test_validate_fixture_decomposition(g1, fig_td):
    assert validate_td(g1, fig_td) == []
    assert fig_td.width() == 2


def test_single_bag_decomposition_is_valid(g1):
    td = from_bags([range(5)], [])
    assert validate_td(g1, td) == []
    assert td.width() == 4


def test_missing_edge_coverage_is_reported(g1, fig_td):
    # drop the one bag holding edge 45 (bag index 7) and reconnect its ends
    bags = [b for i, b in enumerate(fig_td.bags) if i != 7]
    remap = lambda i: i if i < 7 else i - 1
    edges = [
        (remap(a), remap(b)) for a, b in fig_td.edges if 7 not in (a, b)
    ] + [(remap(6), remap(8))]
    td = TreeDecomposition(tuple(bags), tuple(edges), 0)
    violations = validate_td(g1, td)
    assert any("edge (4, 5)" in v for v in violations)


def test_missing_vertex_coverage_is_reported():
    g = Graph(3, [(0, 1)])
    td = from_bags([{0, 1}], [])
    assert any("vertex 3" in v for v in validate_td(g, td))


def test_disconnected_occurrence_is_reported():
    g = Graph(3, [(0, 1), (1, 2)])
    td = from_bags([{0, 1}, {1}, {1, 2}, {0}], [(0, 1), (1, 2), (2, 3)])
    violations = validate_td(g, td)
    assert any("vertex 1" in v and "not connected" in v for v in violations)


def test_non_tree_shapes_are_reported():
    g = Graph(2, [(0, 1)])
    both = frozenset({0, 1})
    cycle = TreeDecomposition((both, both, both), ((0, 1), (1, 2), (2, 0)), 0)
    assert validate_td(g, cycle)
    forest = TreeDecomposition((both, both), (), 0)
    assert any("not connected" in v for v in validate_td(g, forest))


def test_out_of_range_ids_raise():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        validate_td(g, from_bags([{0, 1, 5}], []))
    with pytest.raises(ValueError):
        validate_td(g, TreeDecomposition((frozenset({0, 1}),), ((0, 3),), 0))


def test_min_fill_on_trees_has_width_one():
    rng = random.Random(31)
    for n in (2, 5, 9):
        t = random_tree(rng, n)
        td = min_fill_decompose(t)
        assert validate_td(t, td) == []
        assert td.width() == 1


def test_min_fill_on_k4_has_width_three():
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    td = min_fill_decompose(k4)
    assert validate_td(k4, td) == []
    assert td.width() == 3


def test_min_fill_matches_exact_treewidth_of_example(g1):
    assert exact_treewidth(g1) == 2
    td = min_fill_decompose(g1)
    assert validate_td(g1, td) == []
    assert td.width() == 2


def test_min_fill_is_valid_on_random_graphs():
    rng = random.Random(32)
    for _ in range(40):
        g = gnp_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.6]))
        assert validate_td(g, min_fill_decompose(g)) == []


def test_min_fill_handles_disconnected_and_isolated_vertices():
    g = Graph(5, [(0, 1), (2, 3)])
    td = min_fill_decompose(g)
    assert validate_td(g, td) == []


def star_graph(n: int, hub: int) -> Graph:
    return Graph(n, [(hub, leaf) for leaf in range(n) if leaf != hub])


def test_min_fill_equals_the_quadratic_reference():
    rng = random.Random(34)
    graphs = [
        gnp_graph(rng, rng.randint(1, 30), rng.choice((0.1, 0.3, 0.7)))
        for _ in range(200)
    ]
    for n in (1, 2, 3, 4, 10, 61, 300):
        graphs += [path_graph(n), star_graph(n, 0), star_graph(n, n - 1)]
    for width in (3, 4, 5):
        for n in (20, 60, 120):
            graphs.append(_random_partial_ktree(rng, n, width, 0.8))
    for g in graphs:
        assert min_fill_decompose(g) == reference_min_fill(g), g


def test_min_fill_is_fast_on_a_long_path():
    n = 10_000
    started = time.perf_counter()
    td = min_fill_decompose(path_graph(n))
    seconds = time.perf_counter() - started
    assert seconds < 2.0, f"min-fill on the path took {seconds:.2f}s"
    # the lowest end is eliminated first, every time
    assert td.bags == tuple(frozenset({v, v + 1}) for v in range(n - 1)) + (
        frozenset({n - 1}),
    )
    assert td.edges == tuple((v, v + 1) for v in range(n - 1))
    assert td.root == n - 1


def test_min_fill_is_fast_on_a_large_star():
    n = 2000
    hub = n - 1
    started = time.perf_counter()
    td = min_fill_decompose(star_graph(n, hub))
    seconds = time.perf_counter() - started
    assert seconds < 2.0, f"min-fill on the star took {seconds:.2f}s"
    # every leaf goes before the hub, in id order
    assert td.bags == tuple(frozenset({leaf, hub}) for leaf in range(hub)) + (
        frozenset({hub}),
    )
    assert td.edges == tuple((leaf, hub) for leaf in range(hub))
    assert td.root == hub


def test_very_nice_reproduces_figure_structure(g1, fig_td):
    # rooted at the singleton bag {1} (index 11), the 12-bag shape survives
    ntd = make_very_nice(fig_td, root=11)
    check_very_nice(ntd)
    assert validate_td(g1, ntd.as_td()) == []
    assert ntd.width() == 2
    got = [
        (ntd.nodes[i].kind, tuple(sorted(ntd.nodes[i].bag)))
        for i in postorder_traversal(ntd)
    ]
    assert got == [
        ("leaf", (1,)),
        ("introduce", (1, 2)),
        ("introduce", (0, 1, 2)),
        ("forget", (0, 2)),
        ("introduce", (0, 2, 3)),
        ("forget", (0, 3)),
        ("leaf", (4,)),
        ("introduce", (3, 4)),
        ("forget", (3,)),
        ("introduce", (0, 3)),
        ("join", (0, 3)),
        ("forget", (0,)),
    ]


def test_very_nice_single_vertex():
    ntd = make_very_nice(from_bags([{0}], []))
    assert len(ntd) == 1
    assert ntd.nodes[0].kind == "leaf"
    check_very_nice(ntd)


def test_very_nice_path_has_no_join():
    p3 = Graph(3, [(0, 1), (1, 2)])
    ntd = make_very_nice(min_fill_decompose(p3))
    check_very_nice(ntd)
    assert validate_td(p3, ntd.as_td()) == []
    kinds = [n.kind for n in ntd.nodes]
    assert kinds.count("leaf") <= 2
    assert "join" not in kinds


def test_very_nice_preserves_width_and_is_small():
    rng = random.Random(33)
    for _ in range(30):
        g = gnp_graph(rng, rng.randint(1, 15), rng.choice([0.15, 0.4, 0.8]))
        td = min_fill_decompose(g)
        ntd = make_very_nice(td)
        check_very_nice(ntd)
        assert validate_td(g, ntd.as_td()) == []
        assert ntd.width() == td.width()
        assert len(ntd) <= 16 * g.vertex_count


def below(ntd: NiceTreeDecomposition, idx: int) -> set[int]:
    """The nodes of the subtree rooted at idx, idx included."""
    out, stack = set(), [idx]
    while stack:
        i = stack.pop()
        out.add(i)
        stack.extend(ntd.nodes[i].children)
    return out


def check_meet_joins(g: Graph, td: TreeDecomposition) -> NiceTreeDecomposition:
    """Normalize td, check the result is a very nice decomposition of g of
    the same width, and check both programs against the oracle on it."""
    ntd = make_very_nice(td)
    check_very_nice(ntd)
    assert validate_td(g, ntd.as_td()) == []
    assert ntd.width() == td.width()
    oracle = brute_force(g, enumerate_all=True)
    for cap in (None, greedy_upper_bound(g)):
        result = run_dp(g, ntd, enumerate_sets=True, cost_cap=cap)
        assert (result.gamma, result.min_sets) == oracle
        assert run6(g, ntd, cost_cap=cap).gamma == oracle.gamma
    return ntd


def introduces_of(ntd: NiceTreeDecomposition, v: int) -> list[int]:
    return [
        i for i, n in enumerate(ntd.nodes) if n.kind == "introduce" and n.vertex == v
    ]


def test_very_nice_joins_a_tree_bag_at_its_meet_and_introduces_the_parent_once():
    # bag {v, p} over children {c1, v} and {c2, v}: the join holds v alone
    v, p, c1, c2 = 0, 1, 2, 3
    g = Graph(4, [(v, p), (v, c1), (v, c2)])
    ntd = check_meet_joins(g, from_bags([{v, p}, {c1, v}, {c2, v}], [(1, 0), (2, 0)]))
    (join,) = [i for i, n in enumerate(ntd.nodes) if n.kind == "join"]
    assert ntd.nodes[join].bag == {v}
    (intro_p,) = introduces_of(ntd, p)
    assert join in below(ntd, intro_p)


def test_very_nice_introduces_a_vertex_no_child_holds_after_the_last_join():
    # bag {a, b, e, x} over children {a, c}, {b, d} and {e, f}; x sits in
    # no child and has bag edges to a, b and e
    a, b, e, x, c, d, f = range(7)
    g = Graph(7, [(a, b), (x, a), (x, b), (x, e), (a, c), (b, d), (e, f)])
    td = from_bags([{a, b, e, x}, {a, c}, {b, d}, {e, f}], [(1, 0), (2, 0), (3, 0)])
    ntd = check_meet_joins(g, td)
    joins = [i for i in postorder_traversal(ntd) if ntd.nodes[i].kind == "join"]
    assert [ntd.nodes[i].bag for i in joins] == [{a, b}, {a, b, e}]
    (intro_x,) = introduces_of(ntd, x)
    assert set(joins) <= below(ntd, intro_x)


def test_very_nice_joins_at_the_full_bag_when_no_child_shares_a_vertex():
    # three components; the bag {0, 1} shares no vertex with either child
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    ntd = check_meet_joins(g, from_bags([{0, 1}, {2, 3}, {4, 5}], [(1, 0), (2, 0)]))
    assert [n.bag for n in ntd.nodes if n.kind == "join"] == [{0, 1}]


def test_very_nice_rejects_a_cycle_of_bags():
    td = from_bags([{0}, {0, 1}, {1}], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="tree"):
        make_very_nice(td)


def test_very_nice_rejects_empty_graph():
    with pytest.raises(ValueError):
        make_very_nice(TreeDecomposition((frozenset(),), (), 0))


def test_postorder_visits_children_first(fig_td):
    ntd = make_very_nice(fig_td, root=11)
    order = postorder_traversal(ntd)
    assert sorted(order) == list(range(len(ntd)))
    position = {idx: pos for pos, idx in enumerate(order)}
    for i, node in enumerate(ntd.nodes):
        for c in node.children:
            assert position[c] < position[i]
    assert order[-1] == ntd.root


def test_parse_td_basics():
    td = parse_td("s td 1 2 2\nb 1 1 2\n")
    assert td.bags == (frozenset({0, 1}),)
    fig = parse_td(fixture_text("fig1b.td"))
    assert len(fig.bags) == 12
    assert len(fig.edges) == 11


def test_parse_td_errors():
    with pytest.raises(ValueError):
        parse_td("s td 1 2 2\nb 1 0 2\n")  # vertex ids are 1-based
    with pytest.raises(ValueError):
        parse_td("s td 2 2 2\nb 1 1 2\n")  # bag count mismatch
    with pytest.raises(ValueError):
        parse_td("s td 1 3 2\nb 1 1 2\n")  # width mismatch
    with pytest.raises(ValueError):
        parse_td("s td 1 2 2\nb 2 1 2\n")  # bag id out of range
    with pytest.raises(ValueError):
        parse_td("b 1 1\n")
    with pytest.raises(ValueError, match="line 2: 'x' is not an integer"):
        parse_td("s td 1 3 2\nb 1 1 2 x\n")


def test_td_round_trip(fig_td):
    again = parse_td(write_td(fig_td, vertex_count=5))
    assert again.bags == fig_td.bags
    assert set(again.edges) == set(fig_td.edges)
