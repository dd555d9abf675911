"""Acceptance suite.

One test per shipped claim, named test_c01 .. test_c10; running this file
with -v prints one pass or fail line per criterion:

    python -m pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import combinations

from conftest import connected_graphs_up_to, fixture_text, gnp_graph, random_tree
from mixdom.dp import (
    BagLayout,
    StateTable,
    enumerate_btable,
    forget_reduce,
    leaf_table,
    run_dp,
)
from mixdom.graph import Graph, parse_gr
from mixdom.mds6 import join6, moebius6, run6, transform_join6, zeta6
from mixdom.oracle import brute_force, greedy_upper_bound
from mixdom.reference import direct_join6, introduce_combine
from mixdom.treedec import make_very_nice, min_fill_decompose, parse_td, postorder_traversal, validate_td
from test_tables import (
    GOLDEN_AST_INT,
    GOLDEN_AST_JOIN,
    GOLDEN_STAR_INT,
    GOLDEN_STAR_JOIN,
    check_table,
)
from mixdom.tables import AST_INT, AST_JOIN, STAR_INT, STAR_JOIN

SUITE_SEED = 97


@lru_cache(maxsize=1)
def figure_instance():
    g = parse_gr(fixture_text("g1.gr"))
    ntd = make_very_nice(parse_td(fixture_text("fig1b.td")), root=11)
    return g, ntd


@lru_cache(maxsize=1)
def equivalence_suite() -> tuple[Graph, ...]:
    """Every connected graph with at most five vertices plus 500 seeded
    random graphs with at most eight."""
    graphs = list(connected_graphs_up_to(5))
    rng = random.Random(SUITE_SEED)
    for _ in range(500):
        graphs.append(gnp_graph(rng, rng.randint(2, 8), rng.choice((0.2, 0.5, 0.8))))
    return tuple(graphs)


def costs(table: StateTable) -> dict[tuple[int, ...], int]:
    return {key: entry[0] for key, entry in table.rows.items()}


def test_c01_figure_graph_both_programs_within_a_second():
    g, ntd = figure_instance()
    started = time.perf_counter()
    nine = run_dp(g, ntd).gamma
    mid = time.perf_counter()
    six = run6(g, ntd).gamma
    done = time.perf_counter()
    assert nine == 2
    assert six == 2
    assert mid - started < 1.0, f"nine-state took {mid - started:.3f}s"
    assert done - mid < 1.0, f"six-state took {done - mid:.3f}s"


def test_c02_leaf_table_golden_rows():
    g, _ = figure_instance()
    t = leaf_table(g, [1])
    assert costs(t) == {(2,): 1, (5,): 0}


def test_c03_bag_local_table_golden_rows():
    g, _ = figure_instance()
    t = enumerate_btable(g, [1, 2])
    assert t.layout.vertices == (1, 2)
    assert t.layout.edges == (g.edge_id(1, 2),)
    assert costs(t) == {
        (1, 1, 1): 3,
        (1, 3, 1): 2,
        (3, 1, 1): 2,
        (3, 3, 1): 1,
        (2, 2, 2): 2,
        (2, 4, 2): 1,
        (4, 2, 2): 1,
        (7, 7, 3): 0,
    }


def test_c04_introduce_merge_replays_worked_rows():
    g, _ = figure_instance()

    def pair(child_key, child_cost, local_key, local_cost):
        child = StateTable(BagLayout(g, [1]), False)
        child.insert(child_key, child_cost, None)
        local = StateTable(BagLayout(g, [1, 2]), False)
        local.insert(local_key, local_cost, None)
        return costs(introduce_combine(g, child, local))

    assert pair((2,), 1, (3, 3, 1), 1) == {(1, 3, 1): 2}
    assert pair((5,), 0, (7, 7, 3), 0) == {(7, 7, 3): 0}


def test_c05_multiplication_tables_cell_for_cell():
    check_table(STAR_INT, GOLDEN_STAR_INT)
    check_table(AST_INT, GOLDEN_AST_INT)
    check_table(STAR_JOIN, GOLDEN_STAR_JOIN)
    check_table(AST_JOIN, GOLDEN_AST_JOIN)
    for table in (STAR_JOIN, AST_JOIN):
        for a in range(len(table)):
            for b in range(len(table)):
                assert table[a][b] == table[b][a]


def test_c06_oracle_equivalence_across_the_suite():
    started = time.perf_counter()
    for g in equivalence_suite():
        ntd = make_very_nice(min_fill_decompose(g))
        cap = greedy_upper_bound(g)
        res = run_dp(g, ntd, enumerate_sets=True, cost_cap=cap)
        expected = brute_force(g, enumerate_all=True)
        label = f"n={g.vertex_count} edges={g.edges}"
        assert res.gamma == expected.gamma, label
        assert res.min_sets == expected.min_sets, label
        assert run6(g, ntd, cost_cap=cap).gamma == expected.gamma, label
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"equivalence suite took {elapsed:.1f}s"


def test_c07_forget_golden_with_documented_extra_row():
    # forgetting the last high-degree vertex from the join table keeps six
    # expected projections plus one extra row, state 9 at cost 2: the row
    # whose undominated bag edge turns into a pending mark instead of
    # being dropped with its vertex.  It is infeasible at the root either
    # way, so the final answer is unchanged.
    g, ntd = figure_instance()
    res = run_dp(g, ntd, collect_tables=True)
    joined = res.tables[10]
    assert len(joined) == 30
    reduced = forget_reduce(g, joined, 3)
    expected = {(1,): 3, (2,): 3, (3,): 2, (4,): 2, (5,): 2, (8,): 2}
    extra = {(9,): 2}
    assert costs(reduced) == expected | extra


def test_c08_decomposition_robustness_on_random_graphs():
    rng = random.Random(SUITE_SEED + 1)
    for _ in range(200):
        n = rng.randint(1, 30)
        g = gnp_graph(rng, n, rng.choice((0.1, 0.3, 0.7)))
        td = min_fill_decompose(g)
        assert validate_td(g, td) == []
        ntd = make_very_nice(td)
        assert validate_td(g, ntd.as_td()) == []
        assert ntd.width() == td.width()
        assert len(ntd) <= 16 * n


def test_c09_transform_join_equals_direct_join():
    joins = 0
    for g in equivalence_suite():
        td = min_fill_decompose(g)
        ntd = make_very_nice(td)
        if not any(node.kind == "join" for node in ntd.nodes):
            continue
        tau = postorder_traversal(ntd)
        position = {idx: pos for pos, idx in enumerate(tau)}
        cap = greedy_upper_bound(g)
        res = run6(g, ntd, tau=tau, collect_tables=True, cost_cap=cap)
        for idx in tau:
            node = ntd.nodes[idx]
            if node.kind != "join":
                continue
            a = res.tables[position[node.children[0]]]
            b = res.tables[position[node.children[1]]]
            stats: dict = {}
            fast = transform_join6(a, b, stats=stats, cost_cap=cap)
            slow = direct_join6(a, b, cost_cap=cap)
            assert fast.rows == slow.rows
            assert stats["transform_tuples"] <= 6 ** (td.width() + 1)
            assert join6(a, b, cost_cap=cap).rows == slow.rows
            joins += 1
    assert joins > 100, f"suite exercised only {joins} join bags"

    rng = random.Random(SUITE_SEED + 2)
    for _ in range(1000):
        slots = rng.randint(1, 3)
        rows = {}
        for _ in range(rng.randint(1, 12)):
            key = tuple(rng.choice([1, 3, 4, 5, 6, 7]) for _ in range(slots))
            rows.setdefault(key, {})[rng.randint(0, 5)] = rng.randint(1, 9)
        assert moebius6(zeta6(rows)) == rows


def random_partial_three_tree(rng: random.Random, n: int) -> Graph:
    edges = set(combinations(range(4), 2))
    cliques = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        base = rng.choice(cliques)
        for u in base:
            edges.add((u, v))
        for drop in range(3):
            cliques.append(base[:drop] + base[drop + 1:] + (v,))
    kept = [e for e in sorted(edges) if rng.random() < 0.85]
    return Graph(n, kept)


def test_c10_performance_budgets():
    rng = random.Random(SUITE_SEED + 3)
    tree = random_tree(rng, 1000)
    ntd = make_very_nice(min_fill_decompose(tree))
    started = time.perf_counter()
    tree_gamma = run_dp(tree, ntd, cost_cap=greedy_upper_bound(tree)).gamma
    tree_seconds = time.perf_counter() - started
    assert tree_seconds < 5.0, f"nine-state on the tree took {tree_seconds:.2f}s"
    assert 0 < tree_gamma < 1000

    wide = random_partial_three_tree(rng, 200)
    td = min_fill_decompose(wide)
    assert td.width() <= 3
    ntd = make_very_nice(td)
    started = time.perf_counter()
    wide_gamma = run6(wide, ntd, cost_cap=greedy_upper_bound(wide)).gamma
    wide_seconds = time.perf_counter() - started
    assert wide_seconds < 30.0, f"six-state took {wide_seconds:.2f}s"
    assert 0 < wide_gamma < 200
