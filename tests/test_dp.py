from __future__ import annotations

import random

import pytest

from conftest import (
    connected_graphs_up_to,
    fixture_text,
    gnp_graph,
    partial_ktree,
    path_graph,
)
from mixdom.dp import (
    BagLayout,
    StateTable,
    enumerate_btable,
    forget_reduce,
    leaf_table,
    render_table,
    row_witnesses,
    run_dp,
)
from mixdom.flags import bag_steps, undominated
from mixdom.graph import Graph, parse_gr
from mixdom.mds6 import run6
from mixdom.oracle import brute_force, greedy_upper_bound
from mixdom.reference import (
    _member_mask,
    _merge_pairs,
    _rows,
    introduce_combine,
    join_combine,
)
from mixdom.tables import AST_JOIN, STAR_JOIN
from mixdom.treedec import make_very_nice, min_fill_decompose, parse_td, postorder_traversal


@pytest.fixture
def fig_ntd(g1):
    return make_very_nice(parse_td(fixture_text("fig1b.td")), root=11)


def costs(table: StateTable) -> dict[tuple[int, ...], int]:
    return {key: entry[0] for key, entry in table.rows.items()}


def snapshot(table: StateTable):
    return {
        key: (entry[0], frozenset(row_witnesses([entry])))
        for key, entry in table.rows.items()
    }


def single_row_table(g: Graph, bag, key, cost, witness) -> StateTable:
    t = StateTable(BagLayout(g, bag), True)
    t.insert(key, cost, (witness,))
    return t


def reference_tables(g: Graph, ntd, tau):
    """The same dynamic program built only from the full pairwise merge
    operations, without the shortcuts run_dp takes."""
    tables: dict[int, StateTable] = {}
    out = []
    for idx in tau:
        node = ntd.nodes[idx]
        if node.kind == "leaf":
            t = leaf_table(g, node.bag)
        elif node.kind == "introduce":
            t = introduce_combine(
                g, tables[node.children[0]], enumerate_btable(g, node.bag)
            )
        elif node.kind == "forget":
            t = forget_reduce(g, tables[node.children[0]], node.vertex)
        else:
            t = join_combine(g, tables[node.children[0]], tables[node.children[1]])
        tables[idx] = t
        out.append(t)
    return out


def emask(g: Graph, *pairs) -> int:
    mask = 0
    for u, v in pairs:
        mask |= 1 << (g.vertex_count + g.edge_id(u, v))
    return mask


# -- bag-local tables -------------------------------------------------------


def test_leaf_table_rows(g1):
    t = leaf_table(g1, [1])
    assert t.layout.vertices == (1,)
    assert t.layout.edges == ()
    assert snapshot(t) == {(2,): (1, frozenset({1 << 1})), (5,): (0, frozenset({0}))}


def test_leaf_table_rejects_larger_bags(g1):
    with pytest.raises(ValueError):
        leaf_table(g1, [1, 2])


def test_bag_local_table_of_the_edge_bag(g1):
    # the bag holding vertices 1 and 2 induces the single edge between them
    t = enumerate_btable(g1, [1, 2])
    assert t.layout.vertices == (1, 2)
    assert t.layout.edges == (g1.edge_id(1, 2),)
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


def test_bag_local_rows_are_distinct_per_selection(g1):
    # every subset of bag elements lands on its own state tuple, so the
    # table has exactly 2^(vertices + induced edges) rows
    for bag in ([0], [0, 1], [0, 1, 2], [0, 2, 3]):
        t = enumerate_btable(g1, bag)
        expected = 1 << (len(t.layout.vertices) + len(t.layout.edges))
        assert len(t) == expected
        for key, entry in t.rows.items():
            wit = row_witnesses([entry])
            assert len(wit) == 1
            assert all(bin(w).count("1") == entry[0] for w in wit)


def test_links_expand_to_the_witnesses_at_the_row_cost(g1):
    t = StateTable(BagLayout(g1, [1]), True)
    # two links at equal cost: the row keeps both ways
    t.insert((4,), 1, (1 << 0,))
    t.insert((4,), 1, (1 << 2,))
    assert row_witnesses([t.rows[(4,)]]) == {1 << 0, 1 << 2}
    # a cheaper link replaces the older ones; a dearer one is ignored
    t.insert((1,), 3, (0b111,))
    t.insert((1,), 3, (0b1011,))
    t.insert((1,), 2, (0b11,))
    t.insert((1,), 3, (0b1101,))
    assert t.rows[(1,)][0] == 2
    assert row_witnesses([t.rows[(1,)]]) == {0b11}
    # a link of two rows ORs one witness of each
    pair = StateTable(BagLayout(g1, [1]), True)
    pair.insert((1,), 3, (t.rows[(4,)], t.rows[(1,)]))
    assert row_witnesses([pair.rows[(1,)]]) == {0b11, 0b111}
    # a forget link passes its child's witnesses through unchanged
    reduced = forget_reduce(g1, t, 1)
    assert reduced.rows[()] == [1, [(t.rows[(4,)],)]]
    assert row_witnesses([reduced.rows[()]]) == {1 << 0, 1 << 2}


def expand_recursively(entry, memo: dict) -> set[int]:
    """An entry's partial solutions, by plain recursion: per link, the OR
    of one solution of each part."""
    if id(entry) not in memo:
        out = set()
        for link in entry[1]:
            acc = {0}
            for part in link:
                sols = {part} if isinstance(part, int) else expand_recursively(part, memo)
                acc = {a | b for a in acc for b in sols}
            out |= acc
        memo[id(entry)] = out
    return memo[id(entry)]


def expected_witnesses(roots) -> set[int]:
    memo: dict = {}
    return set().union(*(expand_recursively(entry, memo) for entry in roots))


def test_row_witnesses_expand_every_link_shape():
    # costs are not read by the expansion
    leaf_a = [1, [(1 << 0,), (1 << 1,)]]  # bitmasks alone
    leaf_b = [1, [(1 << 2,)]]
    intro = [2, [(leaf_a, 1 << 3), (leaf_b, 0)]]  # entry and bitmask
    forget = [2, [(intro,)]]  # entry alone
    # two entries, once the same one on both sides; leaf_a and leaf_b
    # each have several parents
    join = [3, [(forget, leaf_b), (leaf_a, leaf_a)]]
    top = [4, [(join,), (join, 1 << 4), (forget, join)]]
    assert row_witnesses([join]) == {0b1101, 0b1110, 0b100, 0b1, 0b10, 0b11}
    for roots in ([top], [join, forget], [leaf_a, leaf_a], [top, intro, leaf_b]):
        assert row_witnesses(roots) == expected_witnesses(roots)


def test_row_witnesses_match_plain_recursion_on_random_link_dags():
    rng = random.Random(19)
    for _ in range(300):
        entries: list[list] = []
        for _ in range(rng.randint(1, 10)):
            links = []
            for _ in range(rng.randint(1, 3)):
                mask = rng.getrandbits(6)
                if not entries:
                    links.append((mask,))
                    continue
                a, b = rng.choice(entries), rng.choice(entries)
                links.append(
                    rng.choice([(mask,), (a,), (a, mask), (a, 0), (a, b)])
                )
            entries.append([0, links])
        roots = rng.sample(entries, rng.randint(1, min(3, len(entries))))
        assert row_witnesses(roots) == expected_witnesses(roots)


# -- introduce --------------------------------------------------------------


def test_introduce_merge_replays_the_worked_rows(g1):
    child = single_row_table(g1, [1], (2,), 1, 1 << 1)
    local = single_row_table(g1, [1, 2], (3, 3, 1), 1, emask(g1, (1, 2)))
    merged = introduce_combine(g1, child, local)
    assert snapshot(merged) == {
        (1, 3, 1): (2, frozenset({(1 << 1) | emask(g1, (1, 2))}))
    }

    child = single_row_table(g1, [1], (5,), 0, 0)
    local = single_row_table(g1, [1, 2], (7, 7, 3), 0, 0)
    merged = introduce_combine(g1, child, local)
    assert snapshot(merged) == {(7, 7, 3): (0, frozenset({0}))}


def test_full_introduce_reproduces_the_eight_stable_rows(g1):
    # merging the leaf's two rows into the bag-local table keeps the same
    # eight state tuples at the same costs
    merged = introduce_combine(
        g1, leaf_table(g1, [1]), enumerate_btable(g1, [1, 2])
    )
    assert costs(merged) == costs(enumerate_btable(g1, [1, 2]))


def test_introduce_with_empty_child_is_identity(g1):
    empty = StateTable(BagLayout(g1, []), True)
    empty.insert((), 0, (0,))
    local = enumerate_btable(g1, [1, 2])
    merged = introduce_combine(g1, empty, local)
    assert snapshot(merged) == snapshot(local)


def test_introduce_requires_bag_containment(g1):
    with pytest.raises(ValueError):
        introduce_combine(g1, leaf_table(g1, [4]), enumerate_btable(g1, [1, 2]))


# -- forget -----------------------------------------------------------------


def test_forget_drops_doomed_rows_and_marks_pendings(g1):
    # bag {0, 3} carries the edge between them; forgetting 0 in state 6
    # turns its undominated edge into a pending mark on 3.  A vertex at an
    # undominated bag edge is in 6 or 7, never 4 or 5, so both ends of the
    # open edge say so.
    bag = [0, 3]
    rows = [
        ((6, 6, 3), 1),   # survives, 3 picks up a pending mark: (8,)
        ((4, 4, 2), 1),   # survives unchanged: (4,)
        ((3, 5, 2), 1),   # survives: (5,)
        ((5, 4, 2), 0),   # dropped, 0 left undominated
        ((7, 6, 3), 0),   # dropped
        ((9, 4, 2), 2),   # dropped, pending mark never cleared
        ((8, 4, 2), 2),   # dropped
    ]
    t = StateTable(BagLayout(g1, bag), False)
    for key, cost in rows:
        t.insert(key, cost, None)
    reduced = forget_reduce(g1, t, 0)
    assert reduced.layout.vertices == (3,)
    assert reduced.layout.edges == ()
    assert costs(reduced) == {(8,): 1, (4,): 1, (5,): 1}


def test_forget_requires_bag_membership(g1):
    with pytest.raises(ValueError):
        forget_reduce(g1, leaf_table(g1, [1]), 4)


def test_forget_keeps_minimum_cost_row_per_projection(g1):
    t = StateTable(BagLayout(g1, [1]), True)
    t.insert((2,), 1, (1 << 1,))
    t.insert((4,), 2, (0b110,))
    t.insert((1,), 2, (0b11 << 4,))
    reduced = forget_reduce(g1, t, 1)
    assert snapshot(reduced) == {(): (1, frozenset({1 << 1}))}


# -- join -------------------------------------------------------------------


def test_join_merge_replays_the_worked_pair(g1):
    left = single_row_table(g1, [0, 3], (3, 2, 2), 2, (1 << 3) | emask(g1, (0, 1)))
    right = single_row_table(g1, [0, 3], (3, 3, 1), 2, (1 << 3) | emask(g1, (0, 3)))
    merged = join_combine(g1, left, right)
    assert costs(merged) == {(3, 1, 1): 4}


def test_join_children_must_share_the_bag(g1):
    with pytest.raises(ValueError):
        join_combine(g1, leaf_table(g1, [1]), leaf_table(g1, [2]))


def test_join_is_order_independent(g1, fig_ntd):
    res = run_dp(g1, fig_ntd, collect_tables=True)
    left, right = res.tables[5], res.tables[9]
    assert costs(join_combine(g1, left, right)) == costs(join_combine(g1, right, left))


# -- the running example, replayed end to end -------------------------------


def test_pipeline_spot_rows_match_the_running_example(g1, fig_ntd):
    res = run_dp(g1, fig_ntd, enumerate_sets=True, collect_tables=True)
    stable6, stable10, stable11 = res.tables[5], res.tables[9], res.tables[10]
    assert costs(stable6)[(3, 2, 2)] == 2
    assert costs(stable10)[(3, 3, 1)] == 2
    assert len(stable11) == 30
    assert costs(stable11)[(7, 6, 3)] == 2
    # cheapest completion of (3, 1, 1): the vertex, its edge to 0, and the
    # central edge that covers the two forgotten vertices
    assert costs(stable11)[(3, 1, 1)] == 3


def test_final_forget_golden(g1, fig_ntd):
    res = run_dp(g1, fig_ntd, collect_tables=True)
    reduced = forget_reduce(g1, res.tables[10], 3)
    assert costs(reduced) == {
        (1,): 3,
        (2,): 3,
        (3,): 2,
        (4,): 2,
        (5,): 2,
        (8,): 2,
        (9,): 2,
    }


def test_pipeline_matches_oracle_on_figure_graph(g1, fig_ntd):
    res = run_dp(g1, fig_ntd, enumerate_sets=True)
    expected = brute_force(g1, enumerate_all=True)
    assert res.gamma == 2
    assert res.gamma == expected.gamma
    assert res.min_sets == expected.min_sets


# -- properties -------------------------------------------------------------


def small_cases():
    yield parse_gr(fixture_text("g1.gr"))
    yield Graph(2, [(0, 1)])
    yield Graph(4, [(0, 1), (1, 2), (2, 3)])
    yield Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    yield Graph(3, [(0, 1), (0, 2), (1, 2)])
    yield Graph(4, [(0, 1), (2, 3)])
    yield Graph(3, [(0, 1)])
    rng = random.Random(7)
    for _ in range(8):
        yield gnp_graph(rng, rng.randint(5, 6), 0.4)


def test_run_dp_shortcuts_match_full_pairing():
    # run_dp only branches on new elements at introduces and only pairs
    # membership-agreeing rows at joins; both must reproduce the full
    # pairwise merge exactly, witnesses included
    for g in small_cases():
        ntd = make_very_nice(min_fill_decompose(g))
        tau = postorder_traversal(ntd)
        res = run_dp(g, ntd, tau=tau, enumerate_sets=True, collect_tables=True)
        for fast, slow in zip(res.tables, reference_tables(g, ntd, tau)):
            assert fast.layout == slow.layout
            assert snapshot(fast) == snapshot(slow)


def table_driven_walk(g: Graph, ntd, cap: int, track: bool):
    """run_dp's walk under cap with every merge done by the table-driven
    kernel: an introduce pairs the child with the bag-local rows that
    select only the new vertex and its new edges, a join pairs the rows
    that select the same bag elements, and every bag is cut to the window
    of walk.py after it is built.  Without witnesses a forget's table also
    loses its dominated rows through the pass of flags.py, and an
    introduce pairs each child row only with the new vertex alone or one
    new edge at a neighbour the row does not select, besides the empty
    selection, as the engine's do.  Returns the tables, gamma and the
    minimum sets."""
    tables: dict[int, StateTable] = {}
    out = []
    for idx in postorder_traversal(ntd):
        node = ntd.nodes[idx]
        if node.kind == "leaf":
            t = leaf_table(g, node.bag, track, cap)
        elif node.kind == "introduce":
            full = enumerate_btable(g, node.bag, track, cap)
            layout = full.layout
            k = len(layout.vertices)
            pos = layout.vpos[node.vertex]
            # new edge slot -> its old endpoint
            far = {
                k + j: layout.vertices[a + b - pos]
                for j, (a, b) in enumerate(layout.edge_endpoints)
                if pos in (a, b)
            }
            new = (1 << pos) | sum(1 << p for p in far)
            child = tables[node.children[0]]
            parts = {frozenset(): child}
            if not track:
                # the child's rows by which of the new vertex's bag
                # neighbours they select
                parts = {}
                for key, entry in child.rows.items():
                    members = frozenset(
                        u for u in far.values() if key[child.layout.vpos[u]] in (1, 2)
                    )
                    part = parts.setdefault(members, StateTable(child.layout, False))
                    part.insert(key, entry[0], None)
            # the bag-local rows selecting only new slots, with those slots
            rows = []
            for key, entry in full.rows.items():
                mask = _member_mask(key, k)
                if not mask & ~new:
                    chosen = [p for p in range(layout.width) if mask >> p & 1]
                    rows.append((key, entry, chosen))
            t = StateTable(layout, track)
            for members, part in parts.items():
                local = StateTable(layout, track)
                for key, entry, chosen in rows:
                    # some minimum set of X ∪ M form: the new vertex or one
                    # new edge, never an edge at a member
                    if not track and (
                        len(chosen) > 1 or any(far.get(p) in members for p in chosen)
                    ):
                        continue
                    local.insert(key, entry[0], entry[1][0] if track else None)
                if track:
                    t = introduce_combine(g, part, local, cap)
                    continue
                for word, entry in introduce_combine(g, part, local, cap).words.items():
                    t.add(word, entry[0], None)
        elif node.kind == "forget":
            t = forget_reduce(g, tables[node.children[0]], node.vertex)
            if not track:
                k = len(t.layout.vertices)
                steps = bag_steps(k, t.layout.edge_endpoints)
                t.words = undominated(t.words, steps, window=k)
        else:
            a, b = (tables[c] for c in node.children)
            t = StateTable(a.layout, track)
            groups: dict[int, tuple[list, list]] = {}
            for side, table in enumerate((a, b)):
                for row in _rows(table):
                    groups.setdefault(row[3], ([], []))[side].append(row)
            for rows_a, rows_b in groups.values():
                _merge_pairs(t, rows_a, rows_b, STAR_JOIN, AST_JOIN, cap)
        if t.words:
            limit = min(entry[0] for entry in t.words.values()) + len(node.bag)
            for word in [w for w, entry in t.words.items() if entry[0] > limit]:
                del t.words[word]
        tables[idx] = t
        out.append(t)
    final = out[-1]
    for v in sorted(ntd.nodes[ntd.root].bag):
        final = forget_reduce(g, final, v)
    (entry,) = final.rows.values()
    return out, entry[0], row_witnesses([entry]) if track else None


def test_flag_word_engine_matches_the_table_driven_kernel_on_partial_ktrees():
    # capped partial 3- and 4-trees: every table (rows, costs and the
    # number of links per row), gamma and the minimum sets agree
    rng = random.Random(43)
    cases = [partial_ktree(rng, rng.randint(10, 16), 3) for _ in range(5)]
    cases += [partial_ktree(rng, rng.randint(8, 9), 4) for _ in range(3)]
    for g in cases:
        ntd = make_very_nice(min_fill_decompose(g))
        cap = greedy_upper_bound(g)
        for track in (False, True):
            res = run_dp(
                g, ntd, enumerate_sets=track, collect_tables=True, cost_cap=cap
            )
            tables, gamma, min_sets = table_driven_walk(g, ntd, cap, track)
            assert len(res.tables) == len(tables)
            for fast, slow in zip(res.tables, tables):
                assert fast.layout == slow.layout
                assert {
                    key: (e[0], e[1] and len(e[1])) for key, e in fast.rows.items()
                } == {
                    key: (e[0], e[1] and len(e[1])) for key, e in slow.rows.items()
                }, write_case(g)
            assert res.gamma == gamma, write_case(g)
            assert res.min_sets == (frozenset(min_sets) if track else None)


def test_capped_merges_equal_the_full_merges_cut_at_the_cap(g1, fig_ntd):
    # a cap drops exactly the rows costing more and nothing else: the
    # merge skips over-cap pairs before it works out their states
    instances = [(g1, fig_ntd)]
    instances += [
        (g, make_very_nice(min_fill_decompose(g))) for g in small_cases()
    ]
    merged = {"introduce": 0, "join": 0}
    for g, ntd in instances:
        tau = postorder_traversal(ntd)
        res = run_dp(g, ntd, tau=tau, enumerate_sets=True, collect_tables=True)
        table_of = dict(zip(tau, res.tables))
        for idx in tau:
            node = ntd.nodes[idx]
            if node.kind == "introduce":
                child = table_of[node.children[0]]
                operands = (child, enumerate_btable(g, node.bag))
                merge = introduce_combine
            elif node.kind == "join":
                operands = tuple(table_of[c] for c in node.children)
                merge = join_combine
            else:
                continue
            full = snapshot(merge(g, *operands))
            for cap in range(max(cost for cost, _ in full.values()) + 1):
                capped = snapshot(merge(g, *operands, cost_cap=cap))
                assert capped == {
                    key: row for key, row in full.items() if row[0] <= cap
                }, (write_case(g), idx, cap)
            merged[node.kind] += 1
    assert merged["introduce"] > 50 and merged["join"] > 10


def test_run_dp_matches_oracle_on_tiny_graphs():
    for g in connected_graphs_up_to(4):
        ntd = make_very_nice(min_fill_decompose(g))
        res = run_dp(g, ntd, enumerate_sets=True)
        expected = brute_force(g, enumerate_all=True)
        assert res.gamma == expected.gamma, write_case(g)
        assert res.min_sets == expected.min_sets, write_case(g)


def write_case(g: Graph) -> str:
    return f"n={g.vertex_count} edges={g.edges}"


def test_run_dp_matches_oracle_on_random_and_disconnected_graphs():
    rng = random.Random(19)
    cases = [
        Graph(4, [(0, 1), (2, 3)]),
        Graph(3, [(0, 1)]),
        Graph(5, []),
    ]
    cases += [gnp_graph(rng, rng.randint(5, 7), rng.choice([0.3, 0.6])) for _ in range(10)]
    for g in cases:
        ntd = make_very_nice(min_fill_decompose(g))
        res = run_dp(g, ntd, enumerate_sets=True)
        expected = brute_force(g, enumerate_all=True)
        assert res.gamma == expected.gamma, write_case(g)
        assert res.min_sets == expected.min_sets, write_case(g)


def test_every_witness_size_equals_row_cost(g1, fig_ntd):
    res = run_dp(g1, fig_ntd, enumerate_sets=True, collect_tables=True)
    for table in res.tables:
        for key, entry in table.rows.items():
            wit = row_witnesses([entry])
            assert all(bin(w).count("1") == entry[0] for w in wit), key


def test_cost_cap_preserves_optimum_and_enumeration():
    # full tables stay affordable up to ~16 elements, so the uncapped run
    # serves as the reference on small instances
    rng = random.Random(29)
    draws = (gnp_graph(rng, rng.randint(4, 7), rng.choice([0.3, 0.6])) for _ in range(20))
    for g in [g for g in draws if g.element_count <= 16][:10]:
        ntd = make_very_nice(min_fill_decompose(g))
        free = run_dp(g, ntd, enumerate_sets=True)
        capped = run_dp(
            g, ntd, enumerate_sets=True, cost_cap=greedy_upper_bound(g)
        )
        assert capped.gamma == free.gamma, write_case(g)
        assert capped.min_sets == free.min_sets, write_case(g)
        tight = run_dp(g, ntd, enumerate_sets=True, cost_cap=free.gamma)
        assert tight.min_sets == free.min_sets, write_case(g)


def test_cost_cap_handles_dense_graphs_the_full_tables_cannot():
    rng = random.Random(29)
    dense = gnp_graph(rng, 8, 0.95)
    assert dense.element_count > 30
    ntd = make_very_nice(min_fill_decompose(dense))
    res = run_dp(
        dense, ntd, enumerate_sets=True, cost_cap=greedy_upper_bound(dense)
    )
    expected = brute_force(dense, enumerate_all=True)
    assert res.gamma == expected.gamma
    assert res.min_sets == expected.min_sets


def test_dominated_rows_go_by_goodness_in_the_nine_state_walk():
    # without enumeration a capped forget drops the rows a one-vertex-better
    # row matches at no higher cost; every root of the decomposition meets
    # other rows at each bag.  On the first two graphs a dominated waiting
    # vertex ranked above a free one loses the optimum.  On the path of 8
    # vertices and the 5- and 7-cycles every minimum set selects an edge,
    # so only the edge selections an introduce offers reach the optimum
    rng = random.Random(53)
    cases = [
        Graph(6, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (4, 5)]),
        Graph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)]),
    ]
    needs_edges = [path_graph(8)] + [
        Graph(n, [(v, (v + 1) % n) for v in range(n)]) for n in (5, 7)
    ]
    for g in needs_edges:
        assert all(s >> g.vertex_count for s in brute_force(g, enumerate_all=True).min_sets)
    cases += needs_edges
    cases += [
        gnp_graph(rng, rng.randint(4, 7), rng.choice((0.3, 0.5, 0.7))) for _ in range(60)
    ]
    runs = 0
    for g in cases:
        gamma = brute_force(g).gamma
        td = min_fill_decompose(g)
        for root in range(len(td.bags)):
            ntd = make_very_nice(td, root=root)
            for cap in (greedy_upper_bound(g), gamma):
                assert run_dp(g, ntd, cost_cap=cap).gamma == gamma, (g.edges, root)
                runs += 1
    assert runs > 400


def test_capped_gamma_walk_never_selects_an_edge_at_a_member():
    # some minimum set is a vertex set X with a matching M that touches no
    # vertex of X (dp.py, "Selections"), so a capped walk without
    # enumeration never selects a vertex and an edge at it: no row holds
    # state 1.  The enumerating walk must list every minimum set and keeps
    # such rows
    rng = random.Random(61)
    cases = [parse_gr(fixture_text("g1.gr"))]
    cases += [partial_ktree(rng, 14, 3), partial_ktree(rng, 10, 4)]
    listed_ones = 0
    for g in cases:
        cap = greedy_upper_bound(g)
        td = min_fill_decompose(g)
        gamma = run6(g, make_very_nice(td)).gamma
        for root in range(len(td.bags)):
            ntd = make_very_nice(td, root=root)
            res = run_dp(g, ntd, collect_tables=True, cost_cap=cap)
            assert res.gamma == gamma, (write_case(g), root)
            for table in res.tables:
                k = len(table.layout.vertices)
                assert all(1 not in key[:k] for key in table.rows), (write_case(g), root)
        listed = run_dp(g, ntd, enumerate_sets=True, collect_tables=True, cost_cap=cap)
        for table in listed.tables:
            k = len(table.layout.vertices)
            listed_ones += sum(1 in key[:k] for key in table.rows)
    assert listed_ones


def test_capped_gamma_walk_keeps_the_optimum_at_every_root_of_partial_ktrees():
    # an introduce offers a child row the selections its own members allow
    # (dp.py, "Selections"); reading them off the wrong bytes loses the
    # optimum at some roots, which the enumerating walk, offered every
    # selection, does not
    rng = random.Random(71)
    cases = [partial_ktree(rng, rng.randint(10, 16), 3) for _ in range(6)]
    cases += [partial_ktree(rng, rng.randint(8, 12), 4, keep=0.6) for _ in range(3)]
    for g in cases:
        cap = greedy_upper_bound(g)
        td = min_fill_decompose(g)
        for root in range(len(td.bags)):
            ntd = make_very_nice(td, root=root)
            listed = run_dp(g, ntd, enumerate_sets=True, cost_cap=cap)
            assert run_dp(g, ntd, cost_cap=cap).gamma == listed.gamma, (
                write_case(g),
                root,
            )


# (better, worse) vertex flag bytes of the goodness order, written out
# apart from the engine's tables
_K, _D, _W = 2, 4, 8
_BETTER_WORSE = {
    (_K | _D, _D), (_K | _D, 0), (_K | _D, _D | _W), (_K | _D, _W),
    (_D, 0), (_D, _D | _W), (_D, _W), (0, _W), (_D | _W, _W),
}


def _one_vertex_dominated(layout: BagLayout, words: dict):
    """The words that a word one vertex better among them matches at no
    higher cost.  A vertex that becomes marked also dominates its edges."""
    k = len(layout.vertices)
    for word, entry in words.items():
        for p in range(k):
            byte = word >> 8 * p & 0xFF
            for better, worse in _BETTER_WORSE:
                if byte != worse:
                    continue
                other = word + (better - worse << 8 * p)
                if better & _K:
                    for j, ends in enumerate(layout.edge_endpoints):
                        if p in ends:
                            other |= _D << 8 * (k + j)
                found = words.get(other)
                if found and found[0] <= entry[0]:
                    yield word


def _cut_forget(g: Graph, child: StateTable, vertex: int) -> dict:
    """A capped forget written apart from the engine's pass: forget_reduce,
    then the rows above the cost window go, then every row a
    one-vertex-better row matches; as {word: cost}."""
    table = forget_reduce(g, child, vertex)
    layout, words = table.layout, table.words
    if words:
        limit = min(entry[0] for entry in words.values()) + len(layout.vertices)
        words = {w: entry for w, entry in words.items() if entry[0] <= limit}
    dominated = set(_one_vertex_dominated(layout, words))
    return {w: entry[0] for w, entry in words.items() if w not in dominated}


def test_capped_walk_agrees_with_full_tables_and_six_states_on_partial_ktrees():
    # too big for brute_force: the capped walk, the uncapped walk and the
    # six-state program agree; every capped forget table is its child's
    # forget cut by _cut_forget, unless the walk enumerates, which keeps
    # dominated rows
    rng = random.Random(73)
    cases = [partial_ktree(rng, rng.randint(20, 30), 3, keep=0.6) for _ in range(3)]
    cases += [partial_ktree(rng, rng.randint(20, 24), 4, keep=0.6) for _ in range(2)]
    kept = 0
    for g in cases:
        ntd = make_very_nice(min_fill_decompose(g))
        tau = postorder_traversal(ntd)
        position = {idx: pos for pos, idx in enumerate(tau)}
        cap = greedy_upper_bound(g)
        full = run_dp(g, ntd)
        capped = run_dp(g, ntd, collect_tables=True, cost_cap=cap)
        listed = run_dp(g, ntd, enumerate_sets=True, collect_tables=True, cost_cap=cap)
        assert capped.gamma == full.gamma == run6(g, ntd).gamma, write_case(g)
        assert listed.gamma == full.gamma, write_case(g)
        for idx in tau:
            node = ntd.nodes[idx]
            if node.kind != "forget":
                continue
            child = capped.tables[position[node.children[0]]]
            table = capped.tables[position[idx]]
            assert {w: e[0] for w, e in table.words.items()} == _cut_forget(
                g, child, node.vertex
            ), (write_case(g), idx)
            table = listed.tables[position[idx]]
            kept += len(set(_one_vertex_dominated(table.layout, table.words)))
    assert kept


def test_cost_cap_below_optimum_is_an_error():
    g = Graph(3, [(0, 1), (1, 2)])
    ntd = make_very_nice(min_fill_decompose(g))
    gamma = run_dp(g, ntd).gamma
    with pytest.raises(ValueError):
        run_dp(g, ntd, cost_cap=gamma - 1)


def test_run_dp_rejects_mismatched_decomposition():
    p3 = Graph(3, [(0, 1), (1, 2)])
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    ntd = make_very_nice(min_fill_decompose(p3))
    with pytest.raises(ValueError):
        run_dp(k3, ntd)
    with pytest.raises(ValueError):
        run_dp(Graph(2, [(0, 1)]), ntd)


# -- rendering ------------------------------------------------------------


def test_render_table_lists_rows(g1):
    text = render_table(leaf_table(g1, [1]))
    lines = text.splitlines()
    assert lines[0] == "vertices: 2"
    assert lines[1:] == ["2 |  | 1", "5 |  | 0"]

    text = render_table(enumerate_btable(g1, [1, 2]))
    assert text.splitlines()[0] == "vertices: 2 3; edges: (2,3)"
    assert "3 3 | 1 | 1" in text.splitlines()
