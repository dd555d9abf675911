from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import (
    connected_graphs_up_to,
    fixture_text,
    gnp_graph,
    partial_ktree,
    random_tree,
)
from mixdom.dp import run_dp
from mixdom.graph import Graph
from mixdom.mds6 import (
    DOMINATED,
    MARKED,
    MEMBER,
    WAITING,
    SixTable,
    _decode,
    _encode,
    _supremum,
    _table,
    _undominated,
    forget6,
    introduce6,
    join6,
    leaf6,
    moebius6,
    run6,
    transform_join6,
    zeta6,
)
from mixdom.oracle import brute_force, greedy_upper_bound
from mixdom.reference import direct_introduce6, direct_join6
from mixdom.treedec import (
    make_very_nice,
    min_fill_decompose,
    parse_td,
    postorder_traversal,
)


@pytest.fixture
def fig_ntd():
    return make_very_nice(parse_td(fixture_text("fig1b.td")), root=11)


def test_leaf6_rows(g1):
    t = leaf6(g1, [1])
    assert t.vertices == (1,)
    assert t.rows == {(1,): {1: 1}, (5,): {0: 1}}
    with pytest.raises(ValueError):
        leaf6(g1, [1, 2])


def test_introduce6_on_a_single_edge():
    # all membership and ownership branches for one edge, checked by hand
    k2 = Graph(2, [(0, 1)])
    t = introduce6(k2, leaf6(k2, [0]), 1)
    assert t.vertices == (0, 1)
    assert t.rows == {
        (1, 4): {1: 1},          # 0 selected, edge unselected
        (1, 3): {2: 1},          # 0 and the edge selected
        (1, 1): {2: 1, 3: 1},    # both selected, with or without the edge
        (7, 5): {0: 1},          # nothing selected, 0 owns the edge
        (5, 7): {0: 1},          # nothing selected, 1 owns the edge
        (3, 3): {1: 1},          # only the edge selected
        (4, 1): {1: 1},          # 1 selected
        (3, 1): {2: 1},          # 1 and the edge selected
    }


def test_forget6_keeps_only_settled_states():
    t = SixTable(
        (0, 1),
        {
            (1, 4): {1: 1},
            (3, 4): {2: 1},
            (4, 4): {2: 2},
            (5, 4): {0: 1},
            (6, 4): {1: 1},
            (7, 4): {0: 3},
        },
    )
    reduced = forget6(t, 0)
    assert reduced.vertices == (1,)
    assert reduced.rows == {(4,): {1: 1, 2: 3}}
    with pytest.raises(ValueError):
        forget6(t, 3)


def test_zeta6_single_slot_example():
    # coordinate x sums the states below x: 5 is the bottom, 7 lies below
    # 6 and 3, and 4 gets only the bottom's ledger
    rows = {(5,): {0: 1}, (7,): {1: 2}}
    assert zeta6(rows) == {
        (5,): {0: 1},
        (4,): {0: 1},
        (7,): {0: 1, 1: 2},
        (6,): {0: 1, 1: 2},
        (3,): {0: 1, 1: 2},
    }


def test_zeta6_fixes_the_maximal_states():
    # 1 and 3 have no state above them, so rows in them are their own image
    rows = {(1, 3): {2: 1}, (3, 1): {0: 5}}
    assert zeta6(rows) == rows
    assert moebius6(rows) == rows


def test_zeta6_moebius6_round_trip_on_random_ledgers():
    rng = random.Random(11)
    for _ in range(100):
        slots = rng.randint(1, 3)
        rows = {}
        for _ in range(rng.randint(1, 12)):
            key = tuple(rng.choice([1, 3, 4, 5, 6, 7]) for _ in range(slots))
            rows.setdefault(key, {})[rng.randint(0, 5)] = rng.randint(1, 9)
        assert moebius6(zeta6(rows)) == rows


def test_moebius6_leaves_negative_counts_on_non_images():
    # coordinate 7 below coordinate 5 is no zeta image; the inversion is
    # still exact and join6 is the one to reject negative pair counts
    rows = {(5,): {0: 2}, (7,): {0: 1}}
    inverted = moebius6(rows)
    assert inverted == {(5,): {0: 2}, (4,): {0: -2}, (7,): {0: -1}, (6,): {0: 1}}
    assert moebius6(zeta6(inverted)) == inverted


def test_join6_matches_direct_join_on_the_figure(g1, fig_ntd):
    res = run6(g1, fig_ntd, collect_tables=True)
    left, right = res.tables[5], res.tables[9]
    stats: dict = {}
    fast = join6(left, right, stats=stats)
    slow = direct_join6(left, right)
    assert fast.vertices == slow.vertices
    assert fast.rows == slow.rows
    assert stats["transform_tuples"] <= 6 ** len(left.vertices)


def test_join6_matches_direct_join_on_random_tables():
    rng = random.Random(23)
    for _ in range(50):
        slots = rng.randint(1, 3)
        vertices = tuple(range(slots))

        def random_table():
            rows = {}
            for _ in range(rng.randint(1, 15)):
                key = tuple(rng.choice([1, 3, 4, 5, 6, 7]) for _ in range(slots))
                rows.setdefault(key, {})[rng.randint(0, 4)] = rng.randint(1, 3)
            return SixTable(vertices, rows)

        a, b = random_table(), random_table()
        assert join6(a, b).rows == direct_join6(a, b).rows
        assert transform_join6(a, b).rows == direct_join6(a, b).rows


def test_join_requires_matching_bags():
    a = SixTable((0,), {(5,): {0: 1}})
    b = SixTable((1,), {(5,): {0: 1}})
    with pytest.raises(ValueError):
        join6(a, b)
    with pytest.raises(ValueError):
        direct_join6(a, b)


def test_run6_on_figure_graph(g1, fig_ntd):
    assert run6(g1, fig_ntd).gamma == 2


def test_run6_matches_oracle_on_tiny_graphs():
    for g in connected_graphs_up_to(4):
        ntd = make_very_nice(min_fill_decompose(g))
        assert run6(g, ntd).gamma == brute_force(g).gamma, g.edges


def test_run6_matches_nine_state_program_on_random_graphs():
    rng = random.Random(31)
    cases = [
        Graph(4, [(0, 1), (2, 3)]),
        Graph(3, [(0, 1)]),
        Graph(5, []),
        random_tree(rng, 12),
    ]
    cases += [gnp_graph(rng, rng.randint(5, 8), rng.choice([0.3, 0.6])) for _ in range(12)]
    for g in cases:
        ntd = make_very_nice(min_fill_decompose(g))
        assert run6(g, ntd).gamma == run_dp(g, ntd).gamma, g.edges


def test_run6_rejects_mismatched_decomposition():
    p3 = Graph(3, [(0, 1), (1, 2)])
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    ntd = make_very_nice(min_fill_decompose(p3))
    with pytest.raises(ValueError):
        run6(k3, ntd)
    with pytest.raises(ValueError):
        run6(Graph(2, [(0, 1)]), ntd)


def test_cost_cap_preserves_gamma():
    rng = random.Random(37)
    draws = (gnp_graph(rng, rng.randint(4, 7), rng.choice([0.3, 0.6])) for _ in range(20))
    for g in [g for g in draws if g.element_count <= 16][:10]:
        ntd = make_very_nice(min_fill_decompose(g))
        free = run6(g, ntd).gamma
        assert run6(g, ntd, cost_cap=greedy_upper_bound(g)).gamma == free
        assert run6(g, ntd, cost_cap=free).gamma == free
    dense = gnp_graph(rng, 8, 0.95)
    ntd = make_very_nice(min_fill_decompose(dense))
    capped = run6(dense, ntd, cost_cap=greedy_upper_bound(dense))
    assert capped.gamma == brute_force(dense).gamma
    g = Graph(3, [(0, 1), (1, 2)])
    ntd = make_very_nice(min_fill_decompose(g))
    with pytest.raises(ValueError):
        run6(g, ntd, cost_cap=0)


def test_capped_joins_agree_and_keep_entries_within_the_cap():
    rng = random.Random(41)
    for _ in range(30):
        slots = rng.randint(1, 3)
        vertices = tuple(range(slots))

        def random_table():
            rows = {}
            for _ in range(rng.randint(1, 15)):
                key = tuple(rng.choice([1, 3, 4, 5, 6, 7]) for _ in range(slots))
                rows.setdefault(key, {})[rng.randint(0, 4)] = rng.randint(1, 3)
            return SixTable(vertices, rows)

        a, b = random_table(), random_table()
        cap = rng.randint(2, 6)
        fast = join6(a, b, cost_cap=cap)
        assert fast.rows == direct_join6(a, b, cost_cap=cap).rows
        assert transform_join6(a, b, cost_cap=cap).rows == fast.rows
        full = direct_join6(a, b)
        expected = {
            key: {c: n for c, n in led.items() if c <= cap}
            for key, led in full.rows.items()
        }
        assert fast.rows == {k: led for k, led in expected.items() if led}


def _scaled(rows, factor, offset):
    return {
        key: {cost + offset: count * factor for cost, count in ledger.items()}
        for key, ledger in rows.items()
    }


def test_packed_operations_scale_with_counts_and_costs(g1, fig_ntd):
    # the join's transform packs ledgers relative to each table's cheapest
    # cost, in fields sized by its count totals, and the introduce adds
    # entries one by one, so huge counts and far-off costs change nothing
    # else
    res = run6(g1, fig_ntd, collect_tables=True)
    tau = postorder_traversal(fig_ntd)
    position = {idx: pos for pos, idx in enumerate(tau)}
    big = 2 ** 200
    introduces = joins = 0
    for cap in (None, 2, 4):
        for idx in tau:
            node = fig_ntd.nodes[idx]
            kids = [res.tables[position[c]] for c in node.children]
            if node.kind == "introduce":
                (child,) = kids
                plain = introduce6(g1, child, node.vertex, cost_cap=cap)
                scaled = SixTable(child.vertices, _scaled(child.rows, big, 1000))
                huge = introduce6(
                    g1, scaled, node.vertex, None if cap is None else cap + 1000
                )
                assert huge.rows == _scaled(plain.rows, big, 1000)
                introduces += 1
            elif node.kind == "join":
                a, b = kids
                plain = join6(a, b, cost_cap=cap)
                huge = join6(
                    SixTable(a.vertices, _scaled(a.rows, big, 1000)),
                    SixTable(b.vertices, _scaled(b.rows, big, 1000)),
                    cost_cap=None if cap is None else cap + 2000,
                )
                assert huge.rows == _scaled(plain.rows, big * big, 2000)
                joins += 1
    assert introduces and joins


def _random_rows(rng, slots, count, costs=(0, 4), low=1):
    rows = {}
    for _ in range(rng.randint(1, 12)):
        key = tuple(rng.choice([1, 3, 4, 5, 6, 7]) for _ in range(slots))
        rows.setdefault(key, {})[rng.randint(*costs)] = rng.randint(low, count)
    return rows


def test_join6_matches_direct_join_on_huge_counts():
    rng = random.Random(43)
    for trial in range(60):
        slots = rng.randint(1, 3)
        vertices = tuple(range(slots))
        # a single cost per table puts the whole count total into one
        # product field, the largest a field can get
        costs = (2, 2) if trial % 3 == 0 else (0, 4)
        a = SixTable(vertices, _random_rows(rng, slots, 2 ** 150, costs))
        b = SixTable(vertices, _random_rows(rng, slots, 2 ** 150, costs))
        assert join6(a, b).rows == direct_join6(a, b).rows
        assert transform_join6(a, b).rows == direct_join6(a, b).rows
        cap = rng.randint(2, 8)
        assert join6(a, b, cost_cap=cap).rows == direct_join6(a, b, cost_cap=cap).rows
        assert transform_join6(a, b, cost_cap=cap).rows == direct_join6(a, b, cost_cap=cap).rows
    top = 2 ** 150 - 1
    one = SixTable((0,), {(5,): {3: top}})
    assert join6(one, one).rows == {(5,): {6: top * top}}


def _capped(vertices, rows):
    """A capped table built directly from one (cost, count) per row."""
    k = len(vertices)
    words = {_encode(key, k): [cost, count] for key, (cost, count) in rows.items()}
    return _table(vertices, words, True)


def test_join6_pairs_up_to_six_to_the_k_pairs_and_transforms_past_it():
    # two slots, so join6 pairs capped tables up to 6^2 = 36 pairs: one row
    # a side makes 1, six non-member rows a side make exactly 36, and one
    # member row more a side makes 37; a full table on either side always
    # takes the transform, however few pairs its rows form
    outside = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3), (5, 5)]
    rows = {key: (i % 3, i + 1) for i, key in enumerate(outside)}
    scaled = {key: (cost + 1, count << 40) for key, (cost, count) in rows.items()}
    one = (_capped((0, 1), {(5, 5): (0, 1)}), _capped((0, 1), {(5, 7): (1, 3)}))
    below = (_capped((0, 1), rows), _capped((0, 1), scaled))
    above = (
        _capped((0, 1), {**rows, (1, 5): (2, 1)}),
        _capped((0, 1), {**scaled, (1, 7): (1, 2)}),
    )
    for cap in (None, 3):
        for (a, b), pairs in [(one, 1), (below, 36), (above, 0)]:
            full_a, full_b = (SixTable(t.vertices, t.rows) for t in (a, b))
            for x, y, formed in [
                (a, b, pairs), (full_a, full_b, 0), (a, full_b, 0), (full_a, b, 0)
            ]:
                stats: dict = {}
                joined = join6(x, y, stats=stats, cost_cap=cap)
                assert joined.rows == direct_join6(x, y, cost_cap=cap).rows
                assert joined.rows == transform_join6(x, y, cost_cap=cap).rows
                assert stats["pairs"] == formed
                assert (stats["transform_tuples"] == 0) == (formed > 0)
                assert stats["transform_tuples"] <= 6 ** 2


def _direct_zeta(rows):
    out = {}
    for key, ledger in rows.items():
        ups = [[x for x in (1, 3, 4, 5, 6, 7) if _supremum(s, x) == x] for s in key]
        for target in product(*ups):
            tgt = out.setdefault(target, {})
            for cost, count in ledger.items():
                tgt[cost] = tgt.get(cost, 0) + count
    return {
        key: {c: n for c, n in ledger.items() if n}
        for key, ledger in out.items()
        if any(ledger.values())
    }


def test_zeta6_and_moebius6_stay_exact_on_huge_and_negative_counts():
    rng = random.Random(47)
    for _ in range(100):
        slots = rng.randint(1, 3)
        rows = _random_rows(rng, slots, 2 ** 150, (0, 3), low=-(2 ** 150))
        assert zeta6(rows) == _direct_zeta(rows)
        assert moebius6(zeta6(rows)) == rows
    top = 2 ** 150 - 1
    assert zeta6({(7,): {0: top}}) == {(7,): {0: top}, (6,): {0: top}, (3,): {0: top}}
    assert moebius6({(5,): {0: -top}}) == {
        (5,): {0: -top}, (4,): {0: top}, (7,): {0: top}, (6,): {0: -top}
    }


def _pruned(rows, window=False):
    """_undominated on a table built by hand from rows."""
    k = len(next(iter(rows), ()))
    return _undominated(SixTable(tuple(range(k)), rows), window).rows


def test_undominated_drops_rows_a_better_row_matches_at_no_higher_cost():
    assert _pruned({(3,): {1: 1}, (4,): {1: 2}}) == {(3,): {1: 1}}
    assert _pruned({(4,): {0: 1}, (5,): {0: 3, 1: 1}}) == {(4,): {0: 1}}
    # a dearer better row replaces nothing
    assert _pruned({(3,): {2: 1}, (4,): {1: 1}}) == {(3,): {2: 1}, (4,): {1: 1}}
    # a cheaper 6 does not replace a 4, though 4 lies below 6 in the
    # lattice of _supremum: the 6 owns an undominated edge
    assert _pruned({(6,): {1: 1}, (4,): {2: 1}}) == {(6,): {1: 1}, (4,): {2: 1}}
    # 5 and 6 are incomparable, and each is better than 7
    assert _pruned({(5,): {0: 1}, (6,): {0: 1}, (7,): {0: 1}}) == {
        (5,): {0: 1},
        (6,): {0: 1},
    }
    # a member slot is never replaced, not even by a cheaper 3; the other
    # slots still compare
    assert _pruned({(1,): {2: 1}, (3,): {0: 1}}) == {(1,): {2: 1}, (3,): {0: 1}}
    assert _pruned({(1, 5): {1: 1}, (1, 4): {1: 1}, (3, 4): {0: 1}}) == {
        (1, 4): {1: 1},
        (3, 4): {0: 1},
    }
    # a ledger keeps its cheapest cost only; the window cuts rows costing
    # more than the table's minimum plus the number of slots
    assert _pruned({(3,): {1: 2, 2: 5}}) == {(3,): {1: 2}}
    rows = {(1, 1): {3: 1}, (5, 5): {0: 1}}
    assert _pruned(rows) == rows
    assert _pruned(rows, window=True) == {(5, 5): {0: 1}}
    assert _pruned({}, window=True) == {}


def test_dominated_rows_go_by_goodness_not_by_the_merge_lattice():
    # under _supremum's order a 4 would give way to a cheaper 6 and a 5 to
    # a cheaper 7, whose owned edge can still fail a forget; every root of
    # the decomposition meets other rows at each bag
    rng = random.Random(53)
    runs = 0
    for _ in range(60):
        g = gnp_graph(rng, rng.randint(4, 7), rng.choice((0.3, 0.5, 0.7)))
        gamma = brute_force(g).gamma
        td = min_fill_decompose(g)
        for root in range(len(td.bags)):
            ntd = make_very_nice(td, root=root)
            for cap in (greedy_upper_bound(g), gamma):
                assert run6(g, ntd, cost_cap=cap).gamma == gamma, (g.edges, root)
                runs += 1
    assert runs > 400


# (better, worse) state pairs of the goodness order, written out apart
# from the engine's table
_BETTER_WORSE = {
    (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7)
}


def _one_slot_dominated(rows):
    for key, ledger in rows.items():
        for i, state in enumerate(key):
            for better, worse in _BETTER_WORSE:
                if worse == state:
                    other = rows.get(key[:i] + (better,) + key[i + 1:])
                    if other and min(other) <= min(ledger):
                        yield key


def _full_tables(g, ntd):
    """Every bag's table from the bare operations, in postorder."""
    tables = {}
    for idx in postorder_traversal(ntd):
        node = ntd.nodes[idx]
        kids = [tables[c] for c in node.children]
        if node.kind == "leaf":
            tables[idx] = leaf6(g, node.bag)
        elif node.kind == "introduce":
            tables[idx] = introduce6(g, kids[0], node.vertex)
        elif node.kind == "forget":
            tables[idx] = forget6(kids[0], node.vertex)
        else:
            tables[idx] = join6(*kids)
    return [tables[idx] for idx in postorder_traversal(ntd)]


def test_capped_run6_agrees_with_full_tables_and_nine_states_on_partial_ktrees():
    # too big for brute_force: the capped walk, the full walk and the
    # nine-state program must agree, no capped table may hold a row that a
    # one-slot-better row matches at no higher cost, and without a cap
    # every table is the full one
    rng = random.Random(59)
    cases = [partial_ktree(rng, 30, 3, keep=0.6) for _ in range(3)]
    cases += [partial_ktree(rng, 26, 4, keep=0.6) for _ in range(2)]
    dropped = 0
    for g in cases:
        ntd = make_very_nice(min_fill_decompose(g))
        cap = greedy_upper_bound(g)
        capped = run6(g, ntd, collect_tables=True, cost_cap=cap)
        full = run6(g, ntd, collect_tables=True)
        assert capped.gamma == full.gamma == run_dp(g, ntd, cost_cap=cap).gamma
        assert [t.rows for t in full.tables] == [t.rows for t in _full_tables(g, ntd)]
        for table in capped.tables:
            assert not list(_one_slot_dominated(table.rows))
        for table in full.tables:
            dropped += len(set(_one_slot_dominated(table.rows)))
    assert dropped


def _cut_to_window_and_undominated(table, cap):
    """A table cut as the capped walk cuts it, written apart from the
    engine: costs above cap go, then rows above the cost window (the
    cheapest cost plus the bag size), then every ledger entry above its
    row's cheapest, then every row a one-slot-better row matches."""
    rows = {}
    for key, ledger in table.rows.items():
        kept = {cost: count for cost, count in ledger.items() if cost <= cap}
        if kept:
            rows[key] = kept
    if rows:
        limit = min(min(ledger) for ledger in rows.values()) + len(table.vertices)
        rows = {key: ledger for key, ledger in rows.items() if min(ledger) <= limit}
    rows = {key: {min(ledger): ledger[min(ledger)]} for key, ledger in rows.items()}
    dominated = set(_one_slot_dominated(rows))
    return {key: ledger for key, ledger in rows.items() if key not in dominated}


def _check_capped_walk(g, ntd, cap):
    """Every table of the capped walk is the uncapped operation on its
    capped children, cut by _cut_to_window_and_undominated; returns the
    number of bags checked.  Joins are checked against direct_join6, so
    the engine's capped pair join meets the pair-by-pair specification."""
    res = run6(g, ntd, collect_tables=True, cost_cap=cap)
    tau = postorder_traversal(ntd)
    position = {idx: pos for pos, idx in enumerate(tau)}
    for idx in tau:
        node = ntd.nodes[idx]
        # the children as full tables built by hand, so the operation
        # below runs uncapped on exactly their rows
        kids = [res.tables[position[c]] for c in node.children]
        kids = [SixTable(t.vertices, dict(t.rows.items())) for t in kids]
        if node.kind == "leaf":
            full = leaf6(g, node.bag)
        elif node.kind == "introduce":
            full = introduce6(g, kids[0], node.vertex)
        elif node.kind == "forget":
            full = forget6(kids[0], node.vertex)
        else:
            full = direct_join6(*kids)
        table = res.tables[position[idx]]
        assert table.vertices == full.vertices
        assert table.rows == _cut_to_window_and_undominated(full, cap), (g.edges, idx)
    return len(tau)


def test_capped_tables_are_the_cut_uncapped_operations_on_the_c06_suite():
    from test_acceptance import equivalence_suite

    bags = 0
    for g in equivalence_suite():
        ntd = make_very_nice(min_fill_decompose(g))
        bags += _check_capped_walk(g, ntd, greedy_upper_bound(g))
    assert bags > 10000


def test_capped_tables_are_the_cut_uncapped_operations_on_partial_ktrees():
    # the graphs of the partial k-tree agreement test above, at the
    # min-fill root, plus one of them rooted at a random bag
    rng = random.Random(59)
    cases = [partial_ktree(rng, 30, 3, keep=0.6) for _ in range(3)]
    cases += [partial_ktree(rng, 26, 4, keep=0.6) for _ in range(2)]
    for g in cases:
        ntd = make_very_nice(min_fill_decompose(g))
        _check_capped_walk(g, ntd, greedy_upper_bound(g))
    g = cases[3]
    td = min_fill_decompose(g)
    root = random.Random(61).randrange(len(td.bags))
    assert root != td.root
    _check_capped_walk(g, make_very_nice(td, root=root), greedy_upper_bound(g))


def test_introduce6_is_the_introduce_written_from_the_states():
    # every row of child bags of 0 to 3 vertices, the new vertex at every
    # slot and adjacent to every subset of the bag: the full table,
    # counts included, is direct_introduce6's, and the capped one is the
    # cut of the full introduce of the capped child
    rng = random.Random(67)
    for k in range(4):
        keys = list(product((1, 3, 4, 5, 6, 7), repeat=k))
        ledgers = {}
        for key in keys:
            low = rng.randrange(3)
            ledgers[key] = {low: rng.randint(1, 4), low + rng.randint(1, 2): rng.randint(1, 4)}
        cheapest = {key: (min(led), led[min(led)]) for key, led in ledgers.items()}
        for pos in range(k + 1):
            bag = tuple(i for i in range(k + 1) if i != pos)
            full = SixTable(bag, ledgers)
            capped = _capped(bag, cheapest)
            for chosen in product((False, True), repeat=k):
                edges = [tuple(sorted((pos, u))) for u, c in zip(bag, chosen) if c]
                g = Graph(k + 1, edges)
                expected = direct_introduce6(g, full, pos)
                assert introduce6(g, full, pos).rows == expected.rows, (bag, edges)
                uncut = direct_introduce6(g, SixTable(bag, capped.rows), pos)
                for cap in (1, 3, 9):
                    cut = _cut_to_window_and_undominated(uncut, cap)
                    assert introduce6(g, capped, pos, cap).rows == cut, (bag, edges, cap)


def test_six_table_requires_strictly_ascending_vertices():
    # a row's slots follow the ascending bag vertices, so a table given
    # (1, 0) would hand its first slot to vertex 0 at the next introduce
    for bad in [(1, 0), (1, 1), (0, 2, 1)]:
        with pytest.raises(ValueError):
            SixTable(bad, {(1,) + (5,) * (len(bad) - 1): {1: 1}})
    g = Graph(3, [])
    t = introduce6(g, SixTable((0, 1), {(5, 1): {1: 1}}), 2)
    assert t.vertices == (0, 1, 2)
    assert t.rows == {(5, 1, 1): {2: 1}, (5, 1, 5): {1: 1}}


def test_flag_words_and_state_tuples_round_trip():
    # each state is one vertex byte of dp.py's flags, and a hand-built
    # table reads back exactly the rows it was given
    flags = {1: MEMBER | DOMINATED, 3: MARKED | DOMINATED, 4: DOMINATED,
             5: 0, 6: DOMINATED | WAITING, 7: WAITING}
    for state, byte in flags.items():
        assert _encode((state,), 1) == byte
        assert _decode(byte, 1) == (state,)
    states = sorted(flags)
    rows = {key: {sum(key): 1} for key in product(states, repeat=3)}
    table = SixTable((2, 5, 9), rows)
    assert len(table.words) == 6 ** 3
    assert table.rows == rows
    assert dict(table.rows.items()) == rows
    for key in rows:
        word = _encode(key, 3)
        assert _decode(word, 3) == key
        assert [word >> 8 * i & 0xFF for i in range(3)] == [flags[s] for s in key]
        assert table.rows[key] == rows[key]
    # a state 5 is a zero byte, so a short key must not find a longer row
    assert (1, 5) not in table.rows and (1, 5, 5, 5) not in table.rows
    for bad in [(2, 4, 4), (0, 5, 5), (1, 3)]:
        assert bad not in table.rows
        with pytest.raises(ValueError):
            SixTable((2, 5, 9), {bad: {0: 1}})
