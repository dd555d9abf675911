from __future__ import annotations

import random

import pytest

from conftest import all_graphs, gnp_graph
from mixdom.graph import (
    Graph,
    MixedElement,
    domination_masks,
    is_mixed_dominating_set,
    mixed_closed_neighborhood,
    neighbors,
    parse_gr,
    write_gr,
)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_edge_ids_are_canonical_sorted_order():
    g = Graph(4, [(2, 3), (0, 3), (1, 0)])
    assert g.edges == ((0, 1), (0, 3), (2, 3))
    assert g.edge_id(3, 0) == 1
    assert g.endpoints(2) == (2, 3)


def test_neighbors_on_example_graph(g1):
    # 1-based vertex 1 is 0-based vertex 0
    assert neighbors(g1, 0) == {1, 2, 3}


def test_neighbors_trivial_cases():
    assert neighbors(Graph(1), 0) == set()
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert neighbors(p4, 1) == {0, 2}
    with pytest.raises(ValueError):
        neighbors(p4, 4)


def test_mixed_closed_neighborhood_of_edge(g1):
    # edge 45 (1-based) is (3,4) with id 5; its neighborhood is both
    # endpoints plus edges 14, 34, 45
    e = MixedElement.edge(g1.edge_id(3, 4))
    assert mixed_closed_neighborhood(g1, e) == {
        MixedElement.vertex(3),
        MixedElement.vertex(4),
        MixedElement.edge(g1.edge_id(0, 3)),
        MixedElement.edge(g1.edge_id(2, 3)),
        e,
    }


def test_mixed_closed_neighborhood_trivial_cases():
    lone = Graph(1)
    v = MixedElement.vertex(0)
    assert mixed_closed_neighborhood(lone, v) == {v}
    k2 = Graph(2, [(0, 1)])
    e = MixedElement.edge(0)
    assert mixed_closed_neighborhood(k2, e) == {
        MixedElement.vertex(0),
        MixedElement.vertex(1),
        e,
    }


def test_vertex_neighborhood_has_incident_edges_not_adjacent_ones(g1):
    # a vertex dominates its incident edges only; edge 23 is not incident
    # to vertex 1 even though both endpoints are neighbors of it
    nbhd = mixed_closed_neighborhood(g1, MixedElement.vertex(0))
    assert MixedElement.edge(g1.edge_id(0, 1)) in nbhd
    assert MixedElement.edge(g1.edge_id(1, 2)) not in nbhd


def test_two_vertices_leaving_an_edge_undominated(g1):
    # {v1, v4} (1-based) covers every vertex but leaves edge 23 with no
    # incident or adjacent selected element
    assert not is_mixed_dominating_set(g1, g1.mixed_set(vertices=[0, 3]))


def test_minimum_sets_of_example_graph_dominate(g1):
    # the two optima found by brute force: {v4, e12} and {v4, e23}
    assert is_mixed_dominating_set(g1, g1.mixed_set(vertices=[3], edges=[g1.edge_id(0, 1)]))
    assert is_mixed_dominating_set(g1, g1.mixed_set(vertices=[3], edges=[g1.edge_id(1, 2)]))


def test_empty_set_never_dominates_nonempty_graph():
    assert not is_mixed_dominating_set(Graph(1), 0)
    assert not is_mixed_dominating_set(Graph(3, [(0, 1)]), 0)


def test_single_edge_dominates_k2():
    k2 = Graph(2, [(0, 1)])
    assert is_mixed_dominating_set(k2, [MixedElement.edge(0)])


def test_every_element_in_own_neighborhood_and_symmetry():
    rng = random.Random(11)
    graphs = [gnp_graph(rng, n, p) for n in range(1, 9) for p in (0.2, 0.5, 0.8)]
    for g in graphs:
        elems = list(g.elements())
        nbhd = {r: mixed_closed_neighborhood(g, r) for r in elems}
        for r in elems:
            assert r in nbhd[r]
        for r in elems:
            for s in elems:
                assert (s in nbhd[r]) == (r in nbhd[s])


def test_full_element_set_dominates_everything():
    for g in all_graphs(4):
        full = (1 << g.element_count) - 1
        assert is_mixed_dominating_set(g, full)


def test_domination_is_monotone_under_supersets():
    rng = random.Random(12)
    for _ in range(50):
        g = gnp_graph(rng, rng.randint(1, 6), 0.5)
        total = g.element_count
        s = rng.getrandbits(total)
        if is_mixed_dominating_set(g, s):
            bigger = s | rng.getrandbits(total)
            assert is_mixed_dominating_set(g, bigger)


def test_domination_masks_match_neighborhoods(g1):
    masks = domination_masks(g1)
    for i in range(g1.element_count):
        expected = 0
        for elem in mixed_closed_neighborhood(g1, g1.element_at(i)):
            expected |= 1 << g1.element_index(elem)
        assert masks[i] == expected
    assert domination_masks(g1) is masks


def test_mask_elements_round_trips_every_subset(g1):
    n, m = g1.vertex_count, g1.edge_count
    assert n + m == 11
    for subset in range(1 << (n + m)):
        vertices = [v for v in range(n) if subset >> v & 1]
        edges = [e for e in range(m) if subset >> (n + e) & 1]
        mask = g1.mixed_set(vertices, edges)
        assert mask == subset
        assert g1.mask_elements(mask) == {
            *(MixedElement.vertex(v) for v in vertices),
            *(MixedElement.edge(e) for e in edges),
        }


def test_domination_check_agrees_with_neighborhood_unions_on_every_subset():
    # the 2x3 grid: 6 vertices and 7 edges, so 8192 mixed sets
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    elements = list(g.elements())
    assert len(elements) == 13
    for mask in range(1 << len(elements)):
        members = [x for i, x in enumerate(elements) if mask >> i & 1]
        covered = set().union(*(mixed_closed_neighborhood(g, x) for x in members))
        expected = len(covered) == len(elements)
        assert is_mixed_dominating_set(g, mask) is expected, mask
        assert is_mixed_dominating_set(g, members) is expected, mask
    for outside in (-1, 1 << 13):
        with pytest.raises(ValueError):
            is_mixed_dominating_set(g, outside)


def test_mask_elements_rejects_bits_outside_the_elements(g1):
    with pytest.raises(ValueError):
        g1.mask_elements(1 << g1.element_count)
    with pytest.raises(ValueError):
        g1.mask_elements((1 << g1.element_count) | 1)
    with pytest.raises(ValueError):
        g1.mask_elements(-1)


def test_parse_gr_basic_graphs():
    k2 = parse_gr("p tw 2 1\n1 2\n")
    assert k2 == Graph(2, [(0, 1)])
    isolated = parse_gr("p tw 3 0\n")
    assert isolated.vertex_count == 3
    assert isolated.edge_count == 0


def test_parse_gr_example_file(g1):
    assert g1.vertex_count == 5
    assert g1.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4))


def test_parse_gr_errors():
    for text, message in [
        ("p edge 2 1\n1 2\n", "line 1: malformed header 'p edge 2 1'"),
        ("1 2\n", "line 1: edge before header"),
        ("p tw 2 1\n1 3\n", "line 2: vertex out of range 1..2"),
        ("p tw 2 2\n1 2\n1 2\n", "line 3: duplicate edge (1, 2)"),
        ("c c\np tw 3 3\n\n3 2\n1 2\n2 3\n", "line 6: duplicate edge (2, 3)"),
        ("p tw 3 2\n1 2\nc\n2 2\n", "line 4: self-loop at vertex 2"),
        ("p tw 3 2\n0 1\n", "line 2: vertex out of range 1..3"),
        ("p tw 2 1\n1 2\np tw 2 1\n", "line 3: duplicate header"),
        ("p tw 3 1\n1 2 3\n", "line 2: malformed edge line '1 2 3'"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_gr(text)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="header declares 2 edges, found 1"):
        parse_gr("p tw 2 2\n1 2\n")
    with pytest.raises(ValueError, match="missing header line"):
        parse_gr("c only a comment\n")


def test_gr_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        g = gnp_graph(rng, rng.randint(0, 8), 0.4)
        assert parse_gr(write_gr(g)) == g
