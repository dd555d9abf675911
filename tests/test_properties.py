"""Both programs against the oracle on decompositions that are not the
plain min-fill one: a single bag holding every vertex, min-fill rooted at
any of its bags, min-fill with one bag duplicated, min-fill with a tree
edge split by the intersection of its two bags, and min-fill with a
proper subset of one bag hung off that bag.  Also min-fill against the
quadratic reference heuristic on the same graphs."""

from __future__ import annotations

from itertools import combinations

import pytest

from conftest import reference_min_fill
from mixdom.dp import run_dp
from mixdom.graph import Graph
from mixdom.mds6 import run6
from mixdom.oracle import brute_force, greedy_upper_bound
from mixdom.treedec import from_bags, make_very_nice, min_fill_decompose, validate_td

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(graphs(), st.data())
def test_programs_match_the_oracle_on_other_decompositions(g, data):
    n = g.vertex_count
    td = min_fill_decompose(g)
    last = len(td.bags) - 1
    root = data.draw(st.integers(0, last), label="root")
    copied = data.draw(st.integers(0, last), label="duplicated bag")
    duplicated = from_bags(
        td.bags + (td.bags[copied],), td.edges + ((copied, last + 1),), td.root
    )
    # the bag B ∩ P between a bag B and its tree neighbour P
    split = td
    if td.edges:
        cut = data.draw(st.integers(0, len(td.edges) - 1), label="split edge")
        b, p = td.edges[cut]
        edges = td.edges[:cut] + td.edges[cut + 1:] + ((b, last + 1), (last + 1, p))
        split = from_bags(td.bags + (td.bags[b] & td.bags[p],), edges, td.root)
    host = data.draw(st.integers(0, last), label="host bag")
    bag = td.bags[host]
    subset = data.draw(
        st.sets(st.sampled_from(sorted(bag)), max_size=len(bag) - 1),
        label="redundant bag",
    )
    redundant = from_bags(
        td.bags + (subset,), td.edges + ((host, last + 1),), td.root
    )
    # the one-bag decomposition introduces each vertex with an edge to
    # every earlier neighbor, the widest introduce there is
    decompositions = {
        "one bag": from_bags([range(n)], []),
        f"min-fill rooted at bag {root}": from_bags(td.bags, td.edges, root),
        f"min-fill with bag {copied} duplicated": duplicated,
        "min-fill with a tree edge split": split,
        f"min-fill with a subset of bag {host} hung off it": redundant,
    }
    expected = brute_force(g, enumerate_all=True)
    cap = greedy_upper_bound(g)
    for name, dec in decompositions.items():
        assert validate_td(g, dec) == [], name
        ntd = make_very_nice(dec)
        nine = run_dp(g, ntd, enumerate_sets=True, cost_cap=cap)
        assert nine.gamma == expected.gamma, name
        assert nine.min_sets == expected.min_sets, name
        assert run6(g, ntd, cost_cap=cap).gamma == expected.gamma, name


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(graphs())
def test_min_fill_equals_the_quadratic_reference(g):
    assert min_fill_decompose(g) == reference_min_fill(g)
