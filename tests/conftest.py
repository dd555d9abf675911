from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from mixdom.graph import Graph, parse_gr
from mixdom.treedec import TreeDecomposition

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture
def g1() -> Graph:
    """The running 5-vertex example graph: edges 12, 13, 14, 23, 34, 45."""
    return parse_gr(fixture_text("g1.gr"))


def gnp_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Erdos-Renyi graph on n vertices with edge probability p."""
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform-ish random tree: each vertex attaches to a random earlier one."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges)


def partial_ktree(rng: random.Random, n: int, width: int, keep: float = 0.8) -> Graph:
    """A k-tree on n vertices grown from a (width + 1)-clique, each edge
    then kept with probability keep."""
    edges = set(combinations(range(width + 1), 2))
    cliques = [tuple(range(width + 1))]
    for v in range(width + 1, n):
        base = rng.choice(cliques)[:width]
        edges.update((u, v) for u in base)
        cliques.append(base + (v,))
    return Graph(n, [e for e in sorted(edges) if rng.random() < keep])


def all_graphs(n: int):
    """Every labeled simple graph on vertex set 0..n-1."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.adjacency(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.vertex_count


def connected_graphs_up_to(n_max: int):
    """All connected labeled graphs with 1 <= n <= n_max vertices."""
    for n in range(1, n_max + 1):
        for g in all_graphs(n):
            if is_connected(g):
                yield g


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


@pytest.fixture
def default_recursion_limit():
    """Run the test at CPython's default recursion limit of 1000."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def reference_min_fill(g: Graph) -> TreeDecomposition:
    """The quadratic min-fill heuristic that recomputes every remaining
    vertex's fill at every step; min_fill_decompose must equal it."""
    if g.vertex_count == 0:
        return TreeDecomposition((frozenset(),), (), 0)
    adjacency: dict[int, set[int]] = {
        v: set(g.adjacency(v)) for v in range(g.vertex_count)
    }
    bags: list[frozenset[int]] = []
    eliminated_at: dict[int, int] = {}
    bag_neighbors: list[set[int]] = []
    while adjacency:
        best = None
        for v in adjacency:
            nbrs = adjacency[v]
            fill = sum(
                1
                for x in nbrs
                for y in nbrs
                if x < y and y not in adjacency[x]
            )
            key = (fill, len(nbrs), v)
            if best is None or key < best:
                best = key
        v = best[2]
        nbrs = adjacency.pop(v)
        eliminated_at[v] = len(bags)
        bags.append(frozenset(nbrs | {v}))
        bag_neighbors.append(set(nbrs))
        for x in nbrs:
            adjacency[x].discard(v)
            for y in nbrs:
                if y != x:
                    adjacency[x].add(y)

    edges: list[tuple[int, int]] = []
    for i, nbrs in enumerate(bag_neighbors):
        if nbrs:
            # attach below the first neighbor eliminated after this bag
            parent = min(eliminated_at[x] for x in nbrs)
            edges.append((i, parent))
        elif i + 1 < len(bags):
            # isolated remainder (last vertex of a component); chain on
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges), len(bags) - 1)
