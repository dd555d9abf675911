"""Tree decompositions: a min-fill heuristic and the normalization into
very nice form (singleton leaves, singleton root, introduce/forget/join
bags) consumed by the dynamic programs.  The .td format and the check of
a given decomposition are in tdfile.py."""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .graph import Graph


class TreeDecomposition(NamedTuple):
    """Bags of vertex ids arranged in a tree over bag indices."""

    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]  # pairs of bag indices
    root: int = 0
    # the vertex count a .td header declares; None when not read from one
    vertex_count: int | None = None

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


class NiceBag(NamedTuple):
    """One bag of a very nice decomposition.

    vertex is the introduced or forgotten vertex for those kinds, else None.
    """

    bag: frozenset[int]
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    vertex: int | None
    children: tuple[int, ...]


class NiceTreeDecomposition:
    """A very nice tree decomposition: binary tree of typed bags.

    Leaf bags are singletons, introduce/forget bags differ from their
    child by exactly one vertex, join bags have two children with bags
    identical to their own, and the root bag is a singleton.
    """

    def __init__(self, nodes: list[NiceBag], root: int):
        self.nodes = tuple(nodes)
        self.root = root

    def __len__(self) -> int:
        return len(self.nodes)

    def width(self) -> int:
        return max(len(n.bag) for n in self.nodes) - 1

    def as_td(self) -> TreeDecomposition:
        edges = tuple(
            (c, i) for i, node in enumerate(self.nodes) for c in node.children
        )
        return TreeDecomposition(tuple(n.bag for n in self.nodes), edges, self.root)


def min_fill_decompose(g: Graph) -> TreeDecomposition:
    """Heuristic decomposition from a min-fill elimination ordering.

    Repeatedly eliminates the vertex whose neighborhood needs the fewest
    fill edges to become a clique (ties: lower degree, then lower id),
    producing one bag per vertex.  Width is heuristic, not optimal.

    The fill of a vertex w is C(deg w, 2) minus the number of edges among
    its neighbors, and that number is kept per vertex and updated by
    deltas: eliminating v with neighborhood N removes, for each x in N,
    the edges from v to N(x) ∩ N; a fill edge x-y adds |N(x) ∩ N(y)| at
    x and at y and one at each common neighbor.  Keys (fill, degree, id),
    the tie-break above, sit in a heap with lazy invalidation, and only N
    and the common neighbors of fill edges are re-keyed, never the whole
    neighborhood of a high-degree vertex.  Eliminating v costs |N|^2
    membership tests, one set intersection (linear in the smaller set)
    per vertex of N and per fill edge, and one heap push per re-keyed
    vertex: O(log n) per step on a tree, a path or a star.
    """
    n = g.vertex_count
    if n == 0:
        return TreeDecomposition((frozenset(),), (), 0)
    adjacency = [set(g.adjacency(v)) for v in range(n)]
    inner = [0] * n  # edges among each vertex's neighbors
    for u, v in g.edges:
        for w in adjacency[u] & adjacency[v]:
            inner[w] += 1

    def key_of(w: int) -> tuple[int, int, int]:
        degree = len(adjacency[w])
        return (degree * (degree - 1) // 2 - inner[w], degree, w)

    # keys[w] is w's live heap entry; None once w is eliminated
    keys: list[tuple[int, int, int] | None] = [key_of(w) for w in range(n)]
    heap = list(keys)
    heapq.heapify(heap)
    bags: list[frozenset[int]] = []
    eliminated_at: list[int] = [0] * n
    bag_neighbors: list[set[int]] = []
    while heap:
        key = heapq.heappop(heap)
        v = key[2]
        if keys[v] != key:
            continue  # stale entry, or v is already eliminated
        keys[v] = None
        nbrs = adjacency[v]
        eliminated_at[v] = len(bags)
        bags.append(frozenset(nbrs | {v}))
        bag_neighbors.append(nbrs)
        touched = set(nbrs)
        for x in nbrs:
            adjacency[x].discard(v)
            inner[x] -= len(adjacency[x] & nbrs)
        for x in nbrs:
            ax = adjacency[x]
            for y in nbrs:
                if x < y and y not in ax:
                    ay = adjacency[y]
                    common = ax & ay
                    inner[x] += len(common)
                    inner[y] += len(common)
                    for w in common:
                        inner[w] += 1
                    touched |= common
                    ax.add(y)
                    ay.add(x)
        for w in touched:
            key = key_of(w)
            if key != keys[w]:
                keys[w] = key
                heapq.heappush(heap, key)

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


def make_very_nice(
    td: TreeDecomposition, root: int | None = None
) -> NiceTreeDecomposition:
    """Normalize a valid decomposition into very nice form.

    The tree is rooted at the given bag (default: the decomposition's
    root), every leaf becomes a singleton bag followed by an ascending
    introduce chain, adjacent bags are bridged by forget-then-introduce
    chains, and a final forget chain leaves a singleton root (the lowest
    remaining vertex id).  A bag B with one child is that child bridged
    to B.

    A bag B with children C1, C2, ... (their top bags, in ascending bag
    index) is folded into binary joins at their meet: the first join bag
    is (B ∩ C1) ∪ (B ∩ C2), each later join adds B ∩ Ci, both sides of
    every join are bridged to its bag, and after the last join one
    bridge introduces the rest of B.  A meet with no vertex joins at B.
    The result is a very nice decomposition of the same graph:

    - by running intersection, a vertex of B held in child i's subtree
      is in Ci, so the bridges forget only vertices of Ci outside B, and
      a vertex they introduce is in no bag below them;
    - a vertex introduced after the last join is in no joined subtree,
      so it still leaves the decomposition exactly once;
    - every new bag is a subset of B or of a child's bag;
    - an edge inside B is still inside a bag that introduces one endpoint
      over a child holding the other, where walk.py's check reads it.

    Width is preserved exactly, and the joins are no larger than B.
    """
    if not td.bags or all(not b for b in td.bags):
        raise ValueError("cannot normalize a decomposition with no vertices")
    top = td.root if root is None else root
    if not (0 <= top < len(td.bags)):
        raise ValueError(f"root {top} references a missing bag")

    adjacency: list[list[int]] = [[] for _ in td.bags]
    for a, b in td.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)

    nodes: list[NiceBag] = []

    def emit(bag: frozenset[int], kind: str, vertex: int | None, children: tuple[int, ...]) -> int:
        nodes.append(NiceBag(bag, kind, vertex, children))
        return len(nodes) - 1

    def bridge(idx: int, target: frozenset[int]) -> int:
        """Forget-then-introduce chain from nodes[idx] to content target."""
        have = set(nodes[idx].bag)
        for v in sorted(have - target):
            have.remove(v)
            idx = emit(frozenset(have), "forget", v, (idx,))
        for v in sorted(target - have):
            have.add(v)
            idx = emit(frozenset(have), "introduce", v, (idx,))
        return idx

    def close(bag_idx: int, child_tops: list[int]) -> int | None:
        """Emit bag_idx on top of its built child subtrees; returns the index
        of its top node (content equal to the input bag), or None for
        vertex-less subtrees."""
        bag = td.bags[bag_idx]
        if not child_tops:
            if not bag:
                return None
            return bridge(emit(frozenset({min(bag)}), "leaf", None, ()), bag)
        idx = child_tops[0]
        meet = bag & nodes[idx].bag
        for other in child_tops[1:]:
            meet = meet | (bag & nodes[other].bag) or bag
            idx = emit(meet, "join", None, (bridge(idx, meet), bridge(other, meet)))
        return bridge(idx, bag)

    # Depth-first over the bag tree with an explicit stack, so a long path
    # of bags needs no recursion.  Children are visited in ascending bag
    # index and a bag is closed after all of them, which fixes the order
    # the nodes are emitted in.  A frame is (bag, parent, unvisited
    # neighbors, tops of the built child subtrees).
    stack = [(top, None, iter(sorted(adjacency[top])), [])]
    visited = {top}
    top_idx = None
    while stack:
        bag_idx, parent_idx, pending, child_tops = stack[-1]
        nb = next(pending, None)
        if nb is not None:
            if nb != parent_idx:
                if nb in visited:
                    raise ValueError("the bags do not form a tree")
                visited.add(nb)
                stack.append((nb, bag_idx, iter(sorted(adjacency[nb])), []))
            continue
        stack.pop()
        sub = close(bag_idx, child_tops)
        if not stack:
            top_idx = sub
        elif sub is not None:
            stack[-1][3].append(sub)
    assert top_idx is not None
    remaining = set(nodes[top_idx].bag)
    keep = min(remaining) if remaining else None
    for v in sorted(remaining - ({keep} if keep is not None else set()), reverse=True):
        remaining.remove(v)
        top_idx = emit(frozenset(remaining), "forget", v, (top_idx,))
    return NiceTreeDecomposition(nodes, top_idx)


def postorder_traversal(ntd: NiceTreeDecomposition) -> list[int]:
    """Bag indices with every bag after all of its descendants; root last."""
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(ntd.root, False)]
    while stack:
        idx, expanded = stack.pop()
        if expanded:
            order.append(idx)
        else:
            stack.append((idx, True))
            for c in reversed(ntd.nodes[idx].children):
                stack.append((c, False))
    return order


# Names of the .td format and the decomposition check, which moved to
# tdfile.py; reading one here loads that module.
_MOVED = {"from_bags", "parse_td", "validate_td", "write_td"}


def __getattr__(name: str):
    if name in _MOVED:
        from . import tdfile

        return getattr(tdfile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
