"""Tree decompositions: validation, a min-fill heuristic, and the
normalization into very nice form (singleton leaves, singleton root,
introduce/forget/join bags) consumed by the dynamic programs."""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

from .graph import Graph, content_lines, line_ints


class TreeDecomposition(NamedTuple):
    """Bags of vertex ids arranged in a tree over bag indices."""

    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]  # pairs of bag indices
    root: int = 0

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


def validate_td(g: Graph, td: TreeDecomposition) -> list[str]:
    """All violations of the decomposition properties; empty list means ok.

    Checks that the bag graph is a tree, every vertex and edge of g is
    covered by a bag, and each vertex's bags form a connected subtree.
    Messages name bags and vertices 1-based, as the .gr and .td files
    number them.
    """
    violations: list[str] = []
    n_bags = len(td.bags)
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.vertex_count):
                raise ValueError(f"bag {i + 1} contains out-of-range vertex {v + 1}")
    for a, b in td.edges:
        if not (0 <= a < n_bags and 0 <= b < n_bags):
            raise ValueError(f"tree edge ({a + 1}, {b + 1}) references a missing bag")
    if not (0 <= td.root < n_bags):
        raise ValueError(f"root {td.root + 1} references a missing bag")

    # tree structure: connected with exactly n_bags - 1 edges
    if len(td.edges) != n_bags - 1:
        violations.append(f"tree has {len(td.edges)} edges for {n_bags} bags")
    adjacency: list[list[int]] = [[] for _ in range(n_bags)]
    for a, b in td.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {td.root}
    stack = [td.root]
    while stack:
        i = stack.pop()
        for j in adjacency[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != n_bags:
        violations.append("bag tree is not connected")

    # index the bags by vertex once; every check below reads only the
    # bags of the vertices it is about
    holding: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            holding[v].append(i)
    for v in range(g.vertex_count):
        if not holding[v]:
            violations.append(f"vertex {v + 1} appears in no bag")
    for u, v in g.edges:
        a, b = (u, v) if len(holding[u]) <= len(holding[v]) else (v, u)
        if not any(b in td.bags[i] for i in holding[a]):
            violations.append(f"edge ({u + 1}, {v + 1}) is contained in no bag")

    # occurrence connectivity: the bags holding v must form a subtree
    for v, bags_of_v in enumerate(holding):
        if not bags_of_v:
            continue
        own = set(bags_of_v)
        start = bags_of_v[0]
        reach = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in adjacency[i]:
                if j in own and j not in reach:
                    reach.add(j)
                    stack.append(j)
        if len(reach) != len(own):
            violations.append(f"bags containing vertex {v + 1} are not connected")
    return violations


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

    def fresh_chain(target: frozenset[int]) -> int:
        """Leaf singleton plus introduces, ending with content = target."""
        order = sorted(target)
        idx = emit(frozenset({order[0]}), "leaf", None, ())
        have = {order[0]}
        for v in order[1:]:
            have.add(v)
            idx = emit(frozenset(have), "introduce", v, (idx,))
        return idx

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
            return fresh_chain(bag) if bag else None
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


# -- .td serialization (1-based on disk, 0-based in memory) ----------------


def parse_td(text: str) -> TreeDecomposition:
    """Parse decomposition text: "s td <#bags> <width+1> <n>" header,
    "b <bag-id> <v...>" bag lines, then tree edge lines "i j"."""
    header: tuple[int, int, int] | None = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for line_num, line in content_lines(text):
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ValueError(f"line {line_num}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise ValueError(f"line {line_num}: malformed header {line!r}")
            header = tuple(line_ints(line_num, parts[2:]))
        elif parts[0] == "b":
            if header is None:
                raise ValueError(f"line {line_num}: bag before header")
            if len(parts) < 2:
                raise ValueError(f"line {line_num}: bag line without a bag id")
            bag_id, *vertices = line_ints(line_num, parts[1:])
            if not (1 <= bag_id <= header[0]):
                raise ValueError(f"line {line_num}: bag id {bag_id} out of range")
            for v in vertices:
                if not (1 <= v <= header[2]):
                    raise ValueError(f"line {line_num}: vertex {v} out of range 1..{header[2]}")
            if bag_id - 1 in bags:
                raise ValueError(f"line {line_num}: duplicate bag {bag_id}")
            bags[bag_id - 1] = frozenset(v - 1 for v in vertices)
        else:
            if header is None:
                raise ValueError(f"line {line_num}: edge before header")
            if len(parts) != 2:
                raise ValueError(f"line {line_num}: malformed edge line {line!r}")
            a, b = line_ints(line_num, parts)
            if not (1 <= a <= header[0] and 1 <= b <= header[0]):
                raise ValueError(f"line {line_num}: edge bag id out of range")
            edges.append((a - 1, b - 1))
    if header is None:
        raise ValueError("missing header line")
    if len(bags) != header[0]:
        raise ValueError(f"header declares {header[0]} bags, found {len(bags)}")
    bag_list = tuple(bags[i] for i in range(header[0]))
    width_plus_1 = max((len(b) for b in bag_list), default=0)
    if width_plus_1 != header[1]:
        raise ValueError(
            f"header declares max bag size {header[1]}, found {width_plus_1}"
        )
    return TreeDecomposition(bag_list, tuple(edges), 0)


def write_td(td: TreeDecomposition, vertex_count: int | None = None) -> str:
    n = vertex_count
    if n is None:
        n = max((max(b) + 1 for b in td.bags if b), default=0)
    lines = [f"s td {len(td.bags)} {max((len(b) for b in td.bags), default=0)} {n}"]
    for i, bag in enumerate(td.bags):
        lines.append(" ".join(["b", str(i + 1), *[str(v + 1) for v in sorted(bag)]]))
    lines.extend(f"{a + 1} {b + 1}" for a, b in td.edges)
    return "\n".join(lines) + "\n"


def from_bags(bags: Iterable[Iterable[int]], edges: Iterable[tuple[int, int]], root: int = 0) -> TreeDecomposition:
    """Convenience constructor from plain iterables."""
    return TreeDecomposition(
        tuple(frozenset(b) for b in bags), tuple(edges), root
    )
