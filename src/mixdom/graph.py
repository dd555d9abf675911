"""Simple undirected graphs and the mixed-domination ground truth.

A mixed dominating set of a graph G = (V, E) is a subset S of V ∪ E such
that every element of V ∪ E has at least one member of S in its closed
mixed neighborhood.  A vertex is mixed-adjacent to itself, its neighbor
vertices and its incident edges; an edge is mixed-adjacent to itself, its
two endpoints and the edges sharing exactly one endpoint with it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple


class MixedElement(NamedTuple):
    """A member of V ∪ E: a vertex or an edge of a specific graph."""

    kind: str  # "v" for vertex, "e" for edge
    id: int

    @staticmethod
    def vertex(vid: int) -> "MixedElement":
        return MixedElement("v", vid)

    @staticmethod
    def edge(eid: int) -> "MixedElement":
        return MixedElement("e", eid)

    def __repr__(self) -> str:
        return f"{self.kind}{self.id}"


class Graph:
    """Immutable simple undirected graph with stable vertex and edge ids.

    Vertices are the ints 0 .. vertex_count-1.  Edges are kept sorted by
    (min endpoint, max endpoint); an edge's position in that list is its
    id, stable across all queries.  Mixed sets over V ∪ E are encoded as
    int bitmasks in element order: vertex i at bit i, edge j at bit
    vertex_count + j.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        canonical: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canonical.append(e)
        canonical.sort()
        self.vertex_count = vertex_count
        self.edges: tuple[tuple[int, int], ...] = tuple(canonical)
        self.edge_count = len(canonical)
        self._edge_ids = {e: i for i, e in enumerate(canonical)}
        adjacency: list[list[int]] = [[] for _ in range(vertex_count)]
        incidence: list[list[int]] = [[] for _ in range(vertex_count)]
        for i, (u, v) in enumerate(canonical):
            adjacency[u].append(v)
            adjacency[v].append(u)
            incidence[u].append(i)
            incidence[v].append(i)
        self._adjacency = tuple(tuple(sorted(a)) for a in adjacency)
        self._incidence = tuple(tuple(a) for a in incidence)
        self._domination_masks: tuple[int, ...] | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def element_count(self) -> int:
        """Size of V ∪ E."""
        return self.vertex_count + self.edge_count

    def adjacency(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adjacency[v]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Ids of the edges with v as an endpoint."""
        self._check_vertex(v)
        return self._incidence[v]

    def edge_id(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        try:
            return self._edge_ids[e]
        except KeyError:
            raise ValueError(f"no edge {e}") from None

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_ids

    def endpoints(self, eid: int) -> tuple[int, int]:
        self._check_edge(eid)
        return self.edges[eid]

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} out of range")

    def _check_edge(self, eid: int) -> None:
        if not (0 <= eid < self.edge_count):
            raise ValueError(f"edge id {eid} out of range")

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {list(self.edges)})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self.vertex_count == other.vertex_count and self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    # -- mixed elements and bitmask encoding ------------------------------

    def element_index(self, elem: MixedElement) -> int:
        """Bit position of elem in the mixed-set encoding."""
        if elem.kind == "v":
            self._check_vertex(elem.id)
            return elem.id
        if elem.kind == "e":
            self._check_edge(elem.id)
            return self.vertex_count + elem.id
        raise ValueError(f"bad element kind {elem.kind!r}")

    def element_at(self, index: int) -> MixedElement:
        if 0 <= index < self.vertex_count:
            return MixedElement.vertex(index)
        if self.vertex_count <= index < self.element_count:
            return MixedElement.edge(index - self.vertex_count)
        raise ValueError(f"element index {index} out of range")

    def elements(self) -> Iterator[MixedElement]:
        for v in range(self.vertex_count):
            yield MixedElement.vertex(v)
        for e in range(self.edge_count):
            yield MixedElement.edge(e)

    def mixed_set(
        self, vertices: Iterable[int] = (), edges: Iterable[int] = ()
    ) -> int:
        """Bitmask for the given vertex ids and edge ids."""
        mask = 0
        for v in vertices:
            self._check_vertex(v)
            mask |= 1 << v
        for e in edges:
            self._check_edge(e)
            mask |= 1 << (self.vertex_count + e)
        return mask

    def mask_elements(self, mask: int) -> set[MixedElement]:
        """Decode a mixed-set bitmask back into elements."""
        if mask < 0 or mask >> self.element_count:
            raise ValueError("mask has bits outside V ∪ E")
        return {self.element_at(i) for i in range(self.element_count) if mask >> i & 1}


def neighbors(g: Graph, v: int) -> set[int]:
    """Open neighborhood of v: the adjacent vertices."""
    return set(g.adjacency(v))


def mixed_closed_neighborhood(g: Graph, r: MixedElement) -> set[MixedElement]:
    """All elements of V ∪ E that r dominates, including r itself.

    For a vertex: itself, its neighbors, and its incident edges.  For an
    edge: itself, both endpoints, and every edge sharing exactly one
    endpoint with it.
    """
    if r.kind == "v":
        v = r.id
        out = {r}
        out.update(MixedElement.vertex(u) for u in g.adjacency(v))
        out.update(MixedElement.edge(e) for e in g.incident_edges(v))
        return out
    if r.kind == "e":
        u, v = g.endpoints(r.id)
        out = {r, MixedElement.vertex(u), MixedElement.vertex(v)}
        out.update(MixedElement.edge(e) for e in g.incident_edges(u))
        out.update(MixedElement.edge(e) for e in g.incident_edges(v))
        return out
    raise ValueError(f"bad element kind {r.kind!r}")


def domination_masks(g: Graph) -> tuple[int, ...]:
    """For each element index, the bitmask of its closed mixed neighborhood.

    The relation is symmetric, so masks[i] is both "what i dominates" and
    "what dominates i".  Computed on first use and kept on the graph, which
    never changes.
    """
    if g._domination_masks is None:
        g._domination_masks = _build_domination_masks(g)
    return g._domination_masks


def _build_domination_masks(g: Graph) -> tuple[int, ...]:
    n = g.vertex_count
    masks = [0] * g.element_count
    for v in range(n):
        m = 1 << v
        for u in g.adjacency(v):
            m |= 1 << u
        for e in g.incident_edges(v):
            m |= 1 << (n + e)
        masks[v] = m
    for eid, (u, v) in enumerate(g.edges):
        m = (1 << (n + eid)) | (1 << u) | (1 << v)
        for e in g.incident_edges(u):
            m |= 1 << (n + e)
        for e in g.incident_edges(v):
            m |= 1 << (n + e)
        masks[n + eid] = m
    return tuple(masks)


def is_mixed_dominating_set(g: Graph, s: int | Iterable[MixedElement]) -> bool:
    """True iff every element of V ∪ E is dominated by some member of s.

    s may be a bitmask or an iterable of MixedElements.
    """
    if not isinstance(s, int):
        mask = 0
        for elem in s:
            mask |= 1 << g.element_index(elem)
        s = mask
    if s < 0 or s >> g.element_count:
        raise ValueError("mixed set has bits outside V ∪ E")
    covered = 0
    masks = domination_masks(g)
    while s:
        low = s & -s
        covered |= masks[low.bit_length() - 1]
        s ^= low
    return covered == (1 << g.element_count) - 1


def greedy_upper_bound(g: Graph) -> int:
    """Size of an easily constructed mixed dominating set.

    Take a maximal matching plus every unmatched vertex (n - |matching|
    elements in total).  Each matching edge dominates itself, both its
    endpoints, and every edge sharing one endpoint; by maximality every
    other edge touches the matching; unmatched vertices dominate
    themselves.  The dynamic programs use this as an exact pruning bound:
    table rows costing more can never reach a minimum solution.
    """
    matched = [False] * g.vertex_count
    matching = 0
    for eid in range(g.edge_count):
        u, v = g.endpoints(eid)
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            matching += 1
    return g.vertex_count - matching


# -- .gr serialization (1-based on disk, 0-based in memory) ---------------


def line_ints(line_num: int, tokens: list[str]) -> list[int]:
    """The tokens of a graph or decomposition file line as integers;
    ValueError naming the line and the first token that is not one."""
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ValueError(f"line {line_num}: {t!r} is not an integer") from None
    return out


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Line number and stripped text of each line that is neither blank
    nor a comment."""
    for line_num, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield line_num, line


def parse_gr(text: str) -> Graph:
    """Parse graph text: comment lines "c ...", a header "p tw <n> <m>",
    then m lines "u v" with 1-based vertex ids.  Errors name the line and
    the vertices 1-based, as the file does.

    Graph checks each edge's range, self-loops and duplicates once; only
    when it rejects one is the text read again, to name the line."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []  # 0-based, as written
    for line_num, line in content_lines(text):
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ValueError(f"line {line_num}: duplicate header")
            if len(parts) != 4 or parts[1] != "tw":
                raise ValueError(f"line {line_num}: malformed header {line!r}")
            header = tuple(line_ints(line_num, parts[2:]))
        else:
            if header is None:
                raise ValueError(f"line {line_num}: edge before header")
            if len(parts) != 2:
                raise ValueError(f"line {line_num}: malformed edge line {line!r}")
            u, v = line_ints(line_num, parts)
            edges.append((u - 1, v - 1))
    if header is None:
        raise ValueError("missing header line")
    n, m = header
    try:
        g = Graph(n, edges)
    except ValueError:
        _raise_at_rejected_edge(text, n)
        raise
    if g.edge_count != m:
        raise ValueError(f"header declares {m} edges, found {g.edge_count}")
    return g


def _raise_at_rejected_edge(text: str, n: int) -> None:
    """Raise the error for the first edge line of text that Graph rejects,
    naming the line and the vertices 1-based; the text parses otherwise."""
    seen: set[tuple[int, int]] = set()
    for line_num, line in content_lines(text):
        parts = line.split()
        if parts[0] == "p":
            continue
        u, v = (int(t) for t in parts)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {line_num}: vertex out of range 1..{n}")
        if u == v:
            raise ValueError(f"line {line_num}: self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"line {line_num}: duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)


def write_gr(g: Graph) -> str:
    lines = [f"p tw {g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
