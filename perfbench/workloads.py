"""Benchmark instances and the job list of each workload.

Every workload is a fixed family of base graphs, and the run seed turns
each into an input file by shuffling its edge lines and the order of each
edge's endpoints.  Vertex numbers stay as generated.  They steer min-fill's
tie-breaks and with them the decomposition, and under random renumbering
the work swung far more than the changes this benchmark should show: nine-state
time on one partial 4-tree moved by 60%, and enumeration on the 3x8 grid
took 0.9 to 4.4 s and 30 to 200 MB over five seeds.  Fresh random graphs
per seed swing more still (two partial 4-trees of 16 vertices differed 6x
in nine-state time, through their greedy caps).  With fixed numbering the
answers do not depend on the seed, so references.json holds a checked
answer for every job on every seed.

Graphs are (vertex_count, edges) pairs with 0-based vertex ids.  The
generators live here rather than in the program so that inputs stay the
same when the program changes.
"""

from __future__ import annotations

import random

AMDS, SIX, ENUM = "amds", "six", "enum"


def partial_ktree(seed: int, n: int, width: int, keep: float = 0.8):
    """Grow a k-tree, then keep each edge with probability keep.  Same
    construction and random stream as the `mixdom bench` generator."""
    rng = random.Random(seed)
    k = min(width, max(n - 1, 0))
    edges = {(u, v) for u in range(k + 1) for v in range(u + 1, min(k + 1, n))}
    cliques = [tuple(range(min(k, n)))] if n > k else []
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        for u in base:
            edges.add((u, v))
        for drop in range(len(base)):
            cliques.append(base[:drop] + base[drop + 1:] + (v,))
    return n, [e for e in sorted(edges) if rng.random() < keep]


def random_tree(seed: int, n: int):
    """Each vertex attaches to a uniformly random earlier one."""
    rng = random.Random(seed)
    return n, [(rng.randrange(v), v) for v in range(1, n)]


def path(n: int):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)]


def grid(rows: int, cols: int):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


def path_gamma(n: int) -> int:
    """Mixed domination number of the n-vertex path: ceil(2n/5), one less
    when n = 3 (mod 5).  make_references.py checks it against the program
    for every n below 60."""
    return -(-2 * n // 5) - (1 if n % 5 == 3 else 0)


# Base graphs by name.  Sizes keep every job between 0.1 s and about 2.5 s
# on a 2-core Xeon, so a run of the benchmark holds several rounds.
GRAPHS = {
    # partial k-trees: introduce and join bags do nearly all the work
    "ktree-w3-n24": lambda: partial_ktree(0, 24, 3),
    "ktree-w3-n30": lambda: partial_ktree(0, 30, 3),
    "ktree-w4-n12": lambda: partial_ktree(0, 12, 4),
    "ktree-w4-n16": lambda: partial_ktree(0, 16, 4),
    "ktree-w5-n16": lambda: partial_ktree(0, 16, 5),
    "ktree-w3-n14": lambda: partial_ktree(2, 14, 3),
    "ktree-w3-n16": lambda: partial_ktree(0, 16, 3),
    "ktree-w3-n18": lambda: partial_ktree(0, 18, 3),
    "ktree-w3-n20": lambda: partial_ktree(0, 20, 3),
    # width-1 graphs: min-fill and very-nice normalisation dominate
    "tree-n1000": lambda: random_tree(0, 1000),
    "tree-n1200": lambda: random_tree(1, 1200),
    "tree-n300": lambda: random_tree(3, 300),
    "tree-n400": lambda: random_tree(2, 400),
    "path-n1200": lambda: path(1200),
    "path-n40": lambda: path(40),
    "path-n50": lambda: path(50),
    "path-n60": lambda: path(60),
    # few vertices, many optimal partial solutions: witness sets dominate
    "cycle-n30": lambda: cycle(30),
    "cycle-n45": lambda: cycle(45),
    "ladder-n15": lambda: grid(2, 15),
    "ladder-n20": lambda: grid(2, 20),
    "grid3-n6": lambda: grid(3, 6),
    "grid3-n8": lambda: grid(3, 8),
}

# The jobs of one round, in order: (graph name, mode).  Modes interleave so
# that a slow spell of the machine hits all of them alike.  Nine-state is
# left out at width 5, where it takes about 50 s and 350 MB at 14 vertices.
# The 1200-vertex path is the deep-decomposition case; today make_very_nice
# raises RecursionError on it and both of its jobs fail.
WORKLOADS = {
    "dense": [
        ("ktree-w3-n24", AMDS),
        ("ktree-w3-n14", ENUM),
        ("ktree-w3-n30", SIX),
        ("ktree-w3-n30", AMDS),
        ("ktree-w3-n16", ENUM),
        ("ktree-w4-n16", SIX),
        ("ktree-w4-n12", AMDS),
        ("ktree-w3-n18", ENUM),
        ("ktree-w5-n16", SIX),
        ("ktree-w3-n20", ENUM),
    ],
    "sparse": [
        ("tree-n1000", AMDS),
        ("path-n40", ENUM),
        ("tree-n300", SIX),
        ("path-n1200", AMDS),
        ("path-n50", ENUM),
        ("tree-n400", SIX),
        ("tree-n1200", AMDS),
        ("path-n60", ENUM),
        ("path-n1200", SIX),
    ],
    "enumerate": [
        (name, mode)
        for name in ("cycle-n30", "cycle-n45", "ladder-n15", "ladder-n20",
                     "grid3-n6", "grid3-n8")
        for mode in (ENUM, AMDS, SIX)
    ],
}


def relabel(graph, rng: random.Random, permute: bool = False):
    """The same graph with its edge lines shuffled and, with permute, its
    vertices renumbered at random."""
    n, edges = graph
    perm = list(range(n))
    if permute:
        rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in edges]
    rng.shuffle(out)
    return n, out


def write_gr(graph) -> str:
    n, edges = graph
    lines = [f"p tw {n} {len(edges)}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def instances(workload: str, seed: int) -> dict:
    """The workload's graphs with this seed's edge order, by name."""
    rng = random.Random(f"{workload}:{seed}")
    names = sorted({name for name, _ in WORKLOADS[workload]})
    return {name: relabel(GRAPHS[name](), rng) for name in names}
