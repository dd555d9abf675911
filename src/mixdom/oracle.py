"""Brute-force ground truth for mixed domination.

Independent of the tree-decomposition solvers: works straight from the
definition, enumerating candidate subsets of V ∪ E in increasing size.
Used by the equivalence test suites and by the "oracle" CLI subcommand.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graph import Graph, domination_masks
from .graph import greedy_upper_bound as greedy_upper_bound  # its old import path

# Subset enumeration is exponential in |V| + |E|; large enough for the
# n <= 8 random test suite (up to 8 vertices + 28 edges), small enough to
# fail fast on inputs the oracle was never meant for.
SIZE_GUARD = 40


class SizeGuardError(ValueError):
    """The graph has too many elements for exhaustive search."""


class OracleResult(NamedTuple):
    """gamma: minimum size of a mixed dominating set.

    min_sets: all minimum sets as bitmasks over V ∪ E (vertices first,
    then edges), or None when enumeration was not requested.
    """

    gamma: int
    min_sets: frozenset[int] | None = None


def brute_force(g: Graph, enumerate_all: bool = False) -> OracleResult:
    """Minimum mixed dominating set size, optionally with all minimum sets.

    Tries subset sizes 0, 1, 2, ... and stops at the first size admitting
    a valid set, so the work is bounded by C(|V|+|E|, gamma) checks.
    """
    total = g.element_count
    if total > SIZE_GUARD:
        raise SizeGuardError(
            f"graph has {total} elements, oracle guard is {SIZE_GUARD}"
        )
    if total == 0:
        return OracleResult(0, frozenset({0}) if enumerate_all else None)
    masks = domination_masks(g)
    full = (1 << total) - 1
    for size in range(total + 1):
        found: list[int] = []
        for combo in combinations(range(total), size):
            covered = 0
            for i in combo:
                covered |= masks[i]
            if covered == full:
                if not enumerate_all:
                    return OracleResult(size, None)
                member_mask = 0
                for i in combo:
                    member_mask |= 1 << i
                found.append(member_mask)
        if found:
            return OracleResult(size, frozenset(found))
    raise AssertionError("the full element set always dominates")
