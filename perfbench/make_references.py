"""Regenerate references.json: the answer to every benchmark graph.

    PYTHONPATH=src python3 perfbench/make_references.py

For each base graph in workloads.GRAPHS this stores the element count, the
mixed domination number and, for graphs the workloads enumerate, the
number of minimum sets.  Nothing is stored that was not cross-checked:

- gamma from the nine-state program equals the six-state program's;
- graphs within the oracle's size guard also match brute_force, gamma
  and the whole minimum-set family;
- set counts agree with a copy under a random vertex renumbering, so
  with another decomposition, and every set is a mixed dominating set of
  size gamma;
- path gammas come from workloads.path_gamma, which is first checked
  against the nine-state program for every n below 60.

The seed only reorders edge lines, so the answers hold for every seed.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from mixdom import (
    Graph,
    SizeGuardError,
    brute_force,
    greedy_upper_bound,
    is_mixed_dominating_set,
    make_very_nice,
    min_fill_decompose,
    postorder_traversal,
    run6,
    run_dp,
)

from workloads import ENUM, GRAPHS, WORKLOADS, path, path_gamma, relabel

OUT = Path(__file__).resolve().parent / "references.json"
# make_very_nice recurses once per bag of a path; the reference has to
# come from the formula until it no longer does.
FORMULA_ONLY = {"path-n1200"}


def solve(graph, enumerate_sets: bool, oracle: bool = True):
    g = Graph(*graph)
    ntd = make_very_nice(min_fill_decompose(g))
    tau = postorder_traversal(ntd)
    cap = greedy_upper_bound(g)
    res = run_dp(g, ntd, tau=tau, enumerate_sets=enumerate_sets, cost_cap=cap)
    six = run6(g, ntd, tau=tau, cost_cap=cap).gamma
    if six != res.gamma:
        raise SystemExit(f"programs disagree: nine-state {res.gamma}, six-state {six}")
    if enumerate_sets:
        for mask in res.min_sets:
            if bin(mask).count("1") != res.gamma or not is_mixed_dominating_set(g, mask):
                raise SystemExit(f"set {mask:#x} is not a minimum mixed dominating set")
    try:
        truth = brute_force(g, enumerate_all=enumerate_sets) if oracle else None
    except SizeGuardError:
        truth = None
    if truth is not None and (
        truth.gamma != res.gamma or (enumerate_sets and truth.min_sets != res.min_sets)
    ):
        raise SystemExit("the dynamic program disagrees with brute_force")
    return res.gamma, len(res.min_sets) if enumerate_sets else None


def main() -> None:
    for n in range(1, 60):
        if solve(path(n), False, oracle=False)[0] != path_gamma(n):
            raise SystemExit(f"path_gamma({n}) is wrong")
    enumerated = {name for wl in WORKLOADS.values() for name, mode in wl if mode == ENUM}
    refs = {}
    for name in sorted(GRAPHS):
        graph = GRAPHS[name]()
        entry = {"elements": graph[0] + len(graph[1])}
        if name in FORMULA_ONLY:
            entry["gamma"] = path_gamma(graph[0])
        else:
            enum = name in enumerated
            gamma, sets = solve(graph, enum)
            entry["gamma"] = gamma
            if enum:
                again = solve(relabel(graph, random.Random(name), permute=True), True)
                if again != (gamma, sets):
                    raise SystemExit(f"{name}: relabeled copy gives {again}")
                entry["sets"] = sets
        refs[name] = entry
        print(name, entry, file=sys.stderr, flush=True)
    OUT.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
