"""Exact mixed dominating set solvers on bounded-treewidth graphs.

The public names are resolved on first access (PEP 562), each from the
module listed for it in _HOME, so importing one module of the package,
say mixdom.cli, does not load the dynamic programs it may never run.
"""

from importlib import import_module

_HOME = {
    "DPResult": "dp",
    "run_dp": "dp",
    "Graph": "graph",
    "MixedElement": "graph",
    "greedy_upper_bound": "graph",
    "is_mixed_dominating_set": "graph",
    "mixed_closed_neighborhood": "graph",
    "neighbors": "graph",
    "parse_gr": "graph",
    "write_gr": "graph",
    "Run6Result": "mds6",
    "run6": "mds6",
    "OracleResult": "oracle",
    "SizeGuardError": "oracle",
    "brute_force": "oracle",
    "NiceTreeDecomposition": "treedec",
    "TreeDecomposition": "treedec",
    "make_very_nice": "treedec",
    "min_fill_decompose": "treedec",
    "postorder_traversal": "treedec",
    "parse_td": "tdfile",
    "validate_td": "tdfile",
    "write_td": "tdfile",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
