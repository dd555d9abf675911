"""The one table of traced callables and the per-layer metrics built on it.

Each span is patched where its caller looks the name up: the CLI calls the
pipeline stages through names it imported into mixdom.cli, and run_dp and
run6 call their bag operations through module globals of mixdom.dp and
mixdom.mds6.  A span nests job (cli.main) -> pipeline stage -> bag
operation.  A name that a later refactor removes is reported, and every
metric built on it comes out null.
"""

from __future__ import annotations

ROOT_SPAN = ("cli", "mixdom.cli", "main")

# span name -> (module, attribute)
SPANS = {
    "graph.parse_gr": ("mixdom.cli", "parse_gr"),
    "treedec.min_fill": ("mixdom.cli", "min_fill_decompose"),
    "treedec.very_nice": ("mixdom.cli", "make_very_nice"),
    "treedec.postorder": ("mixdom.cli", "postorder_traversal"),
    "oracle.greedy_cap": ("mixdom.cli", "greedy_upper_bound"),
    "dp.walk": ("mixdom.cli", "run_dp"),
    "mds6.walk": ("mixdom.cli", "run6"),
    "dp.leaf": ("mixdom.dp", "leaf_table"),
    "dp.introduce": ("mixdom.dp", "_introduce_extend"),
    "dp.forget": ("mixdom.dp", "forget_reduce"),
    "dp.join": ("mixdom.dp", "_join_grouped"),
    "mds6.leaf": ("mixdom.mds6", "leaf6"),
    "mds6.introduce": ("mixdom.mds6", "introduce6"),
    "mds6.forget": ("mixdom.mds6", "forget6"),
    "mds6.join": ("mixdom.mds6", "join6"),
}

# Spans whose callable takes a `stats` dict to fill in.
STATS_SPANS = {"mds6.join"}


def _dp_out(table) -> dict:
    witnesses = sum(len(w) for _, w in table.rows.values() if w is not None)
    return {"rows_out": len(table), "witnesses": witnesses}


def _six_out(table) -> dict:
    return {
        "rows_out": len(table.rows),
        "ledger_entries": sum(len(ledger) for ledger in table.rows.values()),
    }


# span name -> counts from (positional args, result); run in the traced
# process after the span's clock has stopped.
COUNTS = {
    "treedec.min_fill": lambda a, r: {"width": r.width()},
    "treedec.very_nice": lambda a, r: {"nice_bags": len(r)},
    "dp.leaf": lambda a, r: _dp_out(r),
    "dp.introduce": lambda a, r: {"rows_in": len(a[1]), **_dp_out(r)},
    "dp.forget": lambda a, r: _dp_out(r),
    "dp.join": lambda a, r: {"rows_in": len(a[1]) + len(a[2]), **_dp_out(r)},
    "mds6.leaf": lambda a, r: _six_out(r),
    "mds6.introduce": lambda a, r: _six_out(r),
    "mds6.forget": lambda a, r: _six_out(r),
    "mds6.join": lambda a, r: {
        "rows_in": len(a[0].rows) + len(a[1].rows), **_six_out(r)
    },
}

DP_BAGS = ("dp.leaf", "dp.introduce", "dp.forget", "dp.join")
SIX_BAGS = ("mds6.leaf", "mds6.introduce", "mds6.forget", "mds6.join")


def _self(span: str):
    return (span + "_s", "s", (span,), "self", "sum")


# (metric, unit, spans, field, aggregate over the spans of a round).
# Field "self" is a span's duration minus the time its child spans cover.
PER_LAYER = [
    _self("graph.parse_gr"),
    _self("treedec.min_fill"),
    _self("treedec.very_nice"),
    _self("treedec.postorder"),
    ("treedec.nice_bags", "count", ("treedec.very_nice",), "nice_bags", "sum"),
    ("treedec.width", "count", ("treedec.min_fill",), "width", "sum"),
    _self("oracle.greedy_cap"),
    _self("dp.leaf"),
    _self("dp.introduce"),
    _self("dp.forget"),
    _self("dp.join"),
    _self("dp.walk"),
    ("dp.introduce.rows_in", "count", ("dp.introduce",), "rows_in", "sum"),
    ("dp.introduce.rows_out", "count", ("dp.introduce",), "rows_out", "sum"),
    ("dp.forget.rows_out", "count", ("dp.forget",), "rows_out", "sum"),
    ("dp.join.rows_in", "count", ("dp.join",), "rows_in", "sum"),
    ("dp.join.rows_out", "count", ("dp.join",), "rows_out", "sum"),
    ("dp.max_rows", "count", DP_BAGS, "rows_out", "max"),
    ("dp.witnesses_out", "count", DP_BAGS, "witnesses", "sum"),
    _self("mds6.leaf"),
    _self("mds6.introduce"),
    _self("mds6.forget"),
    _self("mds6.join"),
    _self("mds6.walk"),
    ("mds6.introduce.rows_out", "count", ("mds6.introduce",), "rows_out", "sum"),
    ("mds6.join.rows_in", "count", ("mds6.join",), "rows_in", "sum"),
    ("mds6.join.rows_out", "count", ("mds6.join",), "rows_out", "sum"),
    ("mds6.ledger_entries", "count", SIX_BAGS, "ledger_entries", "sum"),
    ("mds6.join.transform_tuples", "count", ("mds6.join",), "transform_tuples", "sum"),
    ("mds6.max_rows", "count", SIX_BAGS, "rows_out", "max"),
    ("cli.self_s", "s", ("cli",), "self", "sum"),
]
