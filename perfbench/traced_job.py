"""One traced `mixdom solve` job.

    python3 perfbench/traced_job.py SPANS.json solve --graph G.gr ...

Imports mixdom, wraps the callables listed in layers.py from outside,
runs mixdom.cli.main on the remaining arguments and writes the job's spans
to SPANS.json, also when the job raises.  The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

from layers import COUNTS, ROOT_SPAN, SPANS, STATS_SPANS

clock = time.perf_counter
# [name, parent index, start, stop, stop after counting, counts, raised]
spans: list[list] = []
stack: list[int] = []
warnings: list[str] = []


def wrap(name: str, fn):
    count = COUNTS.get(name)
    wants_stats = name in STATS_SPANS
    if wants_stats and "stats" not in inspect.signature(fn).parameters:
        warnings.append(f"{name}: callable takes no stats argument")
        wants_stats = False

    def traced(*args, **kwargs):
        rec = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0, None, True]
        stack.append(len(spans))
        spans.append(rec)
        stats = kwargs.setdefault("stats", {}) if wants_stats else None
        rec[2] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = rec[4] = clock()
            stack.pop()
        rec[6] = False
        if count is not None:
            try:
                counts = count(args, result)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                warnings.append(f"{name}: cannot count ({exc!r})")
                counts = None
            if counts is not None and name in STATS_SPANS:
                counts["transform_tuples"] = (stats or {}).get("transform_tuples")
            rec[5] = counts
        rec[4] = clock()
        return result

    return traced


def install() -> list[str]:
    """Patch every span in place; return the names that could not be."""
    missing = []
    for name, (module_name, attr) in SPANS.items():
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(name)
            continue
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(name)
        else:
            setattr(module, attr, wrap(name, fn))
    return missing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    cli = importlib.import_module(ROOT_SPAN[1])
    missing = install()
    try:
        return wrap(ROOT_SPAN[0], getattr(cli, ROOT_SPAN[2]))(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": spans, "missing": missing, "warnings": warnings}, fh)


if __name__ == "__main__":
    sys.exit(main())
