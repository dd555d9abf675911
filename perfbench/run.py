"""Benchmark `mixdom solve` end to end, or layer by layer with --trace 1.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
src directory.  Each job is one fresh `mixdom solve` process, started only
after the previous one has ended.  A run repeats the workload's job list
in rounds until --seconds is spent, times each job by the median of its
repeats and scales the rates and setup_s to the machine's reference speed
(see calibration_sample and Bench.setup_sample).  Every answer is checked against references.json:
gamma for every job, and for --enumerate jobs the number of sets and each
set, which must be a mixed dominating set of size gamma.

With --trace 1 each job runs twice, untraced and through traced_job.py in
alternating order, and the run reports the per-layer metrics of layers.py
summed over one round of jobs, plus traced / untraced job time.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; with --workload all, each metric name is
prefixed by its workload's.  Without a checkout to measure, the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads
from workloads import AMDS, ENUM, SIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENTRY = "import sys; from mixdom.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 30.0
# stop starting rounds after this, so a run ends well within 180 s
HARD_STOP_S = 120.0
SETUP_FIRST, SETUP_PER_ROUND = 3, 2
# What calibration_sample and a bare interpreter start take when the
# machine runs at its reference speed; the rates and setup_s are scaled to
# that speed.
CALIBRATION_REF_S = 0.025
STARTUP_REF_S = 0.04

RATES = {AMDS: "amds_elem_per_s", SIX: "six_elem_per_s", ENUM: "enum_elem_per_s"}
END_TO_END = {
    "amds_elem_per_s": "elements/s",
    "six_elem_per_s": "elements/s",
    "enum_elem_per_s": "elements/s",
    "solved_ratio": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def calibration_sample() -> float:
    """Seconds for a fixed loop of dict, tuple and set work, the kind of
    work the dynamic programs do.  On a 2-core Xeon VM with a shared host,
    identical dense runs gave 75 to 113 elements/s within five minutes,
    and this loop slowed and sped up with them: scaled by it, the spread
    between runs fell from 25% to 6%."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(60000):
        key = (i % 7, i % 11, i % 13, i % 17)
        entry = table.get(key)
        if entry is None:
            table[key] = [i, {i}]
        elif i < entry[0] + 50000:
            entry[1].add(i)
    return time.perf_counter() - start


class Fatal(Exception):
    """The run cannot measure anything; exit 2 without a result."""


def spawn(argv: list[str], env: dict, err_path: Path) -> tuple[float, int, float]:
    """Run one process to its end: wall seconds, exit code, peak RSS in MB."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def last_line(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


class Instance:
    """One workload graph on disk, with what its answers are checked by."""

    def __init__(self, graph, path: Path, ref: dict | None):
        self.path, self.ref = path, ref
        n, edges = graph
        self.n = n
        self.elements = n + len(edges)
        self.edges = {(min(u, v) + 1, max(u, v) + 1) for u, v in edges}
        self.nbrs: list[set[int]] = [set() for _ in range(n + 1)]
        for u, v in self.edges:
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)
        path.write_text(workloads.write_gr(graph))

    def dominated_by(self, vertices: list[int], edges: list[list[int]]) -> bool:
        """Mixed domination, from the definition: a vertex dominates itself,
        its neighbours and its edges; an edge its ends and adjacent edges."""
        chosen = set(vertices)
        touched = set(chosen)
        for u, v in edges:
            touched.update((u, v))
        covered = set(touched)
        for v in chosen:
            covered |= self.nbrs[v]
        return len(covered) == self.n and all(
            u in touched or v in touched for u, v in self.edges
        )

    def check(self, mode: str, report: dict) -> str | None:
        """Why the report is wrong, or None when it is right."""
        gamma = self.ref["gamma"]
        if report.get("gamma") != gamma:
            return f"gamma {report.get('gamma')}, expected {gamma}"
        if mode != ENUM:
            return None
        sets = report.get("minimum_sets", [])
        if report.get("minimum_set_count") != self.ref["sets"] or len(sets) != self.ref["sets"]:
            return f"{len(sets)} minimum sets, expected {self.ref['sets']}"
        seen = set()
        for s in sets:
            vertices, edges = s["vertices"], s["edges"]
            key = (tuple(vertices), tuple(map(tuple, edges)))
            if key in seen:
                return f"set listed twice: {s}"
            seen.add(key)
            if (
                len(vertices) + len(edges) != gamma
                or not all(1 <= v <= self.n for v in vertices)
                or not all(tuple(e) in self.edges for e in edges)
                or not self.dominated_by(vertices, edges)
            ):
                return f"not a minimum mixed dominating set: {s}"
        return None


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        refs = json.loads((HERE / "references.json").read_text())
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.instances = {
            name: Instance(graph, work / f"{name}.gr", refs.get(name))
            for name, graph in workloads.instances(workload, seed).items()
        }
        self.jobs = workloads.WORKLOADS[workload]
        self.attempted = self.failed = self.wrong = self.unreferenced = 0

    def setup_sample(self) -> tuple[float, float]:
        """Seconds for a fresh interpreter through `import mixdom.cli`, and
        for a bare one (`-c pass`) as the machine's start-up speed."""
        err = self.work / "setup.err"
        bare, _, _ = spawn([sys.executable, "-c", "pass"], self.env, err)
        seconds, code, _ = spawn([sys.executable, "-c", "import mixdom.cli"], self.env, err)
        if code != 0:
            raise Fatal(f"cannot import mixdom.cli from {SRC}: {last_line(err)}")
        return seconds, bare

    def solve(self, name: str, mode: str, traced_spans: Path | None = None):
        """Run one job and check it: (seconds, peak MB, solved)."""
        inst = self.instances[name]
        out, err = self.work / "report.json", self.work / "job.err"
        out.unlink(missing_ok=True)
        argv = ["solve", "--graph", str(inst.path), "--algo", SIX if mode == SIX else AMDS]
        if mode == ENUM:
            argv.append("--enumerate")
        argv += ["--out", str(out)]
        if traced_spans is None:
            argv = [sys.executable, "-c", ENTRY] + argv
        else:
            argv = [sys.executable, str(HERE / "traced_job.py"), str(traced_spans)] + argv
        seconds, code, rss = spawn(argv, self.env, err)
        self.attempted += 1
        if inst.ref is None:
            problem = "no reference answer for this graph"
            self.unreferenced += 1
        elif code != 0:
            problem = f"exit {code}: {last_line(err)}"
        else:
            try:
                problem = inst.check(mode, json.loads(out.read_text()))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report: {exc!r}"
            self.wrong += problem is not None
        if problem is not None:
            self.failed += 1
            print(f"failed: {mode} {name}: {problem}", flush=True)
        return seconds, rss, problem is None

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics, tracing off.  A job's time is the median of
        its repeats in the run; a rate divides the elements of solved jobs
        by the time of all jobs of that mode, and is then scaled to the
        machine's reference speed by the median calibration sample, taken
        before every job."""
        setup = [self.setup_sample() for _ in range(SETUP_FIRST)]
        calibration: list[float] = []
        took: list[list[float]] = [[] for _ in self.jobs]
        solved: list[int] = [0 for _ in self.jobs]
        peak = 0.0
        for _ in self.rounds(seconds):
            setup += [self.setup_sample() for _ in range(SETUP_PER_ROUND)]
            for i, (name, mode) in enumerate(self.jobs):
                calibration.append(calibration_sample())
                wall, rss, ok = self.solve(name, mode)
                took[i].append(wall)
                solved[i] += ok
                peak = max(peak, rss)
        repeats = len(took[0])
        elements = dict.fromkeys(RATES, 0.0)
        wall = dict.fromkeys(RATES, 0.0)
        for i, (name, mode) in enumerate(self.jobs):
            elements[mode] += self.instances[name].elements * solved[i] / repeats
            wall[mode] += statistics.median(took[i])
            print(f"job {mode:4} {name:14} median {statistics.median(took[i]):.4f} s "
                  f"over {repeats}, solved {solved[i]}")
        speed = statistics.median(calibration) / CALIBRATION_REF_S
        print(f"calibration: median {statistics.median(calibration):.4f} s, "
              f"so rates are scaled by {speed:.4f}")
        metrics = {RATES[m]: elements[m] / wall[m] * speed for m in RATES}
        for m in RATES:
            print(f"unscaled {RATES[m]} {elements[m] / wall[m]:.4f}")
        metrics["solved_ratio"] = sum(solved) / self.attempted
        metrics["peak_rss_mb"] = peak
        imports = statistics.median(t for t, _ in setup)
        bare = statistics.median(b for _, b in setup)
        print(f"start-up: median {bare:.4f} s bare, unscaled setup_s {imports:.4f} s")
        metrics["setup_s"] = imports * STARTUP_REF_S / bare
        return {k: (metrics[k], unit) for k, unit in END_TO_END.items()}

    def measure_traced(self, seconds: float) -> dict:
        """Per-layer metrics from traced jobs, each run beside an untraced
        twin; which of the two goes first alternates."""
        per_round: list[dict] = []
        overhead: list[float] = []
        missing: set[str] = set()
        warned: set[str] = set()
        spans = self.work / "spans.json"
        for r in self.rounds(seconds):
            jobs, plain, traced = [], 0.0, 0.0
            for i, (name, mode) in enumerate(self.jobs):
                spans.unlink(missing_ok=True)
                if (r + i) % 2:
                    plain += self.solve(name, mode)[0]
                    traced += self.solve(name, mode, traced_spans=spans)[0]
                else:
                    traced += self.solve(name, mode, traced_spans=spans)[0]
                    plain += self.solve(name, mode)[0]
                if not spans.exists():
                    raise Fatal(f"traced job wrote no spans: {mode} {name}")
                record = json.loads(spans.read_text())
                missing.update(record["missing"])
                warned.update(record["warnings"])
                jobs.append(record["spans"])
            per_round.append(aggregate(jobs, missing))
            overhead.append(traced / plain)
        for w in sorted(warned):
            print(f"warning: {w}", flush=True)
        for name in sorted(missing):
            print(f"warning: {layers.SPANS[name][0]}.{layers.SPANS[name][1]} "
                  f"not found; metrics on span {name} are null", flush=True)
        metrics = {}
        for name, unit, *_ in layers.PER_LAYER:
            values = [r[name] for r in per_round]
            if unit == "s" and None not in values:
                metrics[name] = (statistics.median(values), unit)
                continue
            if any(v != values[0] for v in values):
                print(f"warning: {name} differs between rounds: {values}", flush=True)
            metrics[name] = (values[0], unit)
        metrics["trace_overhead"] = (statistics.median(overhead), "ratio")
        return metrics

    def rounds(self, seconds: float):
        """Yield the round number while the next round should end in time."""
        start = time.perf_counter()
        for r in itertools.count():
            began = time.perf_counter()
            yield r
            now = time.perf_counter()
            if now + (now - began) > start + seconds or now - start > HARD_STOP_S:
                return


def aggregate(jobs: list[list], missing: set[str]) -> dict:
    """Per-layer metrics of one round from each job's spans.  A span that
    raised adds its time but no counts."""
    by_span: dict[str, list] = {}
    for metric in layers.PER_LAYER:
        for span_name in metric[2]:
            by_span.setdefault(span_name, []).append(metric)
    values: dict[str, list] = {metric[0]: [] for metric in layers.PER_LAYER}
    for spans in jobs:
        own = [s[3] - s[2] for s in spans]
        for _, parent, t0, _, t_out, _, _ in spans:
            if parent is not None:
                own[parent] -= t_out - t0
        for i, (span_name, _, _, _, _, counts, raised) in enumerate(spans):
            for name, _, _, field, _ in by_span.get(span_name, ()):
                if field == "self":
                    values[name].append(own[i])
                elif not raised:
                    values[name].append((counts or {}).get(field))
    totals: dict = {}
    for name, _, span_names, _, how in layers.PER_LAYER:
        got = values[name]
        if missing.intersection(span_names) or None in got:
            totals[name] = None
        else:
            totals[name] = max(got, default=0) if how == "max" else sum(got)
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: kill the running job and remove the scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "mixdom" / "cli.py").is_file():
        print(f"error: no mixdom sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            bench = Bench(name, args.seed, work)
            if args.trace:
                metrics = bench.measure_traced(args.seconds)
            else:
                metrics = bench.measure(args.seconds)
        except Fatal as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for metric, (value, unit) in metrics.items():
            print(f"{name:10} {metric:28} {value!s:>22} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result["metrics"][key] = {"value": value, "unit": unit}
        print(f"{name}: {bench.attempted} jobs, {bench.failed} failed, "
              f"{bench.wrong} wrong answers, {bench.unreferenced} without a reference "
              f"(seed {args.seed})", flush=True)
        result["correct"] &= bench.wrong == 0 and bench.unreferenced == 0
        result["attempted"] += bench.attempted
        result["failed"] += bench.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
