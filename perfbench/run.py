#!/usr/bin/env python3
"""yieldopt benchmark: one workload, one process, one thread, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload triangular-binary --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` the way the tests import it.  Set-up
imports it and builds every input from ``--seed``; the timed phase then
repeats whole cycles (every op of the workload once, then the workload's
serve_query stream) until at least ``--seconds`` seconds have passed,
checking every output.
The last line of standard output is one JSON object; with ``--trace 0`` it
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced pass plus the tracing overhead against an untraced pass of the same
seed.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5  # set-up runs per process; setup_s is their median

from spans import Tracer, bind  # noqa: E402  (sibling module of this script)
from workloads import REV_TOL, WORKLOADS, close  # noqa: E402


def import_yieldopt(src: str):
    """Import yieldopt afresh from ``src``, so each set-up pays the package's import."""
    for name in [n for n in sys.modules if n == "yieldopt" or n.startswith("yieldopt.")]:
        del sys.modules[name]
    yo = importlib.import_module("yieldopt")
    if not os.path.abspath(yo.__file__).startswith(src + os.sep):
        raise ImportError(f"yieldopt imported from {yo.__file__}, not from {src}")
    return yo


def tail(values) -> tuple:
    """(value, percentile, n): the highest percentile with at least ten samples beyond it.

    With ten samples or fewer there is no such percentile and the maximum
    is reported.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


# Scaled timings read as if every speed probe had taken 1 ms.
PROBE_REF_NS = 1_000_000
STREAM_CHUNK = 1000  # stream queries between two speed probes
_PROBE_DATA = np.random.default_rng(0).random(4096)


def probe_python() -> int:
    """ns taken by about 1 ms of fixed interpreter-bound work (sorting, Fractions)."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(300):
        xs = sorted(((i * 7) % 13, (i * 5) % 11, (i * 3) % 17, i % 19))
        if Fraction(xs[0], xs[-1] + 1) < 0.5:
            acc += 1
    return time.perf_counter_ns() - start


def probe_numpy() -> int:
    """ns taken by about 1 ms of fixed work in small numpy calls (concatenate, lexsort)."""
    start = time.perf_counter_ns()
    a = _PROBE_DATA
    for _ in range(2):
        b = np.concatenate([a[:1000], a[1000:3000], a[3000:]])
        np.lexsort((np.arange(len(b)), -b, np.floor(b * 1200).astype(np.int64)))
    return time.perf_counter_ns() - start


# On a virtual machine whose host is shared with other tenants, they can
# slow it by up to about 2x for seconds at a time, interpreter-bound code
# (the serving loops, the max-flow, the oracles) far more than code that
# spends its time in numpy calls (the DP).
# Every timing is therefore scaled by PROBE_REF_NS over the mean of two
# probes of the matching kind run just before and just after it, so that
# runs made while the host is busy and while it is quiet measure the code
# at the same speed.  The probes run no yieldopt code, so a change to the
# package does not change the scale.
PROBES = {"make_policy": probe_numpy}  # every other layer function: probe_python


class Timed:
    """The layer functions, each call timed and scaled; ``ns`` sums the scaled times."""

    def __init__(self, api):
        self.api = api
        self.ns = 0.0

    def __getattr__(self, name: str):
        fn, probe = getattr(self.api, name), PROBES.get(name, probe_python)

        def timed(*args):
            before = probe()
            start = time.perf_counter_ns()
            out = fn(*args)
            elapsed = time.perf_counter_ns() - start
            self.ns += elapsed * 2 * PROBE_REF_NS / (before + probe())
            return out

        return timed


class Loop:
    """Counts, speed-scaled latencies (ns) and problems of one timed pass."""

    def __init__(self, n_ops: int, records: Optional[list] = None):
        self.attempted = self.completed = self.wrong = self.cycles = 0
        self.failures: Dict[str, int] = {}
        self.problems: List[str] = []
        self.op_ns: Dict[int, List[float]] = {}  # op index -> its latency at every repeat
        self.query_ns: Dict[str, List[np.ndarray]] = {}  # stream label -> latencies at every repeat
        self.probe_ns = array("q")
        self.seconds = 0.0
        self.records = records if records is not None else [None] * n_ops
        self.stream_counts = {"deliveries": 0, "exchange_sales": 0}

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def scale(self) -> float:
        """PROBE_REF_NS over the mean of the last two Python probes; runs a new probe."""
        self.probe_ns.append(probe_python())
        return PROBE_REF_NS / ((self.probe_ns[-1] + self.probe_ns[-2]) / 2)


def replay(yo, stream, serve, loop: Loop, tracer: Optional[Tracer], first: bool) -> None:
    """Serve the stream query by query, probing the machine's speed every STREAM_CHUNK queries."""
    state = yo.AllocationState.fresh(stream.demands)
    policy, clock = stream.policy, time.perf_counter_ns
    span = tracer.open(tracer.name_id("bench.stream"), stream.label) if tracer else None
    scaled = []
    for start in range(0, len(stream.items), STREAM_CHUNK):
        lat = array("q")
        for elig, reward in stream.items[start : start + STREAM_CHUNK]:
            t = clock()
            serve(state, policy, elig, reward)
            lat.append(clock() - t)
        scaled.append(np.frombuffer(lat, dtype=np.int64) * loop.scale())
    loop.query_ns.setdefault(stream.label, []).append(np.concatenate(scaled))
    if tracer:
        tracer.close(span)
    if tuple(state.delivered) != stream.delivered or not close(
        state.exchange_revenue, stream.revenue, REV_TOL
    ):
        loop.wrong += 1
        loop.problem(f"stream {stream.label}: serve_query disagrees with run_rewards")
    if first:
        delivered = sum(state.delivered)
        loop.stream_counts["deliveries"] += delivered
        loop.stream_counts["exchange_sales"] += len(stream.items) - delivered


def run_cycles(yo, wl, api, seconds: float, loop: Loop, tracer: Optional[Tracer] = None) -> Loop:
    """Repeat whole cycles until at least ``seconds`` have passed."""
    op_name = tracer.name_id("bench.op") if tracer else None
    loop.probe_ns.append(probe_python())
    timed = Timed(api)
    begin = time.perf_counter()
    while True:
        outputs = []
        for i, op in enumerate(wl.ops):
            loop.attempted += 1
            if tracer:
                tracer.current_req += 1
                span = tracer.open(op_name, op.name)
            timed.ns = 0.0
            try:
                out = op.run(timed)
            except Exception as exc:  # a failed op is counted and the loop goes on
                if tracer:
                    tracer.close(span, True)
                key = f"{op.name}: {type(exc).__name__}"
                loop.failures[key] = loop.failures.get(key, 0) + 1
                outputs.append(None)
                continue
            elapsed = timed.ns
            if tracer:
                tracer.close(span)
            problems, record = op.check(out)
            if loop.records[i] is None:
                loop.records[i] = record
            elif record != loop.records[i]:
                problems.append(f"output changed on repeat: {record} vs {loop.records[i]}")
            if problems:
                loop.wrong += 1
                for p in problems:
                    loop.problem(f"{op.name}: {p}")
            else:
                loop.completed += 1
                loop.op_ns.setdefault(i, []).append(elapsed)
            outputs.append(out)
        for stream in wl.streams(outputs):
            if tracer:
                tracer.current_req += 1
            replay(yo, stream, api.serve_query, loop, tracer, first=loop.cycles == 0)
        loop.cycles += 1
        loop.seconds = time.perf_counter() - begin
        if loop.seconds >= seconds:
            return loop


def end_to_end(loop: Loop, setup_s: List[float]) -> Dict[str, tuple]:
    """End-to-end metrics; every timing is scaled to the reference probe speed.

    Every op and every stream query repeats once per cycle.  Each counts
    with its median latency across its repeats, so that neither one repeat
    timed across a change of machine speed nor the number of cycles a run
    fits moves the figures.
    """
    op_ms = np.array([statistics.median(v) for v in loop.op_ns.values()]) / 1e6
    q_us = np.concatenate([np.zeros(0), *(np.median(r, axis=0) for r in loop.query_ns.values())]) / 1e3
    tail_ms, pct, n = tail(op_ms)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (n / op_ms.sum() * 1e3 if n else 0.0, "1/s"),
        "op_p50_ms": (float(np.median(op_ms)) if n else 0.0, "ms"),
        "op_tail_ms": (tail_ms, "ms", f"p{pct:.1f} of {n} ops, {loop.cycles} repeats each"),
        "query_p50_us": (float(np.percentile(q_us, 50)) if len(q_us) else 0.0, "us"),
        "query_p99_us": (
            float(np.percentile(q_us, 99)) if len(q_us) else 0.0, "us", f"of {len(q_us)} queries"
        ),
        "success_frac": (loop.completed / loop.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _layer_spans(tracer: Tracer, since_ns: int):
    a = tracer.arrays()
    dur = (a["end"] - a["start"]).astype(float)
    names, tags = tracer.names, tracer.tag_names()

    def pick(name: str, tag: Optional[str] = None, timed: bool = True):
        if name not in names:
            return np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
        mask = a["name"] == names.index(name)
        if timed:
            mask &= a["start"] >= since_ns
        if tag is not None:
            mask &= a["tag"] == (tags.index(tag) if tag in tags else -1)
        return dur[mask], a["work"][mask], a["failed"][mask].astype(bool)

    return a, dur, pick


# per-layer statistics reported for each traced function
LAYER_STATS = {
    "engine.run_rewards": ("calls", "queries", "busy_s", "ns_per_query"),
    "engine.serve_query": ("calls", "busy_s", "us_per_call"),
    "policy.make_policy": ("calls", "busy_s", "p50_ms", "tail_ms"),
    "instances.supply_factor": ("calls", "busy_s", "p50_ms"),
    "oracle.offline_opt_exact": ("calls", "queries", "busy_s", "us_per_query", "failed"),
    "matching.empirical_ratio": ("calls", "trials", "busy_s", "ms_per_trial"),
    "dist.sample_array": ("calls", "draws", "busy_s"),
    "instances.gen_upper_triangular": ("calls", "busy_s"),
}
SETUP_LAYERS = ("dist.sample_array", "instances.gen_upper_triangular")  # called in set-up only
# busy time per unit of work: stat -> (ns per unit, unit), work counted as calls or as span work
PER_UNIT = {
    "ns_per_query": (1, "ns"),
    "us_per_query": (1e3, "us"),
    "us_per_call": (1e3, "us"),
    "ms_per_trial": (1e6, "ms"),
}


def _stat(stat: str, d: np.ndarray, work: np.ndarray, failed: np.ndarray) -> tuple:
    if stat == "calls":
        return len(d), "count"
    if stat in ("queries", "trials", "draws"):
        return int(work.sum()), "count"
    if stat == "failed":
        return int(failed.sum()), "count"
    if stat == "busy_s":
        return d.sum() / 1e9, "s"
    if stat == "p50_ms":
        return (float(np.median(d)) / 1e6 if len(d) else 0.0), "ms"
    if stat == "tail_ms":
        return tail(d / 1e6)[0], "ms"
    scale, unit = PER_UNIT[stat]
    units = len(d) if stat == "us_per_call" else work.sum()
    return (d.sum() / scale / units if units else 0.0), unit


def per_layer(
    tracer: Tracer, since_ns: int, timed_s: float, loop: Loop, overhead_pct: float
) -> Dict[str, tuple]:
    """Per-layer metrics: set-up layers over the traced set-up, the rest over the traced pass."""
    a, dur, pick = _layer_spans(tracer, since_ns)
    m: Dict[str, tuple] = {}
    for name, stats in LAYER_STATS.items():
        spans = pick(name, timed=name not in SETUP_LAYERS)
        m.update({f"{name}.{stat}": _stat(stat, *spans) for stat in stats})
    records = [r for r in loop.records if r]

    def total(key: str) -> float:
        return sum(r.get(key, 0) for r in records)

    streamed = loop.stream_counts

    layer = np.array([not n.startswith("bench.") for n in tracer.names])
    covered = dur[(a["start"] >= since_ns) & layer[a["name"]]].sum() / 1e9 if len(dur) else 0.0
    m.update({
        "engine.deliveries": (total("deliveries") + streamed["deliveries"], "count"),
        "engine.exchange_sales": (total("exchange_sales") + streamed["exchange_sales"], "count"),
        "policy.objective_sum": (float(total("objective")), "reward"),
        "oracle.value_sum": (float(total("opt_value")), "reward"),
        "bench.uncovered_s": (timed_s - covered, "s"),
        "bench.trace_overhead_pct": (overhead_pct, "%"),
        "bench.spans": (len(dur), "count"),
    })
    return m


# rows of the ROADMAP "Baseline" table:
# (label, workload that measures it, span, tag, trials the time is scaled to)
TRI, GEN, ORA = "triangular-binary", "general-unequal", "oracle-verify"
BASELINE_ROWS = [
    ("run_rewards, triangular m=50 n=2000 (200k queries)", TRI, "engine.run_rewards", "m=50 q=200000", None),
    ("run_rewards, triangular m=500 n=200 (200k queries)", TRI, "engine.run_rewards", "m=500 q=200000", None),
    ("serve_query, this workload's stream (us/query)", None, "engine.serve_query", None, None),
    *[(f"make_policy, d = {d}", GEN, "policy.make_policy", f"d={d}", None) for d in (3, 4, 5, 6)],
    ("offline_opt_exact, 8k queries", ORA, "oracle.offline_opt_exact", "q=8000", None),
    ("offline_opt_exact, 20k queries", ORA, "oracle.offline_opt_exact", "q=20000", None),
    ("supply_factor, triangular m=50 n=20", ORA, "instances.supply_factor", "m=50", None),
    ("empirical_ratio, m=100 f=2, 500 trials", ORA, "matching.empirical_ratio", "m=100 f=2", 500),
]


def baseline_table(tracer: Tracer, since_ns: int, workload: str) -> List[str]:
    _, _, pick = _layer_spans(tracer, since_ns)
    lines = ["| layer / config | median time | spans |", "| --- | --- | --- |"]
    for label, source, name, tag, trials in BASELINE_ROWS:
        if source not in (None, workload):
            lines.append(f"| {label} | measured by `{source}` | |")
            continue
        d, w, _ = pick(name, tag)
        if not len(d):
            lines.append(f"| {label} | no calls | 0 |")
        elif source is None:
            lines.append(f"| {label} | {d.mean() / 1e3:.2f} us (mean) | {len(d)} |")
        else:
            per = d / w * trials if trials else d
            lines.append(f"| {label} | {np.median(per) / 1e6:.1f} ms | {len(d)} |")
    return lines


def stamp(workload: str, seed: int) -> Dict[str, object]:
    def git(*args) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], capture_output=True, text=True, timeout=10, check=True
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(os.getcwd())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import networkx

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")) if in_repo else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, say=print) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    src = os.path.join(os.getcwd(), "src")
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    build = WORKLOADS[workload]
    if src not in sys.path:
        sys.path.insert(0, src)

    setup_times = []
    tracer = Tracer() if trace else None
    for _ in range(1 if trace else SETUP_REPEATS):
        probe = probe_python()
        t0 = time.perf_counter()
        yo = import_yieldopt(src)
        if tracer:
            span = tracer.open(tracer.name_id("bench.setup"))
        wl = build(yo, bind(yo, tracer), seed, refs, tiny)
        if tracer:
            tracer.close(span)
        elapsed = time.perf_counter() - t0
        setup_times.append(elapsed * PROBE_REF_NS * 2 / (probe + probe_python()))
    wl.prepare()  # untimed reference phase
    api = bind(yo, None)
    # keep the collector's full passes from walking the harness's own inputs
    gc.collect()
    gc.freeze()

    if not trace:
        loop = run_cycles(yo, wl, api, seconds, Loop(len(wl.ops)))
        metrics = end_to_end(loop, setup_times)
    else:
        plain = run_cycles(yo, wl, api, seconds / 2, Loop(len(wl.ops)))
        since = time.perf_counter_ns()
        span = tracer.open(tracer.name_id("bench.timed"))
        traced = Loop(len(wl.ops), plain.records)
        loop = run_cycles(yo, wl, bind(yo, tracer), seconds / 2, traced, tracer)
        tracer.close(span)
        # time per cycle, each pass in units of its own median speed probe
        per_cycle = [p.seconds / p.cycles / statistics.median(p.probe_ns) for p in (loop, plain)]
        overhead = 100.0 * (per_cycle[0] / per_cycle[1] - 1.0)
        metrics = per_layer(tracer, since, loop.seconds, loop, overhead)
        out_dir = os.path.join(os.getcwd(), ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.npz")
        tracer.save(path)
        say(f"# spans written to {os.path.relpath(path)}")
        for line in baseline_table(tracer, since, workload):
            say("# " + line)
        for key, count in plain.failures.items():
            loop.failures[key] = loop.failures.get(key, 0) + count
        for name in ("attempted", "completed", "wrong"):
            setattr(loop, name, getattr(loop, name) + getattr(plain, name))
        loop.problems = plain.problems + loop.problems

    problems = loop.problems + wl.final_checks(loop.records)
    say("# stamp " + json.dumps(stamp(workload, seed)))
    say(f"# {loop.cycles} cycles of {len(wl.ops)} ops in {loop.seconds:.2f} s")
    probe_ms = statistics.median(loop.probe_ns) / 1e6
    say(f"# stream speed probe: median {probe_ms:.3f} ms of {len(loop.probe_ns)} (scaled to 1 ms)")
    for key, count in sorted(loop.failures.items()):
        say(f"# failed: {key} x{count}")
    for p in problems:
        say(f"# WRONG: {p}")
    for name, (value, unit, *note) in metrics.items():
        say(f"# {name} = {value:.6g} {unit} {note[0] if note else ''}".rstrip())
    return {
        "correct": not problems and loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.attempted - loop.completed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "yieldopt", "__init__.py")):
        print("perfbench: no src/yieldopt here; run from the repository root", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
