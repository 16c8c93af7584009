#!/usr/bin/env python3
"""Benchmark of exact2rel: a single-process, single-thread, closed-loop
load generator.  One caller runs operations back to back, each one
starting only when the previous one has returned.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``inputs.WHY`` for why each exists):

* ``recognize_members`` -- ``exact2rel recognize`` (3/4 undirected,
  1/4 ``--oriented``) on realizable graphs of 48-384 vertices;
* ``large_inputs`` -- ``recognize`` on non-members of 10^3-3*10^4
  vertices with one planted obstruction (3/4), ``canonicalize`` on
  500-4000-leaf trees, a quarter of them caterpillars (1/4);
* ``oracle_5`` -- ``exact2rel oracle --n 5`` in three variants (1/4) and
  ``all_witnesses`` on 5-vertex members and non-members (3/4).

Inputs come from ``inputs.py`` (standard library only) and are written
once as CLI files under ``.perfbench_work/``.  The program runs
in-process: ``exact2rel.cli.main(argv)`` with stdout captured in memory,
and ``exact2rel.oracle.all_witnesses``.  Every answer goes through the
correctness gate in ``gate.py``, outside the timed region.

``--trace 0`` times operations for ``--seconds`` seconds of operation
time, cycling through the input pool, and prints the end-to-end
metrics.  ``--trace 1`` runs one pass of the pool with every public
function wrapped in spans (``spans.py``), prints the per-layer metrics
summed over that pass, writes the spans to ``.perfbench_work/``, then
replays the same pass untraced to check that the outputs are
byte-identical and to measure the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``
(no operation gave a wrong answer), ``attempted``, ``failed`` and
``metrics``.  The line before it is a JSON report with the environment,
the input SHA-256, the sample count and the failures by reason.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections.abc import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# A run leaves at least ten samples beyond its 90th percentile: it goes
# on past --seconds until this many operations have succeeded, unless
# MAX_SECONDS of operation time have passed, which keeps a run within
# three minutes.  (oracle_5 needs 40-55 s for this many on a 2-core
# 2.1 GHz VM.)
MIN_SAMPLES = 110
MAX_SECONDS = 120.0

# Set-ups per run; setup_s is their median.  The first gives the program
# the run measures; the others are spread evenly over the run, so that
# setup_s, like the latencies, sees the machine's speed over the whole
# run and not only in the second the run started.
SETUP_ROUNDS = 9

# The untimed warm-up of each set-up: one operation that fills the
# in-process caches a user keeps (for oracle_5, the topology and
# permutation tables).
WARM_UP = {
    "recognize_members": ["recognize", "{warm}"],
    "large_inputs": ["recognize", "{warm}"],
    "oracle_5": ["oracle", "--n", "5", "--k", "1", "--zero-discrete"],
}
WARM_GRAPH = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"


class Program:
    """The exact2rel package as imported from ``src/`` of the checkout."""

    def __init__(self) -> None:
        self.pkg = importlib.import_module("exact2rel")
        self.cli = importlib.import_module("exact2rel.cli")
        self.oracle = importlib.import_module("exact2rel.oracle")
        where = os.path.dirname(os.path.abspath(self.pkg.__file__))
        if where != os.path.join(SRC, "exact2rel"):
            raise ImportError(f"exact2rel imported from {where}, not {SRC}")

    def run(self, op: dict, graph=None):
        """Run one operation; returns ``(exit code, stdout)`` or, for
        ``all_witnesses``, the list of trees."""
        if op["kind"] == "witnesses":
            return self.oracle.all_witnesses(
                graph, self.oracle.EnumerationBudget(5), 2)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(op["argv"])
        return rc, out.getvalue()


def _take_modules() -> dict:
    """Remove exact2rel's modules from ``sys.modules``; returns them."""
    names = [m for m in sys.modules
             if m == "exact2rel" or m.startswith("exact2rel.")]
    return {name: sys.modules.pop(name) for name in names}


def set_up(argv: list[str]) -> tuple[Program, float]:
    """Import exact2rel afresh and run the warm-up ``argv``; returns the
    program and the time taken.  The modules of an earlier import are
    put back afterwards, so the program a run measures stays whole, and
    the fresh ones are collected before the next timed operation."""
    saved = _take_modules()
    start = time.perf_counter()
    program = Program()
    program.run({"kind": "cli", "argv": argv})
    elapsed = time.perf_counter() - start
    if saved:
        _take_modules()
        sys.modules.update(saved)
        gc.collect()
    return program, elapsed


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from files."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(program: Program, seed: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "using_compiled": program.pkg.USING_COMPILED,
        "numpy": numpy,
        "git_commit": git_commit(),
        "seed": seed,
        "recursion_limit": sys.getrecursionlimit(),
    }


class Loop:
    """Closed loop over one pool: runs, times and checks operations."""

    def __init__(self, program: Program, pool: list[dict], graphs: dict):
        self.program = program
        self.pool = pool
        self.graphs = graphs
        self.failures: dict[str, int] = {}
        self.wrong = 0
        self.deep = 0

    def step(self, i: int) -> tuple[float, bool, object]:
        """Run and check operation ``i`` of the pool; returns its wall
        time, whether it succeeded, and its output (``None`` on an
        exception, the witness count for ``all_witnesses``)."""
        op = self.pool[i]
        graph = self.graphs.get(i)
        start = time.perf_counter()
        try:
            result = self.program.run(op, graph)
            error = None
        except (Exception, SystemExit) as exc:  # counted, never fatal
            result = None
            error = f"exception: {type(exc).__name__}"
        elapsed = time.perf_counter() - start
        if error is None:
            error = gate.check(op, result, sample_seed=i)
            if error is not None:
                self.wrong += 1
        if op.get("deep"):
            self.deep += 1
        if error is not None:
            self.failures[error] = self.failures.get(error, 0) + 1
        output = result if op["kind"] != "witnesses" or result is None \
            else len(result)
        return elapsed, error is None, output


def output_digest(outputs: list) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
    return h.hexdigest()


def measure(loop: Loop, seconds: float, setups: list[float],
            set_up_again: Callable[[], float]) -> tuple[dict, dict]:
    """Untraced run: whole passes of the pool until ``seconds`` of
    operation time have passed and ``MIN_SAMPLES`` operations have
    succeeded, or until ``MAX_SECONDS``.  Whole passes give every run
    the same mix of operations, so the percentiles do not depend on
    where a pass was cut.  Between operations it calls
    ``set_up_again`` (untimed) until ``setups`` holds ``SETUP_ROUNDS``
    set-up times, evenly over the run's progress."""
    latencies: list[float] = []
    timed = 0.0
    passes = 0
    first_pass: list = []
    while (timed < seconds or len(latencies) < MIN_SAMPLES) \
            and timed < MAX_SECONDS:
        for i in range(len(loop.pool)):
            elapsed, ok, output = loop.step(i)
            if passes == 0:
                first_pass.append(output)
            timed += elapsed
            if ok:
                latencies.append(elapsed * 1000)
            progress = min(timed / seconds, len(latencies) / MIN_SAMPLES)
            while len(setups) < SETUP_ROUNDS \
                    and progress >= len(setups) / SETUP_ROUNDS:
                setups.append(set_up_again())
        passes += 1
    while len(setups) < SETUP_ROUNDS:
        setups.append(set_up_again())
    if len(latencies) >= 2:
        deciles = statistics.quantiles(latencies, n=10)
        p50, p90 = statistics.median(latencies), deciles[8]
    else:
        p50 = p90 = latencies[0] if latencies else float("nan")
    metrics = {
        "ops_per_s": len(latencies) / timed,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setups),
    }
    extra = {
        "attempted": passes * len(loop.pool),
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "passes": passes,
        "timed_s": timed,
        "outputs_sha256": output_digest(first_pass),
    }
    return metrics, extra


def measure_traced(loop: Loop, seconds: float, trace_path: str
                   ) -> tuple[dict, dict]:
    """Traced run: one pass of the pool (cut short after ``seconds`` of
    operation time) with spans, then the same operations untraced."""
    tracer = spans.Tracer()
    origin = time.perf_counter()
    tracer.install()
    traced: list = []
    traced_time = 0.0
    traced_ok = 0
    try:
        for i in range(len(loop.pool)):
            if traced_time >= seconds:
                break
            tracer.begin_op(i)
            try:
                elapsed, ok, output = loop.step(i)
            finally:
                tracer.end_op()
            traced.append(output)
            traced_time += elapsed
            traced_ok += ok
    finally:
        tracer.uninstall()
    # The replay repeats the same operations: its failures are not new.
    counted = (dict(loop.failures), loop.wrong, loop.deep)
    replay_time = 0.0
    replay_ok = 0
    mismatched = 0
    for i, before in enumerate(traced):
        elapsed, ok, output = loop.step(i)
        replay_time += elapsed
        replay_ok += ok
        mismatched += output != before
    loop.failures, loop.wrong, loop.deep = counted
    loop.wrong += mismatched
    tracer.write(trace_path, origin)
    metrics = tracer.metrics()
    metrics["trace.overhead_ops_per_s"] = (replay_ok / replay_time
                                           - traced_ok / traced_time)
    extra = {
        "attempted": len(traced),
        "traced_s": traced_time,
        "untraced_s": replay_time,
        "outputs_differ": mismatched,
        "outputs_sha256": output_digest(traced),
        "span_counts": tracer.call_counts(),
        "spans_file": os.path.relpath(trace_path, ROOT),
    }
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "exact2rel", "__init__.py")):
        print(f"error: no exact2rel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, f"inputs-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    pool, inputs_sha = inputs.build_pool(args.workload, args.seed, workdir,
                                         gate.WITNESS_COUNTS)
    warm_path = os.path.join(workdir, "warm.txt")
    with open(warm_path, "w") as fh:
        fh.write(WARM_GRAPH)
    # Keep the benchmark's own inputs out of the cyclic collector, so
    # collections during timed operations scan only the program's objects.
    gc.collect()
    gc.freeze()

    warm_argv = [a.replace("{warm}", warm_path)
                 for a in WARM_UP[args.workload]]
    try:
        program, setup_s = set_up(warm_argv)
    except ImportError as exc:
        print(f"error: cannot import exact2rel: {exc}", file=sys.stderr)
        return 2
    graphs = {}
    for i, op in enumerate(pool):
        if op["kind"] == "witnesses":
            with open(op["path"]) as fh:
                graphs[i] = program.pkg.parse_graph(fh.read())
    loop = Loop(program, pool, graphs)

    if args.trace:
        trace_path = os.path.join(
            WORK, f"spans-{args.workload}-s{args.seed}.jsonl")
        metrics, extra = measure_traced(loop, args.seconds, trace_path)
        units = spans.metric_units()
    else:
        setups = [setup_s]
        metrics, extra = measure(loop, args.seconds, setups,
                                 lambda: set_up(warm_argv)[1])
        setup_s = metrics["setup_s"]
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = extra.pop("attempted")
    failed = sum(loop.failures.values())
    report = {
        "workload": args.workload,
        "why": inputs.WHY[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(program, args.seed),
        "inputs_sha256": inputs_sha,
        "pool_size": len(pool),
        "error_rate": failed / attempted,
        "failures": loop.failures,
        "deep_caterpillar_ops": loop.deep,
        "setup_s": setup_s,
        **extra,
    }
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ratio")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
