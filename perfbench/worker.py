"""One workload process: import, warm up, then timed passes and the correctness gate.

Started by ``run.py`` with the BLAS thread variables already in its
environment, so they act before numpy loads.  It talks to ``run.py`` through
stdout lines that start with ``@``: ``@ready`` once set-up is done, and
``@result <json>`` at the end.  ``--probe`` stops after ``@ready``; ``run.py``
starts several probes to take the median set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import smallscat
from tracing import Tracer
from workloads import WORKLOADS, gate, load_references

ROOT = Path(__file__).resolve().parents[1]


def _say(tag: str, payload=None) -> None:
    line = f"@{tag}" if payload is None else f"@{tag} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def _call(op, tracer):
    if tracer is None:
        return op.call()
    with tracer.span(f"op.{op.name}"):
        return op.call()


def _problems(op, result, refs):
    try:
        return gate(op, result, refs)
    except Exception as exc:
        return [f"{op.name}: check raised {type(exc).__name__}: {exc}"]


def run_passes(ops, refs, seconds, tracer=None):
    """Repeat the workload's operations for about ``seconds``; at least one pass.

    Returns the pass times (the sum of the timed calls), the number of
    operations attempted, the messages of those that failed, and the peak RSS
    after the first pass (later passes can only add allocator fragmentation,
    and how many there are depends on timing).  A pass is not started when the
    previous one says it would end past the budget.
    """
    walls, attempted, failures, first_rss_mb = [], 0, [], None
    start = time.perf_counter()
    while True:
        gc.collect()
        pass_start = time.perf_counter()
        wall = 0.0
        if tracer is not None:
            tracer.begin_pass()
        for op in ops:
            t0 = time.perf_counter()
            try:
                result, problems = _call(op, tracer), None
            except Exception as exc:  # a failed operation is counted, never fatal
                result, problems = None, [f"{op.name}: {type(exc).__name__}: {exc}"]
            wall += time.perf_counter() - t0
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                if problems is None:
                    problems = _problems(op, result, refs)
            del result
            attempted += 1
            if problems:
                failures.append("; ".join(problems))
        if tracer is not None:
            tracer.end_pass()
        walls.append(wall)
        if first_rss_mb is None:
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return walls, attempted, failures, first_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    if Path(smallscat.__file__).resolve().parent != ROOT / "src" / "smallscat":
        sys.stderr.write(f"smallscat imported from {smallscat.__file__}, not this checkout\n")
        return 2
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    refs = load_references(args.workload, args.size, args.seed)
    ops = WORKLOADS[args.workload](args.seed, args.size, scratch)
    # Warm-up: one pass at smoke size loads lazy imports and BLAS kernels.
    run_passes(WORKLOADS[args.workload](args.seed, "smoke", scratch), None, 0.0)
    _say("ready")
    if args.probe:
        return 0

    walls, attempted, failures, peak_rss_mb = run_passes(ops, refs, args.seconds)
    result = {"walls": walls, "peak_rss_mb": peak_rss_mb, "env": environment()}
    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}-{time.time_ns()}"
        tracer = Tracer(run_id)
        tracer.install()
        try:
            traced, t_attempted, t_failures, _ = run_passes(ops, refs, args.seconds, tracer)
        finally:
            tracer.uninstall()
        attempted += t_attempted
        failures += t_failures
        layers = tracer.layer_metrics()
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls)
        result["layers"] = layers
        result["traced_walls"] = traced
        trace_path = scratch.parent / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, workload=args.workload, seed=args.seed, size=args.size)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    result.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    _say("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
