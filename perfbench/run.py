"""smallscat benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload converge_cloud --seed 0 --seconds 15 --trace 0

Run it from anywhere; it benchmarks the checkout it sits in (``src/smallscat``
and ``configs/``) and writes only under ``.perfbench/`` there.  Set-up is
timed over several fresh processes (import plus a smoke-size warm-up pass) and
reported as the median.  The workload then runs in its own process with BLAS
threads capped before numpy loads: ``--trace 0`` repeats untraced passes for
``--seconds`` and reports end-to-end metrics; ``--trace 1`` does the same, then
installs the timing wrappers and repeats traced passes for ``--seconds``,
reporting per-layer self times and counts plus the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, the failed-operation share and the thread and library
settings.  ``--smoke`` runs tiny sizes, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("converge_cloud", "lattice_limits", "cloud_scenes", "cli_demos")
# Set-up is timed in the workload process and in probe processes before and
# after it (five samples per run), so one burst of host load cannot hit all.
SETUP_PROBES_BEFORE = SETUP_PROBES_AFTER = 2
# One BLAS thread (never more than nproc).  On the 2-core reference machine two
# OpenBLAS threads made the GMRES level of converge_cloud both slower and
# noisier (12.7-14.0 s against 11.4-11.7 s for the same solve).
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SMALLSCAT_OUT", None)  # it would redirect CLI output out of the checkout
    return env


class Worker:
    """A worker process whose ``@`` lines are collected; other output goes to stderr."""

    def __init__(self, argv, env, deadline_s):
        self.started = time.perf_counter()
        self.ready_s = None
        self.result = None
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                     env=env, stdout=subprocess.PIPE, text=True)
        self._timer = threading.Timer(deadline_s, self.proc.kill)
        self._timer.start()

    def wait(self) -> int:
        try:
            for line in self.proc.stdout:
                if line.startswith("@ready"):
                    self.ready_s = time.perf_counter() - self.started
                elif line.startswith("@result "):
                    self.result = json.loads(line[len("@result "):])
                else:
                    sys.stderr.write(line)
            return self.proc.wait()
        finally:
            self._timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)

    if args.seed < 0:
        return fail("--seed must be non-negative")
    missing = [p for p in ("src/smallscat/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        return fail(f"no smallscat checkout around {HERE}: missing {', '.join(missing)}")

    out = ROOT / ".perfbench"
    scratch = out / f"scratch-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", "smoke" if args.smoke else "full", "--scratch", str(scratch)]
    env = worker_env()

    def probe():
        proc = Worker([*common, "--seconds", "0", "--probe"], env, WORKER_TIMEOUT_S)
        return proc.ready_s if proc.wait() == 0 else None

    try:
        setup = [probe() for _ in range(SETUP_PROBES_BEFORE)]
        worker = Worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, WORKER_TIMEOUT_S)
        code = worker.wait()
        setup += [worker.ready_s] + [probe() for _ in range(SETUP_PROBES_AFTER)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = worker.result
    if code != 0 or result is None:
        return fail(f"workload process exited with code {code} and no result")
    if None in setup:
        return fail("a set-up probe failed")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(result['walls'])}" + (f"+{len(result['traced_walls'])} traced"
                                              if args.trace else ""))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  setup samples {[round(s, 4) for s in setup]} s; pass times "
          f"{[round(w, 4) for w in result['walls']]} s")
    print(f"  ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")
    if args.trace:
        print(f"  spans written to {result['trace_file']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
