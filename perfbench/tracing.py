"""In-memory spans and counts recorded by timing wrappers on smallscat's public functions.

A wrapper is installed under every module attribute that names the wrapped
function, so a call is timed whichever module looks it up (``convergence_study``
calls ``smallscat.homogenize.solve_impedance``, the CLI calls
``smallscat.manybody.solve_soft``, and so on).  Class methods are wrapped on the
class.  Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time

def _solve_counts(result, args, kwargs):
    n = len(result.values) * (5 if result.kind == "hard" else 1)
    counts = {"manybody.solve.unknowns": n}
    if result.method == "gmres":
        counts["manybody.solve.gmres_calls"] = 1
    else:
        counts["manybody.solve.direct_calls"] = 1
        counts["manybody.solve.dense_bytes_computed"] = 16 * n * n
    return counts


def _panels(result, args, kwargs):
    return {"onebody.panels": args[0].n_triangles}


def _csv_bytes(result, args, kwargs):
    return {"cli.write_csv.bytes": os.path.getsize(args[0])}


# (span name, smallscat module, attribute, counter).  ``Class.method`` wraps
# the method on its class.  A counter maps (result, args, kwargs) to counts.
TARGETS = [
    ("core.generate_cloud", "core", "generate_cloud",
     lambda r, a, k: {"core.generate_cloud.particles": len(r)}),
    ("core.validate_scene", "core", "validate_scene", None),
    ("manybody.solve", "manybody", "solve_soft", _solve_counts),
    ("manybody.solve", "manybody", "solve_impedance", _solve_counts),
    ("manybody.solve", "manybody", "solve_hard", _solve_counts),
    ("manybody.solve_monopole_system", "manybody", "solve_monopole_system", None),
    ("manybody.pair_kernel_matrix", "manybody", "pair_kernel_matrix", None),
    ("manybody.assemble_hard_system", "manybody", "assemble_hard_system", None),
    ("manybody.far_field", "manybody", "far_field", None),
    ("manybody.eval_field", "manybody", "eval_field", None),
    ("homogenize.convergence_study", "homogenize", "convergence_study", None),
    ("homogenize.collocation_solve", "homogenize", "collocation_solve",
     lambda r, a, k: {"homogenize.collocation_solve.cells": len(r.values)}),
    ("homogenize.cover_field_from_solution", "homogenize", "cover_field_from_solution", None),
    ("homogenize.neumann_limit_solve", "homogenize", "neumann_limit_solve",
     lambda r, a, k: {"homogenize.neumann_limit_solve.cells": len(r.values)}),
    ("homogenize.inverse_design", "homogenize", "inverse_design", None),
    ("background.GreenEvaluator.init", "background", "GreenEvaluator.__init__", None),
    ("background.pair_values", "background", "GreenEvaluator.pair_values",
     lambda r, a, k: {"background.pair_values.calls": 1}),
    ("background.fixed_point_solve", "background", "fixed_point_solve",
     lambda r, a, k: {"background.fixed_point_solve.calls": 1}),
    ("background.scattered_plane_wave", "background", "scattered_plane_wave", None),
    ("onebody.capacitance_zeroth", "onebody", "capacitance_zeroth", _panels),
    ("onebody.polarizability", "onebody", "polarizability", _panels),
    ("config.load_config", "config", "load_config", None),
    ("config.scene_from_config", "config", "scene_from_config", None),
    ("cli.write_csv", "cli", "write_csv", _csv_bytes),
    ("cli.write_manifest", "cli", "RunConfig.write_manifest", None),
]
COUNTS = [
    "core.generate_cloud.particles",
    "manybody.solve.direct_calls", "manybody.solve.gmres_calls", "manybody.solve.unknowns",
    "manybody.solve.dense_bytes_computed",
    "homogenize.collocation_solve.cells", "homogenize.neumann_limit_solve.cells",
    "background.pair_values.calls", "background.fixed_point_solve.calls",
    "onebody.panels", "cli.write_csv.bytes",
]
# Every per-layer metric a traced run reports: self times, counts, then the
# cache-miss ratio and the tracing cost, which the worker adds.
PER_LAYER = ([f"{name}.s" for name in dict.fromkeys(t[0] for t in TARGETS)] + COUNTS
             + ["background.grid_solves_per_pair_call", "trace.wall_s", "trace.overhead_s"])


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    return "ratio" if name.endswith("_per_pair_call") else "count"


class Tracer:
    """Records spans and counts while ``recording`` is true; wrappers pass through otherwise."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list = []
        self.recording = False
        self._stack: list = []
        self._counts: dict = {}
        self._passes: list = []  # (first span index, end span index, counts) per pass
        self._installed: list = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    tracer._counts[key] = tracer._counts.get(key, 0) + value
            return result

        return timed

    def install(self) -> None:
        """Wrap every target under each name a smallscat module or class binds it to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "smallscat" or n.startswith("smallscat."))]
        for name, module, attr, counter in TARGETS:
            owner = importlib.import_module(f"smallscat.{module}")
            *cls, attr = attr.split(".")
            holders = [getattr(owner, cls[0])] if cls else modules
            original = getattr(holders[0] if cls else owner, attr)
            wrapper = self._wrap(name, original, counter)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._installed.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._installed):
            setattr(holder, key, original)
        self._installed.clear()

    @contextlib.contextmanager
    def paused(self):
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    # -- passes -----------------------------------------------------------
    def begin_pass(self) -> None:
        self._counts = {}
        self._passes.append([len(self.spans), None, self._counts])
        self.recording = True

    def end_pass(self) -> None:
        self.recording = False
        self._passes[-1][1] = len(self.spans)

    def _pass_self_times(self, first: int, end: int) -> dict:
        """Self time per span name: duration minus the time its child spans cover."""
        child = [0.0] * (end - first)
        for span in self.spans[first:end]:
            if span[3] is not None and span[3] >= first:
                child[span[3] - first] += span[2] - span[1]
        totals: dict = {}
        for i, span in enumerate(self.spans[first:end]):
            totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1]) - child[i]
        return totals

    def layer_metrics(self) -> dict:
        """Median over traced passes of each layer's self time and count."""
        per_pass = []
        for first, end, counts in self._passes:
            row = {f"{name}.s": value for name, value in self._pass_self_times(first, end).items()}
            row.update(counts)
            calls = row.get("background.pair_values.calls", 0)
            row["background.grid_solves_per_pair_call"] = (
                row.get("background.fixed_point_solve.calls", 0) / calls if calls else 0.0)
            per_pass.append(row)
        return {key: statistics.median(row.get(key, 0) for row in per_pass)
                for key in PER_LAYER if not key.startswith("trace.")}

    def write(self, path, **meta) -> None:
        """Spans as (name, start, end, parent) with times in seconds from the run start."""
        spans = [[s[0], s[1] - self.origin, s[2] - self.origin, s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, **meta, "spans": spans}, fh)
            fh.write("\n")
