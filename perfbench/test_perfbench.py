"""Tests of the benchmark itself, at smoke sizes; outside the package test suite.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import smallscat as ss  # noqa: E402
from tracing import PER_LAYER, Tracer, unit  # noqa: E402
from worker import run_passes  # noqa: E402
from workloads import (FINGERPRINT_RTOL, WORKLOADS, Op, compare_facts,  # noqa: E402
                       fingerprint)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert "ops_failed_frac = 0 " in proc.stdout
    assert '"OPENBLAS_NUM_THREADS": "1"' in proc.stdout


def test_workloads_and_layers_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(name, unit(name)) for name in PER_LAYER]


def test_other_seed_is_gated_by_invariants():
    proc = run_bench("--workload", "converge_cloud", "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc.stdout)["correct"] is True


def test_compare_facts_tolerance():
    ref = {"values": fingerprint(np.array([1 + 2j, 3 - 1j, 0.5j])), "M": 3}
    near = {"values": [v + 0.1 * FINGERPRINT_RTOL for v in ref["values"]], "M": 3}
    far = {"values": [v + 1e-3 for v in ref["values"]], "M": 3}
    assert compare_facts(ref, ref) == []
    assert compare_facts(near, ref) == []
    assert compare_facts(far, ref) != []
    assert compare_facts({**ref, "M": 4}, ref) != []
    assert compare_facts({"M": 3}, ref) != []


def test_exception_and_failed_check_count_without_aborting():
    def boom():
        raise ss.SolveFailure("no")

    ops = [Op("raises", boom), Op("bad", lambda: 1, invariants=lambda r: ["wrong"]),
           Op("good", lambda: 1)]
    walls, attempted, failures, _ = run_passes(ops, None, 0.0)
    assert len(walls) == 1 and attempted == 3
    assert len(failures) == 2 and "SolveFailure" in failures[0] and "wrong" in failures[1]


def test_wrappers_record_spans_and_restore():
    original = ss.homogenize.solve_impedance
    tracer = Tracer("test")
    tracer.install()
    try:
        assert ss.homogenize.solve_impedance is not original
        assert ss.solve_impedance is ss.homogenize.solve_impedance
        tracer.begin_pass()
        (op,) = WORKLOADS["converge_cloud"](0, "smoke", ROOT)
        op.call()
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert ss.homogenize.solve_impedance is original and ss.solve_impedance is original
    layers = tracer.layer_metrics()
    assert layers["manybody.solve.direct_calls"] == 2
    assert layers["manybody.solve.unknowns"] == 44 + 125
    assert layers["core.generate_cloud.particles"] == 44 + 125
    assert layers["homogenize.convergence_study.s"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"homogenize.convergence_study", "manybody.solve", "core.generate_cloud",
            "homogenize.collocation_solve", "manybody.solve_monopole_system"} <= names
    study = next(i for i, s in enumerate(tracer.spans) if s[0] == "homogenize.convergence_study")
    assert all(s[3] == study for s in tracer.spans if s[0] == "manybody.solve")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cli_demos", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

