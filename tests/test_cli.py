import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smallscat import manybody
from smallscat.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(subcommand, config, out, extra=()):
    return main([subcommand, "--config", str(config), "--out", str(out), *extra])


def test_solve_single_soft_manifest(tmp_path):
    out = tmp_path / "run"
    assert run("solve", CONFIGS / "solve_one_soft.yaml", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert set(manifest["artifacts"]) == {"particles.csv", "farfield.csv", "field.csv"}
    # Q1 = -4 pi a u0(x1)
    u0 = np.exp(1j * 1.0 * 0.5)
    expected = -4 * np.pi * 0.01 * u0
    assert manifest["summary"]["Q_first_re"] == pytest.approx(expected.real, rel=1e-12)
    assert manifest["summary"]["Q_first_im"] == pytest.approx(expected.imag, rel=1e-12)
    header = (out / "particles.csv").read_text().splitlines()[0]
    assert header == "m,x,y,z,a,re_ue,im_ue,re_Q,im_Q"
    # no orphan files: everything in the run directory is the manifest or listed in it
    on_disk = {p.name for p in out.iterdir()}
    assert on_disk == set(manifest["artifacts"]) | {"manifest.json"}


def test_solve_cloud_runs(tmp_path):
    out = tmp_path / "cloud"
    assert run("solve", CONFIGS / "solve_cloud_soft.yaml", out) == 0
    rows = (out / "particles.csv").read_text().splitlines()
    assert len(rows) - 1 == 50
    assert (out / "farfield.csv").exists()


def test_solve_hard_pair(tmp_path):
    out = tmp_path / "hard"
    assert run("solve", CONFIGS / "solve_hard_pair.yaml", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["kind"] == "hard"
    assert manifest["residuals"]["system"] < 1e-10
    # monopole strength of a hard sphere: lap(u) |D| ~ -k^2 |D|
    vol = 4 / 3 * np.pi * 0.02**3
    q1 = manifest["summary"]["Q_first_re"] + 1j * manifest["summary"]["Q_first_im"]
    assert abs(q1) == pytest.approx(vol, rel=1e-2)


def test_homogenize_from_density_and_impedance(tmp_path):
    out = tmp_path / "medium"
    assert run("homogenize", CONFIGS / "homogenize_impedance_medium.yaml", out) == 0
    rows = (out / "cells.csv").read_text().splitlines()
    assert len(rows) - 1 == 5**3
    # q = b N h = 0.5 everywhere for this config
    first = rows[1].split(",")
    assert float(first[4]) == pytest.approx(0.5, rel=1e-12)


def test_onebody_json(tmp_path, capsys):
    out = tmp_path / "onebody"
    assert run("onebody", CONFIGS / "onebody_hard_sphere.yaml", out) == 0
    payload = json.loads((out / "onebody.json").read_text())
    assert payload["capacitance"] == pytest.approx(4 * np.pi, rel=2e-2)
    beta = np.array(payload["polarizability"])
    assert np.max(np.abs(beta + 1.5 * np.eye(3))) < 0.05
    assert len(payload["amplitudes"]) == 6
    printed = capsys.readouterr().out
    assert '"capacitance"' in printed


def test_homogenize_cells_csv(tmp_path):
    out = tmp_path / "homog"
    assert run("homogenize", CONFIGS / "homogenize_demo.yaml", out) == 0
    rows = (out / "cells.csv").read_text().splitlines()
    assert rows[0] == "p,x,y,z,re_q,im_q,re_u,im_u"
    assert len(rows) - 1 == 6**3


def test_design_demo_value(tmp_path):
    out = tmp_path / "design"
    assert run("design", CONFIGS / "design_demo.yaml", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["h_first_re"] == pytest.approx(0.0397887, rel=1e-5)
    assert manifest["summary"]["max_roundtrip_error"] < 1e-12
    assert (out / "prescription.yaml").exists()
    assert (out / "design.csv").exists()


def test_converge_demo_decreasing(tmp_path):
    out = tmp_path / "conv"
    assert run("converge", CONFIGS / "converge_demo.yaml", out) == 0
    rows = (out / "converge.csv").read_text().splitlines()
    assert rows[0].startswith("a,M,cover_n,cover_edge,sup_error")
    errors = [float(r.split(",")[4]) for r in rows[1:]]
    assert len(errors) == 3
    assert errors[0] > errors[1] > errors[2]


def test_green_csv(tmp_path):
    out = tmp_path / "green"
    assert run("green", CONFIGS / "green_demo.yaml", out) == 0
    rows = (out / "green.csv").read_text().splitlines()
    assert rows[0] == "t,x,y,z,re_G,im_G,re_g,im_g"
    assert len(rows) - 1 == 15


def _green_config(tmp_path, method):
    cfg = tmp_path / "green.yaml"
    text = (CONFIGS / "green_demo.yaml").read_text()
    cfg.write_text(text.replace("method: {kind: lippmann_schwinger, tol: 1.0e-10}", method))
    return cfg


def _green_values(out):
    table = np.loadtxt(out / "green.csv", delimiter=",", skiprows=1)
    return table[:, 1:4], table[:, 4] + 1j * table[:, 5]


def test_green_tol_flag_overrides_the_config_tolerance(tmp_path, monkeypatch):
    from smallscat import background

    used = []
    fixed_point = background.fixed_point_solve

    def recorded(kernel, rhs, tol, *args, **kwargs):
        used.append(tol)
        return fixed_point(kernel, rhs, tol, *args, **kwargs)

    monkeypatch.setattr(background, "fixed_point_solve", recorded)
    loose = _green_config(tmp_path, "method: {kind: lippmann_schwinger, tol: 1.0e-6}")
    for name, config, extra, tol in [("config", CONFIGS / "green_demo.yaml", (), 1e-10),
                                     ("loose", loose, (), 1e-6),
                                     ("flag", CONFIGS / "green_demo.yaml", ["--tol", "1e-2"], 1e-2),
                                     ("flag_loose", loose, ["--tol", "1e-2"], 1e-2)]:
        used.clear()
        assert run("green", config, tmp_path / name, extra) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["tolerance"] == tol and set(used) == {tol}
    csv = {name: (tmp_path / name / "green.csv").read_bytes()
           for name in ("config", "flag", "flag_loose")}
    assert csv["flag"] != csv["config"] and csv["flag"] == csv["flag_loose"]


def test_green_born_method_writes_the_born_kernel(tmp_path):
    from smallscat.background import BackgroundMedium, GreenEvaluator
    from smallscat.config import box_from_config, load_config
    from smallscat.fields import field_from_config

    cfg = _green_config(tmp_path, "method: {kind: born, order: 1}")
    assert run("green", cfg, tmp_path / "out") == 0
    section = load_config(cfg)["green"]
    medium = BackgroundMedium(n2=field_from_config(section["n2"], tmp_path),
                              box=box_from_config(section["domain"]))
    evaluator = GreenEvaluator(medium, section["k"], grid_n=section["grid_n"],
                               method=("born", 1))
    points, values = _green_values(tmp_path / "out")
    expected = evaluator.pair_values(points, np.asarray(section["source"], dtype=float))
    assert np.max(np.abs(values - expected)) <= 1e-14 * np.max(np.abs(expected))
    # and not the converged kernel of the demo's lippmann_schwinger method
    assert run("green", CONFIGS / "green_demo.yaml", tmp_path / "ls") == 0
    _, converged = _green_values(tmp_path / "ls")
    assert np.max(np.abs(values - converged)) > 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("method", ["{kind: born, order: 1}"])
def test_green_methods_without_a_solve_record_no_tolerance(tmp_path, method):
    cfg = _green_config(tmp_path, f"method: {method}")
    for name, extra in [("default", ()), ("flag", ["--tol", "1e-3"])]:
        assert run("green", cfg, tmp_path / name, extra) == 0
        assert json.loads((tmp_path / name / "manifest.json").read_text())["tolerance"] is None
    csv = [(tmp_path / name / "green.csv").read_bytes() for name in ("default", "flag")]
    assert csv[0] == csv[1]


@pytest.mark.parametrize("method", ["{kind: lippmann_schwinger, tol: 1.0e-10}",
                                    "{kind: born, order: 2}"], ids=["lippmann_schwinger", "born"])
def test_green_in_a_uniform_medium_is_free_space(tmp_path, monkeypatch, method):
    """n0^2 = 1 builds no grid and solves nothing under any method, so the manifest records no
    tolerance; G is g digit for digit, as the grid solve's correction of exactly 0 left it."""
    from smallscat import background

    def refuse(*args, **kwargs):
        raise AssertionError("a uniform medium built a grid operator")

    monkeypatch.setattr(background, "medium_kernel", refuse)
    cfg = _green_config(tmp_path, f"method: {method}")
    text = cfg.read_text()
    bump = "n2: {kind: gaussian_bump, amplitude: 0.1, center: [0.5, 0.5, 0.5], width: 0.2, base: 1.0}"
    assert bump in text
    cfg.write_text(text.replace(bump, "n2: {kind: constant, value: 1.0}"))
    for name, extra in [("default", ()), ("flag", ["--tol", "1e-3"])]:
        assert run("green", cfg, tmp_path / name, extra) == 0
        assert json.loads((tmp_path / name / "manifest.json").read_text())["tolerance"] is None
    csv = [(tmp_path / name / "green.csv").read_bytes() for name in ("default", "flag")]
    assert csv[0] == csv[1]
    rows = [line.split(",") for line in csv[0].decode().splitlines()[1:]]
    assert len(rows) == 15 and all(row[4:6] == row[6:8] for row in rows)


def test_green_unknown_method_exits_2(tmp_path):
    # free_space is no method: auto gives the free-space kernel in a uniform medium, and
    # green.csv prints g beside G
    for kind in ("multigrid", "free_space"):
        cfg = _green_config(tmp_path, f"method: {{kind: {kind}}}")
        out = tmp_path / kind
        assert run("green", cfg, out) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["type"] == "ConfigError" and kind in record["error"]


@pytest.mark.parametrize("subcommand, config, old, new", [
    ("green", "green_demo.yaml", "k: 2.0", "k: [1, 2]"),
    ("solve", "solve_one_soft.yaml", "k: 1.0", "k: [1, 2]")], ids=["green", "solve"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, subcommand, config, old, new):
    cfg = tmp_path / config
    cfg.write_text((CONFIGS / config).read_text().replace(old, new))
    out = tmp_path / "out"
    assert run(subcommand, cfg, out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "TypeError" and record["exit_code"] == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exits_2_before_any_thread_variable_is_set(tmp_path, monkeypatch,
                                                                     capsys, threads):
    variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in variables:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run("green", CONFIGS / "green_demo.yaml", out, ["--threads", threads])
    assert exc.value.code == 2
    assert "--threads: must be at least 1" in capsys.readouterr().err
    assert not any(var in os.environ for var in variables)
    assert not out.exists()


def test_identical_runs_byte_identical_csv(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run("converge", CONFIGS / "converge_demo.yaml", out1) == 0
    assert run("converge", CONFIGS / "converge_demo.yaml", out2) == 0
    assert (out1 / "converge.csv").read_bytes() == (out2 / "converge.csv").read_bytes()
    # manifests agree except for timings
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("timings"), m2.pop("timings")
    m1["inputs"], m2["inputs"] = None, None  # same file, same hash; path identical
    assert m1 == m2


def test_seed_flag_changes_cloud(tmp_path):
    out1, out2 = tmp_path / "s0", tmp_path / "s1"
    assert run("solve", CONFIGS / "solve_cloud_soft.yaml", out1) == 0
    assert run("solve", CONFIGS / "solve_cloud_soft.yaml", out2, ["--seed", "5"]) == 0
    assert (out1 / "particles.csv").read_bytes() != (out2 / "particles.csv").read_bytes()


def test_manifest_records_the_effective_seed(tmp_path):
    def seed(subcommand, config, name, extra=()):
        assert run(subcommand, config, tmp_path / name, extra) == 0
        return json.loads((tmp_path / name / "manifest.json").read_text())["seed"]

    seven = tmp_path / "solve_cloud_seed7.yaml"
    text = (CONFIGS / "solve_cloud_soft.yaml").read_text()
    seven.write_text(text.replace("seed: 0", "seed: 7"))
    assert seed("solve", CONFIGS / "solve_cloud_soft.yaml", "config") == 0
    assert seed("solve", seven, "seven") == 7
    assert seed("solve", seven, "flag", ["--seed", "5"]) == 5
    assert seed("converge", CONFIGS / "converge_demo.yaml", "converge") == 0
    assert seed("solve", CONFIGS / "solve_one_soft.yaml", "explicit") is None


def test_env_var_overrides_out(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("SMALLSCAT_OUT", str(env_dir))
    assert run("design", CONFIGS / "design_demo.yaml", tmp_path / "ignored") == 0
    assert (env_dir / "design.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    code = run("solve", tmp_path / "nope.yaml", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["exit_code"] == 2


def test_bad_yaml_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scene: [unclosed\n")
    assert run("solve", bad, tmp_path / "out") == 2


def test_missing_mesh_file_exits_2(tmp_path):
    cfg = tmp_path / "onebody.yaml"
    cfg.write_text(
        "onebody:\n  wave: {k: 1.0, alpha: [0, 0, 1]}\n  bc: {kind: soft}\n"
        "  mesh: {kind: obj, path: missing.obj}\n"
    )
    out = tmp_path / "out"
    assert run("onebody", cfg, out) == 2
    assert json.loads((out / "error.json").read_text())["type"] == "ConfigError"


def test_onebody_mesh_above_the_budget_exits_2(tmp_path, monkeypatch):
    # the demo's 320 panels; the double-layer assembly peaks at 64 bytes per panel pair
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", 64 * 320 * 320 - 1)
    out = tmp_path / "out"
    assert run("onebody", CONFIGS / "onebody_hard_sphere.yaml", out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "GridTooLarge" and "double-layer matrix of 320" in record["error"]
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", 64 * 320 * 320)
    assert run("onebody", CONFIGS / "onebody_hard_sphere.yaml", tmp_path / "fits") == 0


def test_infeasible_design_exits_2(tmp_path):
    cfg = tmp_path / "design.yaml"
    cfg.write_text(
        "design:\n  k: 1.0\n  domain: {lo: [0,0,0], hi: [1,1,1]}\n  grid_n: 2\n"
        "  n2_target: {kind: constant, value: [1.0, -0.5]}\n"
    )
    out = tmp_path / "out"
    assert run("design", cfg, out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "DesignInfeasible"


def test_regime_violation_exits_4(tmp_path):
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(
        "scene:\n"
        "  wave: {k: 1.0, alpha: [0, 0, 1]}\n"
        "  domain: {lo: [0, 0, 0], hi: [1, 1, 1]}\n"
        "  particles:\n"
        "    - {center: [0.5, 0.5, 0.5], a: 0.01, bc: {kind: soft}}\n"
        "    - {center: [0.55, 0.5, 0.5], a: 0.01, bc: {kind: soft}}\n"
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 4
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "RegimeViolation"


@pytest.mark.parametrize("wave, particle", [
    ("{k: .nan, alpha: [0, 0, 1]}", "{center: [0.5, 0.5, 0.5], a: 0.01}"),
    ("{k: .inf, alpha: [0, 0, 1]}", "{center: [0.5, 0.5, 0.5], a: 0.01}"),
    ("{k: 1.0, alpha: [0, 0, 1]}", "{center: [0.5, 0.5, 0.5], a: .nan}"),
    ("{k: 1.0, alpha: [0, 0, 1]}", "{center: [0.5, 0.5, 0.5], a: .inf}"),
], ids=["k_nan", "k_inf", "a_nan", "a_inf"])
def test_non_finite_scene_input_exits_2(tmp_path, wave, particle):
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(
        "scene:\n"
        f"  wave: {wave}\n"
        "  domain: {lo: [0, 0, 0], hi: [1, 1, 1]}\n"
        f"  particles:\n    - {particle}\n"
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError" and "finite" in record["error"]


def test_scene_without_particles_exits_2(tmp_path):
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(
        "scene:\n"
        "  wave: {k: 1.0, alpha: [0, 0, 1]}\n"
        "  domain: {lo: [0, 0, 0], hi: [1, 1, 1]}\n"
        "  particles: []\n"
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError" and "no particles" in record["error"]


def test_hard_scene_in_background_medium_exits_2(tmp_path):
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(
        "scene:\n"
        "  wave: {k: 1.0, alpha: [0, 0, 1]}\n"
        "  domain: {lo: [0, 0, 0], hi: [1, 1, 1]}\n"
        "  background:\n"
        "    n2: {kind: gaussian_bump, amplitude: 0.2, center: [0.5, 0.5, 0.5],"
        " width: 0.2, base: 1.0}\n"
        "  particles:\n"
        "    - {center: [0.3, 0.5, 0.5], a: 0.005, bc: {kind: hard}}\n"
        "    - {center: [0.7, 0.5, 0.5], a: 0.005, bc: {kind: hard}}\n"
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError" and "background" in record["error"]


def test_dense_budget_exceeded_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", 0)
    out = tmp_path / "out"
    assert run("solve", CONFIGS / "solve_hard_pair.yaml", out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "GridTooLarge" and record["exit_code"] == 2


def test_nan_residual_exits_3(tmp_path, monkeypatch):
    # a cloud kernel whose products turn NaN after the first: GMRES stops at its start, and
    # the NaN residual recomputed there fails the solve instead of passing it
    calls = []

    def nan_after_first(kernel, v):
        calls.append(1)
        return np.zeros_like(v) if len(calls) == 1 else np.full_like(v, np.nan)

    monkeypatch.setattr(manybody.CloudKernel, "__matmul__", nan_after_first)
    out = tmp_path / "out"
    assert run("solve", CONFIGS / "solve_cloud_soft.yaml", out) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "SolveFailure" and "residual nan" in record["error"]
    assert len(calls) == 2


def test_memory_error_exits_2_with_a_record(tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the kernel")

    monkeypatch.setattr(manybody, "solve_hard", exhausted)
    out = tmp_path / "out"
    assert run("solve", CONFIGS / "solve_hard_pair.yaml", out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "cannot allocate the kernel", "type": "MemoryError",
                      "exit_code": 2}


def test_cli_import_leaves_numpy_unloaded():
    # --threads sets the BLAS thread variables in main(); numpy reads them once, on import
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, smallscat.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_solver_failure_exits_3(tmp_path):
    cfg = tmp_path / "green.yaml"
    cfg.write_text(
        "green:\n  k: 3.0\n  domain: {lo: [0,0,0], hi: [1,1,1]}\n"
        "  n2: {kind: gaussian_bump, amplitude: 49.0, center: [0.5,0.5,0.5],"
        " width: 0.4, base: 1.0}\n"
        "  grid_n: 6\n"
        "  method: {kind: lippmann_schwinger, tol: 1.0e-10}\n"
        "  source: [0.3, 0.5, 0.5]\n"
        "  segment: {start: [0.6, 0.5, 0.5], stop: [0.9, 0.5, 0.5], n: 5}\n"
    )
    assert run("green", cfg, tmp_path / "out") == 3


def test_failed_cover_solve_exits_3(tmp_path, monkeypatch):
    # a direct solve that returns NaN is a solver failure, not a config error
    from smallscat import background

    monkeypatch.setattr(background, "lu_solve", lambda lu, b, **kwargs: np.full_like(b, np.nan))
    cfg = tmp_path / "scene.yaml"
    cfg.write_text(
        "scene:\n"
        "  wave: {k: 1.0, alpha: [0, 0, 1]}\n"
        "  domain: {lo: [0, 0, 0], hi: [1, 1, 1]}\n"
        "  background:\n"
        "    n2: {kind: gaussian_bump, amplitude: 0.2, center: [0.5, 0.5, 0.5],"
        " width: 0.2, base: 1.0}\n"
        "  particles:\n"
        "    - {center: [0.3, 0.5, 0.5], a: 0.005, bc: {kind: soft}}\n"
        "    - {center: [0.7, 0.5, 0.5], a: 0.005, bc: {kind: soft}}\n"
    )
    out = tmp_path / "out"
    assert run("solve", cfg, out) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "SolveFailure" and record["exit_code"] == 3
