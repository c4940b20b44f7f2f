import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import smallscat as ss
from smallscat import manybody
from smallscat.cli import main
from smallscat.config import load_config
from smallscat.onebody import _PANEL_PAIR_BYTES

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


@pytest.mark.parametrize("body, bc", [
    ("a: 0.05", ss.Soft()),
    ("mesh: {kind: icosphere, subdivisions: 1, radius: 0.05}",
     ss.Impedance(h=0.8 - 0.2j, kappa=0.5)),
], ids=["soft_sphere", "impedance_icosphere"])
def test_onebody_payload_of_a_soft_sphere_and_an_impedance_mesh(tmp_path, body, bc):
    bc_text = "{kind: soft}" if isinstance(bc, ss.Soft) else "{kind: impedance, h: [0.8, -0.2]}"
    cfg = tmp_path / "onebody.yaml"
    cfg.write_text(f"onebody:\n  wave: {{k: 2.0, alpha: [0, 0, 1]}}\n  bc: {bc_text}\n"
                   f"  {body}\n  n_directions: 5\n")
    out = tmp_path / "out"
    assert run("onebody", cfg, out) == 0
    payload = json.loads((out / "onebody.json").read_text())
    assert set(payload) == {"amplitudes", "capacitance", "polarizability", "radius_scale",
                            "surface_area", "volume"}
    beta = np.array(payload["polarizability"])
    assert beta.shape == (3, 3) and np.max(np.abs(beta + 1.5 * np.eye(3))) < 0.2
    if isinstance(bc, ss.Soft):
        particle = ss.Particle.sphere(np.zeros(3), 0.05, bc)
    else:
        particle = ss.mesh_particle(np.zeros(3), ss.icosphere(1, radius=0.05), bc)
    assert payload["capacitance"] == particle.capacitance
    assert payload["volume"] == particle.volume
    assert payload["radius_scale"] == particle.a
    wave = ss.IncidentWave(k=2.0, alpha=[0, 0, 1])
    assert len(payload["amplitudes"]) == 5
    for amp in payload["amplitudes"]:
        expected = ss.amplitude_onebody(particle, wave, amp["beta"])
        assert complex(amp["re"], amp["im"]) == expected


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


def _edited(tmp_path, config, old, new):
    text = (CONFIGS / config).read_text()
    assert old in text
    cfg = tmp_path / config
    cfg.write_text(text.replace(old, new))
    return cfg


def _green_config(tmp_path, method):
    return _edited(tmp_path, "green_demo.yaml", "method: {kind: lippmann_schwinger}", method)


def _green_values(out):
    table = np.loadtxt(out / "green.csv", delimiter=",", skiprows=1)
    return table[:, 1:4], table[:, 4] + 1j * table[:, 5]


def test_green_tol_flag_sets_the_grid_solve_tolerance(tmp_path, monkeypatch):
    from smallscat import background

    used = []
    checked = background.solve_checked

    def recorded(system, rhs, rtol):
        used.append(rtol)
        return checked(system, rhs, rtol)

    monkeypatch.setattr(background, "solve_checked", recorded)
    # GMRES iterates to tol * 1e-2 relative, so every tolerance changes the iterate
    for name, extra, tol in [("default", (), 1e-10), ("tight", ["--tol", "1e-12"], 1e-12),
                             ("loose", ["--tol", "1e-4"], 1e-4)]:
        used.clear()
        assert run("green", CONFIGS / "green_demo.yaml", tmp_path / name, extra) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["tolerance"] == tol and set(used) == {tol}
    csv = {(tmp_path / name / "green.csv").read_bytes() for name in ("default", "tight", "loose")}
    assert len(csv) == 3


def test_homogenize_tol_flag_changes_the_solution(tmp_path):
    for name, extra in [("default", ()), ("loose", ["--tol", "1e-4"])]:
        assert run("homogenize", CONFIGS / "homogenize_demo.yaml", tmp_path / name, extra) == 0
    cells = [(tmp_path / name / "cells.csv").read_bytes() for name in ("default", "loose")]
    assert cells[0] != cells[1]
    manifest = json.loads((tmp_path / "loose" / "manifest.json").read_text())
    assert manifest["tolerance"] == 1e-4 and manifest["residuals"]["collocation"] <= 1e-4


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_that_is_not_finite_and_positive_exits_2_before_anything_runs(tmp_path, capsys, tol):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run("green", CONFIGS / "green_demo.yaml", out, ["--tol", tol])
    assert exc.value.code == 2
    assert "--tol: must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_green_born_method_writes_the_born_kernel(tmp_path):
    from smallscat.background import BackgroundMedium, GreenEvaluator
    from smallscat.config import field_from_config, load_config
    from smallscat.grids import Box

    cfg = _green_config(tmp_path, "method: {kind: born, order: 1}")
    assert run("green", cfg, tmp_path / "out") == 0
    section = load_config(cfg)["green"]
    medium = BackgroundMedium(n2=field_from_config(section["n2"], tmp_path),
                              box=Box(**section["domain"]))
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


@pytest.mark.parametrize("method", ["{kind: lippmann_schwinger}", "{kind: born, order: 2}"],
                         ids=["lippmann_schwinger", "born"])
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
    # free_space is no method: every method gives the free-space kernel in a uniform medium,
    # and green.csv prints g beside G
    for kind in ("multigrid", "free_space"):
        cfg = _green_config(tmp_path, f"method: {{kind: {kind}}}")
        out = tmp_path / kind
        assert run("green", cfg, out) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["type"] == "ConfigError" and kind in record["error"]


def _config_error(subcommand, cfg, out):
    assert run(subcommand, cfg, out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError" and record["exit_code"] == 2
    return record["error"]


@pytest.mark.parametrize("subcommand, config, old, new, key", [
    ("green", "green_demo.yaml", "k: 2.0", "k: [1, 2]", "green.k"),
    ("solve", "solve_one_soft.yaml", "k: 1.0", "k: [1, 2]", "scene.wave.k")],
    ids=["green", "solve"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, subcommand, config, old, new, key):
    error = _config_error(subcommand, _edited(tmp_path, config, old, new), tmp_path / "out")
    assert error.startswith(f"{key}: expected a finite number")


@pytest.mark.parametrize("subcommand, config, old, new, key", [
    ("solve", "solve_cloud_soft.yaml", "bc: {kind: soft}", "bc: soft", "scene.cloud.bc"),
    ("solve", "solve_one_soft.yaml", "- {center: [0.5, 0.5, 0.5], a: 0.01, bc: {kind: soft}}",
     "- 5", "scene.particles[0]"),
    ("green", "green_demo.yaml", "method: {kind: lippmann_schwinger}", "method: born",
     "green.method"),
    ("solve", "solve_one_soft.yaml", "lo: [0.1, 0.1, 0.1]", "lo: [0.1, 0.1]",
     "outputs.field_grid.lo"),
    ("solve", "solve_one_soft.yaml", "farfield: {n_directions: 10}", "farfield: 5",
     "outputs.farfield"),
    ("green", "green_demo.yaml", "start: [0.55, 0.5, 0.5]", "start: 0.55",
     "green.segment.start"),
], ids=["cloud_bc", "particle", "green_method", "field_grid_lo", "farfield", "segment_start"])
def test_malformed_section_exits_2_naming_the_key(tmp_path, subcommand, config, old, new, key):
    error = _config_error(subcommand, _edited(tmp_path, config, old, new), tmp_path / "out")
    assert error.startswith(f"{key}: expected")


@pytest.mark.parametrize("subcommand, config, old, new", [
    ("green", "green_demo.yaml", "grid_n: 8", "grid_n: 6.5"),
    ("green", "green_demo.yaml", "n: 15", "n: 15.5"),
    ("green", "green_demo.yaml", "{kind: lippmann_schwinger}", "{kind: born, order: 1.5}"),
    ("solve", "solve_one_soft.yaml", "n_directions: 10", "n_directions: 10.5"),
    ("solve", "solve_cloud_soft.yaml", "seed: 0", "seed: 0.5"),
    ("solve", "solve_cloud_soft.yaml", "seed: 0", "strata_n: 2.5"),
    ("onebody", "onebody_hard_sphere.yaml", "subdivisions: 2", "subdivisions: 2.5"),
], ids=["grid_n", "n", "order", "n_directions", "seed", "strata_n", "subdivisions"])
def test_fractional_count_exits_2(tmp_path, subcommand, config, old, new):
    error = _config_error(subcommand, _edited(tmp_path, config, old, new), tmp_path / "out")
    assert "expected a whole number" in error


@pytest.mark.parametrize("subcommand, config, old, new, key, least", [
    ("solve", "solve_one_soft.yaml", "n_directions: 10", "n_directions: 0",
     "outputs.farfield.n_directions", 1),
    ("solve", "solve_one_soft.yaml", "n: 3}", "n: -1}", "outputs.field_grid.n", 1),
    ("solve", "solve_cloud_soft.yaml", "seed: 0", "seed: -1", "scene.cloud.seed", 0),
    ("solve", "solve_cloud_soft.yaml", "seed: 0", "strata_n: 0", "scene.cloud.strata_n", 1),
    ("converge", "converge_demo.yaml", "seed: 0", "seed: -1", "converge.seed", 0),
    ("onebody", "onebody_hard_sphere.yaml", "n_directions: 6", "n_directions: 0",
     "onebody.n_directions", 1),
    ("onebody", "onebody_hard_sphere.yaml", "subdivisions: 2", "subdivisions: -1",
     "onebody.mesh.subdivisions", 0),
    ("green", "green_demo.yaml", "n: 15", "n: 0", "green.segment.n", 1),
    ("green", "green_demo.yaml", "{kind: lippmann_schwinger}", "{kind: born, order: -1}",
     "green.method.order", 0),
    ("green", "green_demo.yaml", "grid_n: 8", "grid_n: 0", "green.grid_n", 1),
    ("homogenize", "homogenize_demo.yaml", "grid_n: 6", "grid_n: 0", "homogenize.grid_n", 1),
    ("design", "design_demo.yaml", "grid_n: 4", "grid_n: 0", "design.grid_n", 1),
], ids=["n_directions", "field_grid_n", "cloud_seed", "strata_n", "converge_seed",
        "onebody_n_directions", "subdivisions", "segment_n", "order", "green_grid_n",
        "homogenize_grid_n", "design_grid_n"])
def test_count_below_its_bound_exits_2_before_any_solve(tmp_path, subcommand, config, old, new,
                                                          key, least):
    out = tmp_path / "out"
    error = _config_error(subcommand, _edited(tmp_path, config, old, new), out)
    assert error.startswith(f"{key}: expected a whole number of at least {least}, got ")
    assert [path.name for path in out.iterdir()] == ["error.json"]


@pytest.mark.parametrize("subcommand, config, old, new, key", [
    ("homogenize", "homogenize_demo.yaml", "grid_n: 6", "grid_n: 6\n  b_shape: x_not_read",
     "homogenize.b_shape"),
    ("homogenize", "homogenize_demo.yaml", "grid_n: 6", "grid_n: 6\n  density: 1.0",
     "homogenize.density"),
    ("homogenize", "homogenize_demo.yaml", "grid_n: 6", "grid_n: 6\n  h: 1.0",
     "homogenize.h"),
    ("onebody", "onebody_hard_sphere.yaml", "n_directions: 6", "n_directions: 6\n  a: 1.0",
     "onebody.a"),
    ("solve", "solve_hard_pair.yaml", "a: 0.02, bc: {kind: hard}}",
     "a: 0.02, bc: {kind: hard}, mesh: {kind: icosphere, subdivisions: 1, radius: 0.02}}",
     "scene.particles[0].a"),
    ("solve", "solve_one_soft.yaml", "a: 0.01,", "a: 0.01, scale: 2.0,",
     "scene.particles[0].scale"),
    ("converge", "converge_demo.yaml", "seed: 0", "seed: 0\n  h: 1.0", "converge.h"),
    ("converge", "converge_demo.yaml", "seed: 0", "seed: 0\n  kappa: 0.5", "converge.kappa"),
    ("solve", "solve_cloud_soft.yaml", "seed: 0", "seed: 0\n    kappa: 0.9",
     "scene.cloud.kappa"),
], ids=["q_with_b_shape", "q_with_density", "q_with_h", "onebody_mesh_with_a",
        "particle_mesh_with_a", "particle_scale_without_mesh", "dirichlet_with_h",
        "dirichlet_with_kappa", "cloud_kappa_without_impedance"])
def test_key_the_branch_does_not_read_exits_2(tmp_path, subcommand, config, old, new, key):
    error = _config_error(subcommand, _edited(tmp_path, config, old, new), tmp_path / "out")
    assert error.startswith(f"{key}: not read ")


@pytest.mark.parametrize("subcommand, config, old, new, message", [
    ("solve", "solve_cloud_soft.yaml", "value: 1.0}", "value: 0.0}",
     "scene.cloud: counting law yields 0 particles"),
    ("solve", "solve_cloud_soft.yaml", "value: 1.0}", "value: -1.0}",
     "scene.cloud: density must be nonnegative on the domain"),
    ("converge", "converge_demo.yaml", "value: 1.0}", "value: -1.0}",
     "converge.density: density must be nonnegative on the domain"),
    ("green", "green_demo.yaml", "start: [0.55, 0.5, 0.5]", "start: [0.3, 0.5, 0.5]",
     "green.segment: green requires x != y"),
    ("converge", "converge_demo.yaml", "a_levels: [0.08, 0.04, 0.02]", "a_levels: [0.08, -0.04]",
     "converge.a_levels: expected positive numbers, got "),
    ("converge", "converge_demo.yaml", "a_levels: [0.08, 0.04, 0.02]", "a_levels: []",
     "converge.a_levels: expected positive numbers, got "),
    ("converge", "converge_impedance.yaml", "kappa: 0.5", "kappa: 1.5",
     "converge.kappa: expected a number in (0, 1)"),
], ids=["cloud_without_particles", "cloud_negative_density", "converge_negative_density",
        "segment_through_source", "converge_negative_size", "converge_no_sizes",
        "converge_kappa_above_one"])
def test_value_the_numerics_refuse_exits_2_naming_its_key(tmp_path, subcommand, config, old,
                                                          new, message):
    out = tmp_path / "out"
    error = _config_error(subcommand, _edited(tmp_path, config, old, new), out)
    assert error.startswith(message)
    assert [path.name for path in out.iterdir()] == ["error.json"]


def test_impedance_study_without_h_exits_2_naming_it(tmp_path):
    cfg = _edited(tmp_path, "converge_demo.yaml", "law: dirichlet", "law: impedance")
    error = _config_error("converge", cfg, tmp_path / "out")
    assert error.startswith("converge.h: missing required key")


@pytest.mark.parametrize("subcommand, config, old, new", [
    ("homogenize", "homogenize_demo.yaml", "amplitude: 3.0", "amplitude: .nan"),
    ("homogenize", "homogenize_impedance_medium.yaml", "value: [0.0397887357729738, 0.0]",
     "value: [0.0397887357729738, .inf]"),
    ("green", "green_demo.yaml", "amplitude: 0.1", "amplitude: .nan"),
    ("solve", "solve_one_soft.yaml", "  particles:",
     "  background: {n2: {kind: constant, value: .nan}}\n  particles:"),
], ids=["homogenize", "pair", "green", "scene_background"])
def test_non_finite_field_value_exits_2(tmp_path, subcommand, config, old, new):
    error = _config_error(subcommand, _edited(tmp_path, config, old, new), tmp_path / "out")
    assert "finite" in error


def test_exponent_numbers_read_as_float_reads_them(tmp_path):
    # YAML 1.1 reads 1e-1 (no dot) as a string; a field value takes it as float() does
    cfg = _edited(tmp_path, "green_demo.yaml", "amplitude: 0.1", "amplitude: 1e-1")
    assert run("green", cfg, tmp_path / "exp") == 0
    assert run("green", CONFIGS / "green_demo.yaml", tmp_path / "demo") == 0
    assert ((tmp_path / "exp" / "green.csv").read_bytes()
            == (tmp_path / "demo" / "green.csv").read_bytes())
    bare = _edited(tmp_path, "homogenize_impedance_medium.yaml",
                   "density: {kind: constant, value: 1.0}", "density: 1e0")
    assert run("homogenize", bare, tmp_path / "bare") == 0


# converge_impedance.yaml is the study the cloud benchmark runs
_DEMOS = sorted(path for path in CONFIGS.glob("*.yaml") if path.stem != "converge_impedance")


def _subcommand(config):
    section = next(iter(load_config(config)))
    return "solve" if section == "scene" else section


def _key_name(path):
    name = ""
    for part in path:
        name += f"[{part}]" if isinstance(part, int) else f".{part}" if name else part
    return name


def _malformed(cfg, path=()):
    """(mutated copy, key its error must name) for every leaf of ``cfg`` set to each malformed
    value, and for an undeclared key added to every mapping."""
    node = cfg
    for part in path:
        node = node[part]
    if isinstance(node, dict):
        bad = copy.deepcopy(cfg)
        target = bad
        for part in path:
            target = target[part]
        target["undeclared"] = 1
        yield bad, _key_name(path + ("undeclared",))
    if isinstance(node, (dict, list)):
        for part in (node if isinstance(node, dict) else range(len(node))):
            yield from _malformed(cfg, path + (part,))
        return
    # a list element is named by its list's key
    name = _key_name(path[:-1] if isinstance(path[-1], int) else path)
    for value in ("x", None, {"a": 1}, float("nan"), [1]):
        bad = copy.deepcopy(cfg)
        target = bad
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = value
        yield bad, name


def test_every_malformed_value_exits_2_naming_its_key(tmp_path):
    # without --seed, so the configs' seeds are read; every run stops before its first solve
    failures, runs = [], 0
    for config in _DEMOS:
        for i, (bad, key) in enumerate(_malformed(load_config(config))):
            cfg = tmp_path / f"{config.stem}_{i}.yaml"
            cfg.write_text(yaml.safe_dump(bad))
            out = tmp_path / f"{config.stem}_{i}"
            code = run(_subcommand(config), cfg, out)
            record = json.loads((out / "error.json").read_text()) if code else {}
            runs += 1
            if code != 2 or record["type"] != "ConfigError" or key not in record["error"]:
                failures.append((config.stem, key, code, record))
    assert runs > 900 and not failures, failures[:5]


@pytest.mark.parametrize("config, old, new, key", [
    ("green_demo.yaml", "{kind: lippmann_schwinger}", "{kind: lippmann_schwinger, tol: 1.0e-6}",
     "green.method.tol"),
    ("solve_cloud_soft.yaml", "bc: {kind: soft}", "bc: {kind: soft, kappa: 0.5}",
     "scene.cloud.bc.kappa"),
], ids=["green_method_tol", "cloud_bc_kappa"])
def test_removed_key_exits_2(tmp_path, config, old, new, key):
    cfg = _edited(tmp_path, config, old, new)
    error = _config_error(_subcommand(cfg), cfg, tmp_path / "out")
    assert error.startswith(f"{key}: unknown key")


@pytest.mark.parametrize("config", _DEMOS, ids=lambda path: path.stem)
def test_demo_config_runs_twice_to_the_same_artifacts(tmp_path, config):
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert run(_subcommand(config), config, out) == 0
    names = sorted(path.name for path in outs[0].iterdir() if path.name != "manifest.json")
    assert names and names == sorted(path.name for path in outs[1].iterdir()
                                     if path.name != "manifest.json")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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


@pytest.mark.parametrize("argv, message", [
    (["solve"], "the following arguments are required: --config"),
    (["--config", "x.yaml"], "the following arguments are required: subcommand"),
    (["bogus", "--config", "x.yaml"], "invalid choice: 'bogus'"),
    (["solve", "--config", "x.yaml", "--seed", "-1"], "--seed: must be at least 0, got -1"),
], ids=["no_config", "no_subcommand", "unknown_subcommand", "negative_seed"])
def test_parser_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


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


def test_bad_yaml_exits_2_on_the_python_loader(tmp_path, monkeypatch):
    import yaml

    from smallscat import config

    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    bad = tmp_path / "bad.yaml"
    bad.write_text("scene: [unclosed\n")
    out = tmp_path / "out"
    assert run("solve", bad, out) == 2
    assert json.loads((out / "error.json").read_text())["type"] == "ConfigError"


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
    # the demo's 320 panels, at the checked bytes per panel pair of the double-layer solve
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", _PANEL_PAIR_BYTES * 320 * 320 - 1)
    out = tmp_path / "out"
    assert run("onebody", CONFIGS / "onebody_hard_sphere.yaml", out) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "GridTooLarge" and "double-layer matrix of 320" in record["error"]
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", _PANEL_PAIR_BYTES * 320 * 320)
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
    # a cloud kernel whose products turn NaN after the first: the start's residual is nonzero,
    # so the first Arnoldi product is NaN and fails the solve there
    calls = []

    def nan_after_first(kernel, v):
        calls.append(1)
        return np.ones_like(v) if len(calls) == 1 else np.full_like(v, np.nan)

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


def test_every_module_and_demo_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every smallscat module imports
    # and every demo config runs to exit 0
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""if True:
        import importlib, json, pkgutil, sys
        from pathlib import Path
        import yaml
        sys.modules["scipy"] = None
        import smallscat
        for module in pkgutil.iter_modules(smallscat.__path__):
            importlib.import_module("smallscat." + module.name)
        from smallscat.cli import main
        status = {{}}
        for config in sorted(Path({str(CONFIGS)!r}).glob("*.yaml")):
            command = next(iter(yaml.safe_load(config.read_text())))
            command = "solve" if command == "scene" else command
            out = Path({str(tmp_path)!r}) / config.stem
            status[config.name] = main([command, "--config", str(config), "--out", str(out)])
        print(json.dumps(status))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stdout.splitlines()[-1])
    assert status == {config.name: 0 for config in CONFIGS.glob("*.yaml")}


def test_solver_failure_exits_3(tmp_path, monkeypatch):
    # a grid solve whose products turn NaN fails its residual check: exit 3, not a traceback
    from smallscat.lattice import LatticeOperator

    monkeypatch.setattr(LatticeOperator, "__matmul__", lambda kernel, v: np.full_like(v, np.nan))
    out = tmp_path / "out"
    assert run("green", CONFIGS / "green_demo.yaml", out) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "SolveFailure" and "residual nan" in record["error"]


def test_green_solves_a_bump_where_the_fixed_point_diverges(tmp_path):
    # amplitude 4, width 0.35, k = 6: the fixed-point iteration of this cover diverges
    from smallscat.background import (BackgroundMedium, cell_self_green, cover_responses,
                                      free_space_green, point_source_sum)
    from smallscat.config import field_from_config, load_config
    from smallscat.grids import Box, GridCover

    cfg = tmp_path / "strong.yaml"
    bump = "amplitude: 0.1, center: [0.5, 0.5, 0.5], width: 0.2"
    text = (CONFIGS / "green_demo.yaml").read_text()
    assert bump in text and "k: 2.0" in text
    cfg.write_text(text.replace(bump, "amplitude: 4.0, center: [0.5, 0.5, 0.5], width: 0.35")
                   .replace("k: 2.0", "k: 6.0"))
    assert run("green", cfg, tmp_path / "out") == 0
    points, values = _green_values(tmp_path / "out")
    # the same kernel from one dense LU of the cover system, not from GMRES
    section = load_config(cfg)["green"]
    medium = BackgroundMedium(n2=field_from_config(section["n2"], tmp_path),
                              box=Box(**section["domain"]))
    cover = GridCover.from_shape(medium.box, section["grid_n"])
    source = np.asarray(section["source"], dtype=float)
    charges = cover_responses(cover, 6.0, medium.contrast(cover.centers), source[None, :])[0]
    expected = free_space_green(6.0, np.linalg.norm(points - source, axis=1)) \
        + point_source_sum(6.0, points, cover.centers, charges[:, 0], cell_self_green(cover))
    gap = np.max(np.abs(values - expected)) / np.max(np.abs(expected))
    assert gap <= 1e-8


def test_failed_cover_solve_exits_3(tmp_path, monkeypatch):
    # a direct solve that returns NaN is a solver failure, not a config error
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
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
