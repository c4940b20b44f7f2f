from pathlib import Path

import numpy as np
import pytest
import yaml

import smallscat as ss
from smallscat import config
from smallscat.config import (Section, bc_from_config, box_from_config, load_config,
                              mesh_from_config, scene_from_config, wave_from_config)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def parent(base_dir=".", **sections):
    """A top-level section holding ``sections``, as a builder reads it."""
    return Section(sections, "", tuple(sections), base_dir)


def test_wave_and_box_parsing():
    wave = wave_from_config(parent(wave={"k": 2.0, "alpha": [0, 1, 0], "amplitude": [0.0, 1.0]}))
    assert wave.k == 2.0 and wave.amplitude == 1j
    box = box_from_config(parent(domain={"lo": [0, 0, 0], "hi": [2, 1, 1]}))
    assert box.volume == pytest.approx(2.0)
    with pytest.raises(ss.ConfigError, match="wave.k: missing required key"):
        wave_from_config(parent(wave={"alpha": [0, 0, 1]}))
    with pytest.raises(ss.ConfigError, match="domain: box must have positive extent"):
        box_from_config(parent(domain={"lo": [0, 0, 0], "hi": [0, 1, 1]}))


def test_bc_parsing():
    assert isinstance(bc_from_config(parent(bc={"kind": "soft"})), ss.Soft)
    assert isinstance(bc_from_config(parent(bc={"kind": "hard"})), ss.Hard)
    assert isinstance(bc_from_config(parent()), ss.Soft)
    imp = bc_from_config(parent(bc={"kind": "impedance", "h": [0.5, -0.1], "kappa": 0.7}))
    assert imp.h == 0.5 - 0.1j and imp.kappa == 0.7
    with pytest.raises(ss.ConfigError, match="bc.kind: expected one of soft, hard, impedance"):
        bc_from_config(parent(bc={"kind": "rigid"}))
    with pytest.raises(ss.ConfigError, match="bc.h: missing required key"):
        bc_from_config(parent(bc={"kind": "impedance"}))
    with pytest.raises(ss.ConfigError, match="bc.h: unknown key"):
        bc_from_config(parent(bc={"kind": "soft", "h": 1.0}))


def test_mesh_config_kinds(tmp_path):
    ico = mesh_from_config(parent(tmp_path, mesh={"kind": "icosphere", "subdivisions": 1}))
    assert ico.n_triangles == 80
    sph = mesh_from_config(parent(tmp_path, mesh={"kind": "spheroid", "subdivisions": 1,
                                                  "semi_axes": [1, 1, 2]}))
    assert sph.volume > ico.volume
    with pytest.raises(ss.ConfigError, match="mesh.kind"):
        mesh_from_config(parent(tmp_path, mesh={"kind": "stl"}))


@pytest.mark.parametrize("read, value, expected", [
    (Section.real, "3e0", 3.0),
    (Section.real, 2, 2.0),
    (Section.count, 6.0, 6),
    (Section.count, 2**63 + 1, 2**63 + 1),
    (Section.complex, [1, "-2"], 1 - 2j),
    (Section.complex, 1.5, 1.5 + 0j),
], ids=["exponent_string", "int", "whole_float", "large_int", "pair", "real"])
def test_section_reads_values_as_float_reads_them(read, value, expected):
    result = read(Section({"v": value}, "s", ("v",)), "v")
    assert result == expected and type(result) is type(expected)


@pytest.mark.parametrize("read, value, message", [
    (Section.real, True, "expected a finite number, got True"),
    (Section.real, "inf", "expected a finite number, got 'inf'"),
    (Section.count, 2.5, "expected a whole number, got 2.5"),
    (Section.complex, [1, 2, 3], "expected a finite number or [re, im] pair"),
    (Section.point, [1, 2], "expected three finite numbers"),
    (Section.reals, 1.0, "expected a list of finite numbers"),
    (Section.real, None, "null is not a value"),
], ids=["bool", "inf", "fraction", "triple", "pair_point", "scalar_list", "null"])
def test_section_refuses_malformed_values_naming_the_key(read, value, message):
    with pytest.raises(ss.ConfigError) as exc:
        read(Section({"v": value}, "top.s", ("v",)), "v")
    assert str(exc.value).startswith("top.s.v: ") and message in str(exc.value)


def test_section_count_holds_its_lower_bound():
    sec = Section({"zero": 0, "minus": -1}, "s", ("zero", "minus"))
    assert sec.count("zero", least=0) == 0
    with pytest.raises(ss.ConfigError, match=r"^s.zero: expected a whole number of at least 1"):
        sec.count("zero")
    with pytest.raises(ss.ConfigError, match=r"^s.minus: expected a whole number of at least 0"):
        sec.count("minus", least=0)


def test_section_refuses_keys_its_branch_does_not_read():
    sec = Section({"q": 1.0, "h": 2.0}, "s", ("q", "h", "density"))
    sec.refuse(("density",), "with q")
    with pytest.raises(ss.ConfigError, match=r"^s.h: not read with q$"):
        sec.refuse(("density", "h"), "with q")


def test_scene_with_explicit_particles(tmp_path):
    cfg = {
        "wave": {"k": 1.0, "alpha": [0, 0, 1]},
        "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
        "particles": [
            {"center": [0.3, 0.5, 0.5], "a": 0.01, "bc": {"kind": "soft"}},
            {"center": [0.7, 0.5, 0.5], "a": 0.01, "bc": {"kind": "soft"}},
        ],
    }
    scene, seed = scene_from_config(parent(tmp_path, scene=cfg))
    assert scene.n_particles == 2 and seed is None
    assert scene.kind == "soft"


def test_scene_with_gridded_density_cloud(tmp_path):
    # density doubled on a CSV lattice: counting law picks it up through config
    axes = np.linspace(0, 1, 4)
    rows = ["x,y,z,value"]
    for x in axes:
        for y in axes:
            for z in axes:
                rows.append(f"{x},{y},{z},2.0")
    (tmp_path / "density.csv").write_text("\n".join(rows) + "\n")
    cfg = {
        "wave": {"k": 1.0, "alpha": [0, 0, 1]},
        "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
        "cloud": {
            "law": "dirichlet",
            "a": 0.01,
            "density": {"kind": "grid", "path": "density.csv"},
            "bc": {"kind": "soft"},
            "seed": 0,
            "separation_factor": 5.0,
        },
    }
    scene, seed = scene_from_config(parent(tmp_path, scene=cfg))
    assert scene.n_particles == 200 and seed == 0
    assert scene.separation_factor == 5.0


@pytest.mark.parametrize("law, bc", [("impedance", {"kind": "soft"}),
                                     ("dirichlet", {"kind": "impedance", "h": 1.0})])
def test_cloud_kappa_is_read_by_an_impedance_law_or_bc(tmp_path, law, bc):
    cloud = {"law": law, "a": 0.05, "density": 1.0, "bc": bc, "kappa": 0.3,
             "separation_factor": 1.0}
    cfg = {"wave": {"k": 1.0, "alpha": [0, 0, 1]},
           "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "cloud": cloud}
    scene, _ = scene_from_config(parent(tmp_path, scene=cfg))
    if law == "impedance":  # a^(kappa - 2) particles per unit density
        assert scene.n_particles == round(0.05 ** (0.3 - 2.0))
    else:
        assert {p.bc.kappa for p in scene.particles} == {0.3}
    cloud.update(law="dirichlet", bc={"kind": "soft"})
    with pytest.raises(ss.ConfigError, match=r"^scene\.cloud\.kappa: not read "):
        scene_from_config(parent(tmp_path, scene=cfg))


def test_scene_requires_particles_or_cloud(tmp_path):
    cfg = {"wave": {"k": 1.0, "alpha": [0, 0, 1]},
           "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1]}}
    with pytest.raises(ss.ConfigError):
        scene_from_config(parent(tmp_path, scene=cfg))


def test_load_config_errors(tmp_path):
    with pytest.raises(ss.ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "list.yaml"
    bad.write_text("- 1\n- 2\n")
    with pytest.raises(ss.ConfigError):
        load_config(bad)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_c_and_python_loaders_give_equal_configs(path, monkeypatch):
    assert config._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    loaded = load_config(path)
    monkeypatch.setattr(config, "_LOADER", yaml.SafeLoader)
    assert load_config(path) == loaded


def test_mesh_particle_through_scene_config(tmp_path):
    cfg = {
        "wave": {"k": 1.0, "alpha": [0, 0, 1]},
        "domain": {"lo": [-1, -1, -1], "hi": [1, 1, 1]},
        "particles": [
            {"center": [0.0, 0.0, 0.0], "bc": {"kind": "soft"},
             "mesh": {"kind": "icosphere", "subdivisions": 2}, "scale": 0.01},
        ],
    }
    scene, _ = scene_from_config(parent(tmp_path, scene=cfg))
    p = scene.particles[0]
    assert p.capacitance == pytest.approx(4 * np.pi * 0.01, rel=2e-2)
