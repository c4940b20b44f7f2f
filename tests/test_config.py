from pathlib import Path

import numpy as np
import pytest
import yaml

import smallscat as ss
from smallscat import config
from smallscat.config import (bc_from_config, box_from_config, load_config,
                              mesh_from_config, scene_from_config, wave_from_config)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_wave_and_box_parsing():
    wave = wave_from_config({"k": 2.0, "alpha": [0, 1, 0], "amplitude": [0.0, 1.0]})
    assert wave.k == 2.0 and wave.amplitude == 1j
    box = box_from_config({"lo": [0, 0, 0], "hi": [2, 1, 1]})
    assert box.volume == pytest.approx(2.0)
    with pytest.raises(ss.ConfigError):
        wave_from_config({"alpha": [0, 0, 1]})
    with pytest.raises(ss.ConfigError):
        box_from_config({"lo": [0, 0, 0], "hi": [0, 1, 1]})


def test_bc_parsing():
    assert isinstance(bc_from_config({"kind": "soft"}), ss.Soft)
    assert isinstance(bc_from_config({"kind": "hard"}), ss.Hard)
    imp = bc_from_config({"kind": "impedance", "h": [0.5, -0.1], "kappa": 0.7})
    assert imp.h == 0.5 - 0.1j and imp.kappa == 0.7
    with pytest.raises(ss.ConfigError):
        bc_from_config({"kind": "rigid"})
    with pytest.raises(ss.ConfigError):
        bc_from_config({"kind": "impedance"})  # h missing


def test_mesh_config_kinds(tmp_path):
    ico = mesh_from_config({"kind": "icosphere", "subdivisions": 1}, tmp_path)
    assert ico.n_triangles == 80
    sph = mesh_from_config({"kind": "spheroid", "subdivisions": 1,
                            "semi_axes": [1, 1, 2]}, tmp_path)
    assert sph.volume > ico.volume
    with pytest.raises(ss.ConfigError):
        mesh_from_config({"kind": "stl"}, tmp_path)


def test_scene_with_explicit_particles(tmp_path):
    cfg = {
        "wave": {"k": 1.0, "alpha": [0, 0, 1]},
        "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1]},
        "particles": [
            {"center": [0.3, 0.5, 0.5], "a": 0.01, "bc": {"kind": "soft"}},
            {"center": [0.7, 0.5, 0.5], "a": 0.01, "bc": {"kind": "soft"}},
        ],
    }
    scene = scene_from_config(cfg, tmp_path)
    assert scene.n_particles == 2
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
    scene = scene_from_config(cfg, tmp_path)
    assert scene.n_particles == 200
    assert scene.separation_factor == 5.0


def test_scene_requires_particles_or_cloud(tmp_path):
    cfg = {"wave": {"k": 1.0, "alpha": [0, 0, 1]},
           "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1]}}
    with pytest.raises(ss.ConfigError):
        scene_from_config(cfg, tmp_path)


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
    scene = scene_from_config(cfg, tmp_path)
    p = scene.particles[0]
    assert p.shape == "mesh"
    assert p.capacitance == pytest.approx(4 * np.pi * 0.01, rel=2e-2)
