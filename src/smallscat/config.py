"""YAML run configurations: scenes, clouds, meshes, media, study protocols.

Files are parsed by PyYAML's safe loader on libyaml (``CSafeLoader``) where
PyYAML was built with it, and by the pure-Python ``SafeLoader`` otherwise.
Complex values are written as a number (real) or a two-element ``[re, im]``
list.  Paths inside a config resolve relative to the config file.  The full
schema is documented in the repository README.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import yaml

from .background import BackgroundMedium
from .core import (DEFAULT_JITTER, DEFAULT_SEPARATION_FACTOR, DEFAULT_SMALLNESS_THRESHOLD,
                   CloudSpec, Hard, Impedance, IncidentWave, Particle, Scene, Soft,
                   generate_cloud)
from .errors import ConfigError, UnsupportedScene
from .fields import ScalarField, _complex_from_config, field_from_config
from .grids import Box
from .onebody import SurfaceMesh, icosphere, load_obj, mesh_particle, spheroid


# libyaml's parser where PyYAML was built with it; the constructor and resolver are the
# same Python code either way, so both loaders give equal dicts
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> dict:
    """The config file's top-level mapping; raises ConfigError if it is missing or malformed."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return cfg


def mapping(value, where: str) -> dict:
    """``value`` if it is a mapping; raises ConfigError naming ``where`` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping, got {value!r}")
    return value


def whole(value, where: str) -> int:
    """``value`` as an int; raises ConfigError on a float that is not a whole number."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: expected a whole number, got {value!r}")
    return int(value)


def _require(cfg: dict, key: str, where: str):
    if key not in mapping(cfg, where):
        raise ConfigError(f"{where}: missing required key '{key}'")
    return cfg[key]


def wave_from_config(cfg: dict) -> IncidentWave:
    try:
        return IncidentWave(
            k=float(_require(cfg, "k", "wave")),
            alpha=np.asarray(_require(cfg, "alpha", "wave"), dtype=float),
            amplitude=_complex_from_config(cfg.get("amplitude", 1.0), "wave.amplitude"),
        )
    except ValueError as exc:
        raise ConfigError(f"wave: {exc}") from exc


def box_from_config(cfg: dict) -> Box:
    try:
        return Box(lo=np.asarray(_require(cfg, "lo", "domain"), dtype=float),
                   hi=np.asarray(_require(cfg, "hi", "domain"), dtype=float))
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc


def bc_from_config(cfg: dict):
    kind = _require(cfg, "kind", "bc")
    try:
        if kind == "soft":
            return Soft()
        if kind == "hard":
            return Hard()
        if kind == "impedance":
            return Impedance(h=_complex_from_config(_require(cfg, "h", "bc"), "bc.h"),
                             kappa=float(cfg.get("kappa", 0.5)))
    except ValueError as exc:
        raise ConfigError(f"bc: {exc}") from exc
    raise ConfigError(f"bc: unknown kind {kind!r}")


def background_from_config(cfg: Optional[dict], box: Box, base_dir) -> Optional[BackgroundMedium]:
    if cfg is None:
        return None
    try:
        return BackgroundMedium(n2=field_from_config(_require(cfg, "n2", "background"),
                                                     base_dir), box=box)
    except ValueError as exc:
        raise ConfigError(f"background: {exc}") from exc


def mesh_from_config(cfg: dict, base_dir) -> SurfaceMesh:
    kind = _require(cfg, "kind", "mesh")
    if kind == "icosphere":
        return icosphere(subdivisions=whole(cfg.get("subdivisions", 3), "mesh.subdivisions"),
                         radius=float(cfg.get("radius", 1.0)))
    if kind == "spheroid":
        return spheroid(subdivisions=whole(cfg.get("subdivisions", 3), "mesh.subdivisions"),
                        semi_axes=tuple(cfg.get("semi_axes", (1.0, 1.0, 2.0))))
    if kind == "obj":
        path = Path(base_dir) / _require(cfg, "path", "mesh")
        try:
            return load_obj(path)
        except OSError as exc:
            raise ConfigError(f"mesh: cannot read {path}: {exc}") from exc
    raise ConfigError(f"mesh: unknown kind {kind!r}")


def effective_seed(cfg: dict, seed_override: Optional[int] = None) -> int:
    """The ``--seed`` override if given, else the section's ``seed``, else 0."""
    return whole(cfg.get("seed", 0), "seed") if seed_override is None else int(seed_override)


def cloud_spec_from_config(cfg: dict, base_dir, seed_override: Optional[int] = None) -> CloudSpec:
    bc_cfg = mapping(mapping(cfg, "cloud").get("bc", {"kind": "soft"}), "cloud.bc")
    kind = bc_cfg.get("kind", "soft")
    h_field: Optional[ScalarField] = None
    kappa = float(bc_cfg.get("kappa", cfg.get("kappa", 0.5)))
    if kind == "impedance":
        h_field = field_from_config(_require(bc_cfg, "h", "cloud.bc"), base_dir)
    try:
        return CloudSpec(
            density=field_from_config(_require(cfg, "density", "cloud"), base_dir),
            a=float(_require(cfg, "a", "cloud")),
            law=cfg.get("law", "dirichlet"),
            kappa=kappa,
            bc_kind=kind,
            h=h_field,
            rng_seed=effective_seed(cfg, seed_override),
            separation_factor=float(cfg.get("separation_factor", DEFAULT_SEPARATION_FACTOR)),
            strata_n=None if cfg.get("strata_n") is None else whole(cfg["strata_n"], "strata_n"),
            jitter=float(cfg.get("jitter", DEFAULT_JITTER)),
        )
    except ValueError as exc:
        raise ConfigError(f"cloud: {exc}") from exc


def _particle_from_config(cfg: dict, base_dir) -> Particle:
    bc = bc_from_config(mapping(cfg, "scene.particles").get("bc", {"kind": "soft"}))
    center = np.asarray(_require(cfg, "center", "particle"), dtype=float)
    if "mesh" in cfg:
        mesh = mesh_from_config(cfg["mesh"], base_dir)
        scale = cfg.get("scale")
        if scale is not None:
            mesh = mesh.scaled(float(scale))
        return mesh_particle(center, mesh, bc)
    try:
        return Particle.sphere(center, float(_require(cfg, "a", "particle")), bc)
    except ValueError as exc:
        raise ConfigError(f"particle: {exc}") from exc


def scene_from_config(cfg: dict, base_dir=".", seed_override: Optional[int] = None) -> Scene:
    """Build a scene from a ``scene:`` section (explicit particles or a cloud)."""
    where = "scene"
    wave = wave_from_config(_require(cfg, "wave", where))
    domain = box_from_config(_require(cfg, "domain", where))
    background = background_from_config(cfg.get("background"), domain, base_dir)
    sep = float(cfg.get("separation_factor", DEFAULT_SEPARATION_FACTOR))
    small = float(cfg.get("smallness_threshold", DEFAULT_SMALLNESS_THRESHOLD))

    particles: Tuple[Particle, ...]
    if "particles" in cfg and "cloud" in cfg:
        raise ConfigError("scene: give either 'particles' or 'cloud', not both")
    if "particles" in cfg:
        particles = tuple(_particle_from_config(p, base_dir) for p in cfg["particles"])
    elif "cloud" in cfg:
        spec = cloud_spec_from_config(cfg["cloud"], base_dir, seed_override)
        if "separation_factor" in cfg and "separation_factor" not in cfg["cloud"]:
            spec = CloudSpec(**{**spec.__dict__, "separation_factor": sep})
        particles = tuple(generate_cloud(spec, domain))
        sep = spec.separation_factor
    else:
        raise ConfigError("scene: needs 'particles' or 'cloud'")
    if not particles:
        raise ConfigError("scene: the scene has no particles")
    try:
        return Scene(particles=particles, domain=domain, wave=wave, background=background,
                     separation_factor=sep, smallness_threshold=small)
    except (ValueError, UnsupportedScene) as exc:
        raise ConfigError(f"scene: {exc}") from exc
