"""YAML run configurations: scenes, clouds, meshes, media, fields, study protocols.

Files are parsed by PyYAML's safe loader (on libyaml where PyYAML has it).
Every value is read through a :class:`Section`, whose accessors hold the rules:
numbers are finite and read as ``float()`` reads them (a separation factor at least 0),
counts are whole and at least 1 (0 for a seed, an order or subdivisions), points are
three numbers, complex values a number or an ``[re, im]`` pair, paths relative to the
config file; null, undeclared keys and keys the branch taken does not read are refused,
and each failure is a ConfigError naming the full key; so is a cloud its recipe cannot
place (``scene.cloud``).  The schema is in the README.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
import yaml

from .background import BackgroundMedium
from .core import (COUNTING_LAWS, DEFAULT_SEPARATION_FACTOR, CloudSpec, Hard, Impedance,
                   IncidentWave, Particle, Scene, Soft, generate_cloud)
from .errors import ConfigError, UnsupportedScene
from .fields import AffineField, ConstantField, GaussianBumpField, GriddedField, ScalarField
from .grids import Box
from .onebody import SurfaceMesh, icosphere, load_obj, mesh_particle, spheroid


# libyaml's parser where PyYAML was built with it; the constructor and resolver are the
# same Python code either way, so both loaders give equal dicts
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_REQUIRED = object()


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


def _real(value, name: str, expected: str = "a finite number") -> float:
    try:  # a bool is a number to float(), and YAML 1.1 reads yes/no/on/off as bools
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{name}: expected {expected}, got {value!r}")
    return x


def _count(value, name: str, least: int) -> int:
    x = _real(value, name, "a whole number")
    if not x.is_integer():
        raise ConfigError(f"{name}: expected a whole number, got {value!r}")
    if x < least:
        raise ConfigError(f"{name}: expected a whole number of at least {least}, got {value!r}")
    return value if isinstance(value, int) else int(x)  # exact past 2^53


def _complex(value, name: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    return complex(*(_real(part, name, "a finite number or [re, im] pair") for part in parts))


def _reals(value, name: str) -> List[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name}: expected a list of finite numbers, got {value!r}")
    return [_real(x, name, "a list of finite numbers") for x in value]


def _point(value, name: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{name}: expected three finite numbers, got {value!r}")
    return np.array(_reals(value, name))


class Section:
    """One config mapping, its dotted ``path`` (``""`` at the top level) and the ``keys`` it
    accepts.  Where ``keys`` maps each kind to its keys, the mapping names its ``kind``
    (``kind`` the default), kept in :attr:`kind`.  An accessor's ``default`` is used for an
    absent key (None reads as None); without one the key is required."""

    def __init__(self, data, path: str, keys, base_dir=".", kind: Optional[str] = None):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping, got {data!r}")
        self.data, self.where, self.base_dir = data, path, Path(base_dir)
        if isinstance(keys, dict):
            self.kind = self.choice("kind", tuple(keys), _REQUIRED if kind is None else kind)
            keys = ("kind", *keys[self.kind])
        for key in data:
            if key not in keys:
                raise ConfigError(f"{self.name(key)}: unknown key (expected one of "
                                  f"{', '.join(keys)})")

    def name(self, key) -> str:
        return f"{self.where}.{key}" if self.where else str(key)

    def __contains__(self, key) -> bool:
        return key in self.data

    def _read(self, key, default, convert):
        value = self.data.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{self.name(key)}: missing required key")
        if value is None and key in self.data:
            raise ConfigError(f"{self.name(key)}: null is not a value")
        return None if value is None else convert(value, self.name(key))

    def real(self, key, default=_REQUIRED, least: float = -math.inf) -> Optional[float]:
        def convert(value, name):
            x = _real(value, name)
            if x < least:
                raise ConfigError(f"{name}: expected a number of at least {least:g}, "
                                  f"got {value!r}")
            return x
        return self._read(key, default, convert)

    def count(self, key, default=_REQUIRED, least: int = 1) -> Optional[int]:
        return self._read(key, default, lambda value, name: _count(value, name, least))

    def complex(self, key, default=_REQUIRED) -> Optional[complex]:
        return self._read(key, default, _complex)

    def point(self, key, default=_REQUIRED) -> Optional[np.ndarray]:
        return self._read(key, default, _point)

    def reals(self, key, default=_REQUIRED) -> Optional[List[float]]:
        return self._read(key, default, _reals)

    def choice(self, key, choices, default=_REQUIRED) -> Optional[str]:
        def convert(value, name):
            if isinstance(value, str) and value in choices:
                return value
            raise ConfigError(f"{name}: expected one of {', '.join(choices)}, got {value!r}")
        return self._read(key, default, convert)

    def section(self, key, keys, default=_REQUIRED, kind: Optional[str] = None) -> "Section":
        return self._read(key, default,
                          lambda value, name: Section(value, name, keys, self.base_dir, kind))

    def sections(self, key, keys) -> List["Section"]:
        """A list of mappings, each accepting ``keys``."""
        def convert(value, name):
            if not isinstance(value, list):
                raise ConfigError(f"{name}: expected a list of mappings, got {value!r}")
            return [Section(item, f"{name}[{i}]", keys, self.base_dir)
                    for i, item in enumerate(value)]
        return self._read(key, _REQUIRED, convert)

    def field(self, key, default=_REQUIRED) -> Optional[ScalarField]:
        return self._read(key, default,
                          lambda value, name: field_from_config(value, self.base_dir, name))

    def refuse(self, keys, branch: str) -> None:
        """ConfigError naming the first of ``keys`` given here: ``branch`` reads none of them."""
        for key in keys:
            if key in self.data:
                raise ConfigError(f"{self.name(key)}: not read {branch}")

    def path(self, key) -> Path:
        """A file path, relative to the config file."""
        def convert(value, name):
            if not isinstance(value, str):
                raise ConfigError(f"{name}: expected a path, got {value!r}")
            return self.base_dir / value
        return self._read(key, _REQUIRED, convert)

    def build(self, factory, *args, **kwargs):
        """``factory(*args, **kwargs)`` on values read from this section; a value it refuses
        (ValueError, UnsupportedScene) or a file it cannot read becomes a ConfigError."""
        try:
            return factory(*args, **kwargs)
        except (ValueError, UnsupportedScene, OSError) as exc:
            raise ConfigError(f"{self.where}: {exc}") from exc


_FIELD_KINDS = {"constant": ("value",), "affine": ("value0", "gradient"),
                "gaussian_bump": ("amplitude", "center", "width", "base"), "grid": ("path",)}


def field_from_config(cfg, base_dir=".", name: str = "field") -> ScalarField:
    """A catalog field: a number or ``[re, im]`` pair is a constant; a mapping names its
    ``kind``: ``constant``, ``affine``, ``gaussian_bump`` or ``grid`` (a CSV lattice)."""
    if not isinstance(cfg, dict):
        return ConstantField(_complex(cfg, name))
    sec = Section(cfg, name, _FIELD_KINDS, base_dir)
    if sec.kind == "constant":
        return ConstantField(sec.complex("value", 0.0))
    if sec.kind == "affine":
        return AffineField(value0=sec.complex("value0", 0.0),
                           gradient=sec.point("gradient", (0.0, 0.0, 0.0)))
    if sec.kind == "gaussian_bump":
        return sec.build(GaussianBumpField, amplitude=sec.complex("amplitude", 1.0),
                         center=sec.point("center", (0.0, 0.0, 0.0)),
                         width=sec.real("width", 1.0), base=sec.complex("base", 0.0))
    return sec.build(GriddedField.from_csv, sec.path("path"))


# Each builder reads the one key its name says from the parent section.
def wave_from_config(parent: Section) -> IncidentWave:
    sec = parent.section("wave", ("k", "alpha", "amplitude"))
    return sec.build(IncidentWave, k=sec.real("k"), alpha=sec.point("alpha"),
                     amplitude=sec.complex("amplitude", 1.0))


def box_from_config(parent: Section) -> Box:
    sec = parent.section("domain", ("lo", "hi"))
    return sec.build(Box, lo=sec.point("lo"), hi=sec.point("hi"))


def bc_from_config(parent: Section):
    """A particle's boundary kind; soft where ``bc`` is absent."""
    sec = parent.section("bc", {"soft": (), "hard": (), "impedance": ("h", "kappa")},
                         default={"kind": "soft"})
    if sec.kind == "impedance":
        return sec.build(Impedance, h=sec.complex("h"), kappa=sec.real("kappa", 0.5))
    return Hard() if sec.kind == "hard" else Soft()


def mesh_from_config(parent: Section) -> SurfaceMesh:
    sec = parent.section("mesh", {"icosphere": ("subdivisions", "radius"),
                                  "spheroid": ("subdivisions", "semi_axes"), "obj": ("path",)})
    if sec.kind == "obj":
        return sec.build(load_obj, sec.path("path"))
    subdivisions = sec.count("subdivisions", 3, least=0)
    if sec.kind == "icosphere":
        return sec.build(icosphere, subdivisions=subdivisions, radius=sec.real("radius", 1.0))
    return sec.build(spheroid, subdivisions=subdivisions,
                     semi_axes=sec.point("semi_axes", (1.0, 1.0, 2.0)))


def cloud_from_config(parent: Section, domain: Box, seed_override: Optional[int] = None):
    """The ``cloud`` recipe and the particles it places in ``domain``, at the parent's (the
    scene's) ``separation_factor``."""
    sec = parent.section("cloud", ("law", "a", "density", "bc", "kappa", "seed"))
    bc = sec.section("bc", {"soft": (), "hard": (), "impedance": ("h",)}, default={},
                     kind="soft")
    law = sec.choice("law", COUNTING_LAWS, "dirichlet")
    if "impedance" not in (law, bc.kind):
        sec.refuse(("kappa",), "without the impedance law or bc")
    seed = sec.count("seed", 0, least=0)
    spec = sec.build(
        CloudSpec, density=sec.field("density"), a=sec.real("a"), law=law,
        kappa=sec.real("kappa", 0.5), bc_kind=bc.kind,
        h=bc.field("h") if bc.kind == "impedance" else None,
        rng_seed=seed if seed_override is None else seed_override,
        separation_factor=parent.real("separation_factor", DEFAULT_SEPARATION_FACTOR,
                                      least=0.0))
    return spec, sec.build(generate_cloud, spec, domain)


def _particle_from_config(sec: Section) -> Particle:
    center, bc = sec.point("center"), bc_from_config(sec)
    if "mesh" not in sec:
        sec.refuse(("scale",), "without a mesh")
        return sec.build(Particle.sphere, center, sec.real("a"), bc)
    sec.refuse(("a",), "with a mesh")
    mesh, scale = mesh_from_config(sec), sec.real("scale", None)
    return sec.build(mesh_particle, center, mesh if scale is None else mesh.scaled(scale), bc)


def scene_from_config(parent: Section,
                      seed_override: Optional[int] = None) -> Tuple[Scene, Optional[int]]:
    """The ``scene`` (explicit particles or a cloud) and the seed that placed it: the
    override, else the cloud's seed; None for explicit particles without an override."""
    sec = parent.section("scene", ("wave", "domain", "background", "separation_factor",
                                   "particles", "cloud"))
    wave, domain = wave_from_config(sec), box_from_config(sec)
    medium = sec.section("background", ("n2",), default=None)
    background = None if medium is None else medium.build(BackgroundMedium,
                                                          n2=medium.field("n2"), box=domain)
    sep = sec.real("separation_factor", DEFAULT_SEPARATION_FACTOR, least=0.0)
    if ("particles" in sec) == ("cloud" in sec):
        raise ConfigError("scene: give either 'particles' or 'cloud'")
    seed = seed_override
    if "particles" in sec:
        particles = tuple(_particle_from_config(p) for p in sec.sections(
            "particles", ("center", "a", "bc", "mesh", "scale")))
    else:
        spec, particles = cloud_from_config(sec, domain, seed_override)
        seed = spec.rng_seed
    if not particles:
        raise ConfigError("scene: the scene has no particles")
    return sec.build(Scene, particles=particles, domain=domain, wave=wave,
                     background=background, separation_factor=sep), seed
