"""Batch front door: config-driven runs that emit CSV tables plus a JSON manifest.

Subcommands: ``solve`` (finite cloud), ``onebody`` (shape functionals and
amplitudes), ``homogenize`` (limiting-equation collocation), ``design``
(inverse refraction design), ``converge`` (cloud-vs-limit study), ``green``
(background kernel along a segment).

Numeric tables are CSV with complex values split into re/im columns and all
floats printed with 17 significant digits, so identical configs and seeds
reproduce byte-identical tables.  The manifest records input hashes, the
effective seed (``null`` only for explicit particles without ``--seed``),
versions, residuals, artifact names, and timings (the only varying fields).

Exit codes: 0 success, 2 config error (also a problem too large for memory:
GridTooLarge or MemoryError), 3 solver failure, 4 regime violation.  Each
handler reads its whole section through :class:`smallscat.config.Section`
before its first solve; a cloud density the counting laws refuse and a ``green``
segment through its source are ConfigErrors naming ``scene.cloud``,
``converge.density`` or ``green.segment``.
The ``SMALLSCAT_OUT`` environment variable overrides ``--out``; ``--seed``
(at least 0) overrides the config's seed; ``--tol``
(finite and positive) is the relative residual of every solve; ``--threads``
(at least 1) caps BLAS threading and must act before the numeric modules
load, so heavy imports happen inside the command handlers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_REGIME = 4

_FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    return _FLOAT_FMT % float(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _referenced_paths(cfg, base_dir: Path):
    if isinstance(cfg, dict):
        for key, value in cfg.items():
            if key == "path" and isinstance(value, str):
                yield base_dir / value
            else:
                yield from _referenced_paths(value, base_dir)
    elif isinstance(cfg, list):
        for item in cfg:
            yield from _referenced_paths(item, base_dir)


def _versions() -> dict:
    import numpy

    from . import __version__

    return {
        "smallscat": __version__,
        "numpy": numpy.__version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


class RunConfig:
    """Resolved flags plus the artifact/manifest bookkeeping for one run.

    Invariants: the config file exists and the output directory is writable.
    """

    def __init__(self, args):
        from .errors import ConfigError
        from .lattice import DEFAULT_RTOL

        self.subcommand = args.subcommand
        self.config_path = Path(args.config)
        if not self.config_path.is_file():
            raise ConfigError(f"config file not found: {self.config_path}")
        out = os.environ.get("SMALLSCAT_OUT") or args.out or "smallscat_out"
        self.out_dir = Path(out)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        self.seed = args.seed
        self.tol = args.tol if args.tol is not None else DEFAULT_RTOL
        self.started = time.time()
        self.artifacts: list = []
        self.residuals: dict = {}
        self.summary: dict = {}

    def artifact_path(self, name: str) -> Path:
        self.artifacts.append(name)
        return self.out_dir / name

    def write_manifest(self, subcommand: str, cfg: dict) -> Path:
        inputs = {str(self.config_path): _sha256(self.config_path)}
        for ref in _referenced_paths(cfg, self.config_path.parent):
            if ref.exists():
                inputs[str(ref)] = _sha256(ref)
        manifest = {
            "subcommand": subcommand,
            "inputs": inputs,
            "seed": self.seed,
            "tolerance": self.tol,
            "versions": _versions(),
            "residuals": self.residuals,
            "summary": self.summary,
            "artifacts": sorted(self.artifacts),
            "timings": {"total_s": time.time() - self.started},
        }
        path = self.out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


# ---------------------------------------------------------------------------
# Command handlers (heavy imports stay local so --threads can act first)
# ---------------------------------------------------------------------------
def run_solve(cfg: dict, ctx: RunConfig) -> None:
    import numpy as np

    from .config import Section, scene_from_config
    from .manybody import eval_field, far_field, fibonacci_directions, solve_hard
    from .manybody import solve_impedance, solve_soft

    root = Section(cfg, "", ("scene", "outputs"), ctx.config_path.parent)
    outputs = root.section("outputs", ("farfield", "field_grid"), default={})
    farfield = outputs.section("farfield", ("n_directions",), default=None)
    grid = outputs.section("field_grid", ("lo", "hi", "n"), default=None)
    dirs = None if farfield is None else fibonacci_directions(farfield.count("n_directions", 50))
    if grid is not None:
        lo, hi, n = grid.point("lo"), grid.point("hi"), grid.count("n", 5)
        axes = np.meshgrid(*(np.linspace(lo[d], hi[d], n) for d in range(3)), indexing="ij")
        pts = np.stack([x.ravel() for x in axes], axis=1)
    scene, ctx.seed = scene_from_config(root, seed_override=ctx.seed)
    solver = {"soft": solve_soft, "impedance": solve_impedance, "hard": solve_hard}[scene.kind]
    solution = solver(scene, rtol=ctx.tol)
    ctx.residuals["system"] = solution.residual
    ctx.summary.update({
        "kind": scene.kind,
        "M": scene.n_particles,
        "k": scene.wave.k,
        "alpha": list(scene.wave.alpha),
        "method": solution.method,
        "Q_first_re": float(np.real(solution.charges[0])),
        "Q_first_im": float(np.imag(solution.charges[0])),
    })

    table = np.column_stack([scene.centers, scene.radii, solution.values.real,
                             solution.values.imag, solution.charges.real, solution.charges.imag])
    write_csv(ctx.artifact_path("particles.csv"),
              ["m", "x", "y", "z", "a", "re_ue", "im_ue", "re_Q", "im_Q"],
              [[str(i), *row] for i, row in enumerate(table.tolist())])

    if dirs is not None:
        ff = far_field(solution, scene, dirs)
        write_csv(ctx.artifact_path("farfield.csv"),
                  ["bx", "by", "bz", "re_A", "im_A"],
                  [[d[0], d[1], d[2], a.real, a.imag]
                   for d, a in zip(ff.directions, ff.amplitudes)])
    if grid is not None:
        u = eval_field(solution, scene, pts)
        write_csv(ctx.artifact_path("field.csv"),
                  ["x", "y", "z", "re_u", "im_u"],
                  [[p[0], p[1], p[2], v.real, v.imag] for p, v in zip(pts, u)])


def run_onebody(cfg: dict, ctx: RunConfig) -> None:
    from dataclasses import replace

    import numpy as np

    from .config import Section, bc_from_config, mesh_from_config, wave_from_config
    from .core import Hard, Particle
    from .manybody import fibonacci_directions
    from .onebody import amplitude_onebody, mesh_particle

    sec = Section(cfg, "", ("onebody",), ctx.config_path.parent).section(
        "onebody", ("wave", "bc", "mesh", "a", "n_directions"))
    wave, bc = wave_from_config(sec), bc_from_config(sec)
    dirs = fibonacci_directions(sec.count("n_directions", 6))
    origin = np.zeros(3)
    # built hard, so the polarizability is computed and reported for every bc
    if "mesh" in sec:
        sec.refuse(("a",), "with a mesh")
        body = mesh_particle(origin, mesh_from_config(sec), Hard())
    else:
        body = sec.build(Particle.sphere, origin, sec.real("a"), Hard())
    body = replace(body, bc=bc)
    amps = [amplitude_onebody(body, wave, beta) for beta in dirs]
    payload = {
        "capacitance": body.capacitance,
        "polarizability": [list(map(float, row)) for row in body.polarizability],
        "surface_area": body.surface_factor * body.a**2,
        "volume": body.volume,
        "radius_scale": body.a,
        "amplitudes": [
            {"beta": list(map(float, b)), "re": float(np.real(a)), "im": float(np.imag(a))}
            for b, a in zip(dirs, amps)
        ],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    with open(ctx.artifact_path("onebody.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    ctx.summary.update({"capacitance": body.capacitance, "volume": body.volume})


def run_homogenize(cfg: dict, ctx: RunConfig) -> None:
    from .config import Section, box_from_config, wave_from_config
    from .core import SPHERE_SURFACE_FACTOR
    from .grids import GridCover
    from .homogenize import collocation_solve

    sec = Section(cfg, "", ("homogenize",), ctx.config_path.parent).section(
        "homogenize", ("wave", "domain", "grid_n", "q", "density", "h", "b_shape"))
    domain, wave = box_from_config(sec), wave_from_config(sec)
    cover = sec.build(GridCover.from_shape, domain, sec.count("grid_n", 8))
    if "q" in sec:
        sec.refuse(("density", "h", "b_shape"), "with q")
        q = sec.field("q").sample(cover.centers)
    else:
        b_shape = sec.real("b_shape", SPHERE_SURFACE_FACTOR)
        dens = sec.field("density").sample(cover.centers).real
        q = b_shape * dens * sec.field("h").sample(cover.centers)
    sol = collocation_solve(q, cover, wave, rtol=ctx.tol)
    ctx.residuals["collocation"] = sol.residual
    ctx.summary.update({"cells": cover.n_cells, "k": wave.k})
    write_csv(ctx.artifact_path("cells.csv"),
              ["p", "x", "y", "z", "re_q", "im_q", "re_u", "im_u"],
              [[str(p), c[0], c[1], c[2], qv.real, qv.imag, uv.real, uv.imag]
               for p, (c, qv, uv) in enumerate(zip(cover.centers, sol.q_values, sol.values))])


def run_design(cfg: dict, ctx: RunConfig) -> None:
    import numpy as np
    import yaml as _yaml

    from .config import Section, box_from_config
    from .core import SPHERE_SURFACE_FACTOR
    from .grids import GridCover
    from .homogenize import inverse_design, limit_from_prescription

    sec = Section(cfg, "", ("design",), ctx.config_path.parent).section(
        "design", ("k", "domain", "grid_n", "n2_target", "density", "kappa", "b_shape"))
    domain, k = box_from_config(sec), sec.real("k")
    cover = sec.build(GridCover.from_shape, domain, sec.count("grid_n", 8))
    n2 = sec.field("n2_target").sample(cover.centers)
    dens = sec.field("density", 1.0).sample(cover.centers).real
    prescription = inverse_design(n2, cover, k, b_shape=sec.real("b_shape", SPHERE_SURFACE_FACTOR),
                                  density=dens, kappa=sec.real("kappa", 0.5))
    back = limit_from_prescription(prescription)
    roundtrip = float(np.max(np.abs(back.n2 - prescription.n2_target)))
    recipe = {"k": k, "kappa": prescription.kappa, "b_shape": prescription.b_shape,
              "cells": cover.n_cells}  # in the manifest summary and in prescription.yaml
    ctx.summary.update(recipe, max_roundtrip_error=roundtrip,
                       h_first_re=float(np.real(prescription.impedance[0])),
                       h_first_im=float(np.imag(prescription.impedance[0])))
    write_csv(ctx.artifact_path("design.csv"),
              ["p", "x", "y", "z", "N", "re_h", "im_h", "re_n2", "im_n2"],
              [[str(p), c[0], c[1], c[2], nv, hv.real, hv.imag, tv.real, tv.imag]
               for p, (c, nv, hv, tv) in enumerate(zip(
                   cover.centers, prescription.density, prescription.impedance,
                   prescription.n2_target))])
    with open(ctx.artifact_path("prescription.yaml"), "w", encoding="utf-8",
              newline="\n") as fh:
        _yaml.safe_dump(dict(recipe, grid=list(cover.shape), table="design.csv"), fh,
                        sort_keys=True)


def run_converge(cfg: dict, ctx: RunConfig) -> None:
    from .config import Section, box_from_config, wave_from_config
    from .core import DEFAULT_SEPARATION_FACTOR, CloudSpec
    from .errors import ConfigError
    from .homogenize import convergence_study

    sec = Section(cfg, "", ("converge",), ctx.config_path.parent).section(
        "converge", ("law", "wave", "domain", "density", "a_levels", "kappa", "h", "seed",
                     "separation_factor"))
    law = sec.choice("law", ("dirichlet", "impedance"), "dirichlet")
    if law == "dirichlet":
        sec.refuse(("h", "kappa"), "by the dirichlet law")
    seed = sec.count("seed", 0, least=0)
    ctx.seed = seed if ctx.seed is None else ctx.seed
    density, domain = sec.field("density"), box_from_config(sec)
    try:  # the expected count of every level refuses a density negative on the domain
        CloudSpec(density=density, a=1.0).expected_count(domain)
    except ValueError as exc:
        raise ConfigError(f"{sec.name('density')}: {exc}") from exc
    a_levels, kappa = sec.reals("a_levels"), sec.real("kappa", 0.5)
    if not a_levels or min(a_levels) <= 0.0:
        raise ConfigError(f"{sec.name('a_levels')}: expected positive numbers, got {a_levels!r}")
    if not 0.0 < kappa < 1.0:
        raise ConfigError(f"{sec.name('kappa')}: expected a number in (0, 1), got {kappa!r}")
    report = convergence_study(
        law=law, density=density, domain=domain,
        wave=wave_from_config(sec), a_levels=a_levels,
        kappa=kappa, h=sec.field("h") if law == "impedance" else None,
        seed=ctx.seed, rtol=ctx.tol,
        separation_factor=sec.real("separation_factor", DEFAULT_SEPARATION_FACTOR),
    )
    ctx.summary.update({
        "law": law,
        "errors": [lv.sup_error for lv in report.levels],
        "strictly_decreasing": report.strictly_decreasing,
    })
    for i, lv in enumerate(report.levels):
        ctx.residuals[f"cloud_level_{i}"] = lv.residual_cloud
        ctx.residuals[f"collocation_level_{i}"] = lv.residual_collocation
    write_csv(ctx.artifact_path("converge.csv"),
              ["a", "M", "cover_n", "cover_edge", "sup_error", "mean_spacing",
               "d_ratio", "separation_factor"],
              [[lv.a, str(lv.m), str(lv.cover_n), lv.cover_edge, lv.sup_error,
                lv.mean_spacing, lv.d_ratio, lv.separation_factor]
               for lv in report.levels])


def run_green(cfg: dict, ctx: RunConfig) -> None:
    import numpy as np

    from .background import DEFAULT_GRID_N, BackgroundMedium, GreenEvaluator, free_space_green
    from .config import Section, box_from_config

    sec = Section(cfg, "", ("green",), ctx.config_path.parent).section(
        "green", ("k", "domain", "n2", "grid_n", "method", "source", "segment"))
    k, domain, grid_n = sec.real("k"), box_from_config(sec), sec.count("grid_n", DEFAULT_GRID_N)
    medium = sec.build(BackgroundMedium, n2=sec.field("n2"), box=domain)
    method_cfg = sec.section("method", {"lippmann_schwinger": (), "born": ("order",)},
                             default={}, kind="lippmann_schwinger")
    born = method_cfg.kind == "born"
    method = (("born", method_cfg.count("order", 1, least=0)) if born
              else ("lippmann_schwinger", ctx.tol))
    if born or medium.uniform_one:
        ctx.tol = None  # the manifest records no tolerance where no solve uses one
    source = sec.point("source")
    seg = sec.section("segment", ("start", "stop", "n"))
    start, stop, n = seg.point("start"), seg.point("stop"), seg.count("n", 20)
    evaluator = sec.build(GreenEvaluator, medium, k, grid_n=grid_n, method=method)
    ts = np.linspace(0.0, 1.0, n)
    pts = start[None, :] + ts[:, None] * (stop - start)[None, :]
    values = seg.build(evaluator.pair_values, pts, source)  # refuses a point at the source
    free = free_space_green(k, np.linalg.norm(pts - source, axis=1))
    ctx.summary.update({"k": k, "n0_max": medium.n0_max, "points": n})
    write_csv(ctx.artifact_path("green.csv"),
              ["t", "x", "y", "z", "re_G", "im_G", "re_g", "im_g"],
              [[t, p[0], p[1], p[2], gv.real, gv.imag, fv.real, fv.imag]
               for t, p, gv, fv in zip(ts, pts, values, free)])


_HANDLERS = {
    "solve": run_solve,
    "onebody": run_onebody,
    "homogenize": run_homogenize,
    "design": run_design,
    "converge": run_converge,
    "green": run_green,
}


def _at_least(least: int):
    """An argparse type: a whole number of at least ``least``."""
    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return count


def _positive_float(text: str) -> float:
    if not 0.0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: they all take the same five options."""
    parser = argparse.ArgumentParser(
        prog="smallscat",
        description="Many-body small-particle scattering: solvers, limits, design.",
    )
    parser.add_argument("subcommand", choices=tuple(_HANDLERS))
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--out", default=None, help="output directory (env SMALLSCAT_OUT overrides)")
    parser.add_argument("--seed", type=_at_least(0), default=None, help="override the config seed")
    parser.add_argument("--threads", type=_at_least(1), default=None, help="cap BLAS threads")
    parser.add_argument("--tol", type=_positive_float, default=None,
                        help="relative residual of every solve")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import (ConfigError, DegenerateMesh, DensityInfeasible, DesignInfeasible,
                         GridTooLarge, PointInsideParticle, RegimeViolation, SmallscatError)

    ctx = None
    try:
        from .config import load_config

        ctx = RunConfig(args)
        cfg = load_config(ctx.config_path)
        _HANDLERS[args.subcommand](cfg, ctx)
        manifest_path = ctx.write_manifest(args.subcommand, cfg)
        print(f"wrote {manifest_path}")
        return EXIT_OK
    except Exception as exc:  # single funnel so every failure leaves a record
        if isinstance(exc, (ConfigError, DegenerateMesh, DensityInfeasible,
                            DesignInfeasible, GridTooLarge, PointInsideParticle,
                            ValueError, MemoryError)):
            code = EXIT_CONFIG
        elif isinstance(exc, RegimeViolation):
            code = EXIT_REGIME
        elif isinstance(exc, SmallscatError):
            code = EXIT_SOLVER
        else:
            raise
        record = {"error": str(exc), "type": type(exc).__name__, "exit_code": code}
        sys.stderr.write(json.dumps(record) + "\n")
        if ctx is not None:
            try:
                with open(ctx.out_dir / "error.json", "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=2, sort_keys=True)
            except OSError:
                pass
        return code


if __name__ == "__main__":
    sys.exit(main())
