"""The benchmark workloads: inputs made from a seed, timed operations and their checks.

A workload is a list of operations.  Each operation is one call into smallscat's
public API (or ``smallscat.cli.main``); its duration counts towards the pass
time.  After the call, untimed and untraced, the correctness gate runs:

- invariants that hold for every seed (residuals, strict decrease, exit codes,
  byte-identical CSVs between passes), and
- for the default seed only, facts (solution fingerprints, sup errors) compared
  with ``references.json`` at a tolerance tied to the solver rtol, so a correct
  rewrite of a solver (FFT, Krylov) still passes.

An exception counts as a failed operation; it never aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import smallscat as ss
from smallscat import cli
from smallscat.fields import ConstantField, GaussianBumpField

DEFAULT_SEED = 0
RTOL = 1e-10  # relative residual every solve is asked for and checked against
# A correct rewrite may move a fingerprint by the solver tolerance times the
# conditioning of these systems (well below 1e4).
FINGERPRINT_RTOL = 1e4 * RTOL

REFERENCES = Path(__file__).with_name("references.json")
UNIT_BOX = ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
WAVE_Z = ss.IncidentWave(k=1.0, alpha=[0.0, 0.0, 1.0])


@dataclass
class Op:
    """One timed call plus its gate.

    ``facts`` maps a result to JSON numbers compared with the references;
    ``invariants`` returns the messages of failed seed-independent checks.
    """

    name: str
    call: Callable[[], Any]
    facts: Callable[[Any], Dict[str, Any]] = lambda result: {}
    invariants: Callable[[Any], List[str]] = lambda result: []


def fingerprint(values) -> List[float]:
    """Norm, sum and three sampled entries of a complex vector."""
    v = np.asarray(values, dtype=complex).ravel()
    picks = v[[0, len(v) // 2, -1]]
    s = v.sum()
    return [float(np.linalg.norm(v)), s.real, s.imag,
            *[float(x) for p in picks for x in (p.real, p.imag)]]


def compare_facts(facts: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
    """Integers must match exactly; float lists within FINGERPRINT_RTOL of their scale."""
    problems = []
    for key in sorted(set(facts) | set(ref)):
        if key not in facts or key not in ref:
            problems.append(f"{key}: missing from {'result' if key not in facts else 'references'}")
            continue
        got, want = np.asarray(facts[key]), np.asarray(ref[key])
        if got.shape != want.shape:
            problems.append(f"{key}: shape {got.shape} != reference {want.shape}")
        elif want.dtype.kind == "i":
            if not np.array_equal(got, want):
                problems.append(f"{key}: {got.tolist()} != reference {want.tolist()}")
        else:
            atol = FINGERPRINT_RTOL * max(float(np.max(np.abs(want))), 1e-300)
            err = float(np.max(np.abs(got - want)))
            if not err <= atol:
                problems.append(f"{key}: off reference by {err:.3e} > {atol:.3e}")
    return problems


def load_references(workload: str, size: str, seed: int) -> Optional[dict]:
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)[workload][size]


def _residual_check(label: str, residual: float) -> List[str]:
    return [] if residual <= RTOL else [f"{label} residual {residual:.3e} > rtol {RTOL:.0e}"]


def _random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# converge_cloud: the impedance convergence protocol, last level on GMRES
# ---------------------------------------------------------------------------
CONVERGE_LEVELS = {"full": [0.02, 0.01, 0.005, 0.0035], "smoke": [0.08, 0.04]}
# Particle counts follow from the counting law alone; 4829 > 4096 puts the
# last full level on the matrix-free GMRES path.
CONVERGE_COUNTS = {"full": [354, 1000, 2828, 4829], "smoke": [44, 125]}


def converge_cloud(seed: int, size: str, scratch: Path) -> List[Op]:
    levels = CONVERGE_LEVELS[size]

    def call():
        return ss.convergence_study(
            "impedance", ConstantField(1.0), UNIT_BOX, WAVE_Z, levels,
            kappa=0.5, h=ConstantField(1.0), seed=seed, rtol=RTOL)

    def invariants(report):
        problems = []
        for lv in report.levels:
            problems += _residual_check(f"cloud a={lv.a}", lv.residual_cloud)
            problems += _residual_check(f"collocation a={lv.a}", lv.residual_collocation)
        # Strict decrease is pinned at the default seed, as in the acceptance
        # suite.  It does not hold for every cloud: adjacent levels differ by
        # less than the cloud-to-cloud scatter (seed 23: 0.017827 then
        # 0.017944; seed 24: 0.020406 then 0.020584).  Every seed must still
        # end below where it started.
        errors = report.errors.tolist()
        if seed == DEFAULT_SEED and not report.strictly_decreasing:
            problems.append(f"sup errors not strictly decreasing: {errors}")
        if not errors[-1] < errors[0]:
            problems.append(f"finest-level sup error not below the coarsest: {errors}")
        counts = [lv.m for lv in report.levels]
        if counts != CONVERGE_COUNTS[size]:
            problems.append(f"particle counts {counts} != {CONVERGE_COUNTS[size]}")
        return problems

    def facts(report):
        return {"sup_errors": report.errors.tolist()}

    return [Op("convergence_study", call, facts, invariants)]


# ---------------------------------------------------------------------------
# lattice_limits: the regular-grid solves, no particles
# ---------------------------------------------------------------------------
LATTICE = {
    "full": {"collocation": [12, 16], "plane_wave": 16, "neumann": [8, 10], "green": 16},
    "smoke": {"collocation": [4, 5], "plane_wave": 4, "neumann": [3], "green": 4},
}
# The homogenize_demo coefficient bump and the green_demo medium.
Q_BUMP = GaussianBumpField(amplitude=3.0, center=[0.5, 0.5, 0.5], width=0.25)
GREEN_N2 = GaussianBumpField(amplitude=0.1, center=[0.5, 0.5, 0.5], width=0.2, base=1.0)
GREEN_K = 2.0
HARD_VOLUME_FRACTION = 0.002
SPHERE_POLARIZABILITY = -1.5


def _plane_wave_residual(u, chi, cover, k, alpha, rows=512) -> float:
    """Relative residual of ``u - k^2 int g chi u = u0`` on the cover, in row blocks."""
    from scipy.spatial.distance import cdist

    z = cover.centers
    w = cover.cell_volume
    weighted = chi * w * u
    u0 = np.exp(1j * k * z @ alpha)
    res = np.empty(len(z), dtype=complex)
    for start in range(0, len(z), rows):
        block = slice(start, min(start + rows, len(z)))
        r = cdist(z[block], z)
        own = (np.arange(block.start, block.stop) - start, np.arange(block.start, block.stop))
        r[own] = 1.0
        kern = ss.free_space_green(k, r)
        kern[own] = cover.self_green_integral() / w
        res[block] = u[block] - (k**2) * (kern @ weighted) - u0[block]
    return float(np.linalg.norm(res) / np.linalg.norm(u0))


def lattice_limits(seed: int, size: str, scratch: Path) -> List[Op]:
    rng = np.random.default_rng(seed)
    alpha = _random_direction(rng)
    wave = ss.IncidentWave(k=1.0, alpha=alpha)
    source = np.array([0.3, 0.5, 0.5]) + rng.uniform(-0.05, 0.05, 3)
    segment = np.array([0.55, 0.5, 0.5]) + np.linspace(0.0, 1.0, 15)[:, None] * [0.4, 0.0, 0.0]
    sizes = LATTICE[size]
    ops = []

    for n in sizes["collocation"]:
        cover = ss.GridCover.from_shape(UNIT_BOX, n)
        q = Q_BUMP.sample(cover.centers)
        ops.append(Op(
            f"collocation_{n}",
            lambda q=q, cover=cover: ss.collocation_solve(q, cover, wave, rtol=RTOL),
            lambda sol: {"values": fingerprint(sol.values)},
            lambda sol: _residual_check("collocation", sol.residual)))

    n = sizes["plane_wave"]
    pw_cover = ss.GridCover.from_shape(UNIT_BOX, n)
    chi = -Q_BUMP.sample(pw_cover.centers) / wave.k**2  # n^2 - 1 of the same medium
    ops.append(Op(
        f"scattered_plane_wave_{n}",
        lambda: ss.scattered_plane_wave(chi, pw_cover, wave.k, alpha)[0],
        lambda u: {"values": fingerprint(u)},
        lambda u: _residual_check(
            "plane wave", _plane_wave_residual(u, chi, pw_cover, wave.k, alpha))))

    for n in sizes["neumann"]:
        cover = ss.GridCover.from_shape(UNIT_BOX, n)
        rho = np.full(cover.n_cells, HARD_VOLUME_FRACTION)
        dipole = SPHERE_POLARIZABILITY * rho[:, None, None] * np.eye(3)[None]
        ops.append(Op(
            f"neumann_limit_{n}",
            lambda rho=rho, dipole=dipole, cover=cover: ss.neumann_limit_solve(
                rho, dipole, cover, wave, rtol=RTOL),
            lambda sol: {"values": fingerprint(sol.values),
                         "gradients": fingerprint(sol.gradients),
                         "laplacians": fingerprint(sol.laplacians)},
            lambda sol: _residual_check("hard limit", sol.residual)))

    medium = ss.BackgroundMedium(n2=GREEN_N2, box=UNIT_BOX)

    def green_call():
        evaluator = ss.GreenEvaluator(medium, GREEN_K, grid_n=sizes["green"],
                                      method=("lippmann_schwinger", RTOL))
        return evaluator, evaluator.pair_values(segment, source)

    def green_reciprocity(result):
        # The discrete background kernel is symmetric, G(x, y) = G(y, x), up to
        # the solver tolerance.
        evaluator, values = result
        problems = []
        for i in (0, len(segment) // 2, len(segment) - 1):
            swapped = evaluator.pair_values(source[None, :], segment[i])[0]
            err = abs(swapped - values[i]) / abs(values[i])
            if not err <= FINGERPRINT_RTOL:
                problems.append(f"G(x,y) != G(y,x) at point {i}: relative gap {err:.3e}")
        return problems

    ops.append(Op(f"green_{sizes['green']}", green_call,
                  lambda result: {"values": fingerprint(result[1])}, green_reciprocity))
    return ops


# ---------------------------------------------------------------------------
# cloud_scenes: dense hard cloud, soft cloud in a background medium
# ---------------------------------------------------------------------------
CLOUDS = {"full": {"hard_a": 0.008, "soft_a": 0.0035, "grid": 5},
          "smoke": {"hard_a": 0.02, "soft_a": 0.01, "grid": 3}}
SOFT_BACKGROUND = GaussianBumpField(amplitude=0.2, center=[0.5, 0.5, 0.5], width=0.2,
                                    base=1.0)
FARFIELD_DIRECTIONS = 26


def cloud_scenes(seed: int, size: str, scratch: Path) -> List[Op]:
    sizes = CLOUDS[size]
    directions = ss.fibonacci_directions(FARFIELD_DIRECTIONS)
    axis = np.linspace(0.1, 0.9, sizes["grid"])
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    medium = ss.BackgroundMedium(n2=SOFT_BACKGROUND, box=UNIT_BOX)

    def hard_call():
        spec = ss.CloudSpec(density=ConstantField(HARD_VOLUME_FRACTION), a=sizes["hard_a"],
                            law="hard_volume", bc_kind="hard", rng_seed=seed)
        scene = ss.Scene(particles=tuple(ss.generate_cloud(spec, UNIT_BOX)),
                         domain=UNIT_BOX, wave=WAVE_Z)
        solution = ss.solve_hard(scene, rtol=RTOL)
        return solution, ss.far_field(solution, scene, directions)

    def soft_call():
        spec = ss.CloudSpec(density=ConstantField(1.0), a=sizes["soft_a"], law="dirichlet",
                            bc_kind="soft", rng_seed=seed)
        scene = ss.Scene(particles=tuple(ss.generate_cloud(spec, UNIT_BOX)),
                         domain=UNIT_BOX, wave=WAVE_Z, background=medium)
        solution = ss.solve_soft(scene, rtol=RTOL)
        # Grid points that fall within two radii of a center are left out, so
        # every seed gives a valid evaluation set.
        gap = np.min(np.linalg.norm(grid[:, None, :] - scene.centers[None], axis=-1), axis=1)
        return solution, ss.eval_field(solution, scene, grid[gap > 2.0 * sizes["soft_a"]])

    return [
        Op("hard_cloud", hard_call,
           lambda r: {"M": len(r[0].values), "values": fingerprint(r[0].values),
                      "far_field": fingerprint(r[1].amplitudes)},
           lambda r: _residual_check("hard cloud", r[0].residual)),
        Op("soft_cloud_background", soft_call,
           lambda r: {"M": len(r[0].values), "values": fingerprint(r[0].values),
                      "field": fingerprint(r[1])},
           lambda r: _residual_check("soft cloud", r[0].residual)),
    ]


# ---------------------------------------------------------------------------
# cli_demos: the demo configs through cli.main, fixed costs dominate
# ---------------------------------------------------------------------------
# Every demo config except converge_impedance.yaml, whose study converge_cloud runs.
CLI_CONFIGS = [
    ("converge", "converge_demo.yaml"),
    ("converge", "converge_dirichlet.yaml"),
    ("design", "design_demo.yaml"),
    ("green", "green_demo.yaml"),
    ("homogenize", "homogenize_demo.yaml"),
    ("homogenize", "homogenize_impedance_medium.yaml"),
    ("onebody", "onebody_hard_sphere.yaml"),
    ("solve", "solve_cloud_soft.yaml"),
    ("solve", "solve_hard_pair.yaml"),
    ("solve", "solve_one_soft.yaml"),
]
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _artifact_hashes(out_dir: Path) -> Dict[str, str]:
    """Digest of every artifact except the manifest, whose timings vary by design."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


def cli_demos(seed: int, size: str, scratch: Path) -> List[Op]:
    first_pass: Dict[str, Dict[str, str]] = {}
    ops = []
    for subcommand, name in CLI_CONFIGS:
        out_dir = scratch / Path(name).stem
        argv = [subcommand, "--config", str(CONFIG_DIR / name), "--out", str(out_dir),
                "--seed", str(seed)]

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def invariants(code, name=name, out_dir=out_dir):
            if code != cli.EXIT_OK:
                return [f"{name}: exit code {code}"]
            hashes = _artifact_hashes(out_dir)
            # Emptied so the next pass cannot pass on a stale artifact.
            shutil.rmtree(out_dir)
            if not hashes:
                return [f"{name}: no artifacts written"]
            expected = first_pass.setdefault(name, hashes)
            changed = sorted(k for k in expected.keys() | hashes.keys()
                             if expected.get(k) != hashes.get(k))
            return [f"{name}: artifacts differ from the first pass: {changed}"] if changed else []

        ops.append(Op(name, call, invariants=invariants))
    return ops


WORKLOADS = {
    "converge_cloud": converge_cloud,
    "lattice_limits": lattice_limits,
    "cloud_scenes": cloud_scenes,
    "cli_demos": cli_demos,
}


def gate(op: Op, result, refs: Optional[dict]) -> List[str]:
    """Messages of every failed check of one operation's result."""
    problems = op.invariants(result)
    if refs is not None:
        problems += compare_facts(op.facts(result), refs.get(op.name, {}))
    return problems
