"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import smallscat as ss
from smallscat.background import born_series, fixed_point_solve, free_space_green, green
from smallscat.cli import main as cli_main
from smallscat.homogenize import (collocation_solve, convergence_study, inverse_design,
                                  limit_from_prescription)
from smallscat.manybody import eval_field, far_field, solve_hard, solve_impedance, solve_soft
from smallscat.onebody import (amplitude_onebody, capacitance_zeroth, charge_impedance,
                               charge_soft, icosphere, polarizability)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FOUR_PI = 4.0 * np.pi


def report(number, name, passed, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="module")
def box():
    return ss.Box(lo=[0, 0, 0], hi=[1, 1, 1])


@pytest.fixture(scope="module")
def wave():
    return ss.IncidentWave(k=1.0, alpha=[0, 0, 1])


@pytest.fixture(scope="module")
def wide():
    return ss.Box(lo=[-2, -2, -2], hi=[2, 2, 2])


def test_criterion_01_sphere_capacitance():
    start = time.perf_counter()
    mesh = icosphere(subdivisions=3, radius=1.0)
    value = capacitance_zeroth(mesh)
    elapsed = time.perf_counter() - start
    rel = abs(value - FOUR_PI) / FOUR_PI
    report(1, "sphere capacitance", rel <= 0.01 and elapsed < 10.0,
           f"C={value:.6f}, err={rel:.2%}, {elapsed:.1f}s, {mesh.n_triangles} panels")


def test_criterion_02_sphere_polarizability():
    start = time.perf_counter()
    mesh = icosphere(subdivisions=3, radius=1.0)
    beta = polarizability(mesh)
    elapsed = time.perf_counter() - start
    err = np.max(np.abs(beta + 1.5 * np.eye(3))) / 1.5
    report(2, "sphere polarizability", err <= 0.02 and elapsed < 30.0,
           f"max entry err={err:.2%}, {elapsed:.1f}s")


def test_criterion_03_onebody_reduction(wide, wave):
    worst = 0.0
    a = 0.05
    origin = [0.0, 0.0, 0.0]
    beta_dir = np.array([0.0, 1.0, 0.0])

    ball = ss.Particle.sphere(origin, a, ss.Soft())
    scene = ss.Scene(particles=(ball,), domain=wide, wave=wave)
    sol = solve_soft(scene)
    worst = max(worst, abs(sol.charges[0] - charge_soft(FOUR_PI * a, 1.0))
                / abs(sol.charges[0]))
    amp = far_field(sol, scene, [beta_dir]).amplitudes[0]
    ref = amplitude_onebody(ball, wave, beta_dir)
    worst = max(worst, abs(amp - ref) / abs(ref))

    bc = ss.Impedance(h=0.8 - 0.2j, kappa=0.5)
    ball = ss.Particle.sphere(origin, a, bc)
    scene = ss.Scene(particles=(ball,), domain=wide, wave=wave)
    sol = solve_impedance(scene)
    zeta = bc.h / a**bc.kappa
    worst = max(worst, abs(sol.charges[0] - charge_impedance(zeta, FOUR_PI * a**2, 1.0))
                / abs(sol.charges[0]))
    amp = far_field(sol, scene, [beta_dir]).amplitudes[0]
    ref = amplitude_onebody(ball, wave, beta_dir)
    worst = max(worst, abs(amp - ref) / abs(ref))

    ball = ss.Particle.sphere(origin, a, ss.Hard())
    scene = ss.Scene(particles=(ball,), domain=wide, wave=wave)
    sol = solve_hard(scene)
    amp = far_field(sol, scene, [beta_dir]).amplitudes[0]
    ref = amplitude_onebody(ball, wave, beta_dir)
    worst = max(worst, abs(amp - ref) / abs(ref))
    worst = max(worst, abs(sol.values[0] - 1.0))

    report(3, "one-body reduction", worst <= 1e-12, f"worst rel dev={worst:.2e}")


def test_criterion_04_scaling_laws(wave):
    levels = np.array([0.05, 0.025, 0.0125])
    kappa = 0.5
    beta_dir = np.array([0.0, 0.0, 1.0])
    origin = [0.0, 0.0, 0.0]
    bcs = {"soft": ss.Soft(), "impedance": ss.Impedance(h=1.0, kappa=kappa), "hard": ss.Hard()}
    amps = {kind: [abs(amplitude_onebody(ss.Particle.sphere(origin, a, bc), wave, beta_dir))
                   for a in levels] for kind, bc in bcs.items()}
    slopes = {kind: np.polyfit(np.log(levels), np.log(vals), 1)[0]
              for kind, vals in amps.items()}
    ok = (abs(slopes["soft"] - 1.0) <= 0.05
          and abs(slopes["impedance"] - (2.0 - kappa)) <= 0.05
          and abs(slopes["hard"] - 3.0) <= 0.05)
    report(4, "scaling laws", ok,
           f"slopes soft={slopes['soft']:.3f} impedance={slopes['impedance']:.3f} "
           f"hard={slopes['hard']:.3f}")


def test_criterion_05_isotropy(wide, wave):
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    spread = 0.0
    for bc in (ss.Soft(), ss.Impedance(h=0.5 - 0.5j, kappa=0.5)):
        scene = ss.Scene(particles=(ss.Particle.sphere([0, 0, 0], 0.05, bc),),
                         domain=wide, wave=wave)
        sol = solve_soft(scene) if isinstance(bc, ss.Soft) else solve_impedance(scene)
        amps = far_field(sol, scene, dirs).amplitudes
        spread = max(spread, float(np.max(np.abs(amps - amps[0]))
                                   / np.max(np.abs(amps))))
    report(5, "isotropy", spread <= 1e-12, f"relative spread={spread:.2e}")


def test_criterion_06_homogenization_convergence(box, wave):
    start = time.perf_counter()
    soft = convergence_study("dirichlet", ss.ConstantField(1.0), box, wave,
                             [0.02, 0.01, 0.005], seed=0)
    t_soft = time.perf_counter() - start
    start = time.perf_counter()
    imp = convergence_study("impedance", ss.ConstantField(1.0), box, wave,
                            [0.02, 0.01, 0.005], kappa=0.5,
                            h=ss.ConstantField(1.0), seed=0)
    t_imp = time.perf_counter() - start
    ms = [lv.m for lv in soft.levels]
    ok = (soft.strictly_decreasing and imp.strictly_decreasing
          and ms == [50, 100, 200] and t_soft < 300.0 and t_imp < 300.0)
    report(6, "homogenization convergence", ok,
           f"soft errors={np.round(soft.errors, 4).tolist()} ({t_soft:.0f}s), "
           f"impedance errors={np.round(imp.errors, 4).tolist()} ({t_imp:.0f}s)")


def test_criterion_07_design_round_trip(box, wave):
    cover = ss.GridCover.from_shape(box, 5)
    target = np.full(cover.n_cells, 0.5 + 0.0j)
    prescription = inverse_design(target, cover, wave.k)
    back = limit_from_prescription(prescription)
    roundtrip = float(np.max(np.abs(back.n2 - target)))
    q_direct = np.full(cover.n_cells, wave.k**2 * (1.0 - 0.5) + 0.0j)
    u_design = collocation_solve(back.q, cover, wave).values
    u_direct = collocation_solve(q_direct, cover, wave).values
    field_gap = float(np.max(np.abs(u_design - u_direct)))
    ok = roundtrip < 1e-12 and field_gap < 1e-12
    report(7, "design round trip", ok,
           f"n2 roundtrip={roundtrip:.2e}, field gap={field_gap:.2e}")


def test_criterion_08_limiting_pde_consistency(box, wave):
    bump = ss.GaussianBumpField(amplitude=3.0, center=[0.5, 0.5, 0.5], width=0.25)
    errors = []
    for n in (6, 9, 12):
        cover = ss.GridCover.from_shape(box, n)
        q = bump.sample(cover.centers)
        u = collocation_solve(q, cover, wave).values.reshape(n, n, n)
        h = 1.0 / n
        lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
               + np.roll(u, -1, 1) + np.roll(u, 1, 2) + np.roll(u, -1, 2)
               - 6 * u) / h**2
        resid = lap + wave.k**2 * u - q.reshape(n, n, n) * u
        interior = np.zeros((n, n, n), dtype=bool)
        interior[2:-2, 2:-2, 2:-2] = True
        errors.append(float(np.max(np.abs(resid[interior]))))
    ok = errors[1] < errors[0] and errors[2] < errors[1]
    report(8, "limiting PDE consistency", ok,
           f"interior residuals={np.round(errors, 3).tolist()} at n=6,9,12")


def test_criterion_09_radiation_consistency(wide, wave):
    centers = np.array([[0.0, 0.0, 0.0], [0.4, 0.1, -0.2], [-0.3, 0.5, 0.3]])
    particles = tuple(ss.Particle.sphere(c, 0.01, ss.Soft()) for c in centers)
    scene = ss.Scene(particles=particles, domain=wide, wave=wave)
    sol = solve_soft(scene)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = 1e4 / wave.k
    amps = far_field(sol, scene, dirs).amplitudes
    u = eval_field(sol, scene, r * dirs)
    u0 = wave.field_at(r * dirs)
    recovered = r * np.exp(-1j * wave.k * r) * (u - u0)
    dev = float(np.max(np.abs(recovered - amps)) / np.max(np.abs(amps)))
    report(9, "radiation consistency", dev <= 1e-3, f"max rel dev={dev:.2e} at r=1e4/k")


def test_criterion_10_background_degeneracy(box, wave):
    # a scene in a uniform background solves and reads out exactly as in free space
    centers = np.array([[0.2, 0.2, 0.2], [0.8, 0.7, 0.6], [0.5, 0.4, 0.9]])
    uniform = ss.BackgroundMedium(n2=ss.ConstantField(1.0), box=box)
    points = np.array([[0.5, 0.5, 0.5], [0.1, 0.9, 0.3], [2.0, -1.0, 0.5]])
    outputs = []
    for background in (None, uniform):
        scene = ss.Scene(particles=tuple(ss.Particle.sphere(c, 0.01, ss.Soft()) for c in centers),
                         domain=box, wave=wave, background=background)
        sol = solve_soft(scene)
        outputs.append([sol.values, sol.charges, eval_field(sol, scene, points),
                        far_field(sol, scene, ss.fibonacci_directions(6)).amplitudes])
        assert sol.cover_charges is None
    bitwise = all(np.array_equal(a, b) for a, b in zip(*outputs))

    bump = ss.GaussianBumpField(amplitude=0.1, center=[0.5, 0.5, 0.5], width=0.2,
                                base=1.0)
    medium = ss.BackgroundMedium(n2=bump, box=box)
    ev = ss.GreenEvaluator(medium, k=wave.k, grid_n=6)
    y = np.array([0.35, 0.5, 0.5])
    rhs = free_space_green(wave.k, np.linalg.norm(ev.grid.centers - y, axis=1))
    born_one = born_series(ev._kernel, rhs, 1)
    ls_one = fixed_point_solve(ev._kernel, rhs, tol=np.inf, max_iter=2)
    born_matches = np.array_equal(born_one, ls_one)

    deviations = []
    for t in (0.2, 0.1, 0.05, 0.025):
        x = y + np.array([t, 0.0, 0.0])
        deviations.append(abs(green(ev, x, y) / free_space_green(wave.k, t) - 1.0))
    short_ok = all(b < a for a, b in zip(deviations, deviations[1:]))

    ok = bitwise and born_matches and short_ok
    report(10, "background degeneracy", ok,
           f"bitwise={bitwise}, born1==ls1={born_matches}, "
           f"G/g deviations={np.round(deviations, 5).tolist()}")


def test_criterion_11_determinism(tmp_path):
    outputs = {}
    for label, config in (("dirichlet", "converge_dirichlet.yaml"),
                          ("impedance", "converge_impedance.yaml")):
        blobs = []
        for attempt in range(2):
            out = tmp_path / f"{label}_{attempt}"
            code = cli_main(["converge", "--config", str(CONFIGS / config),
                             "--out", str(out)])
            assert code == 0
            blobs.append((out / "converge.csv").read_bytes())
        outputs[label] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    report(11, "determinism", ok, f"byte-identical reruns: {outputs}")
