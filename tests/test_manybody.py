import dataclasses
import functools
import math
import pickle
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smallscat as ss
from smallscat import manybody
from smallscat.background import cell_self_green, fixed_point_solve, free_space_green, point_green
from smallscat.lattice import DEFAULT_RTOL, LatticeOperator
from smallscat.manybody import (CloudKernel, assemble_hard_system, dipole_kernel_blocks,
                                eval_field, far_field, fibonacci_directions,
                                pair_kernel_matrix, solve_hard, solve_impedance, solve_soft)
from smallscat.onebody import amplitude_onebody

FOUR_PI = 4.0 * np.pi


def soft_scene(centers, a, wave, box, sep=0.0):
    particles = tuple(ss.Particle.sphere(c, a, ss.Soft()) for c in centers)
    return ss.Scene(particles=particles, domain=box, wave=wave, separation_factor=sep or 10.0)


def imp_scene(centers, a, h, kappa, wave, box, sep=10.0):
    particles = tuple(ss.Particle.sphere(c, a, ss.Impedance(h=h, kappa=kappa))
                      for c in centers)
    return ss.Scene(particles=particles, domain=box, wave=wave, separation_factor=sep)


def hard_scene(centers, a, wave, box, sep=10.0):
    particles = tuple(ss.Particle.sphere(c, a, ss.Hard()) for c in centers)
    return ss.Scene(particles=particles, domain=box, wave=wave, separation_factor=sep)


# ---------------------------------------------------------------------------
# Single-particle reductions (exact empty-sum structure)
# ---------------------------------------------------------------------------
def test_soft_single_particle(wide_box, wave_z):
    scene = soft_scene([[0.2, -0.1, 0.4]], 0.01, wave_z, wide_box)
    sol = solve_soft(scene)
    u0 = wave_z.field_at(scene.centers)[0]
    assert sol.values[0] == pytest.approx(u0, rel=1e-14)
    assert sol.charges[0] == pytest.approx(-FOUR_PI * 0.01 * u0, rel=1e-14)


def test_impedance_single_particle(wide_box, wave_z):
    h, kappa, a = 0.7 - 0.3j, 0.5, 0.01
    scene = imp_scene([[0.0, 0.0, 0.0]], a, h, kappa, wave_z, wide_box)
    sol = solve_impedance(scene)
    assert sol.values[0] == pytest.approx(1.0, rel=1e-14)
    expected = -h * a ** (2 - kappa) * FOUR_PI
    assert sol.charges[0] == pytest.approx(expected, rel=1e-14)
    # agrees with the one-body closed form through zeta = h / a^kappa
    from smallscat.onebody import charge_impedance
    assert sol.charges[0] == pytest.approx(
        charge_impedance(h / a**kappa, FOUR_PI * a**2, 1.0), rel=1e-14)


def test_hard_single_particle(wide_box, wave_z):
    scene = hard_scene([[0.0, 0.0, 0.0]], 0.05, wave_z, wide_box)
    sol = solve_hard(scene)
    assert sol.values[0] == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(sol.gradients[0], 1j * wave_z.k * wave_z.alpha, atol=1e-14)
    assert sol.laplacians[0] == pytest.approx(-wave_z.k**2, rel=1e-14)
    assert sol.charges[0] == pytest.approx(-wave_z.k**2 * scene.particles[0].volume)


# ---------------------------------------------------------------------------
# Two-particle closed forms and symmetries
# ---------------------------------------------------------------------------
def test_soft_two_particle_hand_elimination(wide_box, wave_z):
    a, k = 0.01, wave_z.k
    centers = np.array([[0.0, 0.0, -0.5], [0.0, 0.0, 0.5]])
    scene = soft_scene(centers, a, wave_z, wide_box)
    sol = solve_soft(scene)
    c1 = c2 = FOUR_PI * a
    g12 = free_space_green(k, 1.0)
    u01, u02 = wave_z.field_at(centers)
    denom = 1.0 - g12**2 * c1 * c2
    u1 = (u01 - g12 * c2 * u02) / denom
    u2 = (u02 - g12 * c1 * u01) / denom
    assert sol.values[0] == pytest.approx(u1, rel=1e-12)
    assert sol.values[1] == pytest.approx(u2, rel=1e-12)


def test_impedance_two_particle_hand_elimination(wide_box, wave_z):
    a, kappa, h = 0.01, 0.5, 0.8 - 0.1j
    centers = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    scene = imp_scene(centers, a, h, kappa, wave_z, wide_box)
    sol = solve_impedance(scene)
    c = h * FOUR_PI * a ** (2 - kappa)
    g12 = free_space_green(wave_z.k, 1.0)
    u01, u02 = wave_z.field_at(centers)
    u1 = (u01 - g12 * c * u02) / (1.0 - g12**2 * c * c)
    assert sol.values[0] == pytest.approx(u1, rel=1e-12)
    # the pair is mirror symmetric about a plane containing alpha
    assert sol.values[0] == pytest.approx(sol.values[1], rel=1e-13)


def test_mirror_pair_has_equal_values(wide_box, wave_z):
    # mirror through x = 0 fixes alpha = e_z
    centers = np.array([[-0.4, 0.1, 0.2], [0.4, 0.1, 0.2]])
    sol = solve_soft(soft_scene(centers, 0.01, wave_z, wide_box))
    assert sol.values[0] == pytest.approx(sol.values[1], rel=1e-13)


def test_impedance_zero_h_decouples(wide_box, wave_z):
    centers = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.6, 0.0]])
    scene = imp_scene(centers, 0.01, 0.0, 0.5, wave_z, wide_box)
    sol = solve_impedance(scene)
    assert np.allclose(sol.values, wave_z.field_at(centers), rtol=1e-14)
    assert np.all(sol.charges == 0.0)


def test_mixed_kinds_rejected(wide_box, wave_z):
    particles = (ss.Particle.sphere([0, 0, 0], 0.01, ss.Soft()),
                 ss.Particle.sphere([1, 0, 0], 0.01, ss.Hard()))
    with pytest.raises(ValueError, match="mix boundary kinds"):
        ss.Scene(particles=particles, domain=wide_box, wave=wave_z)
    hard = ss.Scene(particles=particles[1:], domain=wide_box, wave=wave_z)
    with pytest.raises(ValueError, match="expected an all-soft scene, got hard"):
        solve_soft(hard)


@pytest.mark.parametrize("kind", ["soft", "impedance", "hard", "soft_in_bump"])
def test_every_solver_takes_an_empty_scene(unit_box, wave_z, kind):
    bump = ss.GaussianBumpField(amplitude=0.3, center=[0.5, 0.5, 0.5], width=0.25, base=1.0)
    medium = ss.BackgroundMedium(n2=bump, box=unit_box) if kind == "soft_in_bump" else None
    kind = kind.removesuffix("_in_bump")
    solver = {"soft": solve_soft, "impedance": solve_impedance, "hard": solve_hard}[kind]
    scene = ss.Scene(particles=(), domain=unit_box, wave=wave_z, background=medium)
    solution = solver(scene)
    assert solution.kind == kind and solution.residual == 0.0
    assert solution.values.shape == solution.charges.shape == (0,)
    if kind == "hard":
        assert solution.gradients.shape == solution.dipoles.shape == (0, 3)
        assert solution.laplacians.shape == (0,)
    if medium is not None:
        assert np.all(solution.cover_charges == 0.0)
    points = np.array([[0.2, 0.3, 0.4], [0.9, 0.1, 0.5]])
    assert np.array_equal(eval_field(solution, scene, points), wave_z.field_at(points))
    assert np.all(far_field(solution, scene, fibonacci_directions(5)).amplitudes == 0.0)
    other = ss.Particle.sphere([0.5, 0.5, 0.5], 0.01, ss.Hard() if kind != "hard" else ss.Soft())
    with pytest.raises(ValueError, match=f"expected an all-{kind} scene"):
        solver(ss.Scene(particles=(other,), domain=unit_box, wave=wave_z))


@pytest.mark.parametrize("kind", ["soft", "impedance", "hard"])
def test_scene_unchanged_by_solve_and_read_outs(wide_box, wave_z, kind):
    centers = np.array([[0.0, 0.0, -0.5], [0.0, 0.5, 0.5], [0.4, 0.0, 0.1]])
    scene = {"soft": soft_scene(centers, 0.01, wave_z, wide_box),
             "impedance": imp_scene(centers, 0.01, 0.5 - 0.2j, 0.5, wave_z, wide_box),
             "hard": hard_scene(centers, 0.01, wave_z, wide_box)}[kind]
    before = pickle.dumps(scene)
    sol = {"soft": solve_soft, "impedance": solve_impedance, "hard": solve_hard}[kind](scene)
    eval_field(sol, scene, np.array([[1.0, 1.0, 1.0]]))
    far_field(sol, scene, fibonacci_directions(4))
    assert pickle.dumps(scene) == before
    assert not any(array.flags.writeable for array in (scene.centers, scene.radii, scene.volumes))


def test_regime_violation_raised(wide_box, wave_z):
    centers = np.array([[0.0, 0.0, 0.0], [0.03, 0.0, 0.0]])
    scene = soft_scene(centers, 0.01, wave_z, wide_box)
    with pytest.raises(ss.RegimeViolation):
        solve_soft(scene)
    # d/a = 3: the scene's own separation factor admits it
    sol = solve_soft(dataclasses.replace(scene, separation_factor=3.0))
    assert sol.residual < 1e-10


def test_missing_polarizability(wide_box, wave_z):
    p = ss.Particle(center=[0, 0, 0], a=0.05, bc=ss.Hard(), capacitance=1.0,
                    surface_factor=FOUR_PI, volume=1e-3, polarizability=None)
    scene = ss.Scene(particles=(p,), domain=wide_box, wave=wave_z)
    with pytest.raises(ss.MissingFunctional):
        solve_hard(scene)


# ---------------------------------------------------------------------------
# Hard case: analytic kernel derivatives and fixed-point oracle
# ---------------------------------------------------------------------------
def _fd_grad_lap(f, x, h=1e-2):
    """4th-order central differences; the production path never uses these."""
    grad = np.zeros(3, dtype=complex)
    lap = 0.0 + 0.0j
    w1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * h)
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    for s in range(3):
        e = np.zeros(3)
        e[s] = 1.0
        grad[s] = w1 @ [f(x - 2 * h * e), f(x - h * e), f(x + h * e), f(x + 2 * h * e)]
        lap += w2 @ [f(x - 2 * h * e), f(x - h * e), f(x), f(x + h * e), f(x + 2 * h * e)]
    return grad, lap


def test_kernel_derivatives_match_finite_differences():
    k = 1.3
    rng = np.random.default_rng(3)
    x = rng.random(3)
    y = rng.random(3) + 2.0

    g, gp, dg, dgp, lap_g, lap_gp = dipole_kernel_blocks(x[None], y[None], k)

    def scalar(idx):
        def f(pt):
            r = np.linalg.norm(pt - y)
            val = free_space_green(k, r)
            if idx == 0:
                return val
            return val * (pt - y)[idx - 1] / r
        return f

    for idx in range(4):
        grad_fd, lap_fd = _fd_grad_lap(scalar(idx), x)
        if idx == 0:
            assert np.allclose(dg[0, 0], grad_fd, atol=1e-9)
            assert lap_g[0, 0] == pytest.approx(lap_fd, abs=1e-7)
        else:
            assert np.allclose(dgp[0, 0, :, idx - 1], grad_fd, atol=1e-9)
            assert lap_gp[0, 0, idx - 1] == pytest.approx(lap_fd, abs=1e-7)


def test_hard_system_residual_at_fixed_point_oracle(wide_box, wave_z):
    """Three sweeps of the self-consistent update, derivatives by FD, must
    nearly solve the assembled system at weak coupling."""
    a = 0.01
    centers = np.array([[0.0, 0.0, -0.5], [0.1, 0.0, 0.5]])
    scene = hard_scene(centers, a, wave_z, wide_box)
    vol = scene.particles[0].volume
    beta = scene.particles[0].polarizability
    k = wave_z.k
    m = len(centers)

    state = [(wave_z.field_at(c[None])[0], wave_z.gradient_at(c[None])[0],
              wave_z.laplacian_at(c[None])[0]) for c in centers]

    def field_excluding(j, state):
        def f(x):
            total = wave_z.field_at(x[None])[0]
            for mm, (_, grad, lap) in enumerate(state):
                if mm == j:
                    continue
                r = np.linalg.norm(x - centers[mm])
                rhat = (x - centers[mm]) / r
                g = free_space_green(k, r)
                total += g * (lap + 1j * k * rhat @ beta @ grad) * vol
            return total
        return f

    for _ in range(3):
        new_state = []
        for j, c in enumerate(centers):
            f = field_excluding(j, state)
            grad, lap = _fd_grad_lap(f, c)
            new_state.append((f(c), grad, lap))
        state = new_state

    x_oracle = np.concatenate([
        np.array([s[0] for s in state]),
        np.concatenate([s[1] for s in state]),
        np.array([s[2] for s in state]),
    ])
    system = assemble_hard_system(centers, k, np.full(m, vol),
                                  np.array([beta * vol] * m))
    rhs = np.concatenate([
        wave_z.field_at(centers),
        wave_z.gradient_at(centers).reshape(3 * m),
        wave_z.laplacian_at(centers),
    ])
    residual = np.linalg.norm(system @ x_oracle - rhs) / np.linalg.norm(rhs)
    assert residual < 1e-8


def test_hard_scattered_field_scales_with_volume(wide_box, wave_z):
    centers = np.array([[0.0, 0.0, -0.4], [0.0, 0.1, 0.5]])
    big = solve_hard(hard_scene(centers, 0.02, wave_z, wide_box))
    small = solve_hard(hard_scene(centers, 0.01, wave_z, wide_box))
    u0 = wave_z.field_at(centers)
    ratio = (big.values - u0) / (small.values - u0)
    assert np.allclose(ratio, 8.0, rtol=1e-2)


# ---------------------------------------------------------------------------
# Field evaluation and far field
# ---------------------------------------------------------------------------
def test_eval_field_no_particles(wide_box, wave_z):
    scene = ss.Scene(particles=(), domain=wide_box, wave=wave_z)
    sol = ss.EffectiveFieldSolution(kind="soft", values=np.zeros(0, complex),
                                    charges=np.zeros(0, complex))
    pts = np.array([[0.3, 0.2, 0.1]])
    assert eval_field(sol, scene, pts)[0] == pytest.approx(wave_z.field_at(pts)[0])


def test_eval_field_single_soft_composition(wide_box, wave_z):
    scene = soft_scene([[0.0, 0.0, 0.0]], 0.01, wave_z, wide_box)
    sol = solve_soft(scene)
    x = np.array([[0.0, 0.0, 0.8]])
    r = 0.8
    expected = wave_z.field_at(x)[0] - FOUR_PI * 0.01 * 1.0 \
        * np.exp(1j * wave_z.k * r) / (4 * np.pi * r)
    assert eval_field(sol, scene, x)[0] == pytest.approx(expected, rel=1e-13)


def test_eval_field_far_modulus(wide_box, wave_z):
    scene = soft_scene([[0.0, 0.0, 0.0]], 0.01, wave_z, wide_box)
    sol = solve_soft(scene)
    r = 1e3
    x = np.array([[0.0, r, 0.0]])
    u = eval_field(sol, scene, x)[0]
    u0 = wave_z.field_at(x)[0]
    assert abs(u - u0) == pytest.approx(FOUR_PI * 0.01 / (4 * np.pi * r), rel=1e-9)


def test_eval_field_inside_particle_raises(wide_box, wave_z):
    scene = soft_scene([[0.0, 0.0, 0.0]], 0.05, wave_z, wide_box)
    sol = solve_soft(scene)
    with pytest.raises(ss.PointInsideParticle):
        eval_field(sol, scene, np.array([[0.0, 0.0, 0.01]]))


def test_far_field_single_soft_at_origin_matches_onebody(wide_box, wave_z):
    scene = soft_scene([[0.0, 0.0, 0.0]], 0.1, wave_z, wide_box)
    sol = solve_soft(scene)
    dirs = fibonacci_directions(16)
    ff = far_field(sol, scene, dirs)
    ball = ss.Particle.sphere([0.0, 0.0, 0.0], 0.1, ss.Soft())
    expected = amplitude_onebody(ball, wave_z, dirs[0])
    assert np.allclose(ff.amplitudes, expected, rtol=1e-14)


def test_far_field_translation_phase(wide_box, wave_z):
    x1 = np.array([0.3, -0.2, 0.5])
    scene = soft_scene([x1], 0.05, wave_z, wide_box)
    sol = solve_soft(scene)
    dirs = fibonacci_directions(8)
    ff = far_field(sol, scene, dirs)
    c = FOUR_PI * 0.05
    u0 = wave_z.field_at(x1[None])[0]
    expected = -(c / (4 * np.pi)) * u0 * np.exp(-1j * wave_z.k * dirs @ x1)
    assert np.allclose(ff.amplitudes, expected, rtol=1e-13)
    assert np.allclose(np.abs(ff.amplitudes), c / (4 * np.pi), rtol=1e-13)


def test_far_field_single_hard_matches_closed_form(wide_box, wave_z):
    a = 0.1
    scene = hard_scene([[0.0, 0.0, 0.0]], a, wave_z, wide_box)
    sol = solve_hard(scene)
    dirs = fibonacci_directions(12)
    ff = far_field(sol, scene, dirs)
    ball = ss.Particle.sphere([0.0, 0.0, 0.0], a, ss.Hard())
    for d, amp in zip(dirs, ff.amplitudes):
        assert amp == pytest.approx(amplitude_onebody(ball, wave_z, d), abs=1e-10)


def test_radiation_asymptotics_match_far_field(wide_box, wave_z):
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0, 0.0], [0.4, 0.1, -0.2], [-0.3, 0.5, 0.3]])
    scene = soft_scene(centers, 0.01, wave_z, wide_box)
    sol = solve_soft(scene)
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = 1e4 / wave_z.k
    ff = far_field(sol, scene, dirs)
    pts = r * dirs
    u = eval_field(sol, scene, pts)
    u0 = wave_z.field_at(pts)
    recovered = r * np.exp(-1j * wave_z.k * r) * (u - u0)
    assert np.max(np.abs(recovered - ff.amplitudes)) < 1e-3 * np.max(np.abs(ff.amplitudes))


def test_linearity_in_incident_amplitude(wide_box):
    c = 0.7 - 1.3j
    centers = np.array([[0.0, 0.0, 0.0], [0.5, 0.2, -0.1]])
    base_wave = ss.IncidentWave(k=1.0, alpha=[0, 0, 1])
    scaled_wave = ss.IncidentWave(k=1.0, alpha=[0, 0, 1], amplitude=c)
    box = ss.Box(lo=[-2, -2, -2], hi=[2, 2, 2])
    s1 = solve_soft(soft_scene(centers, 0.01, base_wave, box))
    s2 = solve_soft(soft_scene(centers, 0.01, scaled_wave, box))
    assert np.allclose(s2.values, c * s1.values, rtol=1e-12)
    assert np.allclose(s2.charges, c * s1.charges, rtol=1e-12)
    ff1 = far_field(s1, soft_scene(centers, 0.01, base_wave, box), fibonacci_directions(6))
    ff2 = far_field(s2, soft_scene(centers, 0.01, scaled_wave, box), fibonacci_directions(6))
    assert np.allclose(ff2.amplitudes, c * ff1.amplitudes, rtol=1e-12)


def test_mirror_symmetric_scene_field(wide_box, wave_z):
    centers = np.array([[0.4, 0.1, 0.2], [-0.4, 0.1, 0.2], [0.0, -0.3, 0.6]])
    scene = soft_scene(centers, 0.01, wave_z, wide_box)
    sol = solve_soft(scene)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.5, 1.5, size=(20, 3))
    mirrored = pts * np.array([-1.0, 1.0, 1.0])
    u = eval_field(sol, scene, pts)
    um = eval_field(sol, scene, mirrored)
    assert np.max(np.abs(u - um)) < 1e-9


def _numpy_green(k, targets, sources, self_value):
    """``exp(ikr) / (4 pi r)`` by numpy's ``exp``, ``self_value`` where ``r`` is 0."""
    r = np.linalg.norm(targets[:, None, :] - sources[None, :, :], axis=-1)
    coincident = r == 0.0
    r[coincident] = 1.0
    return np.where(coincident, self_value, np.exp(1j * k * r) / (FOUR_PI * r))


def _medium_pair_matrix(centers, k, medium=None):
    """Dense ``G`` between all center pairs, zero diagonal: ``pair_kernel_matrix`` plus, in
    ``medium``, ``(G - g)(x, y) = g(x, Z) R`` on the 8^3 cover of its box.  ``R = W (I - K)^{-1}
    g(Z, Y)`` for ``W = diag(k^2 chi |cell|)`` and ``K = g(Z, Z) W``, with the cell's mean of
    ``1/(4 pi r)`` on the diagonal, is one ``np.linalg.solve`` of the dense ``I - K``."""
    out = pair_kernel_matrix(centers, k)
    if medium is None:
        return out
    cover = ss.GridCover.from_shape(medium.box, 8)
    z, self_value = cover.centers, cover.self_green_integral() / cover.cell_volume
    weights = k**2 * medium.contrast(z) * cover.cell_volume
    to_centers = _numpy_green(k, z, centers, self_value)
    system = np.eye(len(z)) - _numpy_green(k, z, z, self_value) * weights[None, :]
    out += to_centers.T @ (weights[:, None] * np.linalg.solve(system, to_centers))
    np.fill_diagonal(out, 0.0)
    return out


def _dense_monopole_oracle(scene):
    """``np.linalg.solve`` on ``I + G diag(c)``, ``G`` of :func:`_medium_pair_matrix` in the
    scene's medium."""
    system = _medium_pair_matrix(scene.centers, scene.wave.k, scene.background) \
        * scene.coupling[None, :]
    system[np.diag_indices_from(system)] += 1.0
    return np.linalg.solve(system, scene.wave.field_at(scene.centers))


def _dense_hard_oracle(scene):
    """``np.linalg.solve`` on the assembled 5M system."""
    system = assemble_hard_system(scene.centers, scene.wave.k, scene.volumes,
                                  scene.polarizabilities * scene.volumes[:, None, None])
    return np.linalg.solve(system, manybody.hard_rhs(scene.wave, scene.centers))


def test_solver_paths_agree_at_m500(unit_box, wave_z):
    spec = ss.CloudSpec(density=ss.ConstantField(1.0), a=0.002, law="dirichlet",
                        rng_seed=6)
    particles = ss.generate_cloud(spec, unit_box)
    assert len(particles) == 500
    scene = ss.Scene(particles=tuple(particles), domain=unit_box, wave=wave_z)
    iterative = solve_soft(scene)
    assert iterative.method == "gmres"
    direct = _dense_monopole_oracle(scene)
    denom = np.max(np.abs(direct))
    assert np.max(np.abs(direct - iterative.values)) < 1e-8 * denom


def test_background_kernel_pair_matrix_uniform_is_bitwise_free(unit_box, wave_z):
    # the dense medium oracle adds exactly nothing at zero contrast
    centers = np.array([[0.2, 0.2, 0.2], [0.8, 0.7, 0.6], [0.5, 0.4, 0.9]])
    medium = ss.BackgroundMedium(n2=ss.ConstantField(1.0), box=unit_box)
    assert np.array_equal(_medium_pair_matrix(centers, wave_z.k, medium),
                          pair_kernel_matrix(centers, wave_z.k))


def test_solve_with_background_bump_perturbs_solution(unit_box, wave_z):
    centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
    particles = tuple(ss.Particle.sphere(c, 0.005, ss.Soft()) for c in centers)
    scene = ss.Scene(particles=particles, domain=unit_box, wave=wave_z)
    free_sol = solve_soft(scene)
    bump = ss.GaussianBumpField(amplitude=0.3, center=[0.5, 0.5, 0.5], width=0.3, base=1.0)
    medium = ss.BackgroundMedium(n2=bump, box=unit_box)
    scene_bg = ss.Scene(particles=particles, domain=unit_box, wave=wave_z,
                        background=medium)
    pert_sol = solve_soft(scene_bg)
    assert not np.allclose(free_sol.values, pert_sol.values)
    assert pert_sol.residual < 1e-10
    # a hard scene refuses a non-uniform background kernel when it is built
    hard_particles = tuple(ss.Particle.sphere(c, 0.005, ss.Hard()) for c in centers)
    with pytest.raises(ss.UnsupportedScene, match="hard particles support no background"):
        ss.Scene(particles=hard_particles, domain=unit_box, wave=wave_z, background=medium)

def test_medium_cover_solve_is_checked_at_the_solve_tolerance(unit_box, wave_z, monkeypatch):
    # a cover solve off by 1e-11 relative passes the default 1e-10 and fails at 1e-12
    particles = tuple(ss.Particle.sphere(c, 0.005, ss.Soft())
                      for c in ([0.3, 0.5, 0.5], [0.7, 0.5, 0.5]))
    bump = ss.GaussianBumpField(amplitude=0.3, center=[0.5, 0.5, 0.5], width=0.3, base=1.0)
    scene = ss.Scene(particles=particles, domain=unit_box, wave=wave_z,
                     background=ss.BackgroundMedium(n2=bump, box=unit_box))
    assert solve_soft(scene, rtol=1e-12).residual <= 1e-12
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-11))
    assert solve_soft(scene).residual <= DEFAULT_RTOL
    with pytest.raises(ss.SolveFailure, match=r"cover solve residual \d\.\d+e-1[12] above "
                                              r"tolerance 1\.0e-12"):
        solve_soft(scene, rtol=1e-12)


@pytest.mark.parametrize("solved_in, read_in", [("free", "bump"), ("bump", "free"),
                                                ("hard", "bump")])
def test_read_out_refuses_a_scene_whose_medium_the_solve_did_not_see(unit_box, wave_z,
                                                                     solved_in, read_in):
    # a solution carries cover sources exactly when it was solved in a non-uniform medium
    centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
    scenes = {"free": soft_scene(centers, 0.005, wave_z, unit_box),
              "bump": _bump_scene(unit_box, wave_z, 0.005, centers=centers),
              "hard": hard_scene(centers, 0.005, wave_z, unit_box)}
    read_in_medium = functools.partial(ss.Scene, scenes[solved_in].particles, unit_box, wave_z,
                                       scenes[read_in].background)
    if solved_in == "hard":  # no hard solution can meet a medium: such a scene is not built
        with pytest.raises(ss.UnsupportedScene, match="hard particles support no background"):
            read_in_medium()
        return
    sol = solve_soft(scenes[solved_in])
    assert (sol.cover_charges is None) == (solved_in != "bump")
    read_scene = read_in_medium()
    points = np.array([[0.1, 0.2, 0.3]])
    for read_out in (lambda: eval_field(sol, read_scene, points),
                     lambda: far_field(sol, read_scene, fibonacci_directions(2)),
                     lambda: ss.cover_field_from_solution(sol, read_scene,
                                                          ss.GridCover.from_shape(unit_box, 2))):
        with pytest.raises(ss.UnsupportedScene, match="not solved in the scene's medium"):
            read_out()


def test_dense_kernels_checked_against_the_budget(unit_box, wave_z, monkeypatch):
    centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5], [0.5, 0.3, 0.6]])
    hard = hard_scene(centers, 0.005, wave_z, unit_box)
    # the hard operator's build peak: three centers store all eight real layers, 64 bytes for
    # each pair of the tiles I <= J and of one tile more, or, recomputed on every product, of
    # two tiles.  One
    # 3 x 3 tile holds 9 pairs, so both read 9 + 9; tiles of 2 centers hold 4 + 2 + 1 stored
    # and 4 of one tile, so below 7 + 4 they are recomputed and only below 4 + 4 it raises.
    for block_entries, stored, least in ((1 << 16, 9 + 9, 9 + 9), (4, 7 + 4, 4 + 4)):
        monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", block_entries)
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", 64 * least - 1)
        with pytest.raises(ss.GridTooLarge, match="hard operator"):
            solve_hard(hard)
        for budget in (64 * least, 64 * stored):
            monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", budget)
            assert solve_hard(hard).residual < 1e-10
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 1 << 16)
    # a medium solve's cover arrays: the dense 512 x 512 I - K and the copy np.linalg.solve
    # factors, the right-hand sides (512 x 3), their copy and R (512 x 3)
    bump = ss.GaussianBumpField(amplitude=0.2, center=[0.5, 0.5, 0.5], width=0.2, base=1.0)
    soft = ss.Scene(particles=soft_scene(centers, 0.005, wave_z, unit_box).particles,
                    domain=unit_box, wave=wave_z,
                    background=ss.BackgroundMedium(n2=bump, box=unit_box))
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", 16 * 512 * (2 * 512 + 3 * 3) - 1)
    with pytest.raises(ss.GridTooLarge, match="medium cover sources"):
        solve_soft(soft)
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", 16 * 512 * (2 * 512 + 3 * 3))
    assert solve_soft(soft).residual < 1e-10


def _bump_scene(unit_box, wave, a, amplitude=0.2, seed=None, centers=None):
    bump = ss.GaussianBumpField(amplitude=amplitude, center=[0.5, 0.5, 0.5], width=0.2,
                                base=1.0)
    if centers is None:
        spec = ss.CloudSpec(density=ss.ConstantField(1.0), a=a, rng_seed=seed)
        particles = tuple(ss.generate_cloud(spec, unit_box))
    else:
        particles = tuple(ss.Particle.sphere(c, a, ss.Soft()) for c in centers)
    return ss.Scene(particles=particles, domain=unit_box, wave=wave,
                    background=ss.BackgroundMedium(n2=bump, box=unit_box))


def test_medium_solve_never_assembles_the_dense_kernel(unit_box, wave_z, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("a medium solve assembled the dense kernel")

    monkeypatch.setattr(manybody, "pair_kernel_matrix", dense)
    sol = solve_soft(_bump_scene(unit_box, wave_z, 0.01, seed=3))
    assert sol.residual <= 1e-10


def test_medium_solves_and_read_outs_build_no_evaluator(unit_box, wave_z, monkeypatch):
    # the cover solve returns the kernel g(Z, X) it checked, so a solve builds no second one
    soft = _bump_scene(unit_box, wave_z, 0.01, seed=3)
    bc = ss.Impedance(h=1.0 - 0.5j, kappa=0.5)
    impedance = ss.Scene(particles=tuple(ss.Particle.sphere(c, 0.01, bc) for c in soft.centers),
                         domain=unit_box, wave=wave_z, background=soft.background)
    points = np.array([[0.5, 0.5, 2.0], [-1.0, 0.3, 0.2]])
    directions = fibonacci_directions(6)

    def outputs():
        for scene, solve in ((soft, solve_soft), (impedance, solve_impedance)):
            sol = solve(scene)
            yield sol.values, sol.cover_charges, eval_field(sol, scene, points), \
                far_field(sol, scene, directions).amplitudes

    expected = list(outputs())

    def refuse(*args, **kwargs):
        raise AssertionError("a medium solve or read-out built an evaluator or a kernel")

    monkeypatch.setattr(ss.GreenEvaluator, "__init__", refuse)
    monkeypatch.setattr(manybody, "point_green", refuse)
    for got, want in zip(outputs(), expected):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_medium_cloud_solves_where_the_dense_kernel_exceeds_the_budget(unit_box, wave_z,
                                                                       monkeypatch):
    scene = _bump_scene(unit_box, wave_z, 0.0005, seed=0)
    m = scene.n_particles
    expected = _dense_monopole_oracle(scene)
    # one byte under the dense M x M kernel, above A, the direct solve of the 512-cell cover
    # and the stored free-space kernel
    budget = 16 * m * m - 1
    nodes = _nodes(CloudKernel(scene.centers, wave_z.k))
    assert 16 * 512 * (2 * 512 + 3 * m) <= budget
    assert _cloud_bytes(m, nodes) <= budget
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", budget)
    sol = solve_soft(scene)
    assert sol.residual <= 1e-10
    assert np.max(np.abs(sol.values - expected)) < 1e-8 * np.max(np.abs(expected))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["soft", "impedance"]), m=st.integers(1, 40),
       k=st.floats(0.5, 3.0), amplitude=st.floats(0.0, 0.5), width=st.floats(0.1, 0.4),
       on_cover=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_medium_cloud_solves_match_dense_oracles(kind, m, k, amplitude, width, on_cover, seed):
    rng = np.random.default_rng(seed)
    box = ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    alpha = rng.normal(size=3)
    wave = ss.IncidentWave(k=k, alpha=alpha / np.linalg.norm(alpha))
    a = 0.01
    centers = _separated_centers(rng, m, 10 * a)
    if on_cover:  # a particle on a center of the 8^3 cover meets its cell's diagonal
        centers[0] = (np.floor(centers[0] * 8.0) + 0.5) / 8.0
    bc = {"soft": ss.Soft(),
          "impedance": ss.Impedance(h=complex(*rng.uniform([-2.0, -2.0], [2.0, 0.0])),
                                    kappa=0.5)}[kind]
    bump = ss.GaussianBumpField(amplitude=amplitude, center=rng.uniform(0.0, 1.0, 3),
                                width=width, base=1.0)
    # the particle moved onto a cover center may break the separation of ten radii
    scene = ss.Scene(particles=tuple(ss.Particle.sphere(c, a, bc) for c in centers),
                     domain=box, wave=wave, background=ss.BackgroundMedium(n2=bump, box=box),
                     separation_factor=0.0 if on_cover else 10.0)
    sol = {"soft": solve_soft, "impedance": solve_impedance}[kind](scene)
    expected = _dense_monopole_oracle(scene)
    assert sol.residual <= 1e-10
    assert np.max(np.abs(sol.values - expected)) <= 1e-8 * np.max(np.abs(expected))


def test_medium_budget_counts_the_dense_cover_before_allocating(unit_box, wave_z, monkeypatch):
    scene = _bump_scene(unit_box, wave_z, 0.01, seed=3)
    m = scene.n_particles
    # the dense 512 x 512 I - K and the copy np.linalg.solve factors, the right-hand sides
    # (512 x M), their copy and R (512 x M)
    total = 16 * 512 * (2 * 512 + 3 * m)
    expected = solve_soft(scene)

    def allocated(*args, **kwargs):
        raise AssertionError("a medium solve allocated before its budget check")

    with monkeypatch.context() as patch:
        patch.setattr(manybody, "KERNEL_BYTES_BUDGET", total - 1)
        for owner, name in ((manybody, "CloudKernel"), (manybody, "point_green"),
                            (ss.background, "cover_responses")):
            patch.setattr(owner, name, allocated)
        with pytest.raises(ss.GridTooLarge, match="medium cover sources"):
            solve_soft(scene)
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", total)
    assert np.array_equal(solve_soft(scene).values, expected.values)


def test_medium_read_out_is_one_grid_solve(unit_box, wave_z, monkeypatch):
    centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5], [0.5, 0.3, 0.6]])
    scene = _bump_scene(unit_box, wave_z, 0.005, centers=centers)
    points = np.array([[0.1, 0.1, 0.1], [0.9, 0.2, 0.4], [0.5, 0.5, 3.0]])
    factored = []
    solve = np.linalg.solve

    def counted(system, rhs):
        factored.append(system.shape)
        return solve(system, rhs)

    def iterated(*args, **kwargs):
        raise AssertionError("a medium solve ran a series or fixed-point iteration")

    monkeypatch.setattr(np.linalg, "solve", counted)
    monkeypatch.setattr(ss.background, "fixed_point_solve", iterated)
    monkeypatch.setattr(ss.background, "born_series", iterated)
    sol = solve_soft(scene)
    # one direct solve of the 512-cell cover, a column per particle, for the kernel
    assert factored == [(512, 512)]
    u = eval_field(sol, scene, points)
    # the read-out sums the stored cover sources
    assert len(factored) == 1
    ev = ss.GreenEvaluator(scene.background, k=wave_z.k)
    oracle = wave_z.field_at(points) + sum(ev.pair_values(points, c) * q
                                           for c, q in zip(centers, sol.charges))
    assert np.max(np.abs(u - oracle)) <= 1e-9 * np.max(np.abs(oracle - wave_z.field_at(points)))


def test_soft_cloud_solves_where_the_fixed_point_diverges(unit_box):
    # the fixed-point iteration of this medium's cover diverges; its discrete problem is well posed
    wave = ss.IncidentWave(k=6.0, alpha=[0.0, 0.0, 1.0])
    bump = ss.GaussianBumpField(amplitude=4.0, center=[0.5, 0.5, 0.5], width=0.35, base=1.0)
    medium = ss.BackgroundMedium(n2=bump, box=unit_box)
    spec = ss.CloudSpec(density=ss.ConstantField(1.0), a=0.005, rng_seed=0)
    scene = ss.Scene(particles=tuple(ss.generate_cloud(spec, unit_box)), domain=unit_box,
                     wave=wave, background=medium)
    assert scene.n_particles == 200
    ev = ss.GreenEvaluator(medium, k=wave.k)
    m, centers = scene.n_particles, scene.centers
    rhs = point_green(wave.k, ev.grid.centers, centers[1:2], cell_self_green(ev.grid))[0][:, 0]
    with pytest.raises(ss.NonConvergence):
        fixed_point_solve(ev._kernel, rhs, DEFAULT_RTOL)
    sol = solve_soft(scene)
    assert sol.residual <= 1e-10
    # a dense oracle whose columns are one-source kernels, not cover_responses
    g = np.zeros((m, m), dtype=complex)
    for j in range(m):
        others = np.arange(m) != j
        g[others, j] = ev.pair_values(centers[others], centers[j])
    system = np.eye(m) + g * scene.coupling[None, :]
    expected = np.linalg.solve(system, wave.field_at(centers))
    assert np.max(np.abs(sol.values - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_medium_read_outs_never_solve(unit_box, wave_z, monkeypatch):
    scene = _bump_scene(unit_box, wave_z, 0.01, seed=3)
    sol = solve_soft(scene)
    ev = ss.GreenEvaluator(scene.background, k=wave_z.k)
    # the stored sources are those of one grid solve on the summed charges
    to_grid = point_green(wave_z.k, ev.grid.centers, scene.centers, cell_self_green(ev.grid))[0]
    induced = ev._kernel.weights * ev._grid_solve(to_grid @ sol.charges)
    assert sol.cover_charges.shape == (ev.grid.n_cells,)
    assert np.max(np.abs(sol.cover_charges - induced)) <= 1e-12 * np.max(np.abs(induced))

    points = np.array([[0.5, 0.5, 2.0], [-1.0, 0.3, 0.2]])
    # the read-out sums the cover sources on the solve's evaluator grid, bit for bit
    expected = wave_z.field_at(points) + ss.background.point_source_sum(
        wave_z.k, points, np.vstack([scene.centers, ev.grid.centers]),
        np.concatenate([sol.charges, sol.cover_charges]),
        np.repeat([0.0, cell_self_green(ev.grid)], [scene.n_particles, ev.grid.n_cells]))

    def solve(*args, **kwargs):
        raise AssertionError("a read-out ran a grid solve")

    def build(*args, **kwargs):
        raise AssertionError("a read-out built an evaluator's FFT kernel")

    monkeypatch.setattr(ss.background, "fixed_point_solve", solve)
    monkeypatch.setattr(ss.background, "solve_checked", solve)
    monkeypatch.setattr(ss.background, "born_series", solve)
    monkeypatch.setattr(LatticeOperator, "__init__", build)
    with pytest.raises(AssertionError, match="FFT kernel"):
        ss.GreenEvaluator(scene.background, k=wave_z.k)
    assert np.array_equal(eval_field(sol, scene, points), expected)
    assert np.all(np.isfinite(far_field(sol, scene, fibonacci_directions(6)).amplitudes))
    cover = ss.GridCover.from_shape(unit_box, 3)
    assert np.all(np.isfinite(ss.cover_field_from_solution(sol, scene, cover)))


def test_far_field_includes_the_medium(unit_box):
    # criterion 9 (radiation consistency) in a strong medium
    wave = ss.IncidentWave(k=2.0, alpha=[0.0, 0.0, 1.0])
    scene = _bump_scene(unit_box, wave, 0.02, amplitude=1.0, seed=0)
    assert scene.n_particles == 50
    sol = solve_soft(scene)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = 1e4 / wave.k
    amps = far_field(sol, scene, dirs).amplitudes
    u = eval_field(sol, scene, r * dirs)
    recovered = r * np.exp(-1j * wave.k * r) * (u - wave.field_at(r * dirs))
    assert np.max(np.abs(recovered - amps)) <= 1e-3 * np.max(np.abs(amps))


def test_read_out_on_a_cover_center_is_the_grid_solution(unit_box, wave_z):
    # the source field there is u0 + g(z_q, x) Q + (K v)_q = u0 + v_q, for
    # v = (I - K)^{-1} g(Z, x) Q, only if g(z_q, z_q) is the grid's own diagonal
    scene = _bump_scene(unit_box, wave_z, 0.005, centers=np.array([[0.3, 0.4, 0.5]]))
    sol = solve_soft(scene)
    ev = ss.GreenEvaluator(scene.background, k=wave_z.k)
    z = np.full((1, 3), 0.5625)
    q = int(ev.grid.cell_index(z)[0])
    assert np.array_equal(ev.grid.centers[q], z[0])
    r = np.linalg.norm(ev.grid.centers - scene.centers[0], axis=1)
    v = ev._grid_solve(free_space_green(wave_z.k, r) * sol.charges[0])
    u = eval_field(sol, scene, z)
    assert abs(u[0] - (wave_z.field_at(z)[0] + v[q])) <= 1e-10


def test_hard_cloud_radiation_matches_far_field():
    # criterion 9 for the dipole term of both read-outs
    box = ss.Box(lo=[-1.0, -1.0, -1.0], hi=[1.0, 1.0, 1.0])
    wave = ss.IncidentWave(k=1.0, alpha=[0.0, 0.0, 1.0])
    spec = ss.CloudSpec(density=ss.ConstantField(0.002), a=0.02, law="hard_volume",
                        bc_kind="hard", rng_seed=1)
    scene = ss.Scene(particles=tuple(ss.generate_cloud(spec, box)), domain=box, wave=wave)
    assert scene.n_particles == 477
    sol = solve_hard(scene)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = 1e4 / wave.k
    amps = far_field(sol, scene, dirs).amplitudes
    u = eval_field(sol, scene, r * dirs)
    recovered = r * np.exp(-1j * wave.k * r) * (u - wave.field_at(r * dirs))
    assert np.max(np.abs(recovered - amps)) <= 1e-3 * np.max(np.abs(amps))


def _cover_read_out(kind, medium, wave, points):
    """A read-out that sums a medium's cover sources, and the dense formula it replaced."""
    k = wave.k
    if kind == "plane_wave":
        cover = ss.GridCover.from_shape(medium.box, 8)
        chi = medium.contrast(cover.centers)
        u_grid = ss.scattered_plane_wave(chi, cover, k, wave.alpha)[0]
        g = point_green(k, points, cover.centers, cell_self_green(cover))[0]
        dense = wave.field_at(points) + (k**2) * (g @ (chi * cover.cell_volume * u_grid))
        return lambda: ss.scattered_plane_wave(chi, cover, k, wave.alpha, points=points)[1], dense
    ev = ss.GreenEvaluator(medium, k=k)
    y = np.array([0.2, 0.7, 0.4])
    g = point_green(k, ev.grid.centers, points, cell_self_green(ev.grid))[0]
    responses = ss.background.cover_responses(ev.grid, k, medium.contrast(ev.grid.centers),
                                              y[None, :])[0]
    dense = free_space_green(k, np.linalg.norm(points - y, axis=1)) + (g.T @ responses)[:, 0]
    return lambda: ev.pair_values(points, y), dense


@pytest.mark.parametrize("kind", ["soft", "soft_in_medium", "hard", "plane_wave", "green"])
def test_source_field_blocks_are_bit_identical(unit_box, wave_z, monkeypatch, kind):
    rng = np.random.default_rng(21)
    centers = _separated_centers(rng, 15, 0.1)
    if kind in ("soft_in_medium", "plane_wave", "green"):
        scene = _bump_scene(unit_box, wave_z, 0.005, centers=centers)
    else:
        make = hard_scene if kind == "hard" else soft_scene
        scene = make(centers, 0.005, wave_z, unit_box)
    points = np.vstack([rng.uniform(0.0, 1.0, size=(30, 3)), centers[4]])
    cells = (rng.integers(0, 3, size=len(points)), rng.integers(0, 3, size=len(centers)))
    expected = None
    if kind in ("plane_wave", "green"):
        # one target on a cover center, which takes its cell's self value
        points = np.vstack([points, [0.5625, 0.5625, 0.5625]])
        read_out, expected = _cover_read_out(kind, scene.background, wave_z, points)
    else:
        sol = solve_hard(scene) if kind == "hard" else solve_soft(scene)

        def read_out():
            return manybody.source_field(sol, scene, points, exclude_cells=cells)
    if kind == "soft":
        # the exclusion drops exactly the particle columns of a point's own cell
        g = manybody.point_green(scene.wave.k, points, scene.centers)[0]
        g[cells[0][:, None] == cells[1][None, :]] = 0.0
        expected = scene.wave.field_at(points) + g @ sol.charges
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 1 << 30)
    whole = read_out()
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 40)
    assert np.array_equal(read_out(), whole)
    if expected is not None:
        assert np.max(np.abs(whole - expected)) <= 1e-14 * np.max(np.abs(expected))
    if kind in ("plane_wave", "green"):
        return
    # the inside-particle check runs block by block too and names the right point
    with pytest.raises(ss.PointInsideParticle, match="point 30 lies inside particle 4"):
        eval_field(sol, scene, points)


def test_medium_read_out_is_thread_safe(unit_box, wave_z):
    scene = _bump_scene(unit_box, wave_z, 0.01, seed=3)
    sol = solve_soft(scene)
    axis = np.linspace(0.05, 0.95, 4)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    gap = np.min(np.linalg.norm(points[:, None, :] - scene.centers[None], axis=-1), axis=1)
    points = points[gap > 0.02]
    serial = eval_field(sol, scene, points)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: eval_field(sol, scene, points), range(8),
                                    timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8 and all(np.array_equal(serial, u) for u in results)


# ---------------------------------------------------------------------------
# The cloud kernel: real tiles plus a plane-wave factor
# ---------------------------------------------------------------------------
def _tiles_to_matrix(tiles, m, layer):
    """Full symmetric matrix from one layer of the stored tiles ``I <= J``."""
    full = np.zeros((m, m))
    for rows, cols, layers in tiles:
        full[rows, cols] = layers[layer]
        full[cols, rows] = layers[layer].T
    return full


def _nodes(kernel):
    """Rule nodes of a kernel's plane-wave factor; None where it stores a sine layer."""
    return None if kernel.factor is None else kernel.factor.shape[1] // 2


def _cloud_bytes(m, nodes, stored=True):
    """``_kernel_bytes`` of a cloud kernel: 8 bytes per pair of each layer (``cos``, and
    ``sin`` where ``nodes`` is None), and ``F`` of ``nodes`` nodes."""
    return manybody._kernel_bytes(m, 16 if nodes is None else 8, 16 * m * (nodes or 0), stored)


def _stored(tiles):
    """Whether a kernel's tiles are stored, or recomputed on every pass."""
    return isinstance(tiles, list)


@pytest.mark.parametrize("block_entries", [1 << 20, 997])
def test_stored_kernel_tiles_match_pair_matrix(monkeypatch, block_entries):
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(4)
    edge = math.isqrt(block_entries)
    # at k = 1.7 in the unit cube 173 centers store a sine layer (4 Q >= M - 1), 600 take
    # the plane-wave factor
    for m, layers in ((173, 2), (600, 1)):
        centers = rng.uniform(0.0, 1.0, size=(m, 3))
        if layers == 2:  # coincident centers in one tile and in two; both layers give 0
            centers[[7, 100]] = centers[[3, 5]]
        kernel = CloudKernel(centers, 1.7)
        n = len(range(0, m, edge))
        assert _stored(kernel.tiles) and kernel.layers == layers
        assert len(kernel.tiles) == n * (n + 1) // 2
        dense = pair_kernel_matrix(centers, 1.7)
        assert np.array_equal(_tiles_to_matrix(kernel.tiles, m, 0), dense.real)
        if layers == 2:
            assert kernel.factor is None
            assert np.array_equal(_tiles_to_matrix(kernel.tiles, m, 1), dense.imag)
            continue
        assert 4 * _nodes(kernel) < m - 1
        f = kernel.factor
        scale = 1.7 / FOUR_PI
        # rounding of the 288-term sums, as of the 276-term sums at M = 173 (1.7e-15 to
        # 2.7e-15 at every rule degree from 19 to 35)
        assert np.max(np.abs(scale * (f @ f.T - np.eye(m)) - dense.imag)) <= 4e-15 * scale


def test_streamed_kernel_products_match_stored(monkeypatch):
    rng = np.random.default_rng(5)
    m = 300
    centers = rng.uniform(0.0, 1.0, size=(m, 3))
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 5000)
    pairs, tile = _tile_pairs(m, math.isqrt(5000))
    default = manybody.KERNEL_BYTES_BUDGET
    # k = 0.3 takes the plane-wave factor, k = 1.3 a sine layer
    for k, layers in ((0.3, 1), (1.3, 2)):
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", default)
        nodes = _nodes(CloudKernel(centers, k))
        # 8 bytes per pair of each layer on the stored tiles and one tile more, and F: the
        # tiles are stored at exactly that total and recomputed on every product one byte under
        total = 8 * layers * (pairs + tile) + 16 * m * (nodes or 0)
        assert _cloud_bytes(m, nodes) == total
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", total)
        stored = CloudKernel(centers, k)
        assert stored.layers == layers and (nodes is None) == (layers == 2)
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", total - 1)
        streamed = CloudKernel(centers, k)
        assert _stored(stored.tiles) and not _stored(streamed.tiles)
        expected = stored @ v
        assert np.array_equal(streamed @ v, expected)
        assert np.array_equal(streamed @ v, expected)  # the scratch tile is refilled
        assert np.linalg.norm(expected - pair_kernel_matrix(centers, k) @ v) \
            <= 1e-13 * np.linalg.norm(expected)
        # streaming still needs the factor and, per layer, one scratch tile and one tile more
        least = 16 * layers * tile + 16 * m * (nodes or 0)
        assert _cloud_bytes(m, nodes, stored=False) == least
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", least - 1)
        with pytest.raises(ss.GridTooLarge, match="cloud kernel of 300 particles"):
            CloudKernel(centers, k)
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", least)
        assert np.array_equal(CloudKernel(centers, k) @ v, expected)


def test_kernel_tiles_evaluated_once_at_build(monkeypatch, wide_box, wave_z):
    """A free-space solve evaluates each stored tile entry once, when the kernel is built, and
    none per product, whatever the iteration count."""
    rng = np.random.default_rng(8)
    centers = rng.uniform(-1.0, 1.0, size=(300, 3))
    counts = []
    real_layers = manybody._green_layers

    def counted(k, r, layers):
        counts[-1] += r.size
        return real_layers(k, r, layers)

    monkeypatch.setattr(manybody, "_green_layers", counted)
    tile_entries = sum(rows * cols for _, _, (rows, cols) in manybody._upper_tiles(len(centers)))
    for h in (0.05, 5.0 - 2.0j):
        counts.append(0)
        sol = solve_impedance(imp_scene(centers, 0.002, h, 0.5, wave_z, wide_box))
        assert sol.residual < 1e-10
        # every entry of the tiles I <= J goes through the counted kernel once, a diagonal
        # tile whole
        assert counts[-1] == tile_entries
    assert counts[0] == counts[1]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 300),
       k=st.one_of(st.just(0.0), st.floats(0.0, 4.0), st.floats(4.0, 3000.0)),
       size=st.floats(0.01, 2.0), shape=st.sampled_from(["cube", "flat", "line"]),
       shift=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)), seed=st.integers(0, 2**32 - 1))
@example(m=1, k=2.0, size=1.0, shape="cube", shift=500.0, seed=0)
@example(m=2, k=4.0, size=2.0, shape="line", shift=0.0, seed=1)
@example(m=300, k=4.0, size=2.0, shape="cube", shift=1000.0, seed=2)
@example(m=300, k=0.0, size=1.0, shape="flat", shift=0.0, seed=3)
@example(m=300, k=1.0, size=0.3, shape="cube", shift=1000.0, seed=4)
@example(m=300, k=1.0, size=0.3, shape="line", shift=0.0, seed=5)
@example(m=2, k=3000.0, size=1.0, shape="cube", shift=0.0, seed=7)
@example(m=40, k=3000.0, size=1.0, shape="cube", shift=0.0, seed=6)
def test_cloud_kernel_products_match_pair_matrix(m, k, size, shape, shift, seed):
    """Clouds far off the origin, where an uncentered plane-wave phase loses digits, flat or
    collinear clouds, whose rule still spans the sphere, and large ``kD``, where the sine
    layer is stored: the last two examples have kD of 2176 and 4698, past the 1420 at which
    ``(kD)^L / (2L + 1)!!`` overflows a float."""
    rng = np.random.default_rng(seed)
    centers = size * rng.uniform(0.0, 1.0, size=(m, 3))
    if shape != "cube":
        frame = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        centers = centers * ([1.0, 1.0, 0.0] if shape == "flat" else [1.0, 0.0, 0.0]) @ frame
    centers += shift * rng.normal(size=3)
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    kernel = CloudKernel(centers, k)
    expected = pair_kernel_matrix(centers, k) @ v
    assert np.linalg.norm(kernel @ v - expected) <= 1e-13 * np.linalg.norm(expected)
    if k == 0.0:  # no imaginary part at all: a real vector maps to a real vector
        assert np.all((kernel @ v.real).imag == 0.0)


def test_cloud_kernel_solves_where_the_factor_exceeds_the_budget(monkeypatch):
    """At kD of about 100 the rule needs thousands of nodes: the sine layer is stored, or
    streamed one byte under it, where the factor alone would exceed the budget."""
    rng = np.random.default_rng(9)
    m, k = 600, 58.0
    centers = rng.uniform(0.0, 1.0, size=(m, 3))
    kd = 2.0 * k * np.max(np.linalg.norm(centers - centers.mean(axis=0), axis=1))
    nodes = len(manybody._sphere_rule(manybody._rule_degree(kd, 1 << 30))[1])
    budget = _cloud_bytes(m, None)
    assert 16 * m * nodes > budget
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    expected = pair_kernel_matrix(centers, k) @ v
    for b in (budget, budget - 1):
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", b)
        kernel = CloudKernel(centers, k)
        assert kernel.factor is None and _stored(kernel.tiles) == (b >= budget)
        assert np.linalg.norm(kernel @ v - expected) <= 1e-13 * np.linalg.norm(expected)


def test_cloud_kernel_cap_at_the_default_budget():
    """The stored kernel's byte formula, for clouds in the unit cube at k = 1, stores the
    a = 0.00125 level of the impedance study (M = 22627) with ``F``, and two layers up to
    M = 16 252.  Arithmetic only: nothing of that size is allocated."""
    budget = manybody.KERNEL_BYTES_BUDGET
    assert budget == 2 * 1024**3
    degree = manybody._rule_degree(math.sqrt(3.0), (22627 - 2) // 4)
    nodes = len(manybody._sphere_rule(degree)[1])
    assert nodes == 100
    caps = []
    for layer_nodes in (nodes, None):
        lo, hi = 1, 1 << 16  # bytes(lo) <= budget < bytes(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _cloud_bytes(mid, layer_nodes) <= budget else (lo, mid)
        caps.append(lo)
    assert caps == [22842, 16252]


def test_rule_degree_at_a_subnormal_kd():
    # kd / 3 underflows to 0, whose logarithm the search must not take
    assert manybody._rule_degree(5e-324, 1 << 30) == 1
    assert manybody._rule_degree(5e-324, 1) is None


def test_solve_hard_matches_dense_solve_at_m200(wave_z):
    spec = ss.CloudSpec(density=ss.ConstantField(0.002), a=0.0135, law="hard_volume",
                        bc_kind="hard", rng_seed=3)
    box = ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    scene = ss.Scene(particles=tuple(ss.generate_cloud(spec, box)), domain=box, wave=wave_z)
    assert 180 <= scene.n_particles <= 220
    sol = solve_hard(scene)
    assert sol.method == "gmres" and sol.residual < 1e-10
    x = _dense_hard_oracle(scene)
    got = np.concatenate([sol.values, sol.gradients.ravel(), sol.laplacians])
    assert np.max(np.abs(got - x)) < 1e-8 * np.max(np.abs(x))


def _separated_centers(rng, m, gap):
    """``m`` uniform points in the unit cube, pairwise at least ``gap`` apart."""
    centers = []
    while len(centers) < m:
        c = rng.uniform(0.0, 1.0, 3)
        if all(np.linalg.norm(c - other) >= gap for other in centers):
            centers.append(c)
    return np.array(centers)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["soft", "impedance", "hard"]), m=st.integers(1, 40),
       k=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1))
def test_cloud_solves_match_dense_oracles(kind, m, k, seed):
    rng = np.random.default_rng(seed)
    box = ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    alpha = rng.normal(size=3)
    wave = ss.IncidentWave(k=k, alpha=alpha / np.linalg.norm(alpha))
    a = 0.01
    centers = _separated_centers(rng, m, 10 * a)  # the regime's separation of ten radii
    bc = {"soft": ss.Soft(), "hard": ss.Hard(),
          "impedance": ss.Impedance(h=complex(*rng.uniform([-2.0, -2.0], [2.0, 0.0])),
                                    kappa=0.5)}[kind]
    particles = tuple(ss.Particle.sphere(c, a, bc) for c in centers)
    scene = ss.Scene(particles=particles, domain=box, wave=wave)
    if kind == "hard":
        sol = solve_hard(scene)
        got = np.concatenate([sol.values, sol.gradients.ravel(), sol.laplacians])
        expected = _dense_hard_oracle(scene)
    else:
        sol = {"soft": solve_soft, "impedance": solve_impedance}[kind](scene)
        got, expected = sol.values, _dense_monopole_oracle(scene)
    assert sol.method == "gmres" and sol.residual <= 1e-10
    assert np.max(np.abs(got - expected)) <= 1e-8 * np.max(np.abs(expected))


# ---------------------------------------------------------------------------
# The matrix-free hard operator
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(m=st.one_of(st.integers(1, 40), st.integers(120, 220)), k=st.floats(0.5, 3.0),
       size=st.one_of(st.floats(0.01, 1.0), st.floats(0.01, 0.03)), axis=st.integers(0, 2),
       shift=st.one_of(st.just(0.0), st.floats(0.0, 100.0)), seed=st.integers(0, 2**32 - 1),
       block_entries=st.sampled_from([1 << 16, 49]), stored=st.booleans())
@example(m=1, k=1.0, size=1.0, axis=0, shift=0.0, seed=0, block_entries=49, stored=True)
@example(m=7, k=1.0, size=1.0, axis=0, shift=0.0, seed=1, block_entries=49, stored=True)
@example(m=40, k=2.0, size=0.5, axis=1, shift=50.0, seed=2, block_entries=49, stored=False)
@example(m=200, k=1.0, size=0.02, axis=2, shift=0.0, seed=3, block_entries=1 << 16,
         stored=True)
@example(m=150, k=3.0, size=0.02, axis=0, shift=100.0, seed=4, block_entries=49, stored=False)
def test_hard_cloud_products_match_dense_matrix(m, k, size, axis, shift, seed, block_entries,
                                                stored):
    """Anisotropic, non-symmetric dipole weights; small clouds moved far off the origin,
    where forming ``rhat . d`` from uncentered coordinates loses digits.  Clouds of more than
    ``4 Q + 1`` centers (small ``kD``: the last two examples) take the plane-wave factor and
    six real layers, smaller ones all eight.  With 49 block entries the tiles have 7 centers
    a side, so a cloud spans several, the last one ragged (or fills exactly one, at M = 7).
    Without ``stored`` the budget is one byte under the stored tiles, so every product of a
    cloud of more than one tile recomputes them."""
    rng = np.random.default_rng(seed)
    centers = size * _separated_centers(rng, m, 0.1)
    centers[:, axis] += shift
    lap_weights = rng.uniform(0.01, 1.0, m)
    dipole_weights = rng.normal(size=(m, 3, 3))
    x = rng.normal(size=5 * m) + 1j * rng.normal(size=5 * m)
    expected = assemble_hard_system(centers, k, lap_weights, dipole_weights) @ x
    nodes = _hard_nodes(centers, k)
    assert nodes is None or m >= 120
    edge = math.isqrt(block_entries)
    n = len(range(0, m, edge))
    stored = stored or n == 1  # one tile is its own scratch tile
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ss.background, "_BLOCK_ENTRIES", block_entries)
        if not stored:
            patch.setattr(manybody, "KERNEL_BYTES_BUDGET", _hard_check_bytes(m, edge, nodes) - 1)
        fills = _count_calls(patch, "_hard_tile")
        system = manybody.hard_cloud_system(centers, k, lap_weights, dipole_weights)
        tiles = len(fills)
        got = system(x)
    assert (tiles, len(fills)) == ((n * (n + 1) // 2,) * 2 if stored else (0, n * (n + 1) // 2))
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def _hard_cloud(m, seed):
    rng = np.random.default_rng(seed)
    box = ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    wave = ss.IncidentWave(k=1.3, alpha=[0.0, 0.6, 0.8])
    return hard_scene(_separated_centers(rng, m, 0.1), 0.01, wave, box)


def _tile_pairs(m, edge):
    """Pairs of the tiles ``I <= J`` of ``m`` centers, ``edge`` a side, and of one tile."""
    sizes = np.diff(np.append(np.arange(0, m, edge), m))
    return (m * m + int(np.sum(sizes**2))) // 2, min(edge, m) ** 2


def _hard_nodes(centers, k):
    """Rule nodes of the plane-wave factor a hard operator takes; None where it stores all
    eight real layers."""
    rule = manybody._plane_wave_rule(k, centers - centers.mean(axis=0), offset=1)
    return None if rule is None else len(rule[1])


def _hard_check_bytes(m, edge, nodes=None):
    """The hard budget check: 48 bytes per pair of the tiles ``I <= J`` and of one tile, and
    ``F``'s 16 bytes per center and node; 64 bytes per pair where ``nodes`` is None."""
    return (64 if nodes is None else 48) * sum(_tile_pairs(m, edge)) + 16 * m * (nodes or 0)


def _count_calls(monkeypatch, name):
    """A list that gains an entry at every call of ``manybody.<name>``; ``_hard_tile`` fills
    one tile of a hard operator."""
    calls, real = [], getattr(manybody, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(manybody, name, counted)
    return calls


def test_hard_cloud_products_allocate_no_pair_array():
    """The seed-0 ``hard_volume`` cloud of the benchmark (M = 933): six real layers stored on
    the tiles ``I <= J`` only and the plane-wave factor, a build within the budget check, and
    no M x M temporary in a product."""
    spec = ss.CloudSpec(density=ss.ConstantField(0.002), a=0.008, law="hard_volume",
                        bc_kind="hard", rng_seed=0)
    particles = ss.generate_cloud(spec, ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0]))
    m = len(particles)
    centers = np.array([p.center for p in particles])
    volumes = np.array([p.volume for p in particles])
    dipole_weights = np.array([p.polarizability * p.volume for p in particles])
    x = np.random.default_rng(0).normal(size=5 * m) + 0j
    tracemalloc.start()
    try:
        system = manybody.hard_cloud_system(centers, 1.0, volumes, dipole_weights)
        stored, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system(x)
        product_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m > 900
    edge, nodes = math.isqrt(ss.background._BLOCK_ENTRIES), _hard_nodes(centers, 1.0)
    assert nodes == 126
    # half of the six full layers' 48 M^2 bytes, plus the diagonal tiles' lower halves, and F
    assert stored <= 48 * (m * m + edge * m) // 2 + 16 * m * nodes + 1024 * m
    assert build_peak <= _hard_check_bytes(m, edge, nodes)
    assert product_peak - stored <= 2048 * m


def test_hard_solve_never_assembles_the_dense_system(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("solve_hard assembled the dense 5M system")

    monkeypatch.setattr(manybody, "assemble_hard_system", dense)
    sol = solve_hard(_hard_cloud(25, 11))
    assert sol.residual <= 1e-10


def test_hard_cloud_solves_where_the_dense_system_exceeds_the_budget(monkeypatch):
    scene = _hard_cloud(30, 12)
    m = scene.n_particles
    expected = _dense_hard_oracle(scene)
    # above the operator's pair arrays, one byte under the dense 5M x 5M matrix
    budget = 16 * (5 * m) ** 2 - 1
    assert _hard_check_bytes(m, math.isqrt(ss.background._BLOCK_ENTRIES)) <= budget
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", budget)
    with pytest.raises(ss.GridTooLarge):
        _dense_hard_oracle(scene)
    sol = solve_hard(scene)
    got = np.concatenate([sol.values, sol.gradients.ravel(), sol.laplacians])
    assert sol.residual <= 1e-10
    assert np.max(np.abs(got - expected)) < 1e-8 * np.max(np.abs(expected))


def test_hard_cloud_solves_where_the_row_block_check_refused(monkeypatch):
    # tiles of 7 centers: 30 particles span five, the last of 2 centers
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 49)
    scene = _hard_cloud(30, 12)
    m = scene.n_particles
    expected = _dense_hard_oracle(scene)
    budget = _hard_check_bytes(m, 7)
    # the full-array check counted 64 bytes per pair and per pair of one row block
    assert 64 * m * (m + max(1, 49 // m)) > budget
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", budget)
    sol = solve_hard(scene)
    got = np.concatenate([sol.values, sol.gradients.ravel(), sol.laplacians])
    assert sol.residual <= 1e-10
    assert np.max(np.abs(got - expected)) < 1e-8 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", ["cloud", "hard"])
@pytest.mark.parametrize("block_entries, stored", [(1 << 16, True), (1 << 10, False)])
def test_kernel_builds_stay_within_their_budget_check(monkeypatch, kind, block_entries, stored):
    """A build's traced peak is at most the bytes its budget check counted (tiles, one tile
    more and ``F``) plus 512 KiB: numpy's ufunc buffers on the strided halves of ``F``
    (192 KiB) and the tile list.  The recomputing build on 32 x 32 tiles allocates ``F``
    and nothing else of size, so phases ``k X S^T`` beside it (8 M Q bytes) would not fit."""
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", block_entries)
    m = 933 if stored else 1000
    centers = np.random.default_rng(1).uniform(size=(m, 3))
    offset, pair_bytes = (1, 48) if kind == "hard" else (0, 8)
    rule = manybody._plane_wave_rule(1.0, centers - centers.mean(axis=0), offset)
    checked = manybody._kernel_bytes(m, pair_bytes, 16 * m * len(rule[1]), stored)
    if not stored:
        monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", checked)
    tracemalloc.start()
    try:
        if kind == "hard":
            manybody.hard_cloud_system(centers, 1.0, np.ones(m), np.zeros((m, 3, 3)))
        else:
            CloudKernel(centers, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= checked + (512 << 10)


def test_hard_cap_at_the_default_budget(monkeypatch):
    """In the unit cube at k = 1 the operator stores six real layers and ``F`` of 126 nodes
    (the rule a degree above the cloud kernel's 100, for the gradient) up to M = 9284; all
    eight layers would stop at 8057.  Arithmetic, and a build past the cap that stores no
    tile."""
    budget, edge = manybody.KERNEL_BYTES_BUDGET, math.isqrt(ss.background._BLOCK_ENTRIES)
    assert budget == 2 * 1024**3 and edge == 256
    nodes = len(manybody._sphere_rule(manybody._rule_degree(math.sqrt(3.0), (9284 - 2) // 4, 1))[1])
    assert nodes == 126
    assert _hard_check_bytes(9284, edge, nodes) <= budget < _hard_check_bytes(9285, edge, nodes)
    assert _hard_check_bytes(8057, edge) <= budget < _hard_check_bytes(8058, edge)
    assert manybody._kernel_bytes(8057, 64) <= budget < manybody._kernel_bytes(8058, 64)
    # the full arrays with one row block of 65 536 pairs stopped at 5787
    assert 64 * 5787 * (5787 + 65536 // 5787) <= budget < 64 * 5788 * (5788 + 65536 // 5788)
    # past the cap the tiles are recomputed on every product: the build fills none and
    # allocates F and the tile list
    fills = _count_calls(monkeypatch, "_hard_tile")
    centers = np.random.default_rng(0).uniform(size=(9285, 3))
    assert _hard_nodes(centers, 1.0) == nodes
    tracemalloc.start()
    try:
        manybody.hard_cloud_system(centers, 1.0, np.ones(9285), np.zeros((9285, 3, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not fills and peak <= 16 * 9285 * nodes + (2 << 20)


def test_recomputed_hard_products_match_stored(monkeypatch):
    """Stored at exactly the bytes of the tiles ``I <= J``, of one tile more and of ``F``; one
    byte under, every product recomputes them into one scratch tile, bit for bit the stored
    products; one byte under two tiles and ``F`` it raises.  At k = 1.3 the 300 centers store
    all eight real layers, at k = 0.3 six and ``F``."""
    rng = np.random.default_rng(17)
    m = 300
    centers = rng.uniform(0.0, 1.0, size=(m, 3))
    lap_weights = rng.uniform(0.01, 1.0, m)
    dipole_weights = rng.normal(size=(m, 3, 3))
    x = rng.normal(size=5 * m) + 1j * rng.normal(size=5 * m)
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 5000)
    tile = math.isqrt(5000) ** 2
    for k, pair_bytes in ((1.3, 64), (0.3, 48)):
        nodes = _hard_nodes(centers, k)
        assert (nodes is None) == (pair_bytes == 64)
        factor_bytes = 16 * m * (nodes or 0)
        dense = assemble_hard_system(centers, k, lap_weights, dipole_weights) @ x
        total = _hard_check_bytes(m, 70, nodes)
        assert manybody._kernel_bytes(m, pair_bytes, factor_bytes) == total
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(manybody, "KERNEL_BYTES_BUDGET", total)
            fills = _count_calls(patch, "_hard_tile")
            stored = manybody.hard_cloud_system(centers, k, lap_weights, dipole_weights)
            expected = stored(x)
            assert len(fills) == 15  # 5 row blocks of 70: 15 tiles, each filled once
            assert np.linalg.norm(expected - dense) <= 1e-12 * np.linalg.norm(dense)
            patch.setattr(manybody, "KERNEL_BYTES_BUDGET", total - 1)
            recomputed = manybody.hard_cloud_system(centers, k, lap_weights, dipole_weights)
            assert len(fills) == 15  # the build fills none
            for n in (1, 2):
                assert np.array_equal(recomputed(x), expected)
                assert len(fills) == 15 * (n + 1)
            least = pair_bytes * 2 * tile + factor_bytes
            patch.setattr(manybody, "KERNEL_BYTES_BUDGET", least - 1)
            with pytest.raises(ss.GridTooLarge, match="hard operator of 300 particles"):
                manybody.hard_cloud_system(centers, k, lap_weights, dipole_weights)
            patch.setattr(manybody, "KERNEL_BYTES_BUDGET", least)
            assert np.array_equal(manybody.hard_cloud_system(centers, k, lap_weights,
                                                             dipole_weights)(x), expected)


def test_recomputed_products_share_no_scratch_between_threads(monkeypatch):
    """Concurrent products of one kernel or hard operator whose tiles are recomputed each
    fill a scratch tile of their own, so every thread gets the serial result."""
    rng = np.random.default_rng(18)
    m = 300
    centers = rng.uniform(0.0, 1.0, size=(m, 3))
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 5000)
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", 64 * 2 * math.isqrt(5000) ** 2)
    kernel = CloudKernel(centers, 1.3)
    hard = manybody.hard_cloud_system(centers, 1.3, rng.uniform(0.01, 1.0, m),
                                      rng.normal(size=(m, 3, 3)))
    assert not _stored(kernel.tiles)
    for apply, n in ((kernel.__matmul__, m), (hard, 5 * m)):
        inputs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(8)]
        serial = [apply(x) for x in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(apply, inputs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        assert all(np.array_equal(a, b) for a, b in zip(serial, results))


def test_hard_cloud_solves_with_recomputed_tiles(monkeypatch):
    # tiles of 7 centers: 30 particles span five, fifteen tiles I <= J
    monkeypatch.setattr(ss.background, "_BLOCK_ENTRIES", 49)
    scene = _hard_cloud(30, 12)
    m = scene.n_particles
    expected = _dense_hard_oracle(scene)
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", _hard_check_bytes(m, 7) - 1)
    fills = _count_calls(monkeypatch, "_hard_tile")
    sol = solve_hard(scene)
    # every product fills all fifteen tiles again, the build none
    assert len(fills) % 15 == 0 and len(fills) >= 2 * 15
    got = np.concatenate([sol.values, sol.gradients.ravel(), sol.laplacians])
    assert sol.residual <= 1e-10
    assert np.max(np.abs(got - expected)) < 1e-8 * np.max(np.abs(expected))


def test_hard_source_field_matches_kernel_block_sum(wide_box, wave_z):
    # O(1) strengths: the sources dominate u0
    rng = np.random.default_rng(14)
    m = 12
    particles = tuple(ss.Particle(center=c, a=0.01, bc=ss.Hard(), capacitance=1.0,
                                  surface_factor=FOUR_PI, volume=1.0,
                                  polarizability=rng.normal(size=(3, 3)))
                      for c in _separated_centers(rng, m, 0.1))
    scene = ss.Scene(particles=particles, domain=wide_box, wave=wave_z)
    charges = rng.normal(size=m) + 1j * rng.normal(size=m)
    dipoles = rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3))
    sol = ss.EffectiveFieldSolution(kind="hard", values=np.zeros(m, complex),
                                    charges=charges, dipoles=dipoles)
    # one point on a center, whose zero-distance pair contributes nothing
    points = np.vstack([rng.uniform(-0.5, 1.5, size=(40, 3)), scene.centers[3]])
    cells = (rng.integers(0, 5, size=len(points)), rng.integers(0, 5, size=m))
    exclude = cells[0][:, None] == cells[1][None, :]
    g, gp, *_ = dipole_kernel_blocks(points, scene.centers, scene.wave.k)
    g[exclude] = 0.0
    gp[exclude] = 0.0
    ik = 1j * scene.wave.k
    expected = scene.wave.field_at(points) + g @ charges + ik * np.einsum("xmp,mp->x", gp, dipoles)
    got = manybody.source_field(sol, scene, points, exclude_cells=cells)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
