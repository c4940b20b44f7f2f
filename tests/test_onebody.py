import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smallscat as ss
from smallscat import manybody
from smallscat.onebody import (_PANEL_PAIR_BYTES, _self_potentials, amplitude_onebody,
                               capacitance_zeroth, charge_hard, charge_impedance, charge_soft,
                               icosphere, load_obj, mesh_particle, polarizability, save_obj,
                               spheroid, static_dipole_densities, static_double_layer_matrix)
from tests.conftest import rotation_matrix

FOUR_PI = 4.0 * np.pi
ORIGIN = np.zeros(3)


# ---------------------------------------------------------------------------
# Mesh validation and ingestion
# ---------------------------------------------------------------------------
def test_icosphere_is_closed_sphere(sphere_mesh_1280):
    mesh = sphere_mesh_1280
    assert mesh.n_triangles == 1280
    edges = {tuple(sorted(edge)) for tri in mesh.triangles.tolist()
             for edge in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))}
    assert len(mesh.vertices) - len(edges) + mesh.n_triangles == 2  # Euler characteristic
    # inscribed polyhedron: slight area/volume deficit at this resolution
    assert float(mesh.areas.sum()) == pytest.approx(FOUR_PI, rel=6e-3)
    assert mesh.volume == pytest.approx(4 / 3 * np.pi, rel=1.2e-2)
    assert np.allclose(mesh.volume_centroid, 0.0, atol=1e-12)
    # outward normals: n . r > 0 on a sphere about the origin
    assert np.all(np.einsum("ij,ij->i", mesh.normals, mesh.centroids) > 0)


def test_open_mesh_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 3, 1], [1, 3, 2]])  # one face missing
    with pytest.raises(ss.DegenerateMesh):
        ss.SurfaceMesh(verts, tris)


def test_inverted_orientation_rejected(sphere_mesh_320):
    flipped = sphere_mesh_320.triangles[:, ::-1]
    with pytest.raises(ss.DegenerateMesh):
        ss.SurfaceMesh(sphere_mesh_320.vertices, flipped)


def test_degenerate_triangle_rejected():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(ss.DegenerateMesh):
        ss.SurfaceMesh(verts, tris)


def test_obj_roundtrip(tmp_path, sphere_mesh_320):
    path = tmp_path / "sphere.obj"
    save_obj(sphere_mesh_320, path)
    back = load_obj(path)
    assert np.allclose(back.vertices, sphere_mesh_320.vertices)
    assert np.array_equal(back.triangles, sphere_mesh_320.triangles)


# ---------------------------------------------------------------------------
# Panel quadrature
# ---------------------------------------------------------------------------
def test_triangle_self_potential_against_quadrature():
    p0 = np.array([0.0, 0.0, 0.0])
    p1 = np.array([1.3, 0.1, 0.0])
    p2 = np.array([0.2, 0.9, 0.4])
    analytic = _self_potentials(p0[None], p1[None], p2[None])[0]

    def brute(n):
        u = (np.arange(n) + 0.5) / n
        uu, vv = np.meshgrid(u, u, indexing="ij")
        mask = uu + vv < 1.0
        uu, vv = uu[mask], vv[mask]
        pts = p0 + uu[:, None] * (p1 - p0) + vv[:, None] * (p2 - p0)
        da = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0)) / (0.5 * n * n)
        c = (p0 + p1 + p2) / 3.0
        return float(np.sum(1.0 / np.linalg.norm(pts - c, axis=1)) * da)

    # first-order singular quadrature: extrapolate two levels
    coarse, fine = brute(400), brute(800)
    assert analytic == pytest.approx(2 * fine - coarse, rel=2e-4)


def _wedge_oracle(p, a, b):
    # integral of 1/|x - p| over the triangle (p, a, b), for in-plane p, one wedge at a time
    e = (b - a) / np.linalg.norm(b - a)
    ua, ub = float(np.dot(a - p, e)), float(np.dot(b - p, e))
    h = float(np.linalg.norm(p - (a - ua * e)))
    return h * float(np.arcsinh(ub / h) - np.arcsinh(ua / h))


def test_self_potentials_match_the_per_panel_formula():
    mesh = spheroid(subdivisions=2, semi_axes=(1.0, 0.4, 2.5))
    corners = mesh.vertices[mesh.triangles]
    values = _self_potentials(corners[:, 0], corners[:, 1], corners[:, 2])
    for i, (p0, p1, p2) in enumerate(corners):
        c = (p0 + p1 + p2) / 3.0
        oracle = _wedge_oracle(c, p0, p1) + _wedge_oracle(c, p1, p2) + _wedge_oracle(c, p2, p0)
        assert values[i] == pytest.approx(oracle, rel=1e-14)
        assert values[i] == pytest.approx(_self_potentials(p0[None], p1[None], p2[None])[0],
                                          rel=1e-14)


def test_collinear_triangle_has_zero_self_potential():
    p0, p1 = np.zeros(3), np.array([1.0, 0.0, 0.0])
    assert _self_potentials(p0[None], p1[None], 2.0 * p1[None])[0] == 0.0


# ---------------------------------------------------------------------------
# Capacitance
# ---------------------------------------------------------------------------
def test_capacitance_unit_sphere(sphere_mesh_1280):
    c = capacitance_zeroth(sphere_mesh_1280)
    assert c == pytest.approx(FOUR_PI, rel=1e-2)


def test_capacitance_radius_two():
    mesh = icosphere(subdivisions=3, radius=2.0)
    assert capacitance_zeroth(mesh) == pytest.approx(8 * np.pi, rel=1e-2)


def test_capacitance_resolution_consistency(sphere_mesh_320, sphere_mesh_1280):
    coarse = capacitance_zeroth(sphere_mesh_320)
    fine = capacitance_zeroth(sphere_mesh_1280)
    assert coarse != fine
    assert coarse == pytest.approx(FOUR_PI, rel=2e-2)
    assert fine == pytest.approx(FOUR_PI, rel=2e-2)


def test_capacitance_translation_invariant(sphere_mesh_320):
    base = capacitance_zeroth(sphere_mesh_320)
    moved = capacitance_zeroth(sphere_mesh_320.translated([0.3, -0.2, 0.7]))
    assert abs(moved - base) <= 1e-10 * base


def test_capacitance_dilation_scaling(sphere_mesh_320):
    base = capacitance_zeroth(sphere_mesh_320)
    scaled = capacitance_zeroth(sphere_mesh_320.scaled(3.0))
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# Static double layer and polarizability
# ---------------------------------------------------------------------------
def test_row_sum_identity_exact(sphere_mesh_320):
    a0 = static_double_layer_matrix(sphere_mesh_320)
    rows = a0 @ np.ones(sphere_mesh_320.n_triangles)
    assert np.max(np.abs(rows + 1.0)) < 1e-13


def test_double_layer_matches_the_pairwise_difference_formula():
    mesh = spheroid(subdivisions=2, semi_axes=(1.0, 0.4, 2.5))
    c, n, w = mesh.centroids, mesh.normals, mesh.areas
    diff = c[:, None, :] - c[None, :, :]  # (F, F, 3)
    r = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(r, 1.0)
    oracle = -2.0 * np.einsum("ip,ijp->ij", n, diff) / (4.0 * np.pi * r**3) * w[None, :]
    np.fill_diagonal(oracle, 0.0)
    oracle[np.diag_indices_from(oracle)] = -1.0 - oracle.sum(axis=1)
    a0 = static_double_layer_matrix(mesh)
    assert np.max(np.abs(a0 - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_dipole_density_has_zero_total_charge(sphere_mesh_320):
    values = static_dipole_densities(sphere_mesh_320)[:, 2]
    # continuum total is exactly zero; quadrature leaves a small remainder
    assert abs(np.sum(values * sphere_mesh_320.areas)) < 1e-2 * np.max(np.abs(values))


def test_polarizability_sphere(sphere_mesh_1280):
    beta = polarizability(sphere_mesh_1280)
    assert np.max(np.abs(beta + 1.5 * np.eye(3))) < 0.02 * 1.5


def test_polarizability_rotation_covariance(sphere_mesh_320):
    rot = rotation_matrix([1.0, 2.0, 0.5], 0.7)
    spheroid_mesh = spheroid(subdivisions=2, semi_axes=(1.0, 1.2, 1.7))
    beta = polarizability(spheroid_mesh)
    beta_rot = polarizability(spheroid_mesh.rotated(rot))
    assert np.max(np.abs(beta_rot - rot @ beta @ rot.T)) < 1e-8


def test_polarizability_translation_invariant(sphere_mesh_320):
    base = polarizability(sphere_mesh_320)
    moved = polarizability(sphere_mesh_320.translated([1.1, 0.4, -0.6]))
    assert np.max(np.abs(moved - base)) < 1e-10


def test_polarizability_dilation_invariant(sphere_mesh_320):
    base = polarizability(sphere_mesh_320)
    scaled = polarizability(sphere_mesh_320.scaled(2.5))
    assert np.max(np.abs(scaled - base)) < 1e-12


def test_polarizability_prolate_spheroid_structure():
    coarse = polarizability(spheroid(subdivisions=2, semi_axes=(1.0, 1.0, 2.0)))
    fine = polarizability(spheroid(subdivisions=3, semi_axes=(1.0, 1.0, 2.0)))
    # principal axes are the coordinate axes: off-diagonal vanishes
    assert np.max(np.abs(coarse - np.diag(np.diag(coarse)))) < 1e-10
    # transverse entries agree up to the (icosahedral) mesh anisotropy
    assert coarse[0, 0] == pytest.approx(coarse[1, 1], rel=5e-3)
    assert fine[0, 0] == pytest.approx(fine[1, 1], rel=1e-3)
    assert abs(coarse[2, 2] - coarse[0, 0]) > 0.1
    # the finer solve is the oracle for the values
    assert np.max(np.abs(coarse - fine)) < 0.03 * np.max(np.abs(fine))


def test_sphere_asymmetry_is_small(sphere_mesh_320):
    beta = polarizability(sphere_mesh_320)
    assert beta.shape == (3, 3)
    assert np.max(np.abs(beta - beta.T)) < 1e-10


# ---------------------------------------------------------------------------
# Charges
# ---------------------------------------------------------------------------
def test_charge_soft_examples():
    assert charge_soft(FOUR_PI, 1.0 + 0j) == pytest.approx(-FOUR_PI)
    assert charge_soft(2.0, 0.0) == 0.0
    u0 = np.exp(0.3j)
    assert charge_soft(FOUR_PI * 0.01, u0) == pytest.approx(-FOUR_PI * 0.01 * u0)


def test_charge_impedance_examples():
    a = 0.1
    assert charge_impedance(1.0, FOUR_PI * a**2, 1.0) == pytest.approx(-FOUR_PI * 0.01)
    assert charge_impedance(0.0, 1.0, 1.0) == 0.0
    assert charge_impedance(-2j, 1.0, 1.0) == pytest.approx(2j)
    with pytest.raises(ValueError):
        charge_impedance(1j, 1.0, 1.0)


def test_charge_hard_examples():
    a = 0.1
    vol = 4 / 3 * np.pi * a**3
    assert charge_hard(-1.0, vol) == pytest.approx(-4.18879e-3, rel=1e-5)
    assert charge_hard(0.0, 1.0) == 0.0
    assert charge_hard(2 + 1j, 0.5) == pytest.approx(1 + 0.5j)


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
def test_charge_linearity_in_incident_field(u0):
    assert charge_soft(2.0, 3.0 * u0) == pytest.approx(3.0 * charge_soft(2.0, u0))
    assert charge_hard(2.0 * u0, 0.7) == pytest.approx(2.0 * charge_hard(u0, 0.7))


# ---------------------------------------------------------------------------
# Amplitudes
# ---------------------------------------------------------------------------
def test_amplitude_soft_sphere(wave_z):
    amp = amplitude_onebody(ss.Particle.sphere(ORIGIN, 0.1, ss.Soft()), wave_z, beta=[1, 0, 0])
    assert amp == pytest.approx(-0.1)


def test_amplitude_hard_forward_and_zero(wave_z):
    ball = ss.Particle.sphere(ORIGIN, 0.1, ss.Hard())
    forward = amplitude_onebody(ball, wave_z, beta=[0, 0, 1])
    assert forward == pytest.approx((1.0 * 0.1**3 / 3) * 0.5, rel=1e-12)
    # (1 - 1.5 cos(theta)) vanishes at cos(theta) = 2/3
    beta = np.array([np.sqrt(1 - (2 / 3) ** 2), 0.0, 2 / 3])
    assert abs(amplitude_onebody(ball, wave_z, beta)) < 1e-18


def test_panel_arrays_checked_against_the_budget(sphere_mesh_320, monkeypatch):
    full = capacitance_zeroth(sphere_mesh_320)
    # blocks of 100 rows of 320 panels, at the checked bytes per panel pair
    budget = _PANEL_PAIR_BYTES * 320 * 100
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", budget)
    tracemalloc.start()
    try:
        blocked = capacitance_zeroth(sphere_mesh_320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocked == pytest.approx(full, rel=1e-14) and peak <= 1.05 * budget
    with pytest.raises(ss.GridTooLarge, match="double-layer matrix of 320 panels"):
        static_dipole_densities(sphere_mesh_320)
    monkeypatch.setattr(manybody, "KERNEL_BYTES_BUDGET", _PANEL_PAIR_BYTES * 320 - 1)
    with pytest.raises(ss.GridTooLarge, match="capacitance row"):
        capacitance_zeroth(sphere_mesh_320)


def test_amplitude_hard_requires_tensor(wave_z):
    body = ss.Particle(center=ORIGIN, a=0.1, bc=ss.Hard(), capacitance=1.0,
                       surface_factor=100.0, volume=1.0, polarizability=None)
    with pytest.raises(ss.MissingFunctional):
        amplitude_onebody(body, wave_z, beta=[0, 0, 1])


def test_amplitude_refuses_a_bc_that_is_no_boundary_kind(wave_z):
    body = ss.Particle.sphere(ORIGIN, 0.1, "soft")
    with pytest.raises(TypeError, match="not a boundary kind"):
        amplitude_onebody(body, wave_z, beta=[0, 0, 1])


def test_isotropy_exact_over_random_direction_pairs():
    soft_ball = ss.Particle.sphere(ORIGIN, 0.05, ss.Soft())
    imp_ball = ss.Particle.sphere(ORIGIN, 0.05, ss.Impedance(h=0.7 - 0.2j, kappa=0.5))
    rng = np.random.default_rng(11)
    pairs = rng.normal(size=(100, 2, 3))
    pairs /= np.linalg.norm(pairs, axis=2)[:, :, None]
    soft, imp = set(), set()
    for beta, alpha in pairs:
        wave = ss.IncidentWave(k=1.0, alpha=alpha / np.linalg.norm(alpha))
        soft.add(amplitude_onebody(soft_ball, wave, beta))
        imp.add(amplitude_onebody(imp_ball, wave, beta))
    assert len(soft) == 1 and len(imp) == 1


def test_scaling_law_slopes(wave_z):
    levels = np.array([0.05, 0.025, 0.0125])
    beta = np.array([0.0, 0.0, 1.0])
    kappa = 0.5
    soft, imp, hard = [], [], []
    for a in levels:
        for amps, bc in ((soft, ss.Soft()), (imp, ss.Impedance(h=1.0, kappa=kappa)),
                         (hard, ss.Hard())):
            amps.append(abs(amplitude_onebody(ss.Particle.sphere(ORIGIN, a, bc), wave_z, beta)))
    for values, expected in ((soft, 1.0), (imp, 2.0 - kappa), (hard, 3.0)):
        slope = np.polyfit(np.log(levels), np.log(values), 1)[0]
        assert slope == pytest.approx(expected, abs=0.05)


def test_mesh_particle_matches_sphere_closed_forms(sphere_mesh_1280):
    p = mesh_particle([0.0, 0.0, 0.0], sphere_mesh_1280, ss.Hard())
    assert p.a == pytest.approx(1.0, rel=1e-3)
    assert p.capacitance == pytest.approx(FOUR_PI, rel=1e-2)
    assert p.volume == pytest.approx(4 / 3 * np.pi, rel=1.2e-2)
    assert np.max(np.abs(p.polarizability + 1.5 * np.eye(3))) < 0.03
