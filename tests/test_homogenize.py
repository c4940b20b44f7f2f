from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smallscat as ss
from smallscat import core, homogenize
from smallscat.background import scattered_plane_wave
from smallscat.homogenize import (collocation_solve, convergence_study,
                                  cover_field_from_solution, inverse_design,
                                  limit_from_cloud, limit_from_prescription,
                                  neumann_limit_solve)
from smallscat.manybody import assemble_hard_system, eval_field, solve_hard, solve_soft

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# Collocation
# ---------------------------------------------------------------------------
def test_collocation_zero_coefficient(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 3)
    sol = collocation_solve(np.zeros(cover.n_cells), cover, wave_z)
    assert np.allclose(sol.values, wave_z.field_at(cover.centers), rtol=1e-14)


def test_collocation_single_cell(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 1)
    sol = collocation_solve(np.array([FOUR_PI]), cover, wave_z)
    assert sol.values[0] == pytest.approx(wave_z.field_at(cover.centers)[0])


def test_collocation_refinement_and_dense_grid_oracle(unit_box, wave_z):
    bump = ss.GaussianBumpField(amplitude=3.0, center=[0.5, 0.5, 0.5], width=0.25)
    rng = np.random.default_rng(1)
    probes = 0.15 + 0.7 * rng.random((40, 3))
    sols = {}
    for n in (4, 8, 16):
        cover = ss.GridCover.from_shape(unit_box, n)
        sols[n] = collocation_solve(bump.sample(cover.centers), cover, wave_z)
    d_coarse = np.max(np.abs(sols[4].interpolant(probes) - sols[8].interpolant(probes)))
    d_fine = np.max(np.abs(sols[8].interpolant(probes) - sols[16].interpolant(probes)))
    assert d_fine < d_coarse
    # independent dense-grid solve (self cell retained via the mean-value
    # integral) anchors the limit value
    cover20 = ss.GridCover.from_shape(unit_box, 20)
    chi = -bump.sample(cover20.centers) / wave_z.k**2
    _, u_probes = scattered_plane_wave(chi, cover20, wave_z.k, wave_z.alpha,
                                       points=probes)
    assert np.max(np.abs(sols[16].interpolant(probes) - u_probes)) < 0.05


def test_helmholtz_operator_consistency(unit_box, wave_z):
    """Second-order finite differences applied to the collocation solution
    recover q*u in the interior, with error shrinking under refinement."""
    bump = ss.GaussianBumpField(amplitude=3.0, center=[0.5, 0.5, 0.5], width=0.25)
    errors = []
    for n in (6, 9, 12):
        cover = ss.GridCover.from_shape(unit_box, n)
        q = bump.sample(cover.centers)
        u = collocation_solve(q, cover, wave_z).values.reshape(n, n, n)
        h = 1.0 / n
        lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
               + np.roll(u, -1, 1) + np.roll(u, 1, 2) + np.roll(u, -1, 2)
               - 6 * u) / h**2
        resid = lap + wave_z.k**2 * u - q.reshape(n, n, n) * u
        interior = np.zeros((n, n, n), dtype=bool)
        interior[2:-2, 2:-2, 2:-2] = True
        errors.append(np.max(np.abs(resid[interior])))
    assert errors[1] < errors[0] and errors[2] < errors[1]


# ---------------------------------------------------------------------------
# Limiting coefficients
# ---------------------------------------------------------------------------
def test_limit_constant_density_balls(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 2)
    n2 = np.ones(cover.n_cells, dtype=complex) * (1.0 - FOUR_PI / wave_z.k**2)
    presc = inverse_design(n2, cover, wave_z.k, density=1.0)
    coeff = limit_from_prescription(presc)
    assert np.allclose(coeff.q, FOUR_PI)
    assert np.allclose(coeff.n2, 1.0 - FOUR_PI)


def test_limit_zero_density(unit_box):
    cover = ss.GridCover.from_shape(unit_box, 2)
    presc = ss.DesignPrescription(cover=cover, k=1.0, density=np.zeros(8),
                                  impedance=np.zeros(8, complex), kappa=0.5,
                                  b_shape=FOUR_PI, n2_target=np.ones(8, complex))
    coeff = limit_from_prescription(presc)
    assert np.all(coeff.q == 0.0)
    assert np.allclose(coeff.n2, 1.0)


def test_empirical_capacitance_density(unit_box):
    # octant statistics of a generated cloud sit close to the closed form
    spec = ss.CloudSpec(density=ss.ConstantField(1.0), a=0.01, law="dirichlet",
                        rng_seed=0, strata_n=10)
    cloud = ss.generate_cloud(spec, unit_box)
    cover = ss.GridCover.from_shape(unit_box, 2)
    coeff = limit_from_cloud(cloud, cover, k=1.0)
    assert coeff.counts.sum() == 100
    assert np.max(np.abs(coeff.q.real - FOUR_PI)) < 0.1 * FOUR_PI
    assert np.all(coeff.q.imag == 0.0)


def test_empirical_statistics_additive_over_merges(unit_box):
    spec = ss.CloudSpec(density=ss.ConstantField(1.0), a=0.01, law="dirichlet",
                        rng_seed=2)
    cloud = ss.generate_cloud(spec, unit_box)
    fine = limit_from_cloud(cloud, ss.GridCover.from_shape(unit_box, 4), k=1.0)
    coarse = limit_from_cloud(cloud, ss.GridCover.from_shape(unit_box, 2), k=1.0)
    # merging 8 fine cells must reproduce the coarse statistic exactly
    fine_cap = fine.q.real.reshape(4, 4, 4)
    merged = fine_cap.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5) \
        .reshape(8, 8).sum(axis=1) / 8.0
    assert np.allclose(np.sort(merged), np.sort(coarse.q.real),
                       rtol=1e-12)
    counts_merged = fine.counts.reshape(4, 4, 4).reshape(2, 2, 2, 2, 2, 2) \
        .transpose(0, 2, 4, 1, 3, 5).reshape(8, 8).sum(axis=1)
    assert np.array_equal(np.sort(counts_merged), np.sort(coarse.counts))


def test_empirical_empty_cells_flagged(unit_box):
    particles = [ss.Particle.sphere([0.1, 0.1, 0.1], 0.01, ss.Soft())]
    cover = ss.GridCover.from_shape(unit_box, 2)
    coeff = limit_from_cloud(particles, cover, k=1.0)
    assert np.sum(coeff.counts == 0) == 7
    assert coeff.counts.sum() == 1


def test_empirical_hard_cloud_statistics(unit_box):
    spec = ss.CloudSpec(density=ss.ConstantField(3e-4), a=0.01, law="hard_volume",
                        bc_kind="hard", rng_seed=0)
    cloud = ss.generate_cloud(spec, unit_box)
    cover = ss.GridCover.from_shape(unit_box, 1)
    coeff = limit_from_cloud(cloud, cover, k=1.0)
    vol1 = 4 / 3 * np.pi * 0.01**3
    assert coeff.volume_fraction[0] == pytest.approx(len(cloud) * vol1, rel=1e-12)
    assert np.allclose(coeff.dipole_density[0],
                       -1.5 * np.eye(3) * coeff.volume_fraction[0], rtol=1e-12)
    assert coeff.q is None


def test_dilution_regimes(unit_box):
    """Lattice spacing d ~ a^gamma: the capacitance statistic blows up for
    gamma above 1/3 and washes out below it (monotonicity over three sizes)."""
    def lattice_capacitance_density(a, gamma):
        d = 0.5 * a**gamma
        n = max(2, int(np.floor(1.0 / d)))
        axes = [(np.arange(n) + 0.5) * d] * 3
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        window = ss.Box(lo=[0, 0, 0], hi=[n * d] * 3)
        particles = [ss.Particle.sphere(c, a, ss.Soft()) for c in centers]
        cover = ss.GridCover.from_shape(window, 1)
        return float(limit_from_cloud(particles, cover, k=1.0).q[0].real)

    sizes = [0.04, 0.02, 0.01]
    crowding = [lattice_capacitance_density(a, 0.6) for a in sizes]
    thinning = [lattice_capacitance_density(a, 0.2) for a in sizes]
    assert crowding[0] < crowding[1] < crowding[2]
    assert thinning[0] > thinning[1] > thinning[2]


# ---------------------------------------------------------------------------
# Inverse design
# ---------------------------------------------------------------------------
def test_inverse_design_half_refraction(unit_box):
    cover = ss.GridCover.from_shape(unit_box, 2)
    presc = inverse_design(np.full(cover.n_cells, 0.5 + 0j), cover, k=1.0)
    assert np.allclose(presc.impedance, 0.5 / FOUR_PI)
    assert presc.impedance[0] == pytest.approx(0.0397887, rel=1e-5)
    back = limit_from_prescription(presc)
    assert np.max(np.abs(back.n2 - 0.5)) < 1e-12


def test_inverse_design_trivial_target(unit_box):
    cover = ss.GridCover.from_shape(unit_box, 2)
    presc = inverse_design(np.ones(cover.n_cells, dtype=complex), cover, k=1.0)
    assert np.all(presc.density == 0.0)
    assert np.all(presc.impedance == 0.0)
    assert np.all(limit_from_prescription(presc).q == 0.0)


def test_inverse_design_lossy_target(unit_box):
    cover = ss.GridCover.from_shape(unit_box, 2)
    presc = inverse_design(np.full(cover.n_cells, 1.0 + 0.5j), cover, k=1.0)
    assert np.allclose(presc.impedance, -0.5j / FOUR_PI)
    assert np.all(np.imag(presc.impedance) < 0)


def test_inverse_design_infeasible_gain(unit_box):
    cover = ss.GridCover.from_shape(unit_box, 2)
    bad = np.full(cover.n_cells, 1.0 - 0.5j)
    with pytest.raises(ss.DesignInfeasible):
        inverse_design(bad, cover, k=1.0)


def test_limit_from_prescription_and_cloud(unit_box):
    cover = ss.GridCover.from_shape(unit_box, 2)
    presc = inverse_design(np.full(cover.n_cells, 0.5 + 0j), cover, k=1.0)
    via_presc = limit_from_prescription(presc)
    assert np.allclose(via_presc.n2, 0.5)
    particles = [ss.Particle.sphere([0.5, 0.5, 0.5], 0.01, ss.Soft())]
    via_cloud = limit_from_cloud(particles, cover, 1.0)
    assert via_cloud.counts.sum() == 1


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-3.0, max_value=0.999),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=0.3, max_value=4.0))
def test_inverse_design_roundtrip_property(re_n2, im_n2, k):
    box = ss.Box(lo=[0, 0, 0], hi=[1, 1, 1])
    cover = ss.GridCover.from_shape(box, 2)
    target = np.full(cover.n_cells, re_n2 + 1j * im_n2)
    presc = inverse_design(target, cover, k=k, density=1.3)
    back = limit_from_prescription(presc)
    assert np.max(np.abs(back.n2 - target)) < 1e-12


# ---------------------------------------------------------------------------
# Hard-cloud limit
# ---------------------------------------------------------------------------
def test_neumann_limit_trivial(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 3)
    p = cover.n_cells
    sol = neumann_limit_solve(np.zeros(p), np.zeros((p, 3, 3)), cover, wave_z)
    u0 = wave_z.field_at(cover.centers)
    assert np.allclose(sol.values, u0, rtol=1e-14)
    assert np.allclose(sol.gradients, wave_z.gradient_at(cover.centers), atol=1e-14)
    assert np.allclose(sol.laplacians, -wave_z.k**2 * u0, rtol=1e-14)


def test_neumann_limit_grid_cap(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 33)
    p = cover.n_cells
    with pytest.raises(ss.GridTooLarge):
        neumann_limit_solve(np.zeros(p), np.zeros((p, 3, 3)), cover, wave_z)


def test_neumann_limit_weak_coupling_sweep(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 4)
    p = cover.n_cells
    diffs = {}
    for eps in (1e-2, 1e-3):
        rho = np.full(p, eps)
        dipole = np.tile(-1.5 * eps * np.eye(3), (p, 1, 1))
        full = neumann_limit_solve(rho, dipole, cover, wave_z)
        system = assemble_hard_system(cover.centers, wave_z.k,
                                      rho * cover.cell_volume,
                                      dipole * cover.cell_volume)
        rhs = np.concatenate([
            wave_z.field_at(cover.centers),
            wave_z.gradient_at(cover.centers).reshape(3 * p),
            wave_z.laplacian_at(cover.centers),
        ])
        sweep = rhs + (np.eye(5 * p) - system) @ rhs
        diffs[eps] = np.max(np.abs(sweep[:p] - full.values))
        assert diffs[eps] < 1.0 * eps**2
    assert 50.0 < diffs[1e-2] / diffs[1e-3] < 200.0


def test_neumann_two_level_consistency(unit_box, wave_z):
    rho_target = 2e-4
    errors = []
    for a in (0.01, 0.005):
        spec = ss.CloudSpec(density=ss.ConstantField(rho_target), a=a,
                            law="hard_volume", bc_kind="hard", rng_seed=0)
        cloud = ss.generate_cloud(spec, unit_box)
        scene = ss.Scene(particles=tuple(cloud), domain=unit_box, wave=wave_z)
        solution = solve_hard(scene)
        cover = ss.GridCover.from_edge(unit_box, a ** (1 / 3))
        las = cover_field_from_solution(solution, scene, cover)
        rho = np.full(cover.n_cells, rho_target)
        dipole = np.tile(-1.5 * rho_target * np.eye(3), (cover.n_cells, 1, 1))
        limit = neumann_limit_solve(rho, dipole, cover, wave_z)
        errors.append(np.max(np.abs(las - limit.values)))
    assert errors[1] < errors[0]


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------
def test_convergence_dirichlet_protocol(unit_box, wave_z):
    report = convergence_study("dirichlet", ss.ConstantField(1.0), unit_box, wave_z,
                               [0.02, 0.01, 0.005], seed=0)
    ms = [lv.m for lv in report.levels]
    assert ms == [50, 100, 200]
    assert report.strictly_decreasing


def test_convergence_impedance_protocol(unit_box, wave_z):
    report = convergence_study("impedance", ss.ConstantField(1.0), unit_box, wave_z,
                               [0.02, 0.01, 0.005], kappa=0.5,
                               h=ss.ConstantField(1.0), seed=0)
    assert report.levels[1].m == 1000
    assert report.strictly_decreasing


def test_convergence_zero_density(unit_box, wave_z):
    report = convergence_study("dirichlet", ss.ConstantField(0.0), unit_box, wave_z,
                               [0.02, 0.01], seed=0)
    assert np.all(report.errors == 0.0)
    assert [(lv.m, lv.residual_cloud) for lv in report.levels] == [(0, 0.0), (0, 0.0)]


def test_impedance_study_without_h_raises_before_placing_a_cloud(unit_box, wave_z,
                                                                monkeypatch):
    def placed(*args):
        raise AssertionError("a cloud was placed")

    monkeypatch.setattr(homogenize, "generate_cloud", placed)
    with pytest.raises(ValueError, match=r"need an h\(x\) field"):
        convergence_study("impedance", ss.ConstantField(1.0), unit_box, wave_z, [0.02, 0.01])


@pytest.mark.parametrize("law, a_levels, kappa, match", [
    ("dirichlet", [], 0.5, "at least one particle size"),
    ("dirichlet", [0.02, 0.0], 0.5, "positive and finite, got 0.0"),
    ("dirichlet", [0.02, -0.01], 0.5, "positive and finite, got -0.01"),
    ("dirichlet", [float("nan")], 0.5, "positive and finite, got nan"),
    ("impedance", [0.02, float("inf")], 0.5, "positive and finite, got inf"),
    ("impedance", [0.02], 1.5, r"kappa must lie in \(0, 1\), got 1.5"),
    ("impedance", [0.02], 0.0, r"kappa must lie in \(0, 1\), got 0.0"),
], ids=["no_level", "zero_size", "negative_size", "nan_size", "infinite_size", "kappa_above_1",
        "kappa_0"])
def test_study_arguments_refused_before_placing_a_cloud(unit_box, wave_z, monkeypatch, law,
                                                        a_levels, kappa, match):
    def placed(*args):
        raise AssertionError("a cloud was placed")

    monkeypatch.setattr(homogenize, "generate_cloud", placed)
    with pytest.raises(ValueError, match=match):
        convergence_study(law, ss.ConstantField(1.0), unit_box, wave_z, a_levels, kappa=kappa,
                          h=ss.ConstantField(1.0))


def test_convergence_validates_each_level_once(unit_box, wave_z, monkeypatch):
    # the solve validates each level's scene; the study reads its mean spacing from that report
    searches = []
    nearest = core._nearest_distances
    monkeypatch.setattr(core, "_nearest_distances",
                        lambda points: searches.append(len(points)) or nearest(points))
    report = convergence_study("dirichlet", ss.ConstantField(1.0), unit_box, wave_z,
                               [0.02, 0.01], seed=0)
    assert searches == [lv.m for lv in report.levels] == [50, 100]


def test_convergence_samples_the_density_mass_once(unit_box, wave_z, monkeypatch):
    # the levels' own strata are 3^3 to 5^3, so every 8^3 sampling is an expected count's
    shapes = []
    cell_masses = core._cell_masses
    monkeypatch.setattr(core, "_cell_masses", lambda density, domain, shape: (
        shapes.append(shape) or cell_masses(density, domain, shape)))
    report = convergence_study("dirichlet", ss.ConstantField(1.0), unit_box, wave_z,
                               [0.04, 0.03, 0.02, 0.01], seed=0)
    assert len(report.levels) == 4
    assert shapes.count((8, 8, 8)) == 1


def test_convergence_levels_place_the_clouds_of_their_specs(unit_box, wave_z, monkeypatch):
    # each level's strata come from the study's one mass; the cloud is the one generate_cloud
    # places for the same spec left to count its own strata
    bump = ss.GaussianBumpField(amplitude=0.5, center=[0.4, 0.5, 0.6], width=0.3, base=0.5)
    placed = []
    monkeypatch.setattr(homogenize, "generate_cloud", lambda spec, domain: placed.append(
        (spec, core.generate_cloud(spec, domain))) or placed[-1][1])
    convergence_study("impedance", bump, unit_box, wave_z, [0.04, 0.03, 0.02], kappa=0.5,
                      h=ss.ConstantField(1.0), seed=4, separation_factor=2.0)
    assert len(placed) == 3
    for spec, cloud in placed:
        assert spec.strata_n is not None
        alone = core.generate_cloud(replace(spec, strata_n=None), unit_box)
        np.testing.assert_array_equal(np.array([p.center for p in cloud]),
                                      np.array([p.center for p in alone]))
        assert [p.bc for p in cloud] == [p.bc for p in alone]


def test_convergence_refuses_a_negative_density_before_placing_a_cloud(unit_box, wave_z,
                                                                      monkeypatch):
    def placed(*args):
        raise AssertionError("a cloud was placed")

    monkeypatch.setattr(homogenize, "generate_cloud", placed)
    with pytest.raises(ValueError, match="density must be nonnegative"):
        convergence_study("dirichlet", ss.ConstantField(-1.0), unit_box, wave_z, [0.02])


@pytest.mark.parametrize("kind", ["soft", "hard", "soft_in_bump"])
def test_cover_read_out_is_eval_field_on_empty_cells(unit_box, wave_z, kind):
    if kind == "hard":
        spec = ss.CloudSpec(density=ss.ConstantField(0.002), a=0.02, law="hard_volume",
                            bc_kind="hard", rng_seed=1)
    else:
        spec = ss.CloudSpec(density=ss.ConstantField(1.0), a=0.01, rng_seed=3)
    bump = ss.GaussianBumpField(amplitude=0.3, center=[0.5, 0.5, 0.5], width=0.25, base=1.0)
    medium = ss.BackgroundMedium(n2=bump, box=unit_box) if kind == "soft_in_bump" else None
    scene = ss.Scene(particles=tuple(ss.generate_cloud(spec, unit_box)), domain=unit_box,
                     wave=wave_z, background=medium)
    solution = (solve_hard if kind == "hard" else solve_soft)(scene)
    cover = ss.GridCover.from_shape(unit_box, 6)
    empty = np.bincount(cover.cell_index(scene.centers), minlength=cover.n_cells) == 0
    assert 0 < empty.sum() < cover.n_cells
    grouped = cover_field_from_solution(solution, scene, cover)[empty]
    direct = eval_field(solution, scene, cover.centers[empty])
    assert np.max(np.abs(grouped - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_convergence_rejects_unknown_law(unit_box, wave_z):
    with pytest.raises(ValueError):
        convergence_study("neumann", ss.ConstantField(1.0), unit_box, wave_z, [0.02])
