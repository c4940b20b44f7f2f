import math
import pickle
import tracemalloc

import numpy as np
import pytest

import smallscat as ss
from cloud_oracle import oracle_bisection_counts, oracle_cell_masses, oracle_cloud
from smallscat import core
from smallscat.core import CloudSpec, _bisection_counts, _cell_masses, generate_cloud
from smallscat.fields import ScalarField


class LeftHalfDensity(ScalarField):
    """2 on the left half of the unit cube (x < 0.5), 0 on the right."""

    def sample(self, points):
        p = np.atleast_2d(points)
        return np.where(p[:, 0] < 0.5, 2.0, 0.0)


def test_wave_invariants():
    with pytest.raises(ValueError):
        ss.IncidentWave(k=0.0, alpha=[0, 0, 1])
    with pytest.raises(ValueError):
        ss.IncidentWave(k=1.0, alpha=[0, 0, 1.001])
    wave = ss.IncidentWave(k=2.0, alpha=[1, 0, 0])
    x = np.array([[0.3, 0.0, 0.0]])
    assert wave.field_at(x)[0] == pytest.approx(np.exp(1j * 0.6))
    assert np.allclose(wave.gradient_at(x)[0], [2j * np.exp(1j * 0.6), 0, 0])
    assert wave.laplacian_at(x)[0] == pytest.approx(-4.0 * np.exp(1j * 0.6))


def test_boundary_kind_invariants():
    with pytest.raises(ValueError):
        ss.Impedance(h=1.0, kappa=1.0)
    with pytest.raises(ValueError):
        ss.Impedance(h=1.0, kappa=0.0)
    bc = ss.Impedance(h=0.5 - 0.1j, kappa=0.5)
    assert bc.h == 0.5 - 0.1j


@pytest.mark.parametrize("k, alpha, amplitude", [
    (math.inf, [0, 0, 1], 1.0), (math.nan, [0, 0, 1], 1.0), (1.0, [0, 0, math.nan], 1.0),
    (1.0, [0, 0, 1], complex(math.nan, 0.0)), (1.0, [0, 0, 1], complex(1.0, math.inf))])
def test_wave_refuses_non_finite_input(k, alpha, amplitude):
    with pytest.raises(ValueError):
        ss.IncidentWave(k=k, alpha=alpha, amplitude=amplitude)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_particles_and_clouds_refuse_non_finite_input(bad):
    with pytest.raises(ValueError, match="radius"):
        ss.Particle.sphere([0, 0, 0], bad, ss.Soft())
    with pytest.raises(ValueError, match="center"):
        ss.Particle.sphere([0, bad, 0], 0.01, ss.Soft())
    with pytest.raises(ValueError, match="radius"):
        CloudSpec(density=ss.ConstantField(1.0), a=bad)
    with pytest.raises(ValueError, match="impedance h"):
        ss.Impedance(h=complex(bad, -1.0), kappa=0.5)


def test_scene_packs_its_particles_once_into_read_only_arrays(wide_box, wave_z):
    centers = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.7, 0.0]])
    bcs = [ss.Impedance(h=0.3 - 0.2j, kappa=0.5), ss.Impedance(h=1.5, kappa=0.25),
           ss.Impedance(h=-0.1j, kappa=0.75)]
    particles = tuple(ss.Particle.sphere(c, a, bc)
                      for c, a, bc in zip(centers, [0.01, 0.02, 0.005], bcs))
    scene = ss.Scene(particles=particles, domain=wide_box, wave=wave_z)
    assert scene.kind == "impedance"
    assert np.array_equal(scene.centers, centers)
    assert np.array_equal(scene.radii, [0.01, 0.02, 0.005])
    assert np.array_equal(scene.volumes, [p.volume for p in particles])
    assert np.array_equal(scene.coupling, [p.bc.h * p.surface_factor * p.a ** (2.0 - p.bc.kappa)
                                           for p in particles])
    assert scene.polarizabilities is None
    for array in (scene.centers, scene.radii, scene.coupling, scene.volumes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # a copy packs again, read-only too
    copy = pickle.loads(pickle.dumps(scene))
    assert np.array_equal(copy.coupling, scene.coupling) and not copy.centers.flags.writeable

    soft = ss.Scene(particles=tuple(ss.Particle.sphere(c, 0.01, ss.Soft()) for c in centers),
                    domain=wide_box, wave=wave_z)
    assert soft.kind == "soft" and np.array_equal(soft.coupling, np.full(3, 4 * np.pi * 0.01))
    hard = ss.Scene(particles=tuple(ss.Particle.sphere(c, 0.01, ss.Hard()) for c in centers),
                    domain=wide_box, wave=wave_z)
    assert hard.kind == "hard" and hard.coupling is None
    assert np.array_equal(hard.polarizabilities, np.broadcast_to(-1.5 * np.eye(3), (3, 3, 3)))
    assert not hard.polarizabilities.flags.writeable
    empty = ss.Scene(particles=(), domain=wide_box, wave=wave_z)
    assert empty.kind == "empty" and empty.centers.shape == (0, 3) and empty.max_radius == 0.0


def test_sphere_particle_functionals():
    p = ss.Particle.sphere([0, 0, 0], 0.1, ss.Hard())
    assert p.capacitance == pytest.approx(4 * np.pi * 0.1)
    assert p.surface_factor == pytest.approx(4 * np.pi)
    assert p.volume == pytest.approx(4 / 3 * np.pi * 0.1**3)
    assert np.allclose(p.polarizability, -1.5 * np.eye(3))
    soft = ss.Particle.sphere([0, 0, 0], 0.1, ss.Soft())
    assert soft.polarizability is None
    with pytest.raises(ValueError):
        ss.Particle.sphere([0, 0, 0], -0.1, ss.Soft())


def test_particle_refuses_a_bc_that_is_no_boundary_kind():
    with pytest.raises(TypeError, match="not a boundary kind: 'soft' of type str"):
        ss.Particle.sphere([0, 0, 0], 0.1, "soft")
    with pytest.raises(TypeError, match="of type NoneType"):
        ss.Particle(center=[0, 0, 0], a=0.1, bc=None, capacitance=1.0, surface_factor=1.0,
                    volume=1.0)
    with pytest.raises(TypeError, match="of type type"):
        ss.Particle.sphere([0, 0, 0], 0.1, ss.Soft)  # the class, not a boundary kind


def _clouds():
    """Clouds for the nearest-neighbour search: uniform, clustered, duplicated, a dense
    cluster whose few far points take the whole-row fallback, flat and degenerate ones
    searched by cells, and clouds small enough that every point takes its whole row."""
    rng = np.random.default_rng(5)
    uniform = rng.uniform(0.0, 1.0, size=(4829, 3))
    clustered = np.concatenate([rng.normal(c, 0.01, size=(200, 3))
                                for c in rng.uniform(0.0, 1.0, size=(8, 3))])
    duplicated = np.repeat(rng.uniform(0.0, 1.0, size=(300, 3)), [1, 2, 3] * 100, axis=0)
    far = np.concatenate([rng.uniform(0.0, 0.01, size=(500, 3)),
                          [[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]])
    plane = np.column_stack([rng.uniform(size=(1000, 2)), np.full(1000, 0.3)])
    line = np.column_stack([rng.uniform(size=400), np.zeros(400), np.full(400, 0.3)])
    return {"uniform": uniform, "clustered": clustered, "duplicated": duplicated, "far": far,
            "plane": plane, "line": line, "one_place": np.zeros((300, 3)),
            "small": rng.uniform(0.0, 1.0, size=(200, 3)),
            "pair": np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])}


@pytest.mark.parametrize("name", list(_clouds()))
def test_nearest_distances_equal_kdtree_bit_for_bit(name, monkeypatch):
    # the oracle is what validation ran before: scipy's cKDTree.query(k=2)
    from scipy.spatial import cKDTree

    points = _clouds()[name]
    rows = []
    pair_distances = core.pair_distances

    def counted(x, y, *args):
        rows.append(len(x))
        return pair_distances(x, y, *args)

    monkeypatch.setattr(core, "pair_distances", counted)
    got = core._nearest_distances(points)
    assert np.array_equal(got, cKDTree(points).query(points, k=2)[0][:, 1])
    if name == "far":  # the three far points, and only they, take whole rows
        assert sum(rows) == 3
    if name in ("small", "pair"):  # all pairs fit one block: every point takes its row
        assert sum(rows) == len(points)


def test_validate_accepts_single_small_sphere(wide_box, wave_z):
    scene = ss.Scene(particles=(ss.Particle.sphere([0, 0, 0], 0.01, ss.Soft()),),
                     domain=wide_box, wave=wave_z)
    report = ss.validate_scene(scene)
    assert report.accepted
    assert report.metrics["k_a_n0"] == pytest.approx(0.01)


def test_a_scene_is_validated_once(unit_box, wave_z, monkeypatch):
    # the nearest-neighbour search runs at the first validation of a scene only; every call
    # returns a report of its own
    searches = []
    nearest = core._nearest_distances
    monkeypatch.setattr(core, "_nearest_distances",
                        lambda points: searches.append(len(points)) or nearest(points))
    scene = ss.Scene(particles=tuple(ss.Particle.sphere(c, 0.001, ss.Soft())
                                     for c in np.random.default_rng(2).uniform(size=(50, 3))),
                     domain=unit_box, wave=wave_z, separation_factor=0.0)
    first = ss.validate_scene(scene)
    first.metrics["mean_distance"] = -1.0
    first.violations.append("changed by its caller")
    second = ss.validate_scene(scene)
    assert searches == [50]
    assert second.accepted and second.metrics["mean_distance"] > 0.0
    assert ss.validate_scene(pickle.loads(pickle.dumps(scene))) == second
    assert searches == [50, 50]


def test_validate_flags_close_pair(wide_box, wave_z):
    particles = (ss.Particle.sphere([0, 0, 0], 0.01, ss.Soft()),
                 ss.Particle.sphere([0.05, 0, 0], 0.01, ss.Soft()))
    scene = ss.Scene(particles=particles, domain=wide_box, wave=wave_z)
    report = ss.validate_scene(scene)
    assert not report.accepted
    assert any("d/a = 5" in v for v in report.violations)


def test_validate_flags_positive_im_h(wide_box, wave_z):
    p = ss.Particle.sphere([0, 0, 0], 0.01, ss.Impedance(h=0.1 + 0.2j, kappa=0.5))
    scene = ss.Scene(particles=(p,), domain=wide_box, wave=wave_z)
    report = ss.validate_scene(scene)
    assert any("Im h > 0" in v for v in report.violations)


def test_positive_im_h_is_one_violation_for_the_whole_cloud(unit_box, wave_z):
    # a 10^3 lattice, d/a = 10: particles 0-2 passive, the other 997 with gain
    axis = np.linspace(0.05, 0.95, 10)
    centers = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    bcs = [ss.Impedance(h=0.1, kappa=0.5)] * 3 + [ss.Impedance(h=0.1 + 0.2j, kappa=0.5)] * 997
    particles = tuple(ss.Particle.sphere(c, 0.01, bc) for c, bc in zip(centers, bcs))
    scene = ss.Scene(particles=particles, domain=unit_box, wave=wave_z, separation_factor=3.0)
    assert ss.validate_scene(scene).violations == ["Im h > 0 on 997 particle(s), first index 3"]
    with pytest.raises(ss.RegimeViolation) as raised:
        ss.solve_impedance(scene)
    assert str(raised.value) == "Im h > 0 on 997 particle(s), first index 3"


def test_validate_flags_large_ka_and_outside_center(unit_box):
    wave = ss.IncidentWave(k=30.0, alpha=[0, 0, 1])
    particles = (ss.Particle.sphere([0.5, 0.5, 0.5], 0.01, ss.Soft()),
                 ss.Particle.sphere([1.5, 0.5, 0.5], 0.01, ss.Soft()))
    scene = ss.Scene(particles=particles, domain=unit_box, wave=wave)
    report = ss.validate_scene(scene)
    joined = " ".join(report.violations)
    assert "smallness" in joined and "outside" in joined


def test_validate_accept_implies_separation(unit_box, wave_z):
    spec = CloudSpec(density=ss.ConstantField(1.0), a=0.005, law="dirichlet", rng_seed=4)
    particles = generate_cloud(spec, unit_box)
    scene = ss.Scene(particles=tuple(particles), domain=unit_box, wave=wave_z)
    report = ss.validate_scene(scene)
    assert report.accepted
    centers = scene.centers
    d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= scene.separation_factor * scene.max_radius


def test_dirichlet_law_count(unit_box):
    spec = CloudSpec(density=ss.ConstantField(1.0), a=1e-2, law="dirichlet", rng_seed=0)
    assert len(generate_cloud(spec, unit_box)) == 100


def test_impedance_law_count(unit_box):
    spec = CloudSpec(density=ss.ConstantField(1.0), a=1e-2, law="impedance", kappa=0.5,
                     bc_kind="impedance", h=ss.ConstantField(1.0), rng_seed=0,
                     separation_factor=3.0)
    cloud = generate_cloud(spec, unit_box)
    assert len(cloud) == 1000
    assert all(isinstance(p.bc, ss.Impedance) for p in cloud)


def test_left_half_density_places_only_left(unit_box):
    spec = CloudSpec(density=LeftHalfDensity(), a=1e-2, law="dirichlet", rng_seed=1)
    cloud = generate_cloud(spec, unit_box)
    assert len(cloud) == 100
    assert all(p.center[0] < 0.5 for p in cloud)


def test_cloud_bit_identical_reruns(unit_box):
    spec = CloudSpec(density=ss.ConstantField(1.0), a=0.01, law="dirichlet", rng_seed=7)
    c1 = generate_cloud(spec, unit_box)
    c2 = generate_cloud(spec, unit_box)
    assert np.array_equal(np.array([p.center for p in c1]),
                          np.array([p.center for p in c2]))


def test_cloud_seeds_differ(unit_box):
    base = dict(density=ss.ConstantField(1.0), a=0.01, law="dirichlet")
    c1 = generate_cloud(CloudSpec(rng_seed=0, **base), unit_box)
    c2 = generate_cloud(CloudSpec(rng_seed=1, **base), unit_box)
    assert not np.array_equal(np.array([p.center for p in c1]),
                              np.array([p.center for p in c2]))


def test_bisection_counts_cellwise_bound():
    rng = np.random.default_rng(5)
    masses = rng.random((6, 6, 6))
    total = 200
    counts = _bisection_counts(masses, total)
    assert counts.sum() == total
    targets = total * masses.ravel() / masses.sum()
    assert np.max(np.abs(counts - targets)) <= 1.0


def test_subbox_counting_law(unit_box):
    # aligned with the stratification grid: count deviates from the law by
    # at most one per stratification cell intersecting the sub-box
    spec = CloudSpec(density=ss.ConstantField(1.0), a=0.01, law="dirichlet",
                     rng_seed=3, strata_n=5)
    cloud = generate_cloud(spec, unit_box)
    centers = np.array([p.center for p in cloud])
    edge = 1.0 / 5
    for (i0, i1, j0, j1, k0, k1) in [(0, 2, 0, 2, 0, 2), (1, 4, 0, 5, 2, 5),
                                     (0, 5, 0, 5, 0, 5)]:
        lo = np.array([i0, j0, k0]) * edge
        hi = np.array([i1, j1, k1]) * edge
        inside = np.all((centers >= lo) & (centers <= hi), axis=1)
        target = 100.0 * np.prod(hi - lo)
        n_cells = (i1 - i0) * (j1 - j0) * (k1 - k0)
        assert abs(int(inside.sum()) - target) <= n_cells


def test_min_distance_enforced(unit_box):
    spec = CloudSpec(density=ss.ConstantField(1.0), a=0.02, law="dirichlet",
                     rng_seed=0, separation_factor=6.0)
    cloud = generate_cloud(spec, unit_box)
    centers = np.array([p.center for p in cloud])
    d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= 6.0 * 0.02


def test_density_infeasible(unit_box):
    # 1000 particles cannot sit 0.5 apart in the unit cube
    spec = CloudSpec(density=ss.ConstantField(1.0), a=0.05, law="impedance", kappa=0.5,
                     bc_kind="impedance", h=ss.ConstantField(1.0), rng_seed=0,
                     separation_factor=10.0)
    with pytest.raises(ss.DensityInfeasible):
        generate_cloud(spec, unit_box)


@pytest.mark.parametrize("law, a, count", [("dirichlet", 0.02, 50), ("impedance", 0.01, 1000),
                                           ("hard_volume", 0.01, 48)])
def test_expected_count_is_the_count_the_cloud_places(unit_box, law, a, count):
    density = ss.ConstantField(2e-4 if law == "hard_volume" else 1.0)
    spec = CloudSpec(density=density, a=a, law=law, bc_kind="soft", rng_seed=0,
                     separation_factor=2.0)
    assert spec.expected_count(unit_box) == pytest.approx(count, abs=0.5)
    assert len(generate_cloud(spec, unit_box)) == count


def test_empty_law_rejected(unit_box):
    spec = CloudSpec(density=ss.ConstantField(0.0), a=0.01, law="dirichlet", rng_seed=0)
    with pytest.raises(ValueError):
        generate_cloud(spec, unit_box)


def test_hard_volume_law(unit_box):
    rho = 2e-4
    a = 0.01
    spec = CloudSpec(density=ss.ConstantField(rho), a=a, law="hard_volume",
                     bc_kind="hard", rng_seed=0)
    cloud = generate_cloud(spec, unit_box)
    expected = round(rho / (4 / 3 * np.pi * a**3))
    assert len(cloud) == expected
    assert all(isinstance(p.bc, ss.Hard) for p in cloud)


def test_mixed_kind_scene_rejected(wide_box, wave_z):
    particles = (ss.Particle.sphere([0, 0, 0], 0.01, ss.Soft()),
                 ss.Particle.sphere([1, 0, 0], 0.01, ss.Hard()))
    with pytest.raises(ValueError, match="mix boundary kinds"):
        ss.Scene(particles=particles, domain=wide_box, wave=wave_z)


# ---------------------------------------------------------------------------
# Placement against the scalar oracle, bit for bit

class CountedField(ScalarField):
    """A field unknown to the placement code, counting its sample calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def sample(self, points):
        self.calls += 1
        return self.inner.sample(points)


def _density(kind, scale):
    if kind == "constant":
        return ss.ConstantField(scale)
    if kind == "affine":
        return ss.AffineField(0.4 * scale, scale * np.array([0.9, -0.3, 0.55]))
    if kind == "bump":
        return ss.GaussianBumpField(2.0 * scale, [0.4, 0.6, 0.5], 0.3, base=0.05 * scale)
    axes = [np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 5)]
    values = np.random.default_rng(3).uniform(0.2, 1.5, size=(4, 3, 5)) * scale
    return ss.GriddedField(axes, values)


# (law, radius, density scale): about 100 to 300 particles on the unit cube
_LAWS = {"dirichlet": (0.004, 1.0), "impedance": (0.003, 0.05), "hard_volume": (0.012, 0.002)}
_H_FIELDS = [ss.AffineField(1.0 - 0.5j, [0.3, -0.2, 0.1]), ss.ConstantField(2.0 - 0.1j),
             ss.GaussianBumpField(1.0 - 1.0j, [0.5, 0.5, 0.5], 0.4, base=0.5)]


def _assert_same_cloud(spec, box):
    centers, h = oracle_cloud(spec, box)
    cloud = generate_cloud(spec, box)
    assert np.array_equal(np.array([p.center for p in cloud]), centers)
    if h is not None:
        assert np.array_equal(np.array([p.bc.h for p in cloud]), h)
    for p in cloud[:3]:
        ref = ss.Particle.sphere(p.center, spec.a, p.bc)
        assert ((p.a, p.capacitance, p.surface_factor, p.volume)
                == (ref.a, ref.capacitance, ref.surface_factor, ref.volume))
        assert (p.polarizability is None) == (ref.polarizability is None)
        if ref.polarizability is not None:
            assert np.array_equal(p.polarizability, ref.polarizability)
            assert not np.shares_memory(p.polarizability, cloud[-1].polarizability)
    return cloud


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("density", ["constant", "affine", "bump", "grid"])
def test_placement_matches_scalar_oracle(unit_box, density, law):
    i = ["constant", "affine", "bump", "grid"].index(density) + sorted(_LAWS).index(law)
    bc_kind = ("soft", "impedance", "hard")[i % 3]
    a, scale = _LAWS[law]
    spec = CloudSpec(density=_density(density, scale), a=a, law=law, bc_kind=bc_kind,
                     h=_H_FIELDS[i % 3], rng_seed=i, separation_factor=4.0)
    cloud = _assert_same_cloud(spec, unit_box)
    assert 60 <= len(cloud) <= 400


@pytest.mark.parametrize("seed, strata_n, jitter", [(0, None, 0.6), (1, 3, 1.0), (2, 7, 0.0),
                                                    (3, None, 1.0), (4, 5, 0.6)])
def test_placement_settings_match_scalar_oracle(unit_box, seed, strata_n, jitter):
    # strata of 7^3 hold at most one particle each, so jitter 0 still places them
    spec = CloudSpec(density=_density("bump", 1.0), a=0.005, law="dirichlet",
                     bc_kind="impedance", h=_H_FIELDS[0], rng_seed=seed, strata_n=strata_n,
                     jitter=jitter, separation_factor=3.0)
    _assert_same_cloud(spec, unit_box)


def test_placement_with_many_retries_matches_scalar_oracle(unit_box):
    # 10a = 0.1 against a mean spacing of 0.126: about one retry per particle
    density = CountedField(ss.ConstantField(0.002))
    spec = CloudSpec(density=density, a=0.01, law="hard_volume", bc_kind="hard", rng_seed=5)
    m = len(_assert_same_cloud(spec, unit_box))
    centers, _ = oracle_cloud(spec, unit_box)
    density.calls = 0
    oracle_cloud(spec, unit_box)
    assert density.calls > 1.5 * m  # one one-point sample per attempt


@pytest.mark.parametrize("jitter", [0.0, 0.6])
def test_infeasible_placement_fails_like_the_scalar_oracle(unit_box, jitter):
    # jitter 0 puts the second particle of a 3^3 stratum on the first one
    spec = CloudSpec(density=ss.ConstantField(1.0), a=0.05, law="impedance", kappa=0.5,
                     bc_kind="impedance", h=ss.ConstantField(1.0), rng_seed=0,
                     separation_factor=10.0 if jitter else 0.5, jitter=jitter,
                     strata_n=None if jitter else 3)
    with pytest.raises(ss.DensityInfeasible) as want:
        oracle_cloud(spec, unit_box)
    with pytest.raises(ss.DensityInfeasible) as got:
        generate_cloud(spec, unit_box)
    assert str(got.value) == str(want.value)


def test_bisection_counts_match_recursive_oracle():
    rng = np.random.default_rng(9)
    cases = [(rng.random((7, 7, 7)), 300), (np.ones((9, 9, 9)), 500), (np.ones(13), 6),
             (np.r_[np.zeros(20), rng.random(11), np.zeros(5)], 17), (np.zeros(10), 4),
             (rng.random((17, 17, 17)) ** 4, 4000)]
    for masses, total in cases:
        assert np.array_equal(_bisection_counts(masses, total),
                              oracle_bisection_counts(masses, total))


@pytest.mark.parametrize("slab_points", [1 << 18, 5000, 1])
def test_cell_masses_match_whole_array_oracle(monkeypatch, slab_points):
    """Slabs of several layers, slabs that leave a short last one, and one layer per slab."""
    monkeypatch.setattr(core, "_MASS_SLAB_POINTS", slab_points)
    box = ss.Box(lo=[0.0, -0.3, 0.1], hi=[1.2, 1.0, 0.9])
    for kind in ("constant", "affine", "bump", "grid"):
        for shape in ((8, 8, 8), (5, 3, 7), (13, 9, 11)):
            masses, sub_max = _cell_masses(_density(kind, 1.0), box, shape)
            want_masses, want_max = oracle_cell_masses(_density(kind, 1.0), box, shape)
            assert np.array_equal(masses, want_masses) and np.array_equal(sub_max, want_max)


def test_cell_masses_sample_in_bounded_slabs(unit_box):
    # 24^3 strata take 884 736 samples: about 57 MB traced when sampled in one array
    tracemalloc.start()
    try:
        _cell_masses(ss.ConstantField(1.0), unit_box, (24, 24, 24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * core._MASS_SLAB_POINTS


def _records():
    # built afresh on every call: equal values in distinct objects and arrays
    box = ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])
    wave = ss.IncidentWave(k=1.0, alpha=[0.0, 0.0, 1.0])
    hard = ss.Particle.sphere([0.3, 0.5, 0.5], 0.01, ss.Hard())
    bump = ss.GaussianBumpField(amplitude=0.2, center=[0.5, 0.5, 0.5], width=0.3, base=1.0)
    soft = tuple(ss.Particle.sphere([x, 0.5, 0.5], 0.01, ss.Soft()) for x in (0.3, 0.7))
    return [box, wave, ss.GridCover.from_shape(box, 3), hard,
            ss.Scene(particles=(hard,), domain=box, wave=wave),
            ss.Scene(particles=soft, domain=box, wave=wave,
                     background=ss.BackgroundMedium(n2=bump, box=box))]


def test_equal_records_compare_by_value():
    for a, b in zip(_records(), _records()):
        assert a is not b and a == b and not a != b
        with pytest.raises(TypeError):
            hash(a)
    box, wave, cover, hard, scene, _ = _records()
    assert ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 2.0]) != box
    assert ss.IncidentWave(k=1.0, alpha=[0.0, 1.0, 0.0]) != wave
    assert ss.GridCover.from_shape(box, 4) != cover
    assert ss.Particle.sphere([0.3, 0.5, 0.6], 0.01, ss.Hard()) != hard
    assert ss.Particle.sphere([0.3, 0.5, 0.5], 0.01, ss.Soft()) != hard
    assert ss.Scene(particles=(hard,), domain=box, wave=wave, separation_factor=5.0) != scene
    assert box != None and scene != hard  # noqa: E711
