import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import smallscat as ss
from smallscat.background import (BackgroundMedium, GreenEvaluator, born_series,
                                  cell_self_green, cos_sin, cover_responses, expi,
                                  fixed_point_solve, free_space_green, green, pair_distances,
                                  point_green, scattered_plane_wave)
from smallscat.lattice import DEFAULT_RTOL

# point sets of 0 to 9 points, coordinates from subnormal to 1e4, signed zeros included
point_sets = st.integers(0, 9).flatmap(
    lambda n: arrays(float, (n, 3), elements=st.floats(-1e4, 1e4, allow_nan=False)))


@pytest.fixture(scope="module")
def bump_medium(unit_box):
    bump = ss.GaussianBumpField(amplitude=0.1, center=[0.5, 0.5, 0.5], width=0.2,
                                base=1.0)
    return BackgroundMedium(n2=bump, box=unit_box)


@settings(max_examples=200, deadline=None)
@given(x=point_sets, y=point_sets, shared=st.integers(0, 3), repeated=st.integers(0, 3))
def test_pair_distances_equal_cdist_bit_for_bit(x, y, shared, repeated):
    # the oracle is what the package ran before: scipy's cdist.  Points shared by both sets
    # and points repeated within one meet at distance 0
    y = np.concatenate([x[:shared], y, y[:repeated]])
    expected = cdist(x, y)
    assert np.array_equal(pair_distances(x, y), expected)
    out, scratch = np.empty(expected.shape), np.empty(expected.shape)
    assert pair_distances(x, y, out, scratch) is out
    assert np.array_equal(out, expected)


def test_medium_rejects_gain(unit_box):
    lossy_wrong_sign = ss.ConstantField(1.0 - 0.2j)
    with pytest.raises(ValueError):
        BackgroundMedium(n2=lossy_wrong_sign, box=unit_box)


def test_medium_uniform_detection(unit_box, bump_medium):
    uniform = BackgroundMedium(n2=ss.ConstantField(1.0), box=unit_box)
    assert uniform.uniform_one and uniform.n0_max == 1.0
    assert not bump_medium.uniform_one
    # sampled maximum: the probe lattice does not hit the exact bump peak
    assert bump_medium.n0_max == pytest.approx(np.sqrt(1.1), rel=1e-2)


def test_uniform_medium_reproduces_free_space_bitwise(unit_box):
    medium = BackgroundMedium(n2=ss.ConstantField(1.0), box=unit_box)
    y = np.array([0.9, 0.5, 0.7])
    targets = np.array([[0.1, 0.2, 0.3], [0.4, 0.1, 0.8]])
    expected = free_space_green(2.0, np.linalg.norm(targets - y, axis=1))
    # every method: the grid correction would be exactly 0, so no grid is built
    for method in (("born", 2), ("lippmann_schwinger", 1e-10)):
        ev = GreenEvaluator(medium, k=2.0, method=method)
        assert ev.grid is None  # free space
        assert np.array_equal(ev.pair_values(targets, y), expected)


@pytest.mark.parametrize("method", ["free_space", ("multigrid", 2)])
def test_unknown_method_rejected(unit_box, method):
    # every method already gives the free-space kernel in a uniform medium
    with pytest.raises(ValueError, match="unknown Green method"):
        GreenEvaluator(BackgroundMedium(n2=ss.ConstantField(1.0), box=unit_box), k=1.0,
                       method=method)


def test_green_requires_distinct_points(unit_box, bump_medium):
    ev = GreenEvaluator(bump_medium, k=1.0, grid_n=4)
    x = np.array([0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        green(ev, x, x)


def test_reciprocity(unit_box, bump_medium):
    ev = GreenEvaluator(bump_medium, k=2.0, grid_n=8)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = 0.1 + 0.8 * rng.random(3), 0.1 + 0.8 * rng.random(3)
        gxy, gyx = green(ev, x, y), green(ev, y, x)
        assert abs(gxy - gyx) <= 1e-6 * abs(gxy)


def test_green_with_a_source_on_a_cover_center(unit_box):
    bump = ss.GaussianBumpField(amplitude=0.2, center=[0.5, 0.5, 0.5], width=0.2, base=1.0)
    ev = GreenEvaluator(BackgroundMedium(n2=bump, box=unit_box), k=1.0)
    x = np.array([0.3, 0.4, 0.5])
    z = np.full(3, 0.5625)
    assert np.any(np.all(ev.grid.centers == z, axis=1))
    forward, backward = green(ev, x, z), green(ev, z, x)
    assert abs(forward / free_space_green(1.0, np.linalg.norm(x - z)) - 1.0) < 0.05
    assert abs(forward - backward) <= 1e-8 * abs(forward)


def test_born_one_equals_single_fixed_point_iteration():
    rng = np.random.default_rng(0)
    kernel = 0.01 * (rng.random((30, 30)) + 1j * rng.random((30, 30)))
    rhs = rng.random(30) + 1j * rng.random(30)
    one = born_series(kernel, rhs, 1)
    # infinite tolerance stops the iteration after exactly one update
    single = fixed_point_solve(kernel, rhs, tol=np.inf, max_iter=5)
    assert np.array_equal(one, single)


def test_block_with_one_diverging_column_raises():
    kernel = np.diag([1.5] + [0.1] * 9).astype(complex)
    converging, diverging = np.ones(10, dtype=complex), np.zeros(10, dtype=complex)
    converging[0] = 0.0
    diverging[:2] = 1.0
    assert np.all(np.isfinite(fixed_point_solve(kernel, converging, tol=1e-10)))
    with pytest.raises(ss.NonConvergence, match="update norm .* at iteration"):
        fixed_point_solve(kernel, diverging, tol=1e-10)


def _grid_responses(medium, k, grid_n, sources, method=("lippmann_schwinger", DEFAULT_RTOL)):
    """``R`` of ``sources`` from one grid solve per source, by an evaluator of ``method`` on
    ``medium`` and a cover of ``grid_n`` cells per axis: under ``lippmann_schwinger`` a
    checked GMRES solve on the FFT operator."""
    ev = GreenEvaluator(medium, k=k, grid_n=grid_n, method=method)
    z, self_value = ev.grid.centers, cell_self_green(ev.grid)
    return np.stack([ev._kernel.weights
                     * ev._grid_solve(point_green(ev.k, z, y[None, :], self_value)[0][:, 0])
                     for y in sources], axis=1)


def _cover_responses(medium, k, grid_n, sources):
    cover = ss.GridCover.from_shape(medium.box, grid_n)
    return cover_responses(cover, k, medium.contrast(cover.centers), sources)


def _column_errors(got, want):
    return np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)


@pytest.mark.parametrize("method", [("lippmann_schwinger", 1e-12), ("born", 10)])
def test_cover_responses_match_per_source_grid_solves(unit_box, bump_medium, method):
    # the one direct solve against per-source solves by each method, the checked GMRES solve
    # and the series, which converges on this weak bump
    cover = ss.GridCover.from_shape(unit_box, 6)
    # one source on a cover center and some outside the box
    sources = np.vstack([np.random.default_rng(8).uniform(-0.5, 1.5, size=(69, 3)),
                         cover.centers[40]])
    got, to_sources = _cover_responses(bump_medium, 1.5, 6, sources)
    assert got.shape == to_sources.shape == (cover.n_cells, len(sources))
    assert np.max(_column_errors(got, _grid_responses(bump_medium, 1.5, 6, sources,
                                                      method))) <= 1e-12
    # the kernel it returns is the one it solved with, the cell self value on a cover center
    assert np.array_equal(to_sources,
                          point_green(1.5, cover.centers, sources, cell_self_green(cover))[0])
    assert to_sources.T.flags.c_contiguous


def test_cover_responses_peak_is_the_budgeted_arrays(unit_box, bump_medium):
    # I - K and the copy np.linalg.solve factors, the right-hand sides, their copy and R, as
    # the medium budget counts them, plus one row block and the distance and phase
    # temporaries of point_green (1 MiB, 0.5 MiB and 0.5 MiB); one more dense array, or a row
    # block kept while the next is built, would exceed it.  The kernel g(Z, Y) it returns is
    # built once I - K is freed, and is smaller than I - K here.
    sources = np.random.default_rng(9).uniform(0.0, 1.0, size=(300, 3))
    p = 512
    tracemalloc.start()
    try:
        _cover_responses(bump_medium, 1.0, 8, sources)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * p * (2 * p + 3 * len(sources)) + 3 * 1024**2


def test_cover_responses_raise_solve_failure_on_a_failed_lu(unit_box, bump_medium, monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    with pytest.raises(ss.SolveFailure, match="cover solve residual nan"):
        _cover_responses(bump_medium, 1.5, 6, np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]))


def test_cover_responses_raise_solve_failure_on_an_inaccurate_solve(unit_box, bump_medium,
                                                                    monkeypatch):
    # one entry of the second column off by 1e-6 of that column: the residual reads it
    solve = np.linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        x[0, 1] += 1e-6 * np.linalg.norm(x[:, 1])
        return x

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(ss.SolveFailure, match=r"cover solve residual \d\.\d+e-0[5-8] above"):
        _cover_responses(bump_medium, 1.5, 6, np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]))


def test_cover_responses_raise_solve_failure_on_a_singular_system(unit_box):
    # one cell whose contrast makes K = g(z, z) k^2 chi |cell| exactly 1, so I - K is 0
    cover = ss.GridCover.from_shape(unit_box, 1)
    chi = np.array([1.0 / cell_self_green(cover)], dtype=complex)
    assert (cell_self_green(cover) * (chi * cover.cell_volume))[0] == 1.0
    with pytest.raises(ss.SolveFailure, match="cover solve failed"):
        cover_responses(cover, 1.0, chi, np.array([[2.0, 2.0, 2.0]]))


def test_born_one_equals_ls_iteration_on_evaluator(unit_box, bump_medium):
    y = np.array([0.3, 0.4, 0.5])
    targets = np.array([[0.8, 0.8, 0.8], [0.2, 0.6, 0.9]])
    ev_born = GreenEvaluator(bump_medium, k=1.5, grid_n=6, method=("born", 1))
    g_born = ev_born.pair_values(targets, y)
    kernel = ev_born._kernel
    z = ev_born.grid.centers
    rhs = free_space_green(1.5, np.linalg.norm(z - y, axis=1))
    manual = rhs + kernel @ rhs
    rt = np.linalg.norm(targets[:, None, :] - z[None, :, :], axis=-1)
    expected = free_space_green(1.5, np.linalg.norm(targets - y, axis=1)) \
        + free_space_green(1.5, rt) @ (kernel.weights * manual)
    assert np.allclose(g_born, expected, rtol=1e-14)


def test_first_born_grid_correction_linear_in_contrast(unit_box):
    # on the discrete grid system the first-order update is K b, linear in chi
    k = 1.2
    y = np.array([0.85, 0.5, 0.5])
    corrections = []
    for amp in (0.05, 0.10):
        bump = ss.GaussianBumpField(amplitude=amp, center=[0.5, 0.5, 0.5],
                                    width=0.25, base=1.0)
        medium = BackgroundMedium(n2=bump, box=unit_box)
        ev = GreenEvaluator(medium, k=k, grid_n=8, method=("born", 1))
        rhs = free_space_green(k, np.linalg.norm(ev.grid.centers - y, axis=1))
        to_grid = point_green(k, ev.grid.centers, y[None, :], cell_self_green(ev.grid))[0]
        corrections.append(ev._grid_solve(to_grid[:, 0]) - rhs)
    assert np.allclose(corrections[1], 2.0 * corrections[0], rtol=1e-12)


def test_short_distance_ratio_tends_to_one(unit_box, bump_medium):
    ev = GreenEvaluator(bump_medium, k=2.0, grid_n=8)
    y = np.array([0.5, 0.45, 0.55])
    deviations = []
    for t in (0.2, 0.1, 0.05, 0.025):
        x = y + np.array([t, 0.0, 0.0])
        ratio = green(ev, x, y) / free_space_green(2.0, t)
        deviations.append(abs(ratio - 1.0))
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] < 0.01


def test_far_behavior_bounded(unit_box, bump_medium):
    ev = GreenEvaluator(bump_medium, k=1.0, grid_n=6)
    y = np.array([0.5, 0.5, 0.5])
    direction = np.array([1.0, 0.3, -0.2])
    direction /= np.linalg.norm(direction)
    values = []
    for r in (2.0, 5.0, 10.0, 30.0, 100.0):
        x = y + r * direction
        values.append(abs(green(ev, x, y)) * r)
    # |G| r stays of the order of the free-space constant 1/(4 pi)
    assert max(values) < 3.0 / (4.0 * np.pi)
    assert max(values) / min(values) < 1.5


def test_fixed_point_nonconvergence_reported(unit_box):
    strong = ss.GaussianBumpField(amplitude=49.0, center=[0.5, 0.5, 0.5], width=0.4,
                                  base=1.0)
    medium = BackgroundMedium(n2=strong, box=unit_box)
    ev = GreenEvaluator(medium, k=3.0, grid_n=6, method=("lippmann_schwinger", 1e-10))
    y = np.array([0.8, 0.8, 0.8])
    rhs = point_green(ev.k, ev.grid.centers, y[None, :], cell_self_green(ev.grid))[0][:, 0]
    with pytest.raises(ss.NonConvergence, match="update norm .* at iteration"):
        fixed_point_solve(ev._kernel, rhs, 1e-10)
    # where the iteration diverges, the evaluator's checked solve and a cloud's cover
    # responses still solve
    assert np.isfinite(green(ev, np.array([0.2, 0.2, 0.2]), y))
    sources = np.array([[0.2, 0.2, 0.2], y])
    assert np.max(_column_errors(_cover_responses(medium, 3.0, 6, sources)[0],
                                 _grid_responses(medium, 3.0, 6, sources))) <= 1e-11


def test_smallness_check_examples(unit_box):
    def validate(k, medium=None):
        particle = ss.Particle.sphere([0.5, 0.5, 0.5], 0.05, ss.Soft())
        wave = ss.IncidentWave(k=k, alpha=[0.0, 0.0, 1.0])
        return ss.validate_scene(ss.Scene(particles=(particle,), domain=unit_box, wave=wave,
                                          background=medium))

    assert validate(1.0).accepted
    assert validate(1.0).metrics["k_a_n0"] == pytest.approx(0.05)

    n16 = BackgroundMedium(n2=ss.ConstantField(16.0 + 0j), box=unit_box)
    diag = validate(1.0, n16)
    assert diag.metrics["k_a_n0"] == pytest.approx(0.2)
    assert not diag.accepted

    n4 = BackgroundMedium(n2=ss.ConstantField(4.0 + 0j), box=unit_box)
    diag2 = validate(0.5, n4)
    assert diag2.metrics["k_a_n0"] == pytest.approx(0.05)
    assert diag2.accepted


@pytest.mark.parametrize("method", [("born", 2), ("lippmann_schwinger", 1e-10)])
def test_no_medium_is_free_space_for_every_method(method):
    ev = GreenEvaluator(None, k=2.0, method=method)
    assert ev.grid is None  # free space
    y = np.array([0.9, 0.5, 0.7])
    targets = np.array([[0.1, 0.2, 0.3], [0.4, 0.1, 0.8]])
    expected = free_space_green(2.0, np.linalg.norm(targets - y, axis=1))
    assert np.array_equal(ev.pair_values(targets, y), expected)


def test_evaluator_and_solution_unchanged_by_use(unit_box, wave_z, bump_medium):
    ev = GreenEvaluator(bump_medium, k=1.0, grid_n=6)
    centers = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
    scene = ss.Scene(particles=tuple(ss.Particle.sphere(c, 0.005, ss.Soft()) for c in centers),
                     domain=unit_box, wave=wave_z, background=bump_medium)
    sol = ss.solve_soft(scene)
    before = [pickle.dumps(obj) for obj in (ev, sol, scene)]
    ev.pair_values(np.array([[0.7, 0.7, 0.7]]), np.array([0.4, 0.4, 0.4]))
    ss.eval_field(sol, scene, np.array([[0.1, 0.2, 0.3], [0.6, 0.9, 0.2]]))
    assert [pickle.dumps(obj) for obj in (ev, sol, scene)] == before


def test_cover_read_outs_allocate_no_target_by_cell_array(unit_box, wave_z, bump_medium):
    # one dense (targets, cells) complex kernel alone would be 131 MB
    ev = GreenEvaluator(bump_medium, k=wave_z.k, grid_n=16)
    chi = bump_medium.contrast(ev.grid.centers)
    targets = np.random.default_rng(0).uniform(-0.5, 1.5, size=(2000, 3))
    y = np.array([2.0, 0.5, 0.5])
    read_outs = (lambda: ev.pair_values(targets, y),
                 lambda: scattered_plane_wave(chi, ev.grid, wave_z.k, wave_z.alpha, points=targets))
    for read_out in read_outs:
        tracemalloc.start()
        try:
            read_out()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024**2


def test_scattered_plane_wave_zero_contrast(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 5)
    u_grid, _ = scattered_plane_wave(np.zeros(cover.n_cells), cover, wave_z.k,
                                     wave_z.alpha)
    assert np.allclose(u_grid, wave_z.field_at(cover.centers), rtol=1e-14)


@pytest.mark.parametrize("k", [0.1, 1.0, 3.7, 20.0])
def test_free_space_green_matches_the_complex_exponential(k):
    r = np.random.default_rng(4).uniform(1e-4, 5.0, size=(40, 25))
    for arg in (r, r[:, 3], r[::3, ::2], np.array(0.37), 0.37, 2):
        got = free_space_green(k, arg)
        want = np.exp(1j * k * np.asarray(arg)) / (4.0 * np.pi * np.asarray(arg))
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == complex
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        if np.ndim(arg) == 0:
            assert isinstance(got, complex) and not isinstance(got, np.ndarray)


def _cos_sin_calls(x):
    """``(cos, sin)`` of ``x`` from every way of calling :func:`cos_sin`."""
    cos, sin = np.empty_like(x), np.empty_like(x)
    cos_sin(x, cos, sin)
    yield cos, sin
    cos_only = np.empty_like(x)
    cos_sin(x, cos_only)
    yield cos_only, sin
    aliased, sin = x.copy(), np.empty_like(x)
    cos_sin(aliased, aliased, sin)
    yield aliased, sin
    aliased, cos = x.copy(), np.empty_like(x)
    cos_sin(aliased, cos, aliased)
    yield cos, aliased
    both = np.empty(x.shape, dtype=complex)
    cos_sin(x, both.real, both.imag)
    yield both.real, both.imag
    phasor = expi(x)
    yield phasor.real, phasor.imag


def test_cos_sin_matches_libm():
    rng = np.random.default_rng(5)
    samples = [rng.uniform(0.0, 2.0, 4000), rng.uniform(0.0, 1e4, 4000),
               rng.uniform(-1e9, 1e9, 4000), np.arange(20001) * (np.pi / 2),
               rng.uniform(-3.0, 3.0, (30, 17))[:, ::2], np.array(2.5), np.array(0.0)]
    for x in samples:
        for cos, sin in _cos_sin_calls(x):
            assert cos.shape == sin.shape == x.shape
            assert np.max(np.abs(cos - np.cos(x))) <= 4.5e-16
            assert np.max(np.abs(sin - np.sin(x))) <= 4.5e-16
    for cos, sin in _cos_sin_calls(np.zeros(3)):
        assert np.array_equal(cos, np.ones(3)) and np.array_equal(sin, np.zeros(3))


def test_free_space_green_holds_one_real_temporary():
    # the trig runs in one contiguous real buffer: np.copyto between the real and imaginary
    # views of one 2-d complex array would copy a whole view to rule out their overlap
    r = np.random.default_rng(6).uniform(1e-3, 2.0, size=(512, 4096))
    tracemalloc.start()
    try:
        free_space_green(3.0, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (16 + 32 + 1) * 1024**2
