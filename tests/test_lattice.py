import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import smallscat as ss
from smallscat.background import (cell_self_green, free_space_green, point_green,
                                  scattered_plane_wave)
from smallscat.homogenize import collocation_solve, hard_limit_system, neumann_limit_solve
from smallscat.lattice import DEFAULT_RTOL, LatticeOperator, solve_checked
from smallscat.manybody import assemble_hard_system

covers = st.builds(
    lambda shape, edges: ss.GridCover(box=ss.Box(lo=[0.0, 0.0, 0.0], hi=edges), shape=shape),
    st.tuples(*[st.integers(1, 6)] * 3),
    st.tuples(*[st.floats(0.5, 2.0)] * 3),
)


def _complex(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _dense_green(cover, k, self_value):
    r = cdist(cover.centers, cover.centers)
    np.fill_diagonal(r, 1.0)
    kern = free_space_green(k, r)
    np.fill_diagonal(kern, self_value)
    return kern


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _hard_rhs(wave, cover):
    return np.concatenate([wave.field_at(cover.centers),
                           wave.gradient_at(cover.centers).ravel(),
                           wave.laplacian_at(cover.centers)])


@settings(max_examples=25, deadline=None)
@given(cover=covers, k=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1))
def test_lattice_products_match_dense_matrices(cover, k, seed):
    rng = np.random.default_rng(seed)
    p = cover.n_cells
    v, weights = _complex(rng, p), _complex(rng, p)
    green = lambda d: free_space_green(k, np.linalg.norm(d, axis=1))  # noqa: E731
    for self_value in (0.0, cover.self_green_integral() / cover.cell_volume):
        op = LatticeOperator(cover, green, self_value=self_value, weights=weights)
        dense = _dense_green(cover, k, self_value)
        assert _rel(op @ v, dense @ (weights * v)) <= 1e-12

    lap_w = rng.uniform(0.0, 0.01, p) * cover.cell_volume
    dip_w = rng.normal(scale=0.01, size=(p, 3, 3)) * cover.cell_volume
    x = _complex(rng, 5 * p)
    dense = assemble_hard_system(cover.centers, k, lap_w, dip_w)
    assert _rel(hard_limit_system(cover, k, lap_w, dip_w)(x), dense @ x) <= 1e-12


def _scipy_fft_product(op, v):
    """``op @ v`` as the operator ran it on ``scipy.fft``: the circulant of its transforms,
    applied by ``fftn`` of the padded input and ``ifftn`` of the whole padded grid."""
    from scipy import fft

    axes = (-3, -2, -1)
    hats = fft.fftn(fft.ifftn(op._hats, axes=axes), axes=axes)
    x = np.asarray(v, dtype=complex).reshape((op.n_in,) + op.cover.shape)
    if op.weights is not None:
        x = x * op.weights.reshape(op.cover.shape)
    x_hat = fft.fftn(x, s=hats.shape[1:], axes=axes)
    y_hat = np.zeros((op.n_out,) + hats.shape[1:], dtype=complex)
    for out, inp, s, factor in op.layout:
        y_hat[out] += factor * (hats[s] * x_hat[inp])
    nx, ny, nz = op.cover.shape
    return fft.ifftn(y_hat, axes=axes)[:, :nx, :ny, :nz].reshape(op.n_out, op.n_cells)


@settings(max_examples=25, deadline=None)
@given(cover=covers, k=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1))
def test_lattice_products_match_scipy_fft(cover, k, seed):
    # numpy's transforms, the inverse axis by axis on the cropped grid, against scipy's, for
    # one channel and for a layout of two kernels, two inputs and three outputs
    rng = np.random.default_rng(seed)
    p = cover.n_cells

    def kernels(d):
        g = free_space_green(k, np.linalg.norm(d, axis=1))
        return np.stack([g, g * d[:, 0]], axis=1)

    single = LatticeOperator(cover, lambda d: kernels(d)[:, 0], self_value=0.3,
                             weights=_complex(rng, p))
    v = _complex(rng, p)
    assert _rel(single @ v, _scipy_fft_product(single, v)[0]) <= 1e-13
    layout = ((0, 0, 0, 1.0), (1, 1, 1, 0.5j), (2, 0, 1, -1.0), (2, 1, 0, 2.0))
    multi = LatticeOperator(cover, kernels, layout=layout)
    v = _complex(rng, 2 * p).reshape(2, p)
    assert _rel(multi @ v, _scipy_fft_product(multi, v)) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(cover=covers, k=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1))
def test_lattice_solves_match_dense_solves(cover, k, seed):
    rng = np.random.default_rng(seed)
    p = cover.n_cells
    w = cover.cell_volume
    volume = cover.box.volume
    alpha = rng.normal(size=3)
    wave = ss.IncidentWave(k=k, alpha=alpha / np.linalg.norm(alpha))
    eye = np.eye(p)

    # collocation: dropped diagonal; total coupling kept moderate so the
    # discrete system is well conditioned for every draw
    q = 2.0 * _complex(rng, p) / volume
    sol = collocation_solve(q, cover, wave)
    dense = eye + _dense_green(cover, k, 0.0) * (q * w)[None, :]
    assert _rel(sol.values, np.linalg.solve(dense, wave.field_at(cover.centers))) <= 1e-9

    # plane wave: mean-value self cell
    chi = _complex(rng, p) / (k**2 * volume)
    u_grid, _ = scattered_plane_wave(chi, cover, k, wave.alpha)
    mean_value = cover.self_green_integral() / w
    dense = eye - (k**2) * _dense_green(cover, k, mean_value) * (chi * w)[None, :]
    assert _rel(u_grid, np.linalg.solve(dense, wave.field_at(cover.centers))) <= 1e-9

    # hard limit: the 5P block system
    rho = rng.uniform(0.0, 0.01, p)
    dipole = -1.5 * rho[:, None, None] * np.eye(3) + rng.normal(scale=0.002, size=(p, 3, 3))
    hard = neumann_limit_solve(rho, dipole, cover, wave)
    x = np.linalg.solve(assemble_hard_system(cover.centers, k, rho * w, dipole * w),
                        _hard_rhs(wave, cover))
    got = np.concatenate([hard.values, hard.gradients.ravel(), hard.laplacians])
    assert _rel(got, x) <= 1e-9

    # Green grid of a background medium on the same lattice
    bump = ss.GaussianBumpField(amplitude=0.5 / (k**2 * volume), center=cover.box.center,
                                width=0.5, base=1.0)
    medium = ss.BackgroundMedium(n2=bump, box=cover.box)
    ev = ss.GreenEvaluator(medium, k=k, grid_n=cover.shape)
    y = cover.box.hi + 0.25
    rhs = free_space_green(k, np.linalg.norm(cover.centers - y, axis=1))
    chi_w = medium.contrast(cover.centers) * w
    dense = eye - (k**2) * _dense_green(cover, k, mean_value) * chi_w[None, :]
    to_grid = point_green(k, ev.grid.centers, y[None, :], cell_self_green(ev.grid))[0]
    assert _rel(ev._grid_solve(to_grid[:, 0]), np.linalg.solve(dense, rhs)) <= 1e-9


def _second_kind(rng, n, norm):
    # I + K with |K|_2 = norm < 1: condition number at most (1 + norm) / (1 - norm)
    k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.eye(n) + norm * k / np.linalg.norm(k, 2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 200), norm=st.floats(0.0, 0.8), seed=st.integers(0, 2**32 - 1))
def test_solve_checked_matches_dense_solve(n, norm, seed):
    rng = np.random.default_rng(seed)
    a = _second_kind(rng, n, norm)
    rhs = _complex(rng, n)
    x, residual = solve_checked(lambda v: a @ v, rhs, DEFAULT_RTOL)
    assert residual <= DEFAULT_RTOL
    # the reported residual is the true one at the returned x, not the Krylov estimate
    assert residual == np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs)
    assert _rel(x, np.linalg.solve(a, rhs)) <= 1e-10


@pytest.mark.parametrize("n, radius", [(1, 0.5), (12, 0.3), (150, 0.6), (300, 0.95)],
                         ids=["n1", "small", "one_cycle", "restarted"])
def test_solve_checked_takes_one_product_fewer_than_scipy_gmres(n, radius):
    # the oracle is what the solve used to run: scipy's gmres(restart=80) from x = rhs at the
    # same Krylov tolerance, then the residual recomputed at its x.  I + K with K's
    # eigenvalues spread over the disc of the given radius (circular law)
    from scipy.sparse.linalg import LinearOperator, gmres

    rng = np.random.default_rng(n)
    a = np.eye(n) + radius * _complex(rng, (n, n)) / np.sqrt(2 * n)
    rhs = _complex(rng, n)
    counts = {"scipy": 0, "ours": 0}

    def counted(name):
        def apply(v):
            counts[name] += 1
            return a @ v
        return apply

    op = LinearOperator((n, n), matvec=counted("scipy"), dtype=complex)
    x_ref, info = gmres(op, rhs, x0=rhs.copy(), rtol=1e-12, atol=0.0, restart=80, maxiter=400)
    counted("scipy")(x_ref)
    x, _ = solve_checked(counted("ours"), rhs, DEFAULT_RTOL)
    assert info == 0
    assert counts["ours"] == counts["scipy"] - 1
    assert _rel(x, x_ref) <= 1e-10
    if n == 300:
        assert counts["ours"] > 82  # more than one cycle


def test_nan_residual_raises_solve_failure():
    # the start's residual is nonzero, and the first Arnoldi product is NaN: the solve fails
    # at that product instead of cycling to the cap
    calls = []

    def system(x):
        calls.append(1)
        return 2.0 * x if len(calls) == 1 else np.full_like(x, np.nan)

    with pytest.raises(ss.SolveFailure, match="residual nan"):
        solve_checked(system, np.arange(1.0, 6.0) + 0j, DEFAULT_RTOL)
    assert len(calls) == 2


@pytest.mark.parametrize("nan_at", [1, 3], ids=["start", "cycle_end"])
def test_nan_true_residual_raises_solve_failure(nan_at):
    # 2 x converges in one Arnoldi step: product 1 is the start's residual and product 3 the
    # residual that ends the cycle; a NaN at either is the residual the solve reports
    calls = []

    def system(x):
        calls.append(1)
        return 2.0 * x if len(calls) != nan_at else np.full_like(x, np.nan)

    with pytest.raises(ss.SolveFailure, match="residual nan above tolerance"):
        solve_checked(system, np.arange(1.0, 6.0) + 0j, DEFAULT_RTOL)
    assert len(calls) == nan_at


def test_hard_limit_solve_at_16_cubed(unit_box, wave_z):
    # 20 480 unknowns; the dense system alone would need 6.7 GB
    cover = ss.GridCover.from_shape(unit_box, 16)
    rho = np.full(cover.n_cells, 0.002)
    dipole = -1.5 * rho[:, None, None] * np.eye(3)[None]
    sol = neumann_limit_solve(rho, dipole, cover, wave_z, rtol=1e-10)
    assert sol.residual <= 1e-10
    assert np.all(np.isfinite(sol.values))


def test_collocation_solve_at_32_cubed(unit_box, wave_z):
    cover = ss.GridCover.from_shape(unit_box, 32)
    bump = ss.GaussianBumpField(amplitude=3.0, center=[0.5, 0.5, 0.5], width=0.25)
    sol = collocation_solve(bump.sample(cover.centers), cover, wave_z, rtol=1e-10)
    assert sol.residual <= 1e-10
