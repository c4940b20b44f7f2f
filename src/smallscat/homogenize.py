"""Effective-medium limits of dense small-particle clouds.

As the particle size ``a`` shrinks with the count growing per the counting
laws, the self-consistent field approaches the solution of

    u(x) = u0(x) - integral_D g(x, y) q(y) u(y) dy,

equivalently ``(lap + k^2 - q) u = 0`` with the limiting coefficient

    q = c N      (soft particles,  c = capacitance per unit radius)
    q = b N h    (impedance particles,  b = |S| / a^2 of the common shape)

and refraction coefficient ``n^2 = 1 - q / k^2``.  Hard clouds instead obey
an integrodifferential limit driven by a volume-fraction field ``rho`` and a
dipole-density field ``B_pq``.

The limiting equations are discretized by collocation on a cube cover: one
value per cell, the diagonal cell excluded (the weakly singular self-cell
integral is dropped consistently).  With the free-space kernel every coupling
depends only on the cell-index offset, so the systems are solved matrix-free:
GMRES on the zero-padded FFT lattice operator of :mod:`smallscat.lattice`,
``O(P log P)`` per iteration.  The limits are taken in free space; a
background medium enters only the finite-cloud solves, through
``scene.background``.  Empirical cell statistics of
generated clouds estimate the same coefficients (from the particle arrays and
couplings a :class:`~smallscat.core.Scene` packs), and the convergence study
compares the cloud solve against the collocation solve level by level in the
sup norm over cells, each level's cloud built from one
:class:`~smallscat.core.CloudSpec` by :func:`~smallscat.core.generate_cloud`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from .background import free_space_green, row_norms
from .core import (DEFAULT_SEPARATION_FACTOR, SPHERE_CAPACITANCE_PER_RADIUS,
                   SPHERE_SURFACE_FACTOR, CloudSpec, IncidentWave, Particle, Scene,
                   _coarse_mass, _pack_particles, _strata_per_axis, generate_cloud,
                   validate_scene)
from .errors import DesignInfeasible, GridTooLarge
from .fields import ScalarField
from .grids import Box, GridCover, record_eq
from .lattice import DEFAULT_RTOL, LatticeOperator, solve_checked
from .manybody import (EffectiveFieldSolution, _hard_layers, hard_rhs, hard_system_apply,
                       solve_impedance, solve_soft, source_field)

logger = logging.getLogger(__name__)

MAX_HARD_LIMIT_CELLS: int = 32**3


# ---------------------------------------------------------------------------
# Collocation solve of the scalar limiting equation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CollocationSolution:
    """Cell values of the limiting field plus its piecewise-constant reading."""

    cover: GridCover
    q_values: np.ndarray
    values: np.ndarray
    residual: float

    __eq__ = record_eq

    def interpolant(self, points: np.ndarray) -> np.ndarray:
        """Piecewise-constant extension: the value of the containing cell."""
        return self.values[self.cover.cell_index(points)]


def collocation_solve(q_values: np.ndarray, cover: GridCover, wave: IncidentWave, *,
                      rtol: float = DEFAULT_RTOL) -> CollocationSolution:
    """Solve ``u_q = u0_q - sum_{p != q} g(xi_q, xi_p) q_p u_p |cell|`` on the cover.

    GMRES on the FFT lattice operator of the free-space kernel.
    """
    q = np.asarray(q_values, dtype=complex).reshape(cover.n_cells)
    k = wave.k
    kernel = LatticeOperator(cover, lambda d: free_space_green(k, row_norms(d)),
                             weights=q * cover.cell_volume)
    u, residual = solve_checked(lambda v: v + kernel @ v, wave.field_at(cover.centers), rtol)
    return CollocationSolution(cover=cover, q_values=q, values=u, residual=residual)


# ---------------------------------------------------------------------------
# Limiting coefficients: empirical cell statistics and closed forms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LimitCoefficients:
    """Cell samples of the limiting medium.

    ``q`` is the monopole coefficient of a soft or impedance cloud (its real part the
    per-volume capacitance of a soft one), ``volume_fraction`` and ``dipole_density`` the
    hard-cloud analogues, ``counts`` the particles per cell.  The statistics of a cell
    without particles are undefined and stored as zero.
    """

    cover: GridCover
    k: float
    q: Optional[np.ndarray] = None
    volume_fraction: Optional[np.ndarray] = None
    dipole_density: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None

    __eq__ = record_eq

    @property
    def n2(self) -> Optional[np.ndarray]:
        """Refraction coefficient ``n^2 = 1 - q / k^2``; None without ``q``."""
        return None if self.q is None else 1.0 - self.q / self.k**2


def limit_from_cloud(particles: Sequence[Particle], cover: GridCover,
                     k: float) -> LimitCoefficients:
    """Empirical cell statistics of a particle cloud.

    Soft/impedance clouds produce the coefficient ``q`` (sum of monopole
    couplings per cell volume); all clouds produce the volume fraction and the
    counts, hard clouds additionally the dipole density.  ValueError if the
    particles mix kinds.
    """
    p_count = cover.n_cells
    packing = _pack_particles(particles)
    kind, volumes, betas = packing["kind"], packing["volumes"], packing["polarizabilities"]
    cells = cover.cell_index(packing["centers"])
    vol = cover.cell_volume

    counts = np.bincount(cells, minlength=p_count)
    rho = np.zeros(p_count)
    np.add.at(rho, cells, volumes)
    rho /= vol

    dipole = None
    if kind == "hard" and betas is not None:
        dipole = np.zeros((p_count, 3, 3))
        np.add.at(dipole, cells, betas * volumes[:, None, None])
        dipole /= vol

    q = None
    if kind in ("soft", "impedance"):
        q = np.zeros(p_count, dtype=complex)
        np.add.at(q, cells, packing["coupling"])
        q /= vol

    return LimitCoefficients(cover=cover, k=k, q=q, volume_fraction=rho, dipole_density=dipole,
                             counts=counts)


@dataclass(frozen=True)
class DesignPrescription:
    """Particle recipe realizing a refraction target.

    ``density`` (N) and ``impedance`` (h) are cell samples; ``b_shape`` is
    the common-shape surface factor, ``kappa`` the impedance scaling
    exponent.  Construction verifies ``k^2 (1 - n2) = b N h`` pointwise.
    """

    cover: GridCover
    k: float
    density: np.ndarray
    impedance: np.ndarray
    kappa: float
    b_shape: float
    n2_target: np.ndarray

    __eq__ = record_eq

    def __post_init__(self):
        n = self.cover.n_cells
        dens = np.asarray(self.density, dtype=float).reshape(n)
        h = np.asarray(self.impedance, dtype=complex).reshape(n)
        n2 = np.asarray(self.n2_target, dtype=complex).reshape(n)
        if np.min(dens) < 0:
            raise ValueError("design density must be nonnegative")
        if np.max(np.imag(h)) > 1e-15:
            raise ValueError("design impedance must have Im h <= 0")
        mismatch = np.max(np.abs(self.k**2 * (1.0 - n2) - self.b_shape * dens * h))
        if mismatch > 1e-12 * max(1.0, self.k**2 * float(np.max(np.abs(1.0 - n2)))):
            raise ValueError(f"design is inconsistent: |k^2(1-n2) - bNh| up to {mismatch:.3e}")
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "impedance", h)
        object.__setattr__(self, "n2_target", n2)


def limit_from_prescription(prescription: DesignPrescription) -> LimitCoefficients:
    """Closed-form coefficient ``q = b N h``."""
    q = prescription.b_shape * prescription.density * prescription.impedance
    return LimitCoefficients(cover=prescription.cover, k=prescription.k, q=q)


def inverse_design(n2_target: np.ndarray, cover: GridCover, k: float, *,
                   b_shape: float = SPHERE_SURFACE_FACTOR,
                   density: Union[float, np.ndarray] = 1.0,
                   kappa: float = 0.5) -> DesignPrescription:
    """Impedance profile realizing ``n2_target``: ``h = k^2 (1 - n2) / (b N)``.

    Cells with ``n2 == 1`` need no particles (N = 0, h = 0 there).  Raises
    DesignInfeasible when the target requires ``Im h > 0`` (equivalently
    ``Im n2 < 0``) anywhere, reporting the offending cells.
    """
    n2 = np.asarray(n2_target, dtype=complex).reshape(cover.n_cells)
    bad = np.nonzero(np.imag(n2) < -1e-12)[0]
    if len(bad):
        raise DesignInfeasible(
            f"Im n2 < 0 in {len(bad)} cell(s), first indices {bad[:5].tolist()}"
        )
    dens = np.broadcast_to(np.asarray(density, dtype=float), (cover.n_cells,)).copy()
    passive = np.abs(n2 - 1.0) <= 1e-14
    if np.any(~passive & (dens <= 0)):
        raise DesignInfeasible("density must be positive wherever n2 differs from 1")
    h = np.zeros(cover.n_cells, dtype=complex)
    active = ~passive
    h[active] = k**2 * (1.0 - n2[active]) / (b_shape * dens[active])
    dens[passive] = 0.0
    bad_h = np.nonzero(np.imag(h) > 1e-12)[0]
    if len(bad_h):
        raise DesignInfeasible(
            f"Im h > 0 in {len(bad_h)} cell(s), first indices {bad_h[:5].tolist()}"
        )
    h.imag[h.imag == 0.0] = 0.0  # normalize -0.0 so emitted tables are stable
    return DesignPrescription(cover=cover, k=k, density=dens, impedance=h,
                              kappa=kappa, b_shape=b_shape, n2_target=n2)


# ---------------------------------------------------------------------------
# Hard-cloud limit: coupled collocation of the integrodifferential equation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HardLimitSolution:
    cover: GridCover
    values: np.ndarray
    gradients: np.ndarray
    laplacians: np.ndarray
    residual: float

    __eq__ = record_eq


# Kernels of the hard limit on the lattice, in the column order of ``_hard_kernels``:
# g, g rhat_p (from 1), g' rhat_s (from 4), d_s(g rhat_p) (symmetric, upper
# triangle, ``_DGP``) and lap(g rhat_p) (from 13).
_DGP = {(0, 0): 7, (0, 1): 8, (0, 2): 9, (1, 1): 10, (1, 2): 11, (2, 2): 12}


def _hard_kernels(d: np.ndarray, k: float) -> np.ndarray:
    """The 16 hard-limit kernels at the displacements ``d`` (m, 3), as the columns of one
    (m, 16) array in Fortran order, so that each column is written contiguous."""
    parts = np.empty((8, len(d)))
    _hard_layers(k, row_norms(d), list(parts))
    factors = np.empty((4, len(d)), dtype=complex)
    factors.real, factors.imag = parts[[0, 1, 3, 4]], parts[[6, 2, 7, 5]]
    g, g_r, gp_r, radial = factors
    out = np.empty((len(d), 16), dtype=complex, order="F")
    out[:, 0] = g
    for p in range(3):
        np.multiply(g_r, d[:, p], out=out[:, 1 + p])
        np.multiply(gp_r, d[:, p], out=out[:, 4 + p])
    for (s, p), column in _DGP.items():
        entry = np.multiply(radial, d[:, s], out=out[:, column])
        entry *= d[:, p]
        if s == p:
            entry += g_r
    lap = radial + 1j * k * gp_r
    for p in range(3):
        np.multiply(lap, d[:, p], out=out[:, 13 + p])
    return out


def _hard_layout(k: float) -> list:
    """The :class:`LatticeOperator` layout of the hard limit: channels (monopole, dipole x,
    y, z) in, (field, gradient x, y, z, Laplacian) out, over the kernels of ``_hard_kernels``."""
    ik = 1j * k
    layout = [(0, 0, 0, 1.0), (4, 0, 0, -k**2)]
    for p in range(3):
        layout += [(0, 1 + p, 1 + p, ik), (1 + p, 0, 4 + p, 1.0), (4, 1 + p, 13 + p, ik)]
        layout += [(1 + s, 1 + p, _DGP[min(s, p), max(s, p)], ik) for s in range(3)]
    return layout


def hard_limit_system(cover: GridCover, k: float, lap_weights: np.ndarray,
                      dipole_weights: np.ndarray):
    """Matrix-free form of ``assemble_hard_system(cover.centers, k, ...)``.

    Returns ``x -> A x`` through :func:`~smallscat.manybody.hard_system_apply`.
    The kernel blocks act on the monopole and dipole sources of every cell
    through one block :class:`LatticeOperator` (16 kernels, 4 forward and 5
    inverse FFTs per product); the diagonal cell is excluded.
    """
    kernel = LatticeOperator(cover, lambda d: _hard_kernels(d, k), layout=_hard_layout(k))

    def fields(monopoles: np.ndarray, dipoles: np.ndarray):
        field = kernel @ np.vstack([monopoles, dipoles.T])
        return field[0], field[1:4].T, field[4]

    return hard_system_apply(lap_weights, dipole_weights, fields)


def neumann_limit_solve(rho_values: np.ndarray, dipole_values: np.ndarray,
                        cover: GridCover, wave: IncidentWave, *,
                        rtol: float = DEFAULT_RTOL) -> HardLimitSolution:
    """Limiting field of a hard cloud with cell samples ``rho`` and ``B_pq``.

    Unknowns are (value, gradient, Laplacian) per cell; the gradient and
    Laplacian equations come from the same analytic kernel derivatives as the
    finite-size solver; the diagonal cell is excluded.  The ``5 P`` system is
    solved by GMRES on :func:`hard_limit_system`; ``P`` is capped at
    ``MAX_HARD_LIMIT_CELLS``, whose GMRES basis at the cap is about 210 MB.
    """
    p_count = cover.n_cells
    if p_count > MAX_HARD_LIMIT_CELLS:
        raise GridTooLarge(f"{p_count} cells exceed the cap {MAX_HARD_LIMIT_CELLS}")
    rho = np.asarray(rho_values, dtype=float).reshape(p_count)
    dipole = np.asarray(dipole_values, dtype=float)
    if dipole.shape != (p_count, 3, 3):
        raise ValueError(f"dipole samples must be ({p_count}, 3, 3), got {dipole.shape}")
    w = cover.cell_volume
    system = hard_limit_system(cover, wave.k, rho * w, dipole * w)
    x, residual = solve_checked(system, hard_rhs(wave, cover.centers), rtol)
    return HardLimitSolution(cover=cover, values=x[:p_count],
                             gradients=x[p_count:4 * p_count].reshape(p_count, 3),
                             laplacians=x[4 * p_count:], residual=residual)


# ---------------------------------------------------------------------------
# Convergence study: finite clouds against the limiting equation
# ---------------------------------------------------------------------------
def cover_field_from_solution(solution: EffectiveFieldSolution, scene: Scene,
                              cover: GridCover) -> np.ndarray:
    """Self-consistent field read at the cover centers, own-cell group dropped.

    This is the grouped form of the linear system: the field acting on cell
    ``q`` collects the contributions of all particles outside that cell.  It
    is the natural cell reading of a finite-cloud solve and the quantity the
    collocation values approximate: :func:`~smallscat.manybody.source_field`
    with the own-cell pairs excluded.
    """
    return source_field(solution, scene, cover.centers,
                        exclude_cells=(np.arange(cover.n_cells), cover.cell_index(scene.centers)))


@dataclass(frozen=True)
class ConvergenceLevel:
    a: float
    m: int
    cover_n: int
    cover_edge: float
    sup_error: float
    mean_spacing: float
    d_ratio: float
    separation_factor: float
    residual_cloud: float
    residual_collocation: float


@dataclass(frozen=True)
class ConvergenceReport:
    law: str
    levels: List[ConvergenceLevel]

    @property
    def errors(self) -> np.ndarray:
        return np.array([lv.sup_error for lv in self.levels])

    @property
    def strictly_decreasing(self) -> bool:
        e = self.errors
        return bool(np.all(e[1:] < e[:-1]))


def convergence_study(law: str, density: ScalarField, domain: Box, wave: IncidentWave,
                      a_levels: Sequence[float], *, kappa: float = 0.5,
                      h: Optional[ScalarField] = None, seed: int = 0,
                      separation_factor: float = DEFAULT_SEPARATION_FACTOR,
                      rtol: float = DEFAULT_RTOL) -> ConvergenceReport:
    """Sup-norm discrepancy between cloud solves and the limiting equation.

    Each particle size is one :class:`~smallscat.core.CloudSpec` (soft particles for the
    ``dirichlet`` law, impedance particles for ``impedance``, which needs ``h``): generate
    its cloud, solve the finite system (an empty scene where the law expects no particle),
    read it on the cover ``edge = a**(1/3)`` via :func:`cover_field_from_solution`, and
    compare against the collocation solution with the closed-form sphere coefficient.  The
    density's mass on 8^3 cells is sampled once for the study; each level's
    :meth:`~smallscat.core.CloudSpec.expected_count` is its law's count of that mass, and
    sets the level's ``strata_n`` as :func:`~smallscat.core.generate_cloud` would.  The
    separation factor is capped at half the mean particle spacing of that count over ``a``
    (dense protocols cannot honor a fixed ``d/a`` at every level); the factor used is
    recorded per level.  ValueError, before any cloud is placed, for another law, no level,
    a size that is not positive and finite, a density negative on the domain, or settings
    its first :class:`~smallscat.core.CloudSpec` refuses (an impedance study's ``h`` or
    ``kappa``, a separation factor).
    """
    if law not in ("dirichlet", "impedance"):
        raise ValueError(f"convergence law must be dirichlet or impedance, got {law!r}")
    if len(a_levels) == 0:
        raise ValueError("a convergence study needs at least one particle size")
    for a in a_levels:
        if not 0.0 < a < math.inf:
            raise ValueError(f"particle sizes must be positive and finite, got {a}")
    bc_kind, solver = (("soft", solve_soft) if law == "dirichlet"
                       else ("impedance", solve_impedance))
    mass = _coarse_mass(density, domain)
    levels: List[ConvergenceLevel] = []
    for a in a_levels:
        spec = CloudSpec(density=density, a=a, law=law, kappa=kappa, bc_kind=bc_kind, h=h,
                         rng_seed=seed, separation_factor=separation_factor)
        expected = spec._count_for(mass)
        m_expected = int(round(expected))
        mean_spacing = (domain.volume / max(m_expected, 1)) ** (1.0 / 3.0)
        spec = replace(spec, separation_factor=min(separation_factor, 0.5 * mean_spacing / a),
                       strata_n=_strata_per_axis(expected))
        particles = generate_cloud(spec, domain) if m_expected else []
        scene = Scene(particles=tuple(particles), domain=domain, wave=wave,
                      separation_factor=spec.separation_factor)
        solution = solver(scene, rtol=rtol)

        cover = GridCover.from_edge(domain, a ** (1.0 / 3.0))
        n_samples = np.real(density.sample(cover.centers))
        if law == "dirichlet":
            q = SPHERE_CAPACITANCE_PER_RADIUS * n_samples.astype(complex)
        else:
            q = SPHERE_SURFACE_FACTOR * n_samples * h.sample(cover.centers)
        coll = collocation_solve(q, cover, wave, rtol=rtol)

        las_on_cover = cover_field_from_solution(solution, scene, cover)
        sup_error = float(np.max(np.abs(las_on_cover - coll.values)))

        mean_nn = validate_scene(scene).metrics.get("mean_distance", float("inf"))
        levels.append(ConvergenceLevel(
            a=a, m=len(particles), cover_n=cover.shape[0],
            cover_edge=float(cover.cell_edges[0]), sup_error=sup_error,
            mean_spacing=mean_nn, d_ratio=mean_nn / a ** (1.0 / 3.0),
            separation_factor=spec.separation_factor, residual_cloud=solution.residual,
            residual_collocation=coll.residual,
        ))
        logger.info("convergence %s a=%g M=%d cover=%d^3 sup_err=%.4g",
                    law, a, len(particles), cover.shape[0], sup_error)
    return ConvergenceReport(law=law, levels=levels)
