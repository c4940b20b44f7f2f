"""Reduced linear systems for multiple scattering by clouds of small particles.

Instead of panel-resolved boundary integral equations, each particle enters
through its shape functionals and the self-consistent field at its center:

    soft       u(x_j) = u0(x_j) - sum_{m != j} g(x_j, x_m) C_m u(x_m)
    impedance  u(x_j) = u0(x_j) - sum_{m != j} g(x_j, x_m) h_m b_m a^(2-kappa) u(x_m)
    hard       u(x)   = u0(x)   + sum_m g(x, x_m) [lap u(x_m)
                         + ik beta_pq (x - x_m)_p / |x - x_m| du(x_m)/dx_q] |D_m|

The hard case couples values, gradients, and Laplacians at the centers
(5M unknowns); the gradient and Laplacian equations come from analytic
differentiation of the kernel (finite differences are used only as test
oracles, never in assembly).  Self interaction is excluded by construction;
in a medium (``G`` for ``g``) that drops the smooth ``(G - g)(x_j, x_j)`` too.
Every read-out is one :func:`~smallscat.background.point_source_sum` of the charges,
a hard solve's dipoles, and the induced cover monopoles a medium solve stores.

Every system is built once and solved by GMRES with a checked residual
(:func:`~smallscat.lattice.solve_checked`): the monopole kernel as a packed
symmetric :class:`CloudKernel`, plus in a medium the cover monopoles each
particle induces, and the 5M hard system matrix-free (:func:`hard_cloud_system`,
a few scalar arrays per pair).  A medium enters only through ``scene.background``.
Solution objects are immutable and hold no evaluator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import zspmv
from scipy.spatial.distance import cdist

from . import background
from .background import GreenEvaluator, cell_self_green, free_space_green, point_green
from .core import Hard, Impedance, IncidentWave, Particle, Scene, validate_scene
from .errors import (GridTooLarge, MissingFunctional, PointInsideParticle, RegimeViolation,
                     UnsupportedScene)
from .lattice import DEFAULT_RTOL, solve_checked

logger = logging.getLogger(__name__)

KERNEL_BYTES_BUDGET: int = 2 * 1024**3  # packed kernels to M of about 16 000
_HARD_BLOCK_ROWS: int = 96
_HARD_PAIR_BYTES: int = 64  # hard_cloud_system: 4 complex pair arrays, as much again per block


@dataclass(frozen=True)
class EffectiveFieldSolution:
    """Per-particle unknowns of a solved scene.

    ``values`` holds the self-consistent field at the centers; hard scenes
    also carry ``gradients`` (M, 3) and ``laplacians`` (M,).  ``charges`` are
    the monopole strengths Q_m, and ``dipoles`` (M, 3) the hard dipoles
    ``beta_m grad u(x_m) |D_m|``.  ``residual`` is the relative residual of
    the assembled system at the returned vector.  ``cover_charges`` (P,) are the
    monopoles induced on a medium's cover, ``None`` in free space and for hard solves.
    """

    kind: str
    values: np.ndarray
    charges: np.ndarray
    gradients: Optional[np.ndarray] = None
    laplacians: Optional[np.ndarray] = None
    dipoles: Optional[np.ndarray] = None
    cover_charges: Optional[np.ndarray] = None
    residual: float = 0.0
    method: str = "gmres"


@dataclass(frozen=True)
class FarField:
    """Scattering amplitudes along unit observation directions."""

    directions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.directions, dtype=float))
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if len(d) != len(a):
            raise ValueError("direction and amplitude counts differ")
        if np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) > 1e-12:
            raise ValueError("observation directions must be unit vectors")
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "amplitudes", a)


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors (golden-angle spiral)."""
    i = np.arange(n) + 0.5
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    dirs = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------
def pair_kernel_matrix(centers: np.ndarray, k: float,
                       greens: Optional[GreenEvaluator] = None) -> np.ndarray:
    """Dense reference ``G`` between all center pairs, zero diagonal; no solver calls it."""
    out = point_green(k, centers, centers)[0]
    if greens is not None and not greens.is_free_space:
        cover = point_green(k, centers, greens.grid.centers, cell_self_green(greens.grid))[0]
        out += cover @ greens.cover_responses(centers)
        np.fill_diagonal(out, 0.0)
    return out


def _check_budget(nbytes: int, what: str) -> None:
    """Raise GridTooLarge before ``nbytes`` of kernel arrays above the budget are allocated."""
    if nbytes > KERNEL_BYTES_BUDGET:
        raise GridTooLarge(f"{what} needs {nbytes / 1024**3:.2f} GiB, "
                           f"above the {KERNEL_BYTES_BUDGET / 1024**3:.2f} GiB budget")


def _packed_blocks(centers: np.ndarray, k: float, packed: Optional[np.ndarray] = None):
    """Upper triangle of the zero-diagonal free-space kernel, by column blocks.

    Yields ``(j0, j1, upper, values)``: rows ``0..j`` of columns ``j0..j1-1``
    in BLAS packed order (from position ``j0 (j0 + 1) / 2``), and their mask
    in the transposed ``(j1 - j0, j1)`` block of at most ``_BLOCK_ENTRIES``.
    With ``packed`` the values are written into it and ``values`` is its slice.
    """
    m = len(centers)
    j0 = 0
    while j0 < m:
        width = int((np.sqrt(j0 * j0 + 4.0 * background._BLOCK_ENTRIES) - j0) / 2.0)
        j1 = min(m, j0 + max(width, 1))
        cols = np.arange(j0, j1)
        upper = np.arange(j1)[None, :] <= cols[:, None]
        r = cdist(centers[j0:j1], centers[:j1])[upper]
        diagonal = (cols * (cols + 3) - j0 * (j0 + 1)) // 2
        r[diagonal] = 1.0
        start = j0 * (j0 + 1) // 2
        values = free_space_green(k, r, None if packed is None else packed[start:start + len(r)])
        values[diagonal] = 0.0
        yield j0, j1, upper, values
        j0 = j1


class CloudKernel:
    """Zero-diagonal free-space kernel ``g(|x_i - x_j|)`` between cloud centers.

    The kernel is complex symmetric, so only its upper triangle is evaluated,
    ``M (M + 1) / 2`` values packed column by column, and ``@`` applies it with
    BLAS ``zspmv``.  When the packed triangle (``8 M (M + 1)`` bytes) exceeds
    ``KERNEL_BYTES_BUDGET`` the same column blocks are recomputed on every
    product instead of stored.
    """

    def __init__(self, centers: np.ndarray, k: float):
        self.centers = np.asarray(centers, dtype=float)
        self.k = float(k)
        m = len(self.centers)
        self.packed: Optional[np.ndarray] = None
        if 8 * m * (m + 1) <= KERNEL_BYTES_BUDGET:
            self.packed = np.empty(m * (m + 1) // 2, dtype=complex)
            for _ in _packed_blocks(self.centers, self.k, self.packed):
                pass  # each block is written into packed as it is made

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if self.packed is not None:
            return zspmv(len(v), 1.0, self.packed, v)
        out = np.zeros(len(v), dtype=complex)
        for j0, j1, upper, values in _packed_blocks(self.centers, self.k):
            block = np.zeros(upper.shape, dtype=complex)
            block[upper] = values
            out[:j1] += block.T @ v[j0:j1]
            out[j0:j1] += block @ v[:j1]
        return out


def monopole_coupling(particles: Sequence[Particle]) -> np.ndarray:
    """Per-particle monopole coupling: C_m (soft) or h_m b_m a^(2-kappa) (impedance)."""
    if any(isinstance(p.bc, Hard) for p in particles):
        raise ValueError("hard particles carry no monopole coupling")
    return np.array([p.bc.h * p.surface_factor * p.a ** (2.0 - p.bc.kappa)
                     if isinstance(p.bc, Impedance) else p.capacitance
                     for p in particles], dtype=complex)


def _check_regime(scene: Scene, validate: bool) -> None:
    if not validate:
        return
    report = validate_scene(scene)
    if not report.accepted:
        raise RegimeViolation("; ".join(report.violations))


def solve_monopole_system(centers: np.ndarray, k: float, coupling: np.ndarray,
                          rhs: np.ndarray, *, rtol: float = DEFAULT_RTOL,
                          greens: Optional[GreenEvaluator] = None):
    """Solve ``u_j + sum_{m != j} G(x_j, x_m) coupling_m u_m = rhs_j`` by GMRES.

    ``G`` is ``g`` (a :class:`CloudKernel`), plus in a medium the cover monopoles
    ``R`` (P, M) of unit charges at the centers, summed there by ``A = g(X, Z)``,
    less the smooth self term ``(A R)_jj``.  Returns ``(u, residual)`` of
    :func:`~smallscat.lattice.solve_checked` and the induced cover monopoles
    ``-R (coupling u)`` (``None`` in free space); raises SolveFailure above
    ``rtol`` and GridTooLarge if ``A`` and ``R`` exceed ``KERNEL_BYTES_BUDGET``.
    """
    kernel = CloudKernel(centers, k)
    if greens is None:
        return (*solve_checked(lambda v: v + kernel @ (coupling * v), rhs, rtol), None)
    _check_budget(32 * greens.grid.n_cells * len(centers), "medium cover sources")
    a = point_green(k, centers, greens.grid.centers, cell_self_green(greens.grid))[0]
    rc = greens.cover_responses(centers) * coupling  # R diag(coupling)
    own = np.einsum("jp,pj->j", a, rc)
    u, residual = solve_checked(lambda v: v + kernel @ (coupling * v) + a @ (rc @ v) - own * v,
                                rhs, rtol)
    return u, residual, -(rc @ u)


def _scene_greens(scene: Scene) -> Optional[GreenEvaluator]:
    """The evaluator of a non-uniform scene background; ``None`` in free space."""
    if scene.background is None or scene.background.uniform_one:
        return None
    return GreenEvaluator(scene.background, k=scene.wave.k)


def _solve_monopole_scene(scene: Scene, expected_kind, rtol, validate) -> EffectiveFieldSolution:
    kind = scene.boundary_kind()
    if kind != expected_kind:
        raise ValueError(f"expected an all-{expected_kind} scene, got {kind}")
    _check_regime(scene, validate)
    coupling = monopole_coupling(scene.particles)
    u, residual, cover_charges = solve_monopole_system(
        scene.centers, scene.wave.k, coupling, scene.wave.field_at(scene.centers), rtol=rtol,
        greens=_scene_greens(scene))
    logger.info("solved %s scene: M=%d residual=%.2e", kind, len(u), residual)
    return EffectiveFieldSolution(kind=kind, values=u, charges=-coupling * u,
                                  cover_charges=cover_charges, residual=residual)


def solve_soft(scene: Scene, *, rtol: float = DEFAULT_RTOL,
               validate: bool = True) -> EffectiveFieldSolution:
    """Self-consistent field for an all-soft scene; ``Q_m = -C_m u(x_m)``."""
    return _solve_monopole_scene(scene, "soft", rtol, validate)


def solve_impedance(scene: Scene, *, rtol: float = DEFAULT_RTOL,
                    validate: bool = True) -> EffectiveFieldSolution:
    """Self-consistent field for an all-impedance scene.

    ``Q_m = -h(x_m) a^(2-kappa) b_m u(x_m)`` with ``b_m = |S_m| / a^2``.
    """
    return _solve_monopole_scene(scene, "impedance", rtol, validate)


# ---------------------------------------------------------------------------
# Hard particles: coupled value / gradient / Laplacian system
# ---------------------------------------------------------------------------
def dipole_kernel_blocks(targets: np.ndarray, sources: np.ndarray, k: float):
    """Analytic kernel blocks between target and source points.

    For ``F0 = g(r)`` and ``Fp = g(r) rhat_p`` (``rhat`` from source to
    target) returns, with pair axes (t, s):

      g        (t, s)        gradient   dg (t, s, 3)      lap_g  = -k^2 g
      gp       (t, s, 3)     gradient   dgp (t, s, 3, 3)  [deriv axis first]
      lap_gp   (t, s, 3)  =  -(k^2 + 2/r^2) g rhat_p

    Pairs at zero distance get zero blocks (callers mask the diagonal).
    """
    diff = targets[:, None, :] - sources[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    zero = r == 0.0
    r_safe = np.where(zero, 1.0, r)
    rhat = diff / r_safe[..., None]
    g = free_space_green(k, r_safe)
    g[zero] = 0.0
    gprime = (1j * k - 1.0 / r_safe) * g
    dg = gprime[..., None] * rhat
    gp = g[..., None] * rhat
    eye = np.eye(3)
    dgp = (gprime[..., None, None] * rhat[..., :, None] * rhat[..., None, :]
           + (g / r_safe)[..., None, None]
           * (eye[None, None] - rhat[..., :, None] * rhat[..., None, :]))
    lap_g = -(k**2) * g
    lap_gp = -((k**2) + 2.0 / r_safe**2)[..., None] * gp
    return g, gp, dg, dgp, lap_g, lap_gp


def assemble_hard_system(centers: np.ndarray, k: float, lap_weights: np.ndarray,
                         dipole_weights: np.ndarray) -> np.ndarray:
    """System matrix coupling (values, gradients, Laplacians) at the centers.

    ``lap_weights[m]`` multiplies the source Laplacian (particle volume, or
    cell volume times a volume-fraction sample); ``dipole_weights[m]`` is the
    3x3 dipole strength (polarizability times volume, or a dipole-density
    sample times cell volume).  Unknown layout: values, then gradients
    (m-major, component-minor), then Laplacians.  Raises GridTooLarge if the
    dense ``5M x 5M`` matrix exceeds ``KERNEL_BYTES_BUDGET`` (M above about 2300).

    This is the dense reference: no solver calls it (:func:`solve_hard` runs
    :func:`hard_cloud_system`, the lattice solve
    :func:`~smallscat.homogenize.hard_limit_system`); tests compare both
    operators against it.
    """
    m = len(centers)
    ik = 1j * k
    n = 5 * m
    _check_budget(16 * n * n, f"dense hard system of {n} unknowns")
    a = np.zeros((n, n), dtype=complex)
    for j0 in range(0, m, _HARD_BLOCK_ROWS):
        j1 = min(j0 + _HARD_BLOCK_ROWS, m)
        g, gp, dg, dgp, lap_g, lap_gp = dipole_kernel_blocks(centers[j0:j1], centers, k)
        # dipole columns: contract the direction index with the per-source tensor
        vg = ik * np.einsum("jmp,mpq->jmq", gp, dipole_weights)
        gg = ik * np.einsum("jmsp,mpq->jmsq", dgp, dipole_weights)
        lg = ik * np.einsum("jmp,mpq->jmq", lap_gp, dipole_weights)
        val_rows = slice(j0, j1)
        grad_rows = slice(m + 3 * j0, m + 3 * j1)
        lap_rows = slice(4 * m + j0, 4 * m + j1)
        a[val_rows, 4 * m:] = -g * lap_weights[None, :]
        a[val_rows, m:4 * m] = (-vg).reshape(-1, 3 * m)
        a[grad_rows, m:4 * m] = (-gg).transpose(0, 2, 1, 3).reshape(-1, 3 * m)
        a[grad_rows, 4 * m:] = (-(dg * lap_weights[None, :, None])
                                .transpose(0, 2, 1).reshape(-1, m))
        a[lap_rows, m:4 * m] = (-lg).reshape(-1, 3 * m)
        a[lap_rows, 4 * m:] = -(lap_g * lap_weights[None, :])
    # self pairs carry zero kernel blocks, so the diagonal is the identity
    a.flat[::n + 1] += 1.0
    return a


def hard_system_apply(lap_weights: np.ndarray, dipole_weights: np.ndarray, fields):
    """``x -> A x`` of a 5M hard system, given the fields of its sources.

    ``x`` holds values, gradients (m-major) and Laplacians.  Each product
    forms the monopole ``lap_weights * lap u`` and the dipole
    ``dipole_weights @ grad u`` of every source and returns ``x`` minus
    ``fields(monopoles, dipoles)``: the (M,) value, (M, 3) gradient and (M,)
    Laplacian of all sources, summed at every center with its own excluded.
    """
    m = len(lap_weights)

    def apply(x: np.ndarray) -> np.ndarray:
        monopoles = lap_weights * x[4 * m:]
        dipoles = np.einsum("mpq,mq->mp", dipole_weights, x[m:4 * m].reshape(m, 3))
        value, gradient, laplacian = fields(monopoles, dipoles)
        return x - np.concatenate([value, gradient.ravel(), laplacian])

    return apply


def _radial_factors(g: np.ndarray, r: np.ndarray, k: float):
    """``g/r``, ``g'/r`` and ``radial = (g' - g/r)/r^2`` of ``g(r)``; ``r`` becomes ``1/r``.

    With ``D = r rhat``, ``d_s(g rhat_p) = radial D_s D_p + (g/r) delta_sp`` and
    ``lap(g rhat) = (radial + ik g'/r) D``.  Only the three results are allocated.
    """
    inv_r = np.reciprocal(r, out=r)
    g_r = g * inv_r
    gp_r = g_r * (1j * k)
    radial = g_r * inv_r
    gp_r -= radial
    np.subtract(gp_r, radial, out=radial)
    radial *= inv_r
    return g_r, gp_r, radial


def hard_cloud_system(centers: np.ndarray, k: float, lap_weights: np.ndarray,
                      dipole_weights: np.ndarray):
    """Matrix-free form of :func:`assemble_hard_system` for a particle cloud.

    Returns ``x -> A x`` through :func:`hard_system_apply`.  It stores ``g`` and
    the :func:`_radial_factors` of every pair, four complex symmetric arrays with
    zero diagonals.  With ``X`` centered on the centroid a pair sum
    ``sum_m f_im (X_i - X_m) c_m`` is ``X_i (f @ c) - f @ (X c)``, so a product is
    four BLAS products with source columns and allocates nothing per pair.  The
    arrays are filled by row blocks of at most ``_BLOCK_ENTRIES`` pairs, so ``r``
    never exists whole.  Raises GridTooLarge before allocating if ``_HARD_PAIR_BYTES``
    per pair, stored or in a block, exceed ``KERNEL_BYTES_BUDGET`` (M above about 5790).
    """
    m = len(centers)
    rows = max(1, background._BLOCK_ENTRIES // max(m, 1))
    _check_budget(_HARD_PAIR_BYTES * m * (m + min(m, rows)), f"hard operator of {m} particles")
    x = centers - np.mean(centers, axis=0)
    g, g_r, gp_r, radial = (np.empty((m, m), dtype=complex) for _ in range(4))
    for i0 in range(0, m, rows):
        block = slice(i0, i0 + rows)
        g[block], r = point_green(k, x[block], x)
        g_r[block], gp_r[block], radial[block] = _radial_factors(g[block], r, k)

    def fields(monopoles: np.ndarray, dipoles: np.ndarray):
        d = 1j * k * dipoles
        dx = np.column_stack([d, np.einsum("mp,mp->m", x, d)])
        mono = g @ monopoles
        pm = gp_r @ np.column_stack([monopoles, monopoles[:, None] * x, dx])
        rd = radial @ np.column_stack([dx, (x[:, :, None] * dx[:, None, :]).reshape(m, 12)])
        # a 4-column block f @ [c, X.c] gives arm = sum_m f_im (X_i - X_m).c_m, for c = d, X_s d
        sums = np.hstack([g_r @ dx, pm[:, 4:], rd]).reshape(m, 6, 4)
        arm = np.einsum("mp,mbp->mb", x, sums[..., :3]) - sums[..., 3]
        value = mono + arm[:, 0]
        gradient = x * (pm[:, :1] + arm[:, 2:3]) - pm[:, 1:4] - arm[:, 3:] + sums[:, 0, :3]
        laplacian = -(k**2) * mono + arm[:, 2] + 1j * k * arm[:, 1]
        return value, gradient, laplacian

    return hard_system_apply(lap_weights, dipole_weights, fields)


def hard_rhs(wave: IncidentWave, points: np.ndarray) -> np.ndarray:
    """Incident field, gradient and Laplacian at the points, in the 5M unknown layout."""
    return np.concatenate([wave.field_at(points), wave.gradient_at(points).ravel(),
                           wave.laplacian_at(points)])


def solve_hard(scene: Scene, *, rtol: float = DEFAULT_RTOL,
               validate: bool = True) -> EffectiveFieldSolution:
    """Coupled 5M solve for an all-hard scene.

    Unknowns are the field, its gradient, and its Laplacian at every center;
    ``Q_m = (lap u)(x_m) |D_m|``.  Requires every particle to carry a
    polarizability tensor.  GMRES runs on the matrix-free
    :func:`hard_cloud_system`; raises GridTooLarge if its pair arrays exceed
    ``KERNEL_BYTES_BUDGET`` and UnsupportedScene in a non-uniform background.
    """
    if scene.boundary_kind() != "hard":
        raise ValueError(f"expected an all-hard scene, got {scene.boundary_kind()}")
    if scene.background is not None and not scene.background.uniform_one:
        raise UnsupportedScene("hard solves support the free-space kernel only")
    _check_regime(scene, validate)
    for i, p in enumerate(scene.particles):
        if p.polarizability is None:
            raise MissingFunctional(f"particle {i} lacks a polarizability tensor")

    centers = scene.centers
    m = len(centers)
    volumes = np.array([p.volume for p in scene.particles])
    betas = np.array([p.polarizability for p in scene.particles])
    dipole_weights = betas * volumes[:, None, None]
    system = hard_cloud_system(centers, scene.wave.k, volumes, dipole_weights)
    x, residual = solve_checked(system, hard_rhs(scene.wave, centers), rtol)
    gradients = x[m:4 * m].reshape(m, 3)
    laplacians = x[4 * m:]
    logger.info("solved hard scene: M=%d residual=%.2e", m, residual)
    return EffectiveFieldSolution(kind="hard", values=x[:m], charges=laplacians * volumes,
                                  gradients=gradients, laplacians=laplacians,
                                  dipoles=np.einsum("mpq,mq->mp", dipole_weights, gradients),
                                  residual=residual)


# ---------------------------------------------------------------------------
# Field evaluation and far field
# ---------------------------------------------------------------------------
def _monopoles(solution: EffectiveFieldSolution, scene: Scene):
    """Positions, charges and :func:`point_green` self values: particles, then cover sources."""
    greens = _scene_greens(scene)
    if (greens is None) != (solution.cover_charges is None):
        raise UnsupportedScene("the solution was not solved in the scene's medium")
    if greens is None:
        return scene.centers, solution.charges, 0.0
    return (np.vstack([scene.centers, greens.grid.centers]),
            np.concatenate([solution.charges, solution.cover_charges]),
            np.repeat([0.0, cell_self_green(greens.grid)], [scene.n_particles, greens.grid.n_cells]))


def source_field(solution: EffectiveFieldSolution, scene: Scene, points: np.ndarray,
                 exclude_cells: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """``u0`` plus the point sources of a solved scene, summed at ``points``.

    ``exclude_cells`` is a cell index per point and per particle; a particle in
    its point's cell is left out, cover sources never are.
    """
    return scene.wave.field_at(points) + background.point_source_sum(
        scene.wave.k, points, *_monopoles(solution, scene), solution.dipoles, exclude_cells)


def eval_field(solution: EffectiveFieldSolution, scene: Scene, points: np.ndarray) -> np.ndarray:
    """Total field at points outside every particle's exclusion ball.

    The :func:`source_field` of the solution at every point.  The
    higher-order remainder is dropped; no self-term correction is applied.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = max(1, background._BLOCK_ENTRIES // max(scene.n_particles, 1))
    for t0 in range(0, len(pts), rows):
        inside = cdist(pts[t0:t0 + rows], scene.centers) < scene.radii[None, :]
        if np.any(inside):
            i, j = np.argwhere(inside)[0]
            raise PointInsideParticle(f"point {t0 + i} lies inside particle {j}")
    return source_field(solution, scene, pts)


def far_field(solution: EffectiveFieldSolution, scene: Scene,
              directions: Sequence[np.ndarray]) -> FarField:
    """Scattering amplitudes ``A(beta) = (1/4pi) sum_m exp(-ik beta.x_m) S_m``.

    The sum runs over :func:`_monopoles`, so a medium's induced cover sources
    radiate too; a dipole's direction factor enters at its far-field limit
    ``beta``.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    k = scene.wave.k
    positions, charges, _ = _monopoles(solution, scene)
    phases = np.exp(-1j * k * dirs @ positions.T)
    amps = phases @ charges
    if solution.dipoles is not None:
        amps += 1j * k * np.einsum("bp,mp,bm->b", dirs, solution.dipoles, phases)
    return FarField(directions=dirs, amplitudes=amps / (4.0 * np.pi))
