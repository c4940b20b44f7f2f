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
oracles, never in assembly).  Self interaction is excluded by construction.

Solvers run dense below ``DIRECT_THRESHOLD`` unknowns and switch to a
matrix-free Krylov iteration above it.  Assembly is vectorized over pairs;
solution objects are immutable after the solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres
from scipy.spatial.distance import cdist

from .background import GreenEvaluator, free_space_green
from .core import Scene, validate_scene
from .errors import MissingFunctional, PointInsideParticle, RegimeViolation, SolveFailure
from .lattice import DEFAULT_RTOL

logger = logging.getLogger(__name__)

DIRECT_THRESHOLD: int = 4096


@dataclass(frozen=True)
class EffectiveFieldSolution:
    """Per-particle unknowns of a solved scene.

    ``values`` holds the self-consistent field at the centers; hard scenes
    also carry ``gradients`` (M, 3) and ``laplacians`` (M,).  ``charges`` are
    the monopole strengths Q_m.  ``residual`` is the relative residual of the
    assembled system at the returned vector.  ``greens`` is the background
    evaluator the solve used (``None`` for free space); :func:`eval_field`
    reuses it, with its per-source grid solutions.
    """

    kind: str
    values: np.ndarray
    charges: np.ndarray
    gradients: Optional[np.ndarray] = None
    laplacians: Optional[np.ndarray] = None
    residual: float = 0.0
    method: str = "direct"
    greens: Optional[GreenEvaluator] = field(default=None, compare=False, repr=False)


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
    """Kernel values between all center pairs, zero on the diagonal."""
    m = len(centers)
    if greens is None or greens.is_free_space:
        r = cdist(centers, centers)
        np.fill_diagonal(r, 1.0)
        out = free_space_green(k, r)
        np.fill_diagonal(out, 0.0)
        return out
    out = np.zeros((m, m), dtype=complex)
    for col in range(m):
        rows = np.arange(m) != col
        out[rows, col] = greens.pair_values(centers[rows], centers[col])
    return out


def _coupling(scene: Scene) -> np.ndarray:
    """Per-particle monopole coupling: C_m (soft) or h_m b_m a^(2-kappa)."""
    kind = scene.boundary_kind()
    if kind == "soft":
        return np.array([p.capacitance for p in scene.particles], dtype=complex)
    if kind == "impedance":
        return np.array([
            p.bc.h * p.surface_factor * p.a ** (2.0 - p.bc.kappa) for p in scene.particles
        ], dtype=complex)
    raise ValueError(f"no monopole coupling for boundary kind {kind!r}")


def _check_regime(scene: Scene, validate: bool) -> None:
    if not validate:
        return
    report = validate_scene(scene)
    if not report.accepted:
        raise RegimeViolation("; ".join(report.violations))


def _chunked_kernel_apply(centers: np.ndarray, k: float, weighted: np.ndarray,
                          chunk: int = 1024) -> np.ndarray:
    """``sum_m g(x_j, x_m) weighted_m`` with the diagonal excluded, O(chunk*M) memory."""
    m = len(centers)
    out = np.empty(m, dtype=complex)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        r = cdist(centers[start:stop], centers)
        rows = np.arange(start, stop)
        r[rows - start, rows] = 1.0
        block = free_space_green(k, r)
        block[rows - start, rows] = 0.0
        out[start:stop] = block @ weighted
    return out


def solve_monopole_system(centers: np.ndarray, k: float, coupling: np.ndarray,
                          rhs: np.ndarray, *, direct_threshold: int = DIRECT_THRESHOLD,
                          rtol: float = DEFAULT_RTOL,
                          greens: Optional[GreenEvaluator] = None):
    """Solve ``u_j + sum_{m != j} g(x_j, x_m) coupling_m u_m = rhs_j``.

    Dense direct below ``direct_threshold`` unknowns, otherwise a matrix-free
    Krylov iteration with chunked kernel application (free-space kernel only;
    a background kernel forces the dense path).  Returns ``(u, residual,
    method)``; raises SolveFailure if the relative residual exceeds ``rtol``.
    """
    m = len(rhs)
    free = greens is None or greens.is_free_space

    if m <= direct_threshold or not free:
        if m > direct_threshold:
            logger.warning("background kernel forces a dense solve at M=%d", m)
        kernel = pair_kernel_matrix(centers, k, greens)

        def apply_kernel(v):
            return kernel @ (coupling * v)

        system = kernel * coupling[None, :]
        system[np.diag_indices_from(system)] += 1.0
        try:
            u = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"dense solve failed: {exc}") from exc
        method = "direct"
    else:
        def apply_kernel(v):
            return _chunked_kernel_apply(centers, k, coupling * v)

        op = LinearOperator((m, m), matvec=lambda v: v + apply_kernel(v), dtype=complex)
        u, info = gmres(op, rhs, rtol=min(rtol * 1e-2, 1e-12), atol=0.0,
                        restart=80, maxiter=400)
        if info != 0:
            raise SolveFailure(f"gmres did not converge (info={info})")
        method = "gmres"

    residual = float(np.linalg.norm(rhs - (u + apply_kernel(u)))
                     / max(np.linalg.norm(rhs), 1e-300))
    if residual > rtol:
        raise SolveFailure(f"residual {residual:.3e} above tolerance {rtol:.1e}")
    return u, residual, method


def _scene_greens(scene: Scene, greens: Optional[GreenEvaluator]):
    """Explicit evaluator wins; otherwise a non-uniform scene background builds one."""
    if greens is not None:
        return greens
    if scene.background is None or scene.background.uniform_one:
        return None
    return GreenEvaluator(scene.background, k=scene.wave.k)


def _solve_monopole_scene(scene: Scene, expected_kind, direct_threshold, rtol, greens,
                          validate) -> EffectiveFieldSolution:
    kind = scene.boundary_kind()
    if kind != expected_kind:
        raise ValueError(f"expected an all-{expected_kind} scene, got {kind}")
    _check_regime(scene, validate)
    greens = _scene_greens(scene, greens)
    coupling = _coupling(scene)
    rhs = scene.wave.field_at(scene.centers)
    u, residual, method = solve_monopole_system(
        scene.centers, scene.wave.k, coupling, rhs,
        direct_threshold=direct_threshold, rtol=rtol, greens=greens,
    )
    charges = -coupling * u
    logger.info("solved %s scene: M=%d method=%s residual=%.2e", kind, len(u), method, residual)
    return EffectiveFieldSolution(kind=kind, values=u, charges=charges,
                                  residual=residual, method=method, greens=greens)


def solve_soft(scene: Scene, *, direct_threshold: int = DIRECT_THRESHOLD,
               rtol: float = DEFAULT_RTOL, greens: Optional[GreenEvaluator] = None,
               validate: bool = True) -> EffectiveFieldSolution:
    """Self-consistent field for an all-soft scene; ``Q_m = -C_m u(x_m)``."""
    return _solve_monopole_scene(scene, "soft", direct_threshold, rtol, greens, validate)


def solve_impedance(scene: Scene, *, direct_threshold: int = DIRECT_THRESHOLD,
                    rtol: float = DEFAULT_RTOL, greens: Optional[GreenEvaluator] = None,
                    validate: bool = True) -> EffectiveFieldSolution:
    """Self-consistent field for an all-impedance scene.

    ``Q_m = -h(x_m) a^(2-kappa) b_m u(x_m)`` with ``b_m = |S_m| / a^2``.
    """
    return _solve_monopole_scene(scene, "impedance", direct_threshold, rtol, greens, validate)


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
    (m-major, component-minor), then Laplacians.
    """
    m = len(centers)
    g, gp, dg, dgp, lap_g, lap_gp = dipole_kernel_blocks(centers, centers, k)
    ik = 1j * k
    # dipole columns: contract the direction index with the per-source tensor
    vg = ik * np.einsum("jmp,mpq->jmq", gp, dipole_weights)
    gg = ik * np.einsum("jmsp,mpq->jmsq", dgp, dipole_weights)
    lg = ik * np.einsum("jmp,mpq->jmq", lap_gp, dipole_weights)

    n = 5 * m
    a = np.zeros((n, n), dtype=complex)
    sl_val = slice(0, m)
    sl_lap = slice(4 * m, 5 * m)

    a[sl_val, sl_val] = np.eye(m)
    a[sl_val, sl_lap] = -g * lap_weights[None, :]
    a[sl_val, m:4 * m] = (-vg).reshape(m, 3 * m)

    grad_rows = (-gg).transpose(0, 2, 1, 3).reshape(3 * m, 3 * m)
    a[m:4 * m, m:4 * m] = grad_rows + np.eye(3 * m)
    a[m:4 * m, sl_lap] = (-(dg * lap_weights[None, :, None])
                          .transpose(0, 2, 1).reshape(3 * m, m))

    a[sl_lap, m:4 * m] = (-lg).reshape(m, 3 * m)
    a[sl_lap, sl_lap] = np.eye(m) - lap_g * lap_weights[None, :]
    return a


def solve_hard(scene: Scene, *, rtol: float = DEFAULT_RTOL,
               greens: Optional[GreenEvaluator] = None,
               validate: bool = True) -> EffectiveFieldSolution:
    """Coupled 5M solve for an all-hard scene.

    Unknowns are the field, its gradient, and its Laplacian at every center;
    ``Q_m = (lap u)(x_m) |D_m|``.  Requires every particle to carry a
    polarizability tensor.
    """
    if scene.boundary_kind() != "hard":
        raise ValueError(f"expected an all-hard scene, got {scene.boundary_kind()}")
    greens = _scene_greens(scene, greens)
    if greens is not None and not greens.is_free_space:
        raise NotImplementedError("hard solves support the free-space kernel only")
    _check_regime(scene, validate)
    for i, p in enumerate(scene.particles):
        if p.polarizability is None:
            raise MissingFunctional(f"particle {i} lacks a polarizability tensor")

    centers = scene.centers
    m = len(centers)
    volumes = np.array([p.volume for p in scene.particles])
    betas = np.array([p.polarizability for p in scene.particles])
    system = assemble_hard_system(centers, scene.wave.k, volumes,
                                  betas * volumes[:, None, None])
    rhs = np.concatenate([
        scene.wave.field_at(centers),
        scene.wave.gradient_at(centers).reshape(3 * m),
        scene.wave.laplacian_at(centers),
    ])
    try:
        x = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"hard dense solve failed: {exc}") from exc
    residual = float(np.linalg.norm(rhs - system @ x) / max(np.linalg.norm(rhs), 1e-300))
    if residual > rtol:
        raise SolveFailure(f"residual {residual:.3e} above tolerance {rtol:.1e}")
    values = x[:m]
    gradients = x[m:4 * m].reshape(m, 3)
    laplacians = x[4 * m:]
    charges = laplacians * volumes
    logger.info("solved hard scene: M=%d residual=%.2e", m, residual)
    return EffectiveFieldSolution(kind="hard", values=values, charges=charges,
                                  gradients=gradients, laplacians=laplacians,
                                  residual=residual, method="direct")


# ---------------------------------------------------------------------------
# Field evaluation and far field
# ---------------------------------------------------------------------------
def _hard_strengths(solution: EffectiveFieldSolution, scene: Scene):
    volumes = np.array([p.volume for p in scene.particles])
    betas = np.array([p.polarizability for p in scene.particles])
    dipoles = np.einsum("mpq,mq->mp", betas, solution.gradients) * volumes[:, None]
    return solution.laplacians * volumes, dipoles


def eval_field(solution: EffectiveFieldSolution, scene: Scene, points: np.ndarray,
               greens: Optional[GreenEvaluator] = None) -> np.ndarray:
    """Total field at points outside every particle's exclusion ball.

    Soft/impedance: ``u = u0 + sum_m g(x, x_m) Q_m``.  Hard: the monopole and
    the directed dipole term enter with the particle volume.  The higher-order
    remainder is dropped; no self-term correction is applied.  The kernel
    defaults to the evaluator the solve used (``solution.greens``).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centers = scene.centers
    if scene.n_particles == 0:
        return scene.wave.field_at(pts)
    greens = _scene_greens(scene, solution.greens if greens is None else greens)
    dist = cdist(pts, centers)
    inside = dist < scene.radii[None, :]
    if np.any(inside):
        i, j = np.argwhere(inside)[0]
        raise PointInsideParticle(f"point {i} lies inside particle {j}")
    u = scene.wave.field_at(pts)
    if solution.kind in ("soft", "impedance"):
        if greens is None or greens.is_free_space:
            u = u + free_space_green(scene.wave.k, dist) @ solution.charges
        else:
            for mcol in range(scene.n_particles):
                u = u + greens.pair_values(pts, centers[mcol]) * solution.charges[mcol]
        return u
    mono, dipoles = _hard_strengths(solution, scene)
    g, gp, *_ = dipole_kernel_blocks(pts, centers, scene.wave.k)
    ik = 1j * scene.wave.k
    return u + g @ mono + ik * np.einsum("xmp,mp->x", gp, dipoles)


def far_field(solution: EffectiveFieldSolution, scene: Scene,
              directions: Sequence[np.ndarray]) -> FarField:
    """Scattering amplitudes ``A(beta) = (1/4pi) sum_m exp(-ik beta.x_m) S_m``.

    ``S_m`` is the monopole charge for soft/impedance scenes; for hard scenes
    the dipole direction factor is evaluated at its far-field limit ``beta``.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    phases = np.exp(-1j * scene.wave.k * dirs @ scene.centers.T)
    if solution.kind in ("soft", "impedance"):
        amps = phases @ solution.charges / (4.0 * np.pi)
    else:
        mono, dipoles = _hard_strengths(solution, scene)
        ik = 1j * scene.wave.k
        amps = (phases @ mono + ik * np.einsum("bp,mp,bm->b", dirs, dipoles, phases)) \
            / (4.0 * np.pi)
    return FarField(directions=dirs, amplitudes=amps)
