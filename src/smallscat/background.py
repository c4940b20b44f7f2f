"""Green's function for a variable-index background medium.

The medium has refraction coefficient ``n0^2(x)`` inside a box ``D`` and 1
outside.  Its outgoing Green's function ``G(x, y)`` solves

    G(., y) = g(., y) + k^2 * integral_D g(., z) (n0^2(z) - 1) G(z, y) dz

with ``g(r) = exp(ikr) / (4 pi r)``.  The volume integral is discretized on a
cube cover of ``D`` (midpoint rule; the self cell uses the mean-value integral
of the static ``1/(4 pi r)`` kernel).  The discrete kernel is translation
invariant on the cover, so it is applied matrix-free by zero-padded FFT
(:class:`~smallscat.lattice.LatticeOperator`), and the discrete equation is
solved by a truncated series or fixed-point iteration once per source
(:meth:`GreenEvaluator.cover_responses`).  No read-out solves: each is one blocked
:func:`point_source_sum`, whose :func:`point_green` gives a cover center its cell's diagonal.

With ``n0^2 == 1`` the evaluator degenerates to the free-space kernel exactly
(same code path, bit for bit).  Evaluators are immutable after construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NonConvergence
from .fields import ScalarField, probe_points
from .grids import Box, GridCover
from .lattice import DEFAULT_RTOL, LatticeOperator, solve_checked

logger = logging.getLogger(__name__)

_LS_MAX_ITER: int = 200
_BLOCK_ENTRIES: int = 1 << 16
DEFAULT_GRID_N: int = 8  # cells per axis of a medium's cover


def free_space_green(k: float, r: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Outgoing free-space kernel ``exp(ikr) / (4 pi r)``, into ``out`` if given.

    ``cos(kr)`` and ``sin(kr)`` go straight into the real and imaginary parts,
    which are then scaled by ``1 / (4 pi r)``: the same bits as the complex
    ``exp`` and division (which multiplies by that reciprocal), with one real
    temporary instead of three complex ones.  A scalar ``r`` gives a scalar.
    """
    r = np.asarray(r, dtype=float)
    g = np.empty(r.shape, dtype=complex) if out is None else out
    kr = np.multiply(k, r, out=np.empty(r.shape))
    np.cos(kr, out=g.real)
    np.sin(kr, out=g.imag)
    scale = np.reciprocal(np.multiply(4.0 * np.pi, r, out=kr), out=kr)
    g.real *= scale
    g.imag *= scale
    return g[()] if out is None and g.ndim == 0 else g


def point_green(k: float, targets: np.ndarray, sources: np.ndarray, self_value=0.0,
                out: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``g(x, y)`` and ``r`` for every target ``x`` and source ``y``, shape (T, S).

    Where a target meets a source, ``g`` is that source's ``self_value`` (0
    for a particle, :func:`cell_self_green` for a cover center) and ``r`` is 1.
    ``g`` goes into ``out`` if given.
    """
    r = cdist(targets, sources)
    coincident = r == 0.0
    r[coincident] = 1.0
    g = free_space_green(k, r, out=out)
    g[coincident] = np.broadcast_to(self_value, g.shape)[coincident]
    return g, r


def point_source_sum(k: float, targets: np.ndarray, sources: np.ndarray, charges: np.ndarray,
                     self_values=0.0, dipoles=None, exclude_cells=None) -> np.ndarray:
    """``sum_m g(x, y_m) q_m`` at every target ``x``, by blocks of ``_BLOCK_ENTRIES`` pairs.

    ``self_values`` as in :func:`point_green`; ``dipoles`` (S, 3) add ``ik (g / r) (x - y_m).d_m``;
    ``exclude_cells`` (cells of the targets and of the first E sources) drops same-cell pairs.
    """
    out = np.empty(len(targets), dtype=complex)
    rows = max(1, _BLOCK_ENTRIES // max(len(sources), 1))
    for t0 in range(0, len(targets), rows):
        block = slice(t0, t0 + rows)
        g, r = point_green(k, targets[block], sources, self_values)
        if exclude_cells is not None:
            target_cells, source_cells = exclude_cells
            g[:, :len(source_cells)][target_cells[block, None] == source_cells[None, :]] = 0.0
        out[block] = np.einsum("xm,m->x", g, charges)
        if dipoles is not None:
            arm = np.einsum("xmp,mp->xm", targets[block, None] - sources, dipoles)
            out[block] += 1j * k * np.einsum("xm,xm->x", g / r, arm)
    return out


def cell_self_green(cover: GridCover) -> float:
    """Mean of ``1/(4 pi r)`` over one cell: the kernel's value where a cell meets itself."""
    return cover.self_green_integral() / cover.cell_volume


@dataclass(frozen=True)
class BackgroundMedium:
    """Refraction coefficient ``n0^2(x)`` on a box, equal to 1 outside it.

    Raises ValueError if ``Im n0^2 < 0`` anywhere on the probe lattice.
    """

    n2: ScalarField
    box: Box
    n0_max: float = field(init=False)
    uniform_one: bool = field(init=False)

    def __post_init__(self):
        samples = self.n2.sample(probe_points(self.box))
        if np.min(np.imag(samples)) < -1e-12:
            raise ValueError("background medium must have Im n0^2 >= 0")
        n0_max = max(float(np.max(np.sqrt(np.abs(samples)))), 1.0)
        uniform = bool(np.all(samples == 1.0 + 0.0j))
        object.__setattr__(self, "n0_max", n0_max)
        object.__setattr__(self, "uniform_one", uniform)

    def contrast(self, points: np.ndarray) -> np.ndarray:
        """``n0^2(x) - 1`` with zero imposed outside the box."""
        chi = np.asarray(self.n2.sample(points), dtype=complex) - 1.0
        chi[~self.box.contains(points)] = 0.0
        return chi


def medium_kernel(cover: GridCover, k: float, chi: np.ndarray) -> LatticeOperator:
    """``v -> k^2 sum_p g(z_q - z_p) chi_p |cell| v_p`` on the cover, self cell kept."""
    return LatticeOperator(cover, lambda d: free_space_green(k, np.linalg.norm(d, axis=1)),
                           self_value=cell_self_green(cover),
                           weights=(k**2) * chi * cover.cell_volume)


def born_series(kernel, rhs: np.ndarray, order: int) -> np.ndarray:
    """Truncated series ``sum_{n<=order} kernel^n rhs``."""
    term = rhs
    out = rhs.copy()
    for _ in range(order):
        term = kernel @ term
        out = out + term
    return out


def fixed_point_solve(kernel, rhs: np.ndarray, tol: float,
                      max_iter: int = _LS_MAX_ITER) -> np.ndarray:
    """Iterate ``u <- rhs + kernel u`` from ``u = rhs``.

    ``kernel`` is anything with ``@``: a matrix or a
    :class:`~smallscat.lattice.LatticeOperator`.  One iteration reproduces
    :func:`born_series` at order 1 exactly.  Raises NonConvergence when the
    update norm grows persistently or the iteration cap is hit.
    """
    u = rhs.copy()
    prev_delta = np.inf
    growth = 0
    for iteration in range(1, max_iter + 1):
        u_next = rhs + kernel @ u
        delta = float(np.linalg.norm(u_next - u))
        scale = float(np.linalg.norm(u_next))
        u = u_next
        if delta <= tol * max(scale, 1e-300):
            return u
        growth = growth + 1 if delta > prev_delta else 0
        if growth >= 5:
            raise NonConvergence(
                f"fixed-point iteration diverging (update norm {delta:.3e} "
                f"growing at iteration {iteration})"
            )
        prev_delta = delta
    raise NonConvergence(f"fixed-point iteration did not reach tol={tol} in {max_iter} steps")


class GreenEvaluator:
    """Kernel evaluator for a background medium.

    Parameters
    ----------
    medium : BackgroundMedium or None
        ``None`` means free space, whatever the method.
    k : float
        Wave number.
    grid_n : int
        Cells per axis of the quadrature cover of the medium box.
    method : "auto" | "free_space" | ("born", order) | ("lippmann_schwinger", tol)
        ``auto`` picks free space iff the medium is uniformly 1, else the
        fixed-point evaluation at tolerance ``DEFAULT_RTOL``.
    """

    def __init__(self, medium: Optional[BackgroundMedium], k: float, grid_n: int = DEFAULT_GRID_N,
                 method="auto"):
        self.medium = medium
        self.k = float(k)
        uniform = medium is None or medium.uniform_one
        if method == "auto":
            method = "free_space" if uniform else ("lippmann_schwinger", DEFAULT_RTOL)
        if method == "free_space" and not uniform:
            raise ValueError("free_space method requires n0^2 == 1")
        self.method = method
        if method == "free_space" or medium is None:
            self.grid: Optional[GridCover] = None
            return
        self.grid = GridCover.from_shape(medium.box, grid_n)
        chi = medium.contrast(self.grid.centers)
        self._kernel = medium_kernel(self.grid, self.k, chi)
        self._chi_w = chi * self.grid.cell_volume

    @property
    def is_free_space(self) -> bool:
        return self.grid is None

    def _grid_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(I - K)^{-1} rhs`` on the cover, by the evaluator's method."""
        if self.method[0] == "born":
            return born_series(self._kernel, rhs, int(self.method[1]))
        return fixed_point_solve(self._kernel, rhs, float(self.method[1]))

    def pair_values(self, targets: np.ndarray, source: np.ndarray) -> np.ndarray:
        """``G(x, y)`` for all targets ``x`` and one source ``y``."""
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        source = np.asarray(source, dtype=float).reshape(3)
        r = np.linalg.norm(targets - source, axis=1)
        if np.any(r <= 0):
            raise ValueError("green requires x != y")
        base = free_space_green(self.k, r)
        if self.is_free_space:
            return base
        return base + point_source_sum(self.k, targets, self.grid.centers,
                                       self.cover_responses(source[None, :])[:, 0],
                                       cell_self_green(self.grid))

    def cover_responses(self, sources: np.ndarray) -> np.ndarray:
        """Cover monopoles ``R`` (P, S) a unit charge at each source ``y_m`` induces.

        ``R[:, m] = k^2 chi |cell| (I - K)^{-1} g(Z, y_m)``, one grid solve per
        source, so ``(G - g)(x, y_m) = sum_p g(x, z_p) R[p, m]``.
        """
        out = point_green(self.k, self.grid.centers, sources, cell_self_green(self.grid))[0]
        for m in range(out.shape[1]):
            out[:, m] = self._grid_solve(out[:, m])
        return (self.k**2) * self._chi_w[:, None] * out


def green(evaluator: GreenEvaluator, x: np.ndarray, y: np.ndarray) -> complex:
    """Single-pair kernel value ``G(x, y)``."""
    return complex(evaluator.pair_values(np.asarray(x, dtype=float)[None, :], y)[0])


def scattered_plane_wave(chi_values: np.ndarray, cover: GridCover, k: float,
                         alpha: np.ndarray, amplitude: complex = 1.0 + 0.0j,
                         points: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Plane-wave field in the medium ``u = u0 + k^2 int g chi u``.

    The grid system (self cell retained via the mean-value integral) is
    solved by GMRES on the FFT lattice operator, with its relative residual
    checked against ``1e-10``.  Returns ``(u_grid, u_points)`` where
    ``u_grid`` holds values on the cover centers and ``u_points`` the
    representation evaluated at optional extra points.  Used as an
    independent grid reference for the collocation machinery.
    """
    z = cover.centers
    chi = np.asarray(chi_values, dtype=complex).reshape(len(z))
    kernel = medium_kernel(cover, k, chi)
    alpha = np.asarray(alpha, dtype=float).reshape(3)
    u0 = amplitude * np.exp(1j * k * z @ alpha)
    u_grid, _ = solve_checked(lambda v: v - kernel @ v, u0, DEFAULT_RTOL)
    if points is None:
        return u_grid, u_grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return u_grid, amplitude * np.exp(1j * k * pts @ alpha) \
        + point_source_sum(k, pts, z, kernel.weights * u_grid, cell_self_green(cover))
