"""Green's function for a variable-index background medium.

The medium has refraction coefficient ``n0^2(x)`` inside a box ``D`` and 1
outside.  Its outgoing Green's function ``G(x, y)`` solves

    G(., y) = g(., y) + k^2 * integral_D g(., z) (n0^2(z) - 1) G(z, y) dz

with ``g(r) = exp(ikr) / (4 pi r)``.  The volume integral is discretized on a
cube cover of ``D`` (midpoint rule; the self cell uses the mean-value integral
of the static ``1/(4 pi r)`` kernel).  The discrete kernel is translation
invariant on the cover, so it is applied matrix-free by zero-padded FFT
(:class:`~smallscat.lattice.LatticeOperator`).  The discrete equation
``(I - K) v = b`` is solved with its residual checked: one source by GMRES on that
FFT operator (:func:`~smallscat.lattice.solve_checked`, :class:`GreenEvaluator`), a
block of sources (:func:`cover_responses`, a cloud's) by one dense solve of ``I - K``.
The truncated series runs only where a method names it; :func:`fixed_point_solve` is
kept as a library function and no solve calls it.
No read-out solves: each is one blocked :func:`point_source_sum`, whose
:func:`point_green` gives a cover center its cell's diagonal.

With ``n0^2 == 1`` the evaluator degenerates to the free-space kernel exactly
(same code path, bit for bit).  Evaluators are immutable after construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import NonConvergence, SolveFailure
from .fields import ScalarField, probe_points
from .grids import Box, GridCover
from .lattice import DEFAULT_RTOL, LatticeOperator, solve_checked

logger = logging.getLogger(__name__)

_LS_MAX_ITER: int = 200
_BLOCK_ENTRIES: int = 1 << 16
DEFAULT_GRID_N: int = 8  # cells per axis of a medium's cover


def cos_sin(x: np.ndarray, cos: np.ndarray, sin: Optional[np.ndarray] = None) -> None:
    """``cos(x)`` into ``cos`` and, given ``sin``, ``sin(x)`` into it, from one half-angle
    tangent ``t = tan(x / 2)``: ``sin = 2t / (1 + t^2)`` and ``cos = 2 / (1 + t^2) - 1``.

    numpy runs float64 ``tan`` as a SIMD kernel where the CPU has AVX512, but ``cos`` and
    ``sin`` as scalar libm, several times slower.  ``t`` goes into ``sin`` if given, else
    into ``cos``; either may be ``x``, and they may be the real and imaginary views of one
    complex array.  Within 4.5e-16 of ``np.cos``/``np.sin``, and exactly ``(1, 0)`` at
    ``x = 0``.
    """
    t = cos if sin is None else sin
    np.tan(np.multiply(0.5, x, out=t), out=t)
    np.multiply(t, t, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    if sin is not None:
        sin *= cos
    cos -= 1.0


def expi(x: np.ndarray) -> np.ndarray:
    """``exp(ix)`` for real ``x``, by :func:`cos_sin`."""
    x = np.array(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    cos_sin(x, out.real, x)
    out.imag = x
    return out


def free_space_green(k: float, r: np.ndarray) -> np.ndarray:
    """Outgoing free-space kernel ``exp(ikr) / (4 pi r)``.

    The ``tan`` of :func:`cos_sin` runs in one contiguous real temporary ``kr``, which
    ends up holding the sine; it is copied to the imaginary part, and ``kr`` then holds
    ``1 / (4 pi r)`` to scale both parts.  Within 1e-15 relative of the complex ``exp``
    and division, with one real temporary instead of three complex ones.  A scalar ``r``
    gives a scalar.
    """
    r = np.asarray(r, dtype=float)
    g = np.empty(r.shape, dtype=complex)
    kr = np.multiply(k, r, out=np.empty(r.shape))
    cos_sin(kr, g.real, kr)
    g.imag = kr
    scale = np.reciprocal(np.multiply(4.0 * np.pi, r, out=kr), out=kr)
    g.real *= scale
    g.imag *= scale
    return g[()] if g.ndim == 0 else g


def pair_distances(x: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None,
                   scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """``|x_i - y_j|`` (T, S) of points ``x`` (T, 3) and ``y`` (S, 3), written into ``out``
    if given; ``scratch`` (T, S), if given, is overwritten.

    Summed coordinate by coordinate as ``sqrt(((x0 - y0)^2 + (x1 - y1)^2) + (x2 - y2)^2)``,
    in the order of a plain loop over the coordinates.  Each difference is the rank-2
    product ``[x_c, 1] [1, -y_c]^T``: two exact products added with one rounding, whatever
    order BLAS adds them in, so exactly ``x_c - y_c``, in about a third of the time of
    ``np.subtract.outer``, whose stride-0 operand numpy loops over without SIMD.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    shape = (len(x), len(y))
    out = np.empty(shape) if out is None else out
    scratch = np.empty(shape) if scratch is None else scratch
    rows, cols = np.ones((len(x), 2)), np.ones((2, len(y)))
    for c, square in enumerate((out, scratch, scratch)):
        rows[:, 0] = x[:, c]
        np.negative(y[:, c], out=cols[1])
        np.matmul(rows, cols, out=square)
        np.multiply(square, square, out=square)
        if c:
            out += square
    return np.sqrt(out, out=out)


def point_green(k: float, targets: np.ndarray, sources: np.ndarray,
                self_value=0.0) -> Tuple[np.ndarray, np.ndarray]:
    """``g(x, y)`` and ``r`` for every target ``x`` and source ``y``, shape (T, S).

    Where a target meets a source, ``g`` is that source's ``self_value`` (0
    for a particle, :func:`cell_self_green` for a cover center) and ``r`` is 1.
    """
    r = pair_distances(targets, sources)
    coincident = r == 0.0
    r[coincident] = 1.0
    g = free_space_green(k, r)
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
    """Kernel evaluator for a background medium, one source at a time: ``smallscat green``.

    Parameters
    ----------
    medium : BackgroundMedium or None
        ``None``, or a medium uniformly 1, means free space, whatever the method: the grid
        correction would be exactly 0, so no grid is built and nothing is solved.
    k : float
        Wave number.
    grid_n : int
        Cells per axis of the quadrature cover of the medium box.
    method : ("lippmann_schwinger", tol) | ("born", order)
        ``lippmann_schwinger`` solves the grid equation ``(I - K) v = b`` by GMRES on the
        FFT operator with its relative residual checked against ``tol`` (SolveFailure above
        it); ``born`` sums the truncated series to ``order``.
    """

    def __init__(self, medium: Optional[BackgroundMedium], k: float, grid_n: int = DEFAULT_GRID_N,
                 method=("lippmann_schwinger", DEFAULT_RTOL)):
        if method[0] not in ("born", "lippmann_schwinger"):
            raise ValueError(f"unknown Green method {method!r}")
        self.medium = medium
        self.k = float(k)
        self.method = method
        if medium is None or medium.uniform_one:
            self.grid: Optional[GridCover] = None
            return
        self.grid = GridCover.from_shape(medium.box, grid_n)
        self._kernel = medium_kernel(self.grid, self.k, medium.contrast(self.grid.centers))

    def _grid_solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(I - K)^{-1} rhs`` on the cover for one right-hand side, by the evaluator's
        method, with ``K`` the FFT operator."""
        if self.method[0] == "born":
            return born_series(self._kernel, rhs, int(self.method[1]))
        return solve_checked(lambda v: v - self._kernel @ v, rhs, float(self.method[1]))[0]

    def pair_values(self, targets: np.ndarray, source: np.ndarray) -> np.ndarray:
        """``G(x, y)`` for all targets ``x`` and one source ``y``."""
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        source = np.asarray(source, dtype=float).reshape(3)
        r = np.linalg.norm(targets - source, axis=1)
        if np.any(r <= 0):
            raise ValueError("green requires x != y")
        base = free_space_green(self.k, r)
        if self.grid is None:  # free space
            return base
        z, self_value = self.grid.centers, cell_self_green(self.grid)
        # one source: a grid solve on the FFT operator, not a dense kernel build
        response = self._grid_solve(point_green(self.k, z, source[None, :], self_value)[0][:, 0])
        return base + point_source_sum(self.k, targets, z, self._kernel.weights * response,
                                       self_value)


def cover_responses(cover: GridCover, k: float, chi: np.ndarray, sources: np.ndarray,
                    rtol: float = DEFAULT_RTOL):
    """Cover monopoles ``R`` (P, S) a unit charge at each source ``y_m`` induces, and ``g(Z, Y)``.

    ``R[:, m] = k^2 chi |cell| (I - K)^{-1} g(Z, y_m)``, so ``(G - g)(x, y_m) =
    sum_p g(x, z_p) R[p, m]``.  ``K = g(Z, Z) diag(k^2 chi |cell|)`` and the right-hand
    sides ``g(Z, Y)`` (P, S) are built in row blocks of ``_BLOCK_ENTRIES`` pairs, with the
    cell self value on the diagonal (the entries the FFT operator of :func:`medium_kernel`
    samples).  The right-hand sides are kept, in Fortran order so that their transpose
    ``g(Y, Z)`` is C-contiguous, and returned.  The dense ``I - K`` is solved for all
    sources by one ``np.linalg.solve`` (SolveFailure if it is singular), which factors a
    copy of ``I - K`` and solves in a copy of the right-hand sides, so the solve holds
    16 P (2 P + 3 S) bytes.  Each column's relative residual is then summed over the row
    blocks of the kept ``I - K`` and right-hand sides (SolveFailure if one is not within
    ``rtol``).
    """
    z, self_value = cover.centers, cell_self_green(cover)
    weights = (k**2) * chi * cover.cell_volume
    points = np.vstack([z, sources])
    step = max(1, _BLOCK_ENTRIES // len(points))
    system = np.eye(len(z), dtype=complex)
    to_sources = np.empty((len(z), len(sources)), dtype=complex, order="F")
    for r0 in range(0, len(z), step):
        rows = slice(r0, r0 + step)
        g = point_green(k, z[rows], points, self_value)[0]
        g[:, :len(z)] *= weights
        system[rows] -= g[:, :len(z)]
        to_sources[rows] = g[:, len(z):]
        del g  # one block at a time: freed before the next is built
    try:
        out = np.linalg.solve(system, to_sources)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"cover solve failed: {exc}") from exc
    squares = np.zeros((2, len(sources)))  # squared norms of the rhs and the residual
    for r0 in range(0, len(z), step):
        rows = slice(r0, r0 + step)
        squares[0] += np.linalg.norm(to_sources[rows], axis=0) ** 2
        squares[1] += np.linalg.norm(system[rows] @ out - to_sources[rows], axis=0) ** 2
    residual = np.max(np.sqrt(squares[1] / np.maximum(squares[0], 1e-300)), initial=0.0)
    if not residual <= rtol:  # a NaN fails too
        raise SolveFailure(f"cover solve residual {residual:.3e} above tolerance {rtol:.1e}")
    out *= weights[:, None]
    return out, to_sources


def green(evaluator: GreenEvaluator, x: np.ndarray, y: np.ndarray) -> complex:
    """Single-pair kernel value ``G(x, y)``."""
    return complex(evaluator.pair_values(np.asarray(x, dtype=float)[None, :], y)[0])


def scattered_plane_wave(chi_values: np.ndarray, cover: GridCover, k: float, alpha: np.ndarray,
                         points: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Unit plane-wave field in the medium ``u = u0 + k^2 int g chi u``.

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
    u0 = expi(k * z @ alpha)
    u_grid, _ = solve_checked(lambda v: v - kernel @ v, u0, DEFAULT_RTOL)
    if points is None:
        return u_grid, u_grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return u_grid, expi(k * pts @ alpha) \
        + point_source_sum(k, pts, z, kernel.weights * u_grid, cell_self_green(cover))
