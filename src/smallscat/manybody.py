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
(:func:`~smallscat.lattice.solve_checked`): the monopole kernel as a
:class:`CloudKernel` (its singular real part stored on the tiles on and above the
diagonal, its smooth imaginary part as a plane-wave factor, or for small clouds and
large ``kD`` as a second layer of the tiles), plus in a medium the
cover monopoles each particle induces (one LU of the cover's grid equation, its
residual checked), and the 5M hard system matrix-free
(:func:`hard_cloud_system`: ``g`` and its radial factors as six float64 layers on the same
tiles, the smooth ``Im g`` and its gradient through the same plane-wave factor, or for
small clouds and large ``kD`` all eight layers).
A solve reads a scene's packed arrays and checks it with :func:`~smallscat.core.validate_scene`
at the scene's own thresholds; an empty scene solves to zero-length unknowns of the kind
asked for, at residual 0.  A medium enters only through ``scene.background``.
Solution objects are immutable and hold no evaluator.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import background
from .background import (DEFAULT_GRID_N, BackgroundMedium, cell_self_green, cos_sin, expi,
                         free_space_green, pair_distances, point_green)
from .core import IncidentWave, Scene, validate_scene
from .errors import (GridTooLarge, MissingFunctional, PointInsideParticle, RegimeViolation,
                     UnsupportedScene)
from .grids import GridCover, record_eq
from .lattice import DEFAULT_RTOL, solve_checked

logger = logging.getLogger(__name__)

KERNEL_BYTES_BUDGET: int = 2 * 1024**3  # stored cloud kernels to M of about 22 800 (kD <= 1.8)
_HARD_BLOCK_ROWS: int = 96
_STRIP_PAIRS: int = 1 << 14  # pairs of a hard tile filled at once: 128 KiB a float array


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

    __eq__ = record_eq


@dataclass(frozen=True)
class FarField:
    """Scattering amplitudes along unit observation directions."""

    directions: np.ndarray
    amplitudes: np.ndarray

    __eq__ = record_eq

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
def pair_kernel_matrix(centers: np.ndarray, k: float) -> np.ndarray:
    """Dense reference ``g`` between all center pairs, zero diagonal; no solver calls it."""
    return point_green(k, centers, centers)[0]


def _check_budget(nbytes: int, what: str) -> None:
    """Raise GridTooLarge before ``nbytes`` of kernel arrays above the budget are allocated."""
    if nbytes > KERNEL_BYTES_BUDGET:
        raise GridTooLarge(f"{what} needs {nbytes / 1024**3:.2f} GiB, "
                           f"above the {KERNEL_BYTES_BUDGET / 1024**3:.2f} GiB budget")


def _green_layers(k: float, r: np.ndarray, layers) -> None:
    """``cos(kr) / (4 pi r)`` into ``layers[0]`` and, given a second layer, ``sin(kr) / (4 pi r)``
    into it; 0 where ``r`` is 0.  ``r`` is overwritten.

    Both layers come from one ``tan`` of :func:`~smallscat.background.cos_sin`, as
    :func:`~smallscat.background.point_green` does, so they are its real and imaginary
    parts bit for bit.  The zeros are masked only where centers meet, as in
    :func:`_hard_layers`.
    """
    coincident = r == 0.0
    coincident = coincident if coincident.any() else None
    if coincident is not None:
        r[coincident] = 1.0
    cos_sin(np.multiply(k, r, out=layers[0]), *layers)
    scale = np.reciprocal(np.multiply(4.0 * np.pi, r, out=r), out=r)
    for layer in layers:
        layer *= scale
        if coincident is not None:
            layer[coincident] = 0.0


def _hard_layers(k: float, r: np.ndarray, parts) -> None:
    """``Re g``, ``Re(g/r)``, ``Im(g/r)``, ``Re(g'/r)``, ``Re radial`` and ``Im radial``
    into six ``parts``, then ``Im g`` and ``Im(g'/r)`` where there are eight.  0 where ``r``
    is 0; ``r`` is overwritten.

    The radial factors of ``g(r)`` are ``g/r``, ``g'/r = ik g/r - g/r^2`` and ``radial =
    (g' - g/r) / r^2``: with ``D = r rhat``, ``d_s(g rhat_p) = radial D_s D_p + (g/r)
    delta_sp`` and ``lap(g rhat) = (radial + ik g'/r) D``.  One ``tan`` of
    :func:`~smallscat.background.cos_sin` and no scratch: the unfinished values pass through
    the layers still to be written.  ``g`` is :func:`~smallscat.background.free_space_green`
    bit for bit.
    """
    re_g, re_gr, im_gr, re_gp, re_rad, im_rad = parts[:6]
    im_g, im_gp = parts[6:] or (im_gr, re_gp)  # or where they are formed on the way
    coincident = r == 0.0
    coincident = coincident if coincident.any() else None  # only where centers meet
    if coincident is not None:
        r[coincident] = 1.0
    cos_sin(np.multiply(k, r, out=re_g), re_g, im_g)
    scale = np.reciprocal(np.multiply(4.0 * np.pi, r, out=re_rad), out=re_rad)
    inv_r = np.reciprocal(r, out=r)
    re_g *= scale
    im_g *= scale
    np.multiply(re_g, inv_r, out=re_gr)
    np.multiply(im_g, inv_r, out=im_gr)
    # g'/r = ik g/r - g/r^2 and radial = (g'/r - g/r^2) / r, the imaginary part first, so
    # that Im(g'/r) may pass through the slot of Re(g'/r)
    np.multiply(im_gr, inv_r, out=im_rad)
    np.multiply(re_gr, k, out=im_gp)
    im_gp -= im_rad
    np.subtract(im_gp, im_rad, out=im_rad)
    im_rad *= inv_r
    np.multiply(re_gr, inv_r, out=re_rad)
    np.multiply(im_gr, -k, out=re_gp)
    re_gp -= re_rad
    np.subtract(re_gp, re_rad, out=re_rad)
    re_rad *= inv_r
    if coincident is not None:
        for part in parts:
            part[coincident] = 0.0


def _fill_tile(k: float, centers: np.ndarray, rows: slice, cols: slice, layers,
               scratch: np.ndarray) -> None:
    """The :func:`_green_layers` of the tile ``(rows, cols)``, its distances in the build's
    ``scratch``.  A diagonal tile is evaluated whole, as in :func:`_hard_tile`: mirroring
    its upper half built no faster."""
    targets, sources = centers[rows], centers[cols]
    r = scratch[:len(targets) * len(sources)].reshape(len(targets), len(sources))
    _green_layers(k, pair_distances(targets, sources, r, layers[0]), layers)


def _hard_tile(k: float, centers: np.ndarray, rows: slice, cols: slice, layers,
               scratch: np.ndarray) -> None:
    """The :func:`_hard_layers` of the tile ``(rows, cols)`` into its real layers and the one
    complex ``radial``, by strips of ``_STRIP_PAIRS`` pairs, so that the temporaries stay in
    cache: a strip's distances and the two parts of ``radial`` are formed contiguous in the
    build's ``scratch``, and the parts copied in.  A diagonal tile is evaluated whole:
    mirroring its upper half into six layers cost more than it saved.
    """
    targets, sources = centers[rows], centers[cols]
    step = max(1, _STRIP_PAIRS // len(sources))
    strip_pairs = min(step, len(targets)) * len(sources)
    r, *parts = scratch[:3 * strip_pairs].reshape(3, -1, len(sources))
    for i0 in range(0, len(targets), step):
        strip = [layer[i0:i0 + step] for layer in layers]
        n, radial = len(strip[0]), strip[4]
        re_rad, im_rad = (part[:n] for part in parts)
        _hard_layers(k, pair_distances(targets[i0:i0 + step], sources, r[:n], strip[0]),
                     [*strip[:4], re_rad, im_rad, *strip[5:]])
        radial.real, radial.imag = re_rad, im_rad


def _rule_shape(degree: int) -> Tuple[int, int]:
    """``(n_theta, n_phi)`` of :func:`_sphere_rule`: Gauss-Legendre points in ``cos(theta) > 0``,
    half of a rule exact to degree ``4 n_theta - 1 >= degree``, and trapezoid points in
    ``phi``, exact for ``exp(i m phi)`` with ``|m| <= degree``."""
    return -(-(degree + 1) // 4), degree + 1


@functools.lru_cache(maxsize=32)
def _sphere_rule(degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unit nodes (Q, 3) with ``z > 0`` and weights (Q,) summing to 1 whose sum of an even
    function (``f(-s) = f(s)``) of degree at most ``degree`` is its mean over the sphere.

    A product rule: the positive half of Gauss-Legendre in ``cos(theta)``, whose weights
    sum to 1 and give the mean over ``[-1, 1]`` of an even function's ``phi`` mean, times
    the trapezoid rule in ``phi``.  The cached arrays are read-only.
    """
    n_theta, n_phi = _rule_shape(degree)
    t, w = np.polynomial.legendre.leggauss(2 * n_theta)
    t, w = t[n_theta:], w[n_theta:] / n_phi
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    rho = np.sqrt(1.0 - t * t)
    nodes = np.column_stack([np.outer(rho, np.cos(phi)).ravel(),
                             np.outer(rho, np.sin(phi)).ravel(), np.repeat(t, n_phi)])
    weights = np.repeat(w, n_phi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _rule_degree(kd: float, most_nodes: int, offset: int = 0) -> Optional[int]:
    """``offset`` plus the smallest ``L`` with ``(2L + 1) (kd)^L / (2L + 1)!! <= 1e-17``, or
    None if that rule has more than ``most_nodes`` nodes; ``offset`` at ``kd = 0``.

    In ``exp(ik s.d) = sum_l (2l + 1) i^l j_l(k|d|) P_l(s.d / |d|)`` the terms past degree
    ``L`` are then below rounding for every ``|d| <= D`` (``kd = kD``), as
    ``|j_l(x)| <= x^l / (2l + 1)!!``.  At ``kd = 0`` only the constant term is left, and
    the one-node rule of degree 0 gives ``F F^T = 1`` exactly.  A gradient multiplies the
    series by ``ik s``, one degree more for the rule to integrate: ``offset = 1``.  The term
    is kept as a logarithm, which cannot overflow, and the node cap ends the search for any
    ``kd``.
    """
    degree, log_term = 0, 0.0  # log of (kd)^L / (2L + 1)!!
    while math.prod(_rule_shape(degree + offset)) <= most_nodes:
        if kd == 0.0 or math.log(2 * degree + 1) + log_term <= math.log(1e-17):
            return degree + offset
        degree += 1
        log_term += math.log(kd) - math.log(2 * degree + 1)  # kd / (2L + 1) may underflow
    return None


def _plane_wave_rule(k: float, x: np.ndarray, offset: int = 0):
    """The :func:`_sphere_rule` of the plane-wave factor of centered points ``x``, at the
    :func:`_rule_degree` of ``kD`` (``D`` twice the largest ``|x|``) and ``offset``; None
    where its ``2 M Q`` sines and cosines would not be fewer than the ``M (M - 1) / 2`` of
    one stored layer: ``4 Q >= M - 1``, small clouds or large ``kD``."""
    reach = 2.0 * float(np.max(np.linalg.norm(x, axis=1), initial=0.0))
    degree = _rule_degree(k * reach, (len(x) - 2) // 4, offset)
    return None if degree is None else _sphere_rule(degree)


def _plane_wave_factor(k: float, x: np.ndarray, rule) -> np.ndarray:
    """``F = sqrt(w_q) [cos(k x.s_q), sin(k x.s_q)]`` (M, 2Q) of a rule's nodes ``s_q`` and
    weights ``w_q``, so that ``(F F^T)_ij`` is its sum of ``cos(k s_q.(x_i - x_j))``.

    The phases ``k x.s_q`` are formed in the cosine half of ``F`` itself, so ``F`` is the
    only (M, Q)-sized allocation."""
    directions, weights = rule
    m, nodes = len(x), len(weights)
    factor = np.empty((m, 2 * nodes))
    cos, sin = factor[:, :nodes], factor[:, nodes:]
    np.multiply(k, np.matmul(x, directions.T, out=cos), out=cos)
    cos_sin(cos, cos, sin)
    factor.reshape(m, 2, nodes)[...] *= np.sqrt(weights)
    return factor


def _upper_tiles(m: int):
    """``(rows, cols, shape)`` of the tiles ``I <= J`` of a tiling of ``m`` centers.

    The tile edge is ``isqrt(_BLOCK_ENTRIES)``, so a tile holds at most one block of pairs;
    the first tile is the largest.
    """
    edge = max(1, math.isqrt(background._BLOCK_ENTRIES))
    return [(slice(i0, i0 + edge), slice(j0, j0 + edge), (min(edge, m - i0), min(edge, m - j0)))
            for i0 in range(0, m, edge) for j0 in range(i0, m, edge)]


def _kernel_bytes(m: int, pair_bytes: int, extra: int = 0, stored: bool = True) -> int:
    """``pair_bytes`` per pair of the tiles ``I <= J`` of ``m`` centers (of one scratch tile
    when not ``stored``) and of one tile more (the build's scratch), plus ``extra``."""
    sizes = [rows * cols for _, _, (rows, cols) in _upper_tiles(m)] or [0]
    return pair_bytes * ((sum(sizes) if stored else sizes[0]) + sizes[0]) + extra


class _EachPass:
    """Iterates over a fresh ``passes()`` every time."""

    def __init__(self, passes):
        self.passes = passes

    def __iter__(self):
        return self.passes()


def _pair_tiles(m: int, fill, dtypes, extra: int, what: str):
    """``(rows, cols, layers)`` for the tiles ``I <= J`` of :func:`_upper_tiles`, one array of
    each tile's shape per dtype of ``dtypes``, which ``fill(rows, cols, layers, scratch)``
    writes in place.

    Where :func:`_kernel_bytes` fit ``KERNEL_BYTES_BUDGET``, each tile is filled once into
    views of one float64 array (numpy asks for huge pages for it, so few page faults).
    Otherwise every pass recomputes them into a scratch tile of its own, so concurrent
    products share none; GridTooLarge if that does not fit.  Each build (each pass, when
    not stored) lends every ``fill`` one ``scratch`` of its own, as many float64 numbers as
    the largest tile has in all its layers, never touched by the caller.
    """
    tiles = _upper_tiles(m)
    sizes = [rows * cols for _, _, (rows, cols) in tiles] or [0]
    widths = [np.dtype(dtype).itemsize // 8 for dtype in dtypes]  # float64 numbers per pair
    pair_bytes = 8 * sum(widths)
    stored = _kernel_bytes(m, pair_bytes, extra) <= KERNEL_BYTES_BUDGET
    _check_budget(_kernel_bytes(m, pair_bytes, extra, stored), what)

    def filled():
        pairs = sum(sizes) if stored else sizes[0]
        store, offsets = np.empty(pair_bytes // 8 * pairs), np.cumsum([0] + widths)
        store = [store[pairs * a:pairs * b].view(dtype)
                 for a, b, dtype in zip(offsets, offsets[1:], dtypes)]
        scratch, used = np.empty(pair_bytes // 8 * sizes[0]), 0
        for (rows, cols, shape), size in zip(tiles, sizes):
            view = rows, cols, tuple(s[used:used + size].reshape(shape) for s in store)
            fill(*view, scratch)
            yield view
            used += size if stored else 0

    return list(filled()) if stored else _EachPass(filled)


def _symmetric_tile_products(tiles, columns):
    """``f @ c`` for every stored symmetric pair array ``f`` and its column block ``c``.

    ``tiles`` holds ``(rows, cols, factors)`` for the tiles on and above the
    diagonal, one array of ``factors`` per column block; a tile below it is the
    transpose of its mirror, which BLAS applies to the transposed view.  Each sum has
    its column block's dtype; a real ``f`` applies to the real ``(M, 2n)`` view of a
    complex ``(M, n)`` block.
    """
    out = [np.zeros(c.shape, dtype=c.dtype) for c in columns]
    for rows, cols, factors in tiles:
        for f, c, y in zip(factors, columns, out):
            if f.dtype != c.dtype:
                c, y = c.view(f.dtype), y.view(f.dtype)
            y[rows] += f @ c[cols]
            if rows.start < cols.start:
                y[cols] += f.T @ c[rows]
    return out


class CloudKernel:
    """Zero-diagonal free-space kernel ``g(|x_i - x_j|)`` between cloud centers.

    Only the real part ``cos(kr) / (4 pi r)`` is singular.  It is stored as float64 on
    the tiles ``I <= J`` of :func:`_upper_tiles` (8 bytes per pair) and applied by
    :func:`_symmetric_tile_products` to the real ``(M, 2)`` view of a complex vector.
    The imaginary part ``sin(kr) / (4 pi r) = (k / 4 pi) j0(kr)`` is smooth, and
    ``j0(k |x - y|)`` is the sphere mean of ``cos(k s.(x - y))`` (Funk-Hecke), which
    :func:`_sphere_rule` sums exactly to rounding at the degree :func:`_rule_degree` picks
    for ``D``, twice the largest distance from the centroid.  So it is ``(k / 4 pi)
    (F F^T - I)`` with ``F = sqrt(w_q) [cos(k X s_q), sin(k X s_q)]`` in centered
    coordinates ``X`` (:func:`_plane_wave_factor`, shared with :func:`hard_cloud_system`).
    ``F`` has two columns per node (200 at ``kD = sqrt(3)``), and the nodes grow as
    ``(kD)^2``: where ``F`` would take as many sines and cosines as the tiles of
    ``sin(kr) / (4 pi r)`` (:func:`_plane_wave_rule`, ``M <= 4 Q + 1``: small clouds, or
    large ``kD``), that is stored as a second layer of the tiles instead (``factor`` is
    None), at 8 bytes more per pair.

    :func:`_pair_tiles` stores the tiles, 8 bytes per pair of each layer with ``F`` counted
    too, or past ``KERNEL_BYTES_BUDGET`` recomputes them on every product.
    """

    def __init__(self, centers: np.ndarray, k: float):
        self.centers = np.asarray(centers, dtype=float)
        self.k = float(k)
        m = len(self.centers)
        x = self.centers - (np.mean(self.centers, axis=0) if m else 0.0)
        rule = _plane_wave_rule(self.k, x)
        self.layers = 2 if rule is None else 1
        self.tiles = _pair_tiles(m, functools.partial(_fill_tile, self.k, self.centers),
                                 (float,) * self.layers,
                                 0 if rule is None else 16 * m * len(rule[1]),
                                 f"cloud kernel of {m} particles")
        self.factor = None if rule is None else _plane_wave_factor(self.k, x, rule)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=complex)
        pairs = v.view(float).reshape(-1, 2)
        parts = _symmetric_tile_products(self.tiles, [pairs] * self.layers)
        if self.factor is None:
            real, imag = parts
        else:
            real, = parts
            imag = (self.k / (4.0 * np.pi)) * (self.factor @ (self.factor.T @ pairs) - pairs)
        return real.view(complex)[:, 0] + 1j * imag.view(complex)[:, 0]


def _check_scene(scene: Scene, kind: str) -> None:
    """ValueError unless every particle of ``scene`` is of ``kind``; RegimeViolation if
    :func:`~smallscat.core.validate_scene` does not accept it at the scene's own thresholds."""
    if scene.kind not in (kind, "empty"):
        raise ValueError(f"expected an all-{kind} scene, got {scene.kind}")
    report = validate_scene(scene)
    if not report.accepted:
        raise RegimeViolation("; ".join(report.violations))


def solve_monopole_system(centers: np.ndarray, k: float, coupling: np.ndarray,
                          rhs: np.ndarray, *, rtol: float = DEFAULT_RTOL,
                          medium: Optional[BackgroundMedium] = None):
    """Solve ``u_j + sum_{m != j} G(x_j, x_m) coupling_m u_m = rhs_j`` by GMRES.

    ``G`` is ``g`` (a :class:`CloudKernel`), plus in a ``medium`` (a scene's, as
    :func:`_scene_medium` gives it) the cover monopoles ``R`` (P, M) of unit charges at the
    centers on :func:`_medium_cover`, summed there by ``A = g(X, Z)``, less the smooth self
    term ``(A R)_jj``.  Returns ``(u, residual)`` of
    :func:`~smallscat.lattice.solve_checked` and the induced cover monopoles
    ``-R (coupling u)`` (``None`` in free space); raises SolveFailure above ``rtol``, and
    GridTooLarge before anything is allocated if the cover arrays exceed
    ``KERNEL_BYTES_BUDGET``: the dense ``(P, P)`` ``I - K`` of
    :func:`~smallscat.background.cover_responses` and the copy its solve factors, the
    ``(P, M)`` right-hand sides, their copy and the returned ``R``, 16 P (2 P + 3 M) bytes,
    which also covers ``R`` and ``g(Z, X)``, whose transpose is ``A``, once ``I - K`` is
    freed.  Both come first, so ``I - K`` is freed before the cloud kernel is built.
    """
    if medium is None:
        kernel = CloudKernel(centers, k)
        return (*solve_checked(lambda v: v + kernel @ (coupling * v), rhs, rtol), None)
    cover = _medium_cover(medium)
    p, m = cover.n_cells, len(centers)
    _check_budget(16 * p * (2 * p + 3 * m), "medium cover sources")
    rc, to_centers = background.cover_responses(cover, k, medium.contrast(cover.centers),
                                                centers)
    rc *= coupling  # R diag(coupling)
    a = to_centers.T
    kernel = CloudKernel(centers, k)
    own = np.einsum("jp,pj->j", a, rc)
    u, residual = solve_checked(lambda v: v + kernel @ (coupling * v) + a @ (rc @ v) - own * v,
                                rhs, rtol)
    return u, residual, -(rc @ u)


def _scene_medium(scene: Scene) -> Optional[BackgroundMedium]:
    """The scene background if it is non-uniform; ``None`` in free space."""
    if scene.background is None or scene.background.uniform_one:
        return None
    return scene.background


def _medium_cover(medium: BackgroundMedium) -> GridCover:
    """The cover of a medium's cloud solves and their read-outs: ``DEFAULT_GRID_N`` per axis."""
    return GridCover.from_shape(medium.box, DEFAULT_GRID_N)


def _solve_monopole_scene(scene: Scene, kind: str, rtol: float) -> EffectiveFieldSolution:
    _check_scene(scene, kind)
    u, residual, cover_charges = solve_monopole_system(
        scene.centers, scene.wave.k, scene.coupling, scene.wave.field_at(scene.centers),
        rtol=rtol, medium=_scene_medium(scene))
    logger.info("solved %s scene: M=%d residual=%.2e", kind, len(u), residual)
    return EffectiveFieldSolution(kind=kind, values=u, charges=-scene.coupling * u,
                                  cover_charges=cover_charges, residual=residual)


def solve_soft(scene: Scene, *, rtol: float = DEFAULT_RTOL) -> EffectiveFieldSolution:
    """Self-consistent field for an all-soft scene; ``Q_m = -C_m u(x_m)``."""
    return _solve_monopole_scene(scene, "soft", rtol)


def solve_impedance(scene: Scene, *, rtol: float = DEFAULT_RTOL) -> EffectiveFieldSolution:
    """Self-consistent field for an all-impedance scene.

    ``Q_m = -h(x_m) a^(2-kappa) b_m u(x_m)`` with ``b_m = |S_m| / a^2``.
    """
    return _solve_monopole_scene(scene, "impedance", rtol)


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


def hard_cloud_system(centers: np.ndarray, k: float, lap_weights: np.ndarray,
                      dipole_weights: np.ndarray):
    """Matrix-free form of :func:`assemble_hard_system` for a particle cloud.

    Returns ``x -> A x`` through :func:`hard_system_apply`.  It stores ``g`` and the
    :func:`_radial_factors` of every pair, symmetric with zero diagonals, as float64 layers
    (:func:`_hard_tile`) on the tiles ``I <= J`` of :func:`_upper_tiles`: each tile holds at
    most one block of pairs and is built once, so ``r`` never exists whole.  With ``X``
    centered on the centroid a pair sum ``sum_m f_im (X_i - X_m) c_m`` is
    ``X_i (f @ c) - f @ (X c)``, so a product is tiled BLAS products with source columns and
    allocates nothing per pair.

    The layers are ``Re g``, ``Re(g/r)``, ``Im(g/r)`` and ``Re(g'/r)``, each applied to the
    real ``(M, 2n)`` view of its complex column block, and ``radial`` as one complex layer
    (its 16 columns take one complex product; ``g/r``'s 4 run faster as two real ones).  The
    smooth ``Im g = (k / 4 pi) j0(kr)`` is ``(k / 4 pi) (F F^T - I)`` with the plane-wave
    factor ``F`` of :class:`CloudKernel` (:func:`_plane_wave_factor`), and ``Im(g'/r)``
    enters only as ``sum_m Im(g'/r)_im (X_i - X_m) c_m``, the gradient of that sum, which is
    ``F`` times the swapped sine and cosine halves of ``F^T c`` weighted by ``k s_q`` (the
    rule a degree higher, :func:`_rule_degree`).  So a product adds one ``F^T`` and one
    ``F`` product, and the tiles take 48 bytes per pair.  Where ``F`` would not be cheaper
    than a stored layer (:func:`_plane_wave_rule`: small clouds, such as the two-particle
    demo, or large ``kD``), ``Im g`` and ``Im(g'/r)`` are stored too: all eight real
    layers, 64 bytes per pair.  The tiles come from :func:`_pair_tiles`: past
    ``KERNEL_BYTES_BUDGET`` (M above 9284 in the unit cube at k = 1, at 2 GiB) every product
    recomputes them into one scratch tile, and GridTooLarge if that tile exceeds it too.
    """
    m = len(centers)
    x = centers - (np.mean(centers, axis=0) if m else 0.0)
    rule = _plane_wave_rule(k, x, offset=1)
    tiles = _pair_tiles(m, functools.partial(_hard_tile, k, x),
                        (float,) * 4 + (complex,) + ((float,) * 2 if rule is None else ()),
                        0 if rule is None else 16 * m * len(rule[1]),
                        f"hard operator of {m} particles")
    factor = None if rule is None else _plane_wave_factor(k, x, rule)

    def plane_wave(q: np.ndarray, d: np.ndarray) -> np.ndarray:
        """``i`` times ``(Im g) @ q``, ``sum_m Im(g'/r)_im (X_i - X_m) q_m`` and ``sum_m
        Im(g'/r)_im (X_i - X_m).d_m`` (M, 5), from one ``F^T`` and one ``F`` product."""
        nodes = len(rule[1])
        weights = k * np.vstack([rule[0], rule[0]])  # k s_q, for both halves of F
        t = factor.T @ np.column_stack([q, d]).view(float)
        turned = np.concatenate([t[nodes:], -t[:nodes]])
        parts = np.hstack([t[:, :2], (weights[:, :, None] * turned[:, None, :2]).reshape(-1, 6),
                           np.einsum("ap,apc->ac", weights, turned[:, 2:].reshape(-1, 3, 2))])
        scale = 1j * k / (4.0 * np.pi)
        parts.view(complex)[...] *= scale
        out = (factor @ parts).view(complex)
        out[:, 0] -= scale * q[:, 0]  # j0(0) = 1
        return out

    def fields(monopoles: np.ndarray, dipoles: np.ndarray):
        q = monopoles[:, None]
        d = 1j * k * dipoles
        dx = np.column_stack([d, np.einsum("mp,mp->m", x, d)])
        pm_columns = np.column_stack([q, q * x, dx])
        columns = [q, dx, dx, pm_columns,
                   np.column_stack([dx, (x[:, :, None] * dx[:, None, :]).reshape(m, 12)])]
        if factor is None:  # Im g and Im(g'/r) are stored layers too
            columns += [q, pm_columns]
        mono, g_dx, g_dx_imag, pm, rd, *imag = _symmetric_tile_products(tiles, columns)
        g_dx += 1j * g_dx_imag
        if imag:
            mono += 1j * imag[0]
            pm += 1j * imag[1]
        # a 4-column block f @ [c, X.c] gives arm = sum_m f_im (X_i - X_m).c_m, for c = d, X_s d
        sums = np.hstack([g_dx, pm[:, 4:], rd]).reshape(m, 6, 4)
        arm = np.einsum("mp,mbp->mb", x, sums[..., :3]) - sums[..., 3]
        grad_mono = x * pm[:, :1] - pm[:, 1:4]
        if factor is not None:
            im = plane_wave(q, d)
            mono += im[:, :1]
            grad_mono += im[:, 1:4]
            arm[:, 1] += im[:, 4]
        value = mono[:, 0] + arm[:, 0]
        gradient = grad_mono + x * arm[:, 2:3] - arm[:, 3:] + sums[:, 0, :3]
        laplacian = -(k**2) * mono[:, 0] + arm[:, 2] + 1j * k * arm[:, 1]
        return value, gradient, laplacian

    return hard_system_apply(lap_weights, dipole_weights, fields)


def hard_rhs(wave: IncidentWave, points: np.ndarray) -> np.ndarray:
    """Incident field, gradient and Laplacian at the points, in the 5M unknown layout."""
    return np.concatenate([wave.field_at(points), wave.gradient_at(points).ravel(),
                           wave.laplacian_at(points)])


def solve_hard(scene: Scene, *, rtol: float = DEFAULT_RTOL) -> EffectiveFieldSolution:
    """Coupled 5M solve for an all-hard scene.

    Unknowns are the field, its gradient, and its Laplacian at every center;
    ``Q_m = (lap u)(x_m) |D_m|``.  Requires every particle to carry a
    polarizability tensor.  GMRES runs on the matrix-free
    :func:`hard_cloud_system` (48 bytes per pair of the tiles ``I <= J`` and the plane-wave
    factor, or 64 bytes per pair for small clouds), whose tiles are recomputed on every
    product where storing them would exceed ``KERNEL_BYTES_BUDGET``; raises GridTooLarge if
    one tile exceeds it.  A hard scene is free space: :class:`~smallscat.core.Scene`
    refuses a non-uniform background when it is built.
    """
    _check_scene(scene, "hard")
    if scene.polarizabilities is None:
        raise MissingFunctional("a hard particle lacks its polarizability tensor")
    centers, volumes = scene.centers, scene.volumes
    m = len(centers)
    dipole_weights = scene.polarizabilities * volumes[:, None, None]
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
    """Positions, charges and :func:`point_green` self values: particles, then the cover
    sources of a medium solve on :func:`_medium_cover`."""
    medium = _scene_medium(scene)
    if (medium is None) != (solution.cover_charges is None):
        raise UnsupportedScene("the solution was not solved in the scene's medium")
    if medium is None:
        return scene.centers, solution.charges, 0.0
    cover = _medium_cover(medium)
    return (np.vstack([scene.centers, cover.centers]),
            np.concatenate([solution.charges, solution.cover_charges]),
            np.repeat([0.0, cell_self_green(cover)], [scene.n_particles, cover.n_cells]))


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
        inside = pair_distances(pts[t0:t0 + rows], scene.centers) < scene.radii[None, :]
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
    phases = expi(-k * dirs @ positions.T)
    amps = phases @ charges
    if solution.dipoles is not None:
        amps += 1j * k * np.einsum("bp,mp,bm->b", dirs, solution.dipoles, phases)
    return FarField(directions=dirs, amplitudes=amps / (4.0 * np.pi))
