"""Scenes of small particles: domain types, regime validation, cloud generation.

Conventions: incident plane wave ``u0(x) = amplitude * exp(i k alpha . x)``
with ``|alpha| = 1``; all lengths share one unit; the dielectric constant of
the embedding medium is 1.  Scenes and particles are immutable value types
and safe to share across threads; cloud generation is single threaded and a
pure function of the seed.

A :class:`Particle` is the one record of a body.  A :class:`Scene` packs its particles
once, when it is built, into read-only arrays and one boundary kind, which every many-body
solver reads instead of each particle's boundary condition.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import background
from .background import BackgroundMedium, expi, pair_distances
from .errors import DensityInfeasible, UnsupportedScene
from .fields import ScalarField
from .grids import Box, record_eq

logger = logging.getLogger(__name__)

DEFAULT_SEPARATION_FACTOR: float = 10.0
SMALLNESS_THRESHOLD: float = 0.1  # the bound on k * a_max * n0_max of every scene
# Closed-form sphere functionals: capacitance / a, |S| / a^2, |D| / a^3, beta / I.
SPHERE_CAPACITANCE_PER_RADIUS: float = 4.0 * np.pi
SPHERE_SURFACE_FACTOR: float = 4.0 * np.pi
SPHERE_VOLUME_FACTOR: float = 4.0 / 3.0 * np.pi
SPHERE_POLARIZABILITY: float = -1.5

# Placement: particles are jittered over this share of their stratum's edge, a
# share that shrinks linearly over separation retries.
JITTER: float = 0.6
COUNTING_LAWS = ("dirichlet", "impedance", "hard_volume")  # see CloudSpec
PLACEMENT_RETRY_CAP: int = 200
_MASS_SUBSAMPLES: int = 4
_MASS_SLAB_POINTS: int = 1 << 18  # density samples held at once by _cell_masses


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave ``u0(x) = amplitude * exp(i k alpha . x)``."""

    k: float
    alpha: np.ndarray
    amplitude: complex = 1.0 + 0.0j

    __eq__ = record_eq

    def __post_init__(self):
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"wave number must be positive and finite, got {self.k}")
        alpha = np.asarray(self.alpha, dtype=float).reshape(3)
        if not abs(np.linalg.norm(alpha) - 1.0) <= 1e-12:
            raise ValueError(f"direction must be a unit vector, |alpha|={np.linalg.norm(alpha)}")
        if self.amplitude == 0 or not cmath.isfinite(self.amplitude):
            raise ValueError(f"wave amplitude must be nonzero and finite, got {self.amplitude}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    def field_at(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return self.amplitude * expi(self.k * (p @ self.alpha))

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        return 1j * self.k * self.field_at(points)[:, None] * self.alpha[None, :]

    def laplacian_at(self, points: np.ndarray) -> np.ndarray:
        return -(self.k**2) * self.field_at(points)


@dataclass(frozen=True)
class Soft:
    """Sound-soft particle: the total field vanishes on the surface."""


@dataclass(frozen=True)
class Impedance:
    """Robin condition ``u_N = zeta u`` with ``zeta = h / a^kappa``.

    Admissible impedances have ``Im h <= 0``; that is checked by scene
    validation (report-style) rather than here, so inadmissible inputs can be
    diagnosed instead of refused.
    """

    h: complex
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0, 1), got {self.kappa}")
        if not cmath.isfinite(self.h):
            raise ValueError(f"impedance h must be finite, got {self.h}")
        object.__setattr__(self, "h", complex(self.h))


@dataclass(frozen=True)
class Hard:
    """Sound-hard particle: the normal derivative vanishes on the surface."""


BoundaryKind = Union[Soft, Impedance, Hard]


_KINDS = {Soft: "soft", Impedance: "impedance", Hard: "hard"}


@dataclass(frozen=True)
class Particle:
    """One small scatterer with precomputed shape functionals, the one record of a body.

    ``a`` is half the diameter; ``surface_factor`` is ``|S| / a^2``;
    ``polarizability`` is the 3x3 shape tensor and is required only for
    hard particles.  TypeError for a ``bc`` that is no boundary kind.
    """

    center: np.ndarray
    a: float
    bc: BoundaryKind
    capacitance: float
    surface_factor: float
    volume: float
    polarizability: Optional[np.ndarray] = None

    __eq__ = record_eq

    def __post_init__(self):
        if type(self.bc) not in _KINDS:
            raise TypeError(f"not a boundary kind: {self.bc!r} of type {type(self.bc).__name__}"
                            "; expected Soft, Impedance or Hard")
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"particle radius scale must be positive and finite, got {self.a}")
        if not all(0.0 < v < math.inf
                   for v in (self.capacitance, self.surface_factor, self.volume)):
            raise ValueError("shape functionals must be positive and finite")
        center = np.asarray(self.center, dtype=float).reshape(3)
        if not np.all(np.isfinite(center)):
            raise ValueError(f"particle center must be finite, got {center}")
        object.__setattr__(self, "center", center)
        if self.polarizability is not None:
            beta = np.asarray(self.polarizability, dtype=float).reshape(3, 3)
            object.__setattr__(self, "polarizability", beta)

    @property
    def coupling(self) -> Optional[complex]:
        """Monopole coupling: ``C`` (soft), ``h b a^(2-kappa)`` (impedance), None (hard)."""
        if isinstance(self.bc, Impedance):
            return self.bc.h * self.surface_factor * self.a ** (2.0 - self.bc.kappa)
        return self.capacitance if isinstance(self.bc, Soft) else None

    @classmethod
    def sphere(cls, center, a: float, bc: BoundaryKind) -> "Particle":
        """Ball of radius ``a`` with the closed-form functionals."""
        beta = SPHERE_POLARIZABILITY * np.eye(3) if isinstance(bc, Hard) else None
        return cls(
            center=center,
            a=float(a),
            bc=bc,
            capacitance=SPHERE_CAPACITANCE_PER_RADIUS * a,
            surface_factor=SPHERE_SURFACE_FACTOR,
            volume=SPHERE_VOLUME_FACTOR * a**3,
            polarizability=beta,
        )


def _check_separation_factor(factor: float) -> None:
    """ValueError unless ``factor`` (a least ``d/a``) is nonnegative and finite."""
    if not 0.0 <= factor < math.inf:
        raise ValueError(f"separation factor must be nonnegative and finite, got {factor}")


def _pack_particles(particles: Sequence[Particle]) -> dict:
    """``kind`` (``soft``, ``impedance``, ``hard`` or ``empty``) and the read-only arrays of
    ``particles`` that a :class:`Scene` holds; ValueError if they mix boundary kinds (the
    kinds are treated separately).  ``coupling`` is None for hard particles; ``polarizabilities``
    is None unless every particle carries its tensor.
    """
    kinds = {_KINDS[type(p.bc)] for p in particles}
    if len(kinds) > 1:
        raise ValueError(f"particles mix boundary kinds {sorted(kinds)}")
    kind = kinds.pop() if kinds else "empty"
    betas = [p.polarizability for p in particles]
    packing = {
        "centers": np.array([p.center for p in particles], dtype=float).reshape(-1, 3),
        "radii": np.array([p.a for p in particles], dtype=float),
        "coupling": None if kind == "hard" else np.array([p.coupling for p in particles], complex),
        "volumes": np.array([p.volume for p in particles], dtype=float),
        "polarizabilities": (None if any(beta is None for beta in betas)
                             else np.array(betas, dtype=float).reshape(-1, 3, 3)),
    }
    for array in packing.values():
        if array is not None:
            array.flags.writeable = False
    return dict(packing, kind=kind)


@dataclass(frozen=True)
class Scene:
    """Particle cloud + incident wave + (optional) background medium in a box.

    Packed once, when it is built, by :func:`_pack_particles`: ``kind``, ``centers`` (M, 3),
    ``radii`` (M,), ``coupling`` (M,) or None for hard particles, ``volumes`` (M,) and
    ``polarizabilities`` (M, 3, 3) or None.  ValueError if the particles mix boundary kinds
    or ``separation_factor`` (the least ``d/a``) is negative or not finite, UnsupportedScene
    for hard particles in a non-uniform background.
    """

    particles: Tuple[Particle, ...]
    domain: Box
    wave: IncidentWave
    background: Optional[BackgroundMedium] = None
    separation_factor: float = DEFAULT_SEPARATION_FACTOR
    kind: str = field(init=False, compare=False)
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    coupling: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    volumes: np.ndarray = field(init=False, repr=False, compare=False)
    polarizabilities: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_separation_factor(self.separation_factor)
        object.__setattr__(self, "particles", tuple(self.particles))
        for name, value in _pack_particles(self.particles).items():
            object.__setattr__(self, name, value)
        if self.kind == "hard" and self.background is not None and not self.background.uniform_one:
            raise UnsupportedScene("hard particles support no background medium")

    def __reduce__(self):
        """Pickled and copied as its constructor arguments, so a copy packs read-only too."""
        return Scene, (self.particles, self.domain, self.wave, self.background,
                       self.separation_factor)

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def max_radius(self) -> float:
        return float(self.radii.max()) if self.particles else 0.0

    @property
    def n0_max(self) -> float:
        return 1.0 if self.background is None else self.background.n0_max

    @functools.cached_property
    def _validation(self) -> "ValidationReport":
        """The scene's one :func:`validate_scene` report, made when it is first asked for."""
        return _validate(self)


@dataclass
class ValidationReport:
    violations: List[str]
    metrics: dict

    @property
    def accepted(self) -> bool:
        return not self.violations


def validate_scene(scene: Scene) -> ValidationReport:
    """Check the smallness regime; report-style, never raises.

    Violations: ``k * a_max * n0_max`` above ``SMALLNESS_THRESHOLD``, minimum
    pairwise distance below ``separation_factor * a_max``, particle centers
    outside the domain, impedance with ``Im h > 0``.  Metrics of two or more
    particles include the least and the mean nearest-neighbour distance
    (:func:`_nearest_distances`).  A scene is immutable, so it is checked once, the first
    time it is validated; every call returns a copy of that report.
    """
    report = scene._validation
    return ValidationReport(list(report.violations), dict(report.metrics))


_NEAR_STEPS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))  # the 27 cells around
_NEAR_BLOCK: int = 1 << 14  # candidate pairs formed at once, their arrays in cache


def _cell_edge(extent: np.ndarray, cells: float) -> float:
    """Edge of the cubes that cut a box of ``extent`` into about ``cells`` of them; a side
    shorter than that edge is one cube thick, and the edge is taken from the others."""
    sides = np.sort(extent)[::-1]
    for dims in (3, 2, 1):
        edge = float(np.prod(sides[:dims]) / cells) ** (1.0 / dims)
        if 0.0 < edge <= sides[dims - 1]:
            return edge
    return 1.0  # every point in one place


def _nearest_distances(points: np.ndarray) -> np.ndarray:
    """Distance from each of ``M >= 2`` points to its nearest other point, equal bit for bit
    to the least off-diagonal entry of its :func:`~smallscat.background.pair_distances` row.

    Where the ``M^2`` pairs exceed one block of ``_BLOCK_ENTRIES``, :func:`_cell_list_nearest`
    finds them among the points of the cubes around each point.  A nearer point lies in
    those cubes unless the nearest candidate is farther than one cube edge, so such a point
    (the margin covers the rounding of its cube), and every point of a smaller cloud, takes
    its whole row instead, by blocks of rows.
    """
    m = len(points)
    best, edge = np.full(m, np.inf), 0.0
    if m * m > background._BLOCK_ENTRIES:
        best, edge = _cell_list_nearest(points)
    far = np.flatnonzero(best > edge * (1.0 - 1e-9))
    rows = max(1, background._BLOCK_ENTRIES // m)
    for f0 in range(0, len(far), rows):
        block = far[f0:f0 + rows]
        r = pair_distances(points[block], points)
        r[np.arange(len(block)), block] = np.inf
        best[block] = r.min(axis=1)
    return best


def _cell_list_nearest(points: np.ndarray) -> Tuple[np.ndarray, float]:
    """Each point's least distance to the other points of the 27 cubes around its own, and
    the cube edge.

    A cell list: cubes of :func:`_cell_edge` holding about two points each, with a layer of
    empty cubes around them, the points sorted by cube and each cube's run found through a
    dense ``bincount``/``cumsum`` table.  The candidates are formed for blocks of points of
    about ``_NEAR_BLOCK`` candidates in all, and each point's least distance is taken with
    ``np.minimum.reduceat``, summed as :func:`~smallscat.background.pair_distances` sums.
    """
    lo = points.min(axis=0)
    extent = points.max(axis=0) - lo
    edge = _cell_edge(extent, len(points) / 2.0)
    shape = (extent // edge).astype(np.int64) + 3
    keys = np.ravel_multi_index(((points - lo) // edge).astype(np.int64).T + 1, shape)
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=int(np.prod(shape)))
    starts = np.cumsum(counts) - counts
    steps = _NEAR_STEPS @ np.array([shape[1] * shape[2], shape[2], 1])  # key offsets
    around = counts.reshape(shape)  # summed over the 27 cubes around, one axis at a time
    for axis in range(3):
        moved = np.moveaxis(around, axis, 0)
        summed = moved.copy()
        summed[1:] += moved[:-1]
        summed[:-1] += moved[1:]
        around = np.moveaxis(summed, 0, axis)
    blocks = np.cumsum(around.ravel()[keys[order]]) // _NEAR_BLOCK
    coords, best = np.ascontiguousarray(points.T), np.empty(len(points))
    for own in np.split(order, np.flatnonzero(np.diff(blocks)) + 1):
        near = (keys[own, None] + steps).ravel()
        lengths = counts[near]
        ends = np.cumsum(lengths)
        firsts = ends - lengths
        j = order[np.arange(ends[-1]) + np.repeat(starts[near] - firsts, lengths)]
        i = np.repeat(own, lengths.reshape(len(own), -1).sum(axis=1))
        squares = [np.square(x[i] - x[j]) for x in coords]
        d = np.sqrt((squares[0] + squares[1]) + squares[2])
        d[i == j] = np.inf
        best[own] = np.minimum.reduceat(d, firsts[::len(steps)])
    return best, edge


def _validate(scene: Scene) -> ValidationReport:
    """The :func:`validate_scene` report of ``scene``."""
    violations: List[str] = []
    metrics: dict = {"n_particles": scene.n_particles}
    if scene.n_particles == 0:
        return ValidationReport(violations, metrics)

    ka = scene.wave.k * scene.max_radius * scene.n0_max
    metrics["k_a_n0"] = ka
    if ka > SMALLNESS_THRESHOLD:
        violations.append(f"k*a*n0 = {ka:.4g} exceeds smallness threshold {SMALLNESS_THRESHOLD}")

    centers = scene.centers
    inside = scene.domain.contains(centers)
    if not np.all(inside):
        bad = np.nonzero(~inside)[0]
        violations.append(f"{len(bad)} particle center(s) outside the domain, first index {bad[0]}")

    if scene.n_particles > 1:
        nearest = _nearest_distances(centers)
        d_min = float(nearest.min())
        ratio = d_min / scene.max_radius
        metrics["min_distance"] = d_min
        metrics["mean_distance"] = float(np.mean(nearest))
        metrics["d_over_a"] = ratio
        if ratio < scene.separation_factor:
            violations.append(
                f"d/a = {ratio:.4g} < {scene.separation_factor:.4g} (min distance {d_min:.4g})"
            )

    if scene.kind == "impedance":
        im_h = np.fromiter((p.bc.h.imag for p in scene.particles), float, scene.n_particles)
        gain = np.flatnonzero(im_h > 1e-15)
        if len(gain):
            violations.append(f"Im h > 0 on {len(gain)} particle(s), first index {gain[0]}")

    return ValidationReport(violations, metrics)


@dataclass(frozen=True)
class CloudSpec:
    """Recipe for a deterministic particle cloud.

    ``law`` selects the counting rule for the number of particles in a
    sub-box ``Delta``:

    - ``dirichlet``:   (1/a)       * integral_Delta N dx
    - ``impedance``:   a^(kappa-2) * integral_Delta N dx
    - ``hard_volume``: N is a target volume fraction; count = integral / cell volume

    Placement is stratified: per-stratum counts come from recursive-bisection remainder
    rounding of the law, positions are jittered over ``JITTER`` of the stratum's edge by the
    seeded generator (rejection against N inside each stratum), and the minimum pairwise
    distance ``separation_factor * a`` is enforced by rejection with a retry cap of
    ``PLACEMENT_RETRY_CAP``.  ValueError for a separation factor negative or not finite, or
    a ``kappa`` outside (0, 1) where the law or the boundary kind is ``impedance``.
    """

    density: ScalarField
    a: float
    law: str = "dirichlet"
    kappa: float = 0.5
    bc_kind: str = "soft"
    h: Optional[ScalarField] = None
    rng_seed: int = 0
    separation_factor: float = DEFAULT_SEPARATION_FACTOR
    strata_n: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"cloud radius must be positive and finite, got {self.a}")
        if self.law not in COUNTING_LAWS:
            raise ValueError(f"unknown counting law {self.law!r}")
        if self.bc_kind not in ("soft", "impedance", "hard"):
            raise ValueError(f"unknown boundary kind {self.bc_kind!r}")
        if self.bc_kind == "impedance" and self.h is None:
            raise ValueError("impedance clouds need an h(x) field")
        if "impedance" in (self.law, self.bc_kind) and not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0, 1), got {self.kappa}")
        _check_separation_factor(self.separation_factor)

    def count_prefactor(self) -> float:
        if self.law == "dirichlet":
            return 1.0 / self.a
        if self.law == "impedance":
            return self.a ** (self.kappa - 2.0)
        return 1.0 / (SPHERE_VOLUME_FACTOR * self.a**3)

    def expected_count(self, domain: Box) -> float:
        """The law's particle count in ``domain``, unrounded: :meth:`_count_for` of the
        density's mass by the midpoint rule of :func:`_cell_masses` on 8^3 cells
        (:func:`_coarse_mass`, which a convergence study samples once for all its levels)."""
        return self._count_for(_coarse_mass(self.density, domain))

    def _count_for(self, mass: float) -> float:
        """The law's unrounded count for a density mass: :meth:`count_prefactor` times it."""
        return self.count_prefactor() * mass


def _coarse_mass(density: ScalarField, domain: Box) -> float:
    """The density's mass in ``domain`` on 8^3 cells, the mass of every expected count
    (ValueError if the density is negative there)."""
    coarse, _ = _cell_masses(density, domain, (8, 8, 8))
    return float(coarse.sum())


def _strata_per_axis(expected: float) -> int:
    """Strata per axis of a cloud expecting ``expected`` particles: the cube root, rounded up."""
    return max(1, math.ceil(max(expected, 1.0) ** (1.0 / 3.0)))


def _bisection_counts(masses: np.ndarray, total: int) -> np.ndarray:
    """Integer counts per cell, proportional to ``masses`` and summing to ``total``.

    The running remainder is distributed along a bisection tree over the
    C-ordered cell list: every tree block receives the rounded share of its
    mass, so |count - target| <= 1 holds per cell and remainders cannot pile
    up across the domain the way plain sequential accumulation allows.  A
    block's mass is its numpy slice sum, which adds fewer than 8 values one by
    one from 0.0, so short blocks are summed the same way on plain floats.
    """
    flat = np.asarray(masses, dtype=float).ravel()
    values = flat.tolist()
    counts = np.zeros(flat.size, dtype=int)

    def mass(lo: int, hi: int) -> float:
        if hi - lo >= 8:
            return float(flat[lo:hi].sum())
        s = 0.0
        for v in values[lo:hi]:
            s += v
        return s

    stack = [(0, flat.size, total, None)]
    while stack:
        lo, hi, n, m_all = stack.pop()
        if n == 0:
            continue
        if hi - lo == 1:
            counts[lo] = n
            continue
        mid = (lo + hi) // 2
        m_all = mass(lo, hi) if m_all is None else m_all
        m_lo = mass(lo, mid)
        n_lo = n // 2 if m_all <= 0.0 else int(round(n * (m_lo / m_all)))
        n_lo = min(max(n_lo, 0), n)
        stack.append((mid, hi, n - n_lo, None))
        stack.append((lo, mid, n_lo, m_lo))
    return counts


class _NegativeDensity(ValueError):
    """A density negative on its domain, a fault of the input that a command names."""


def _cell_masses(density: ScalarField, domain: Box, shape: Tuple[int, int, int]):
    """Per-cell integrals of the density (subsampled midpoint rule) and per-cell sample maxima.

    The samples are taken in x-slabs of whole cells, at most ``_MASS_SLAB_POINTS``
    (or one layer of cells) at a time; each cell sees the same samples as from one array.
    """
    ns = _MASS_SUBSAMPLES
    nx, ny, nz = shape
    xs, ys, zs = (
        domain.lo[d] + (np.arange(n * ns) + 0.5) * domain.lengths[d] / (n * ns)
        for d, n in zip(range(3), shape)
    )
    cell_vol = domain.volume / (nx * ny * nz)
    masses, sub_max = np.empty(shape), np.empty(shape)
    layers = max(1, _MASS_SLAB_POINTS // (ns**3 * ny * nz))
    for i0 in range(0, nx, layers):
        slab = slice(i0, min(nx, i0 + layers))
        slab_xs = xs[slab.start * ns:slab.stop * ns]
        pts = np.empty((len(slab_xs), len(ys), len(zs), 3))
        pts[..., 0] = slab_xs[:, None, None]
        pts[..., 1] = ys[:, None]
        pts[..., 2] = zs
        vals = np.real(density.sample(pts.reshape(-1, 3)))
        if np.min(vals) < -1e-12:
            raise _NegativeDensity("density must be nonnegative on the domain")
        vals = np.maximum(vals, 0.0).reshape(-1, ns, ny, ns, nz, ns)
        masses[slab] = vals.mean(axis=(1, 3, 5)) * cell_vol
        # a maximum is exact in any order, and over one contiguous axis about 4x faster
        sub_max[slab] = vals.transpose(0, 2, 4, 1, 3, 5).reshape(-1, ny, nz, ns**3).max(axis=-1)
    return masses, sub_max.ravel()


_KEY: int = 1 << 32  # stride of the separation grid's linear cell keys


def generate_cloud(spec: CloudSpec, domain: Box) -> List[Particle]:
    """Place particles following the counting law of ``spec`` inside ``domain``.

    Deterministic given ``rng_seed`` (single stream, fixed stratum order).
    Raises DensityInfeasible when the separation constraint cannot be met
    within the retry cap, ValueError when the law yields no particles.  The
    strata per axis are ``spec.strata_n`` or, when that is None, the cube root
    of :meth:`CloudSpec.expected_count` rounded up (:func:`_strata_per_axis`,
    which a convergence study applies to the count of its one density mass).

    Every attempt draws three jitter uniforms and, where the stratum's density
    bound is positive, one acceptance uniform, in stream order.  The uniforms
    are drawn in batches (``random(3)`` then ``random()`` draws what ``random(4)``
    does), and the first attempts of a run of particles are formed and tested
    against the density as arrays on the guess that each succeeds; a retry ends
    the run.  Separation is tested on plain floats against a grid hash.
    """
    n_strata = (int(spec.strata_n) if spec.strata_n is not None
                else _strata_per_axis(spec.expected_count(domain)))
    shape = (n_strata, n_strata, n_strata)
    masses, density_max = _cell_masses(spec.density, domain, shape)

    total_mass = float(masses.sum())
    m_total = int(round(spec.count_prefactor() * total_mass))
    if m_total < 1:
        raise ValueError(
            f"counting law yields {m_total} particles (a={spec.a}, law={spec.law}); "
            "nothing to place"
        )
    counts = _bisection_counts(masses, m_total)

    # one row per particle, strata in C order: stratum midpoint and density bound
    edges = domain.lengths / n_strata
    strata = np.repeat(np.arange(counts.size), counts)
    mids = domain.lo + np.stack(np.unravel_index(strata, shape), axis=1) * edges + 0.5 * edges
    bound = density_max[strata]
    width = np.where(bound > 0, 4, 3)  # uniforms per attempt
    rng = np.random.default_rng(spec.rng_seed)
    uniforms = np.empty(0)

    def drawn(end: int) -> np.ndarray:
        nonlocal uniforms
        if end > len(uniforms):
            more = max(end - len(uniforms), len(uniforms), 4096)
            uniforms = np.concatenate([uniforms, rng.random(more)])
        return uniforms

    def first_attempts(i: int, j: int, pos: int) -> list:
        """``(x, y, z, rejected)`` of the first attempts of particles ``i..j-1``."""
        starts = pos + np.concatenate(([0], np.cumsum(width[i:j - 1])))
        u = drawn(int(starts[-1]) + 4)[starts[:, None] + np.arange(4)]
        cand = mids[i:j] + ((u[:, :3] - 0.5) * edges) * JITTER
        rejected = np.zeros(j - i, dtype=bool)
        tested = bound[i:j] > 0
        if np.any(tested):
            dens = np.real(spec.density.sample(cand[tested]))
            rejected[tested] = u[tested, 3] * bound[i:j][tested] > dens
        return [(*c, r) for c, r in zip(cand.tolist(), rejected.tolist())]

    d_min = spec.separation_factor * spec.a
    d2 = d_min * d_min
    # plain-float squares round within 1e-15 of the dot product the test is defined by
    sure, unsure = d2 * (1.0 - 1e-12), d2 * (1.0 + 1e-12)
    lo_x, lo_y, lo_z = domain.lo.tolist()
    cells: dict = {}
    near = [(dx * _KEY + dy) * _KEY + dz for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            for dz in (-1, 0, 1)]

    def separated(key: int, x: float, y: float, z: float) -> bool:
        for off in near:
            bucket = cells.get(key + off)
            if bucket is None:
                continue
            for qx, qy, qz in bucket:
                d = (x - qx, y - qy, z - qz)
                s = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
                if s < unsure and (s < sure or np.dot(d, d) < d2):
                    return False
        return True

    ex, ey, ez = edges.tolist()
    positions = []
    guesses: list = []
    run_start, pos = 0, 0
    for i, ((mx, my, mz), w, nmax) in enumerate(zip(mids.tolist(), width.tolist(),
                                                   bound.tolist())):
        if i - run_start >= len(guesses):
            guesses = first_attempts(i, min(m_total, i + 2 * (i - run_start) + 1), pos)
            run_start = i
        for attempt in range(PLACEMENT_RETRY_CAP):
            if attempt == 0:
                x, y, z, rejected = guesses[i - run_start]
            else:
                shrink = JITTER * (1.0 - attempt / PLACEMENT_RETRY_CAP)
                u = drawn(pos + 4)[pos:pos + 4].tolist()
                x = mx + ((u[0] - 0.5) * ex) * shrink
                y = my + ((u[1] - 0.5) * ey) * shrink
                z = mz + ((u[2] - 0.5) * ez) * shrink
                rejected = w == 4 and u[3] * nmax > float(
                    np.real(spec.density.sample(np.array([[x, y, z]])))[0])
            pos += w
            if rejected:
                continue
            if d_min <= 0:
                break
            key = (math.floor((x - lo_x) / d_min) * _KEY + math.floor((y - lo_y) / d_min)) \
                * _KEY + math.floor((z - lo_z) / d_min)
            if separated(key, x, y, z):
                cells.setdefault(key, []).append((x, y, z))
                break
        else:
            ix, iy, iz = np.unravel_index(strata[i], shape)
            raise DensityInfeasible(
                f"could not place particle in stratum ({ix},{iy},{iz}) after "
                f"{PLACEMENT_RETRY_CAP} retries at min distance {d_min:.4g}"
            )
        if attempt > 0:  # the guesses after a retry start from the wrong draws
            guesses = guesses[:i - run_start + 1]
        positions.append((x, y, z))

    particles = _spheres(np.array(positions), spec)
    logger.info("generated cloud: law=%s a=%g M=%d strata=%d^3", spec.law, spec.a,
                len(particles), n_strata)
    return particles


def _spheres(centers: np.ndarray, spec: CloudSpec) -> List[Particle]:
    """:meth:`Particle.sphere` at each center, built and checked once.

    The particles differ only in center, boundary condition and their own copy
    of the polarizability, so each is a copy of one checked prototype.
    """
    if spec.bc_kind == "impedance":
        bcs = [Impedance(h=h, kappa=spec.kappa) for h in spec.h.sample(centers).tolist()]
    else:
        bcs = [Soft() if spec.bc_kind == "soft" else Hard()] * len(centers)
    prototype = vars(Particle.sphere(np.zeros(3), spec.a, bcs[0]))
    betas = [None] * len(centers)
    if spec.bc_kind == "hard":
        betas = np.empty((len(centers), 3, 3))
        betas[:] = prototype["polarizability"]
    particles = []
    for center, bc, beta in zip(centers, bcs, betas):
        p = object.__new__(Particle)
        p.__dict__.update(prototype, center=center, bc=bc, polarizability=beta)
        particles.append(p)
    return particles
