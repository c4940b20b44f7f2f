"""Scenes of small particles: domain types, regime validation, cloud generation.

Conventions: incident plane wave ``u0(x) = amplitude * exp(i k alpha . x)``
with ``|alpha| = 1``; all lengths share one unit; the dielectric constant of
the embedding medium is 1.  Scenes and particles are immutable value types
and safe to share across threads; cloud generation is single threaded and a
pure function of the seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np
from scipy.spatial import cKDTree

from .background import BackgroundMedium
from .errors import DensityInfeasible
from .fields import ScalarField
from .grids import Box

logger = logging.getLogger(__name__)

DEFAULT_SEPARATION_FACTOR: float = 10.0
DEFAULT_SMALLNESS_THRESHOLD: float = 0.1
# Closed-form sphere functionals: capacitance / a, |S| / a^2, |D| / a^3, beta / I.
SPHERE_CAPACITANCE_PER_RADIUS: float = 4.0 * np.pi
SPHERE_SURFACE_FACTOR: float = 4.0 * np.pi
SPHERE_VOLUME_FACTOR: float = 4.0 / 3.0 * np.pi
SPHERE_POLARIZABILITY: float = -1.5

# Placement knobs: particles are jittered inside the central part of their
# stratum; the jitter shrinks linearly over separation retries.
DEFAULT_JITTER: float = 0.6
PLACEMENT_RETRY_CAP: int = 200
_MASS_SUBSAMPLES: int = 4


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave ``u0(x) = amplitude * exp(i k alpha . x)``."""

    k: float
    alpha: np.ndarray
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"wave number must be positive, got {self.k}")
        alpha = np.asarray(self.alpha, dtype=float).reshape(3)
        if abs(np.linalg.norm(alpha) - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, |alpha|={np.linalg.norm(alpha)}")
        if self.amplitude == 0:
            raise ValueError("wave amplitude must be nonzero")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    def field_at(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return self.amplitude * np.exp(1j * self.k * (p @ self.alpha))

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
        object.__setattr__(self, "h", complex(self.h))


@dataclass(frozen=True)
class Hard:
    """Sound-hard particle: the normal derivative vanishes on the surface."""


BoundaryKind = Union[Soft, Impedance, Hard]


def kind_label(bc: BoundaryKind) -> str:
    if isinstance(bc, Soft):
        return "soft"
    if isinstance(bc, Impedance):
        return "impedance"
    if isinstance(bc, Hard):
        return "hard"
    raise TypeError(f"not a boundary kind: {bc!r}")


@dataclass(frozen=True)
class Particle:
    """One small scatterer with precomputed shape functionals.

    ``a`` is half the diameter; ``surface_factor`` is ``|S| / a^2``;
    ``polarizability`` is the 3x3 shape tensor and is required only for
    hard particles.
    """

    center: np.ndarray
    a: float
    bc: BoundaryKind
    capacitance: float
    surface_factor: float
    volume: float
    polarizability: Optional[np.ndarray] = None
    shape: str = "sphere"

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"particle radius scale must be positive, got {self.a}")
        if self.capacitance <= 0 or self.surface_factor <= 0 or self.volume <= 0:
            raise ValueError("shape functionals must be positive")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        if self.polarizability is not None:
            beta = np.asarray(self.polarizability, dtype=float).reshape(3, 3)
            object.__setattr__(self, "polarizability", beta)

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
            shape="sphere",
        )


@dataclass(frozen=True)
class Scene:
    """Particle cloud + incident wave + (optional) background medium in a box."""

    particles: Tuple[Particle, ...]
    domain: Box
    wave: IncidentWave
    background: Optional[BackgroundMedium] = None
    separation_factor: float = DEFAULT_SEPARATION_FACTOR
    smallness_threshold: float = DEFAULT_SMALLNESS_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def centers(self) -> np.ndarray:
        if not self.particles:
            return np.zeros((0, 3))
        return np.array([p.center for p in self.particles])

    @property
    def radii(self) -> np.ndarray:
        return np.array([p.a for p in self.particles])

    @property
    def max_radius(self) -> float:
        return float(self.radii.max()) if self.particles else 0.0

    @property
    def n0_max(self) -> float:
        return 1.0 if self.background is None else self.background.n0_max

    def boundary_kind(self) -> str:
        """Common kind label; raises if kinds are mixed (treated separately)."""
        kinds = {kind_label(p.bc) for p in self.particles}
        if len(kinds) > 1:
            raise ValueError(f"scene mixes boundary kinds {sorted(kinds)}")
        return kinds.pop() if kinds else "empty"


@dataclass
class ValidationReport:
    violations: List[str]
    metrics: dict

    @property
    def accepted(self) -> bool:
        return not self.violations


def validate_scene(scene: Scene) -> ValidationReport:
    """Check the smallness regime; report-style, never raises.

    Violations: ``k * a_max * n0_max`` above the smallness threshold, minimum
    pairwise distance below ``separation_factor * a_max``, particle centers
    outside the domain, impedance with ``Im h > 0``.
    """
    violations: List[str] = []
    metrics: dict = {"n_particles": scene.n_particles}
    if scene.n_particles == 0:
        return ValidationReport(violations, metrics)

    ka = scene.wave.k * scene.max_radius * scene.n0_max
    metrics["k_a_n0"] = ka
    if ka > scene.smallness_threshold:
        violations.append(
            f"k*a*n0 = {ka:.4g} exceeds smallness threshold {scene.smallness_threshold:.4g}"
        )

    centers = scene.centers
    inside = scene.domain.contains(centers)
    if not np.all(inside):
        bad = np.nonzero(~inside)[0]
        violations.append(f"{len(bad)} particle center(s) outside the domain, first index {bad[0]}")

    if scene.n_particles > 1:
        tree = cKDTree(centers)
        dists, _ = tree.query(centers, k=2)
        d_min = float(dists[:, 1].min())
        ratio = d_min / scene.max_radius
        metrics["min_distance"] = d_min
        metrics["d_over_a"] = ratio
        if ratio < scene.separation_factor:
            violations.append(
                f"d/a = {ratio:.4g} < {scene.separation_factor:.4g} (min distance {d_min:.4g})"
            )

    for i, p in enumerate(scene.particles):
        if isinstance(p.bc, Impedance) and np.imag(p.bc.h) > 1e-15:
            violations.append(f"Im h > 0 on particle {i}")

    return ValidationReport(violations, metrics)


@dataclass(frozen=True)
class CloudSpec:
    """Recipe for a deterministic particle cloud.

    ``law`` selects the counting rule for the number of particles in a
    sub-box ``Delta``:

    - ``dirichlet``:   (1/a)       * integral_Delta N dx
    - ``impedance``:   a^(kappa-2) * integral_Delta N dx
    - ``hard_volume``: N is a target volume fraction; count = integral / cell volume

    Placement is stratified: per-stratum counts come from recursive-bisection
    remainder rounding of the law, positions are jittered by the seeded
    generator (rejection against N inside each stratum), and the minimum
    pairwise distance ``separation_factor * a`` is enforced by rejection with
    a retry cap of ``PLACEMENT_RETRY_CAP``.
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
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("cloud radius must be positive")
        if self.law not in ("dirichlet", "impedance", "hard_volume"):
            raise ValueError(f"unknown counting law {self.law!r}")
        if self.bc_kind not in ("soft", "impedance", "hard"):
            raise ValueError(f"unknown boundary kind {self.bc_kind!r}")
        if self.bc_kind == "impedance" and self.h is None:
            raise ValueError("impedance clouds need an h(x) field")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def count_prefactor(self) -> float:
        if self.law == "dirichlet":
            return 1.0 / self.a
        if self.law == "impedance":
            return self.a ** (self.kappa - 2.0)
        return 1.0 / (SPHERE_VOLUME_FACTOR * self.a**3)


def _bisection_counts(masses: np.ndarray, total: int) -> np.ndarray:
    """Integer counts per cell, proportional to ``masses`` and summing to ``total``.

    The running remainder is distributed along a bisection tree over the
    C-ordered cell list: every tree block receives the rounded share of its
    mass, so |count - target| <= 1 holds per cell and remainders cannot pile
    up across the domain the way plain sequential accumulation allows.
    """
    flat = np.asarray(masses, dtype=float).ravel()
    counts = np.zeros(flat.size, dtype=int)

    def rec(lo: int, hi: int, n: int) -> None:
        if n == 0:
            return
        if hi - lo == 1:
            counts[lo] = n
            return
        mid = (lo + hi) // 2
        m_all = float(flat[lo:hi].sum())
        n_lo = n // 2 if m_all <= 0.0 else int(round(n * (float(flat[lo:mid].sum()) / m_all)))
        n_lo = min(max(n_lo, 0), n)
        rec(lo, mid, n_lo)
        rec(mid, hi, n - n_lo)

    rec(0, flat.size, total)
    return counts


def _cell_masses(density: ScalarField, domain: Box, shape: Tuple[int, int, int]):
    """Per-cell integrals of the density (subsampled midpoint rule)."""
    ns = _MASS_SUBSAMPLES
    nx, ny, nz = shape
    axes = [
        domain.lo[d] + (np.arange(n * ns) + 0.5) * domain.lengths[d] / (n * ns)
        for d, n in zip(range(3), shape)
    ]
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    vals = np.real(density.sample(pts)).reshape(nx * ns, ny * ns, nz * ns)
    if np.min(vals) < -1e-12:
        raise ValueError("density must be nonnegative on the domain")
    vals = np.maximum(vals, 0.0)
    block = vals.reshape(nx, ns, ny, ns, nz, ns).mean(axis=(1, 3, 5))
    cell_vol = domain.volume / (nx * ny * nz)
    masses = block * cell_vol
    sub_max = vals.reshape(nx, ns, ny, ns, nz, ns).max(axis=(1, 3, 5)).ravel()
    return masses, sub_max


def generate_cloud(spec: CloudSpec, domain: Box) -> List[Particle]:
    """Place particles following the counting law of ``spec`` inside ``domain``.

    Deterministic given ``rng_seed`` (single stream, fixed stratum order).
    Raises DensityInfeasible when the separation constraint cannot be met
    within the retry cap, ValueError when the law yields no particles.
    """
    if spec.strata_n is not None:
        n_strata = int(spec.strata_n)
    else:
        coarse, _ = _cell_masses(spec.density, domain, (8, 8, 8))
        m_hint = spec.count_prefactor() * float(coarse.sum())
        n_strata = max(1, math.ceil(max(m_hint, 1.0) ** (1.0 / 3.0)))
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

    rng = np.random.default_rng(spec.rng_seed)
    d_min = spec.separation_factor * spec.a
    edges = domain.lengths / n_strata
    occupied: dict = {}
    positions: List[np.ndarray] = []

    def separated(p: np.ndarray) -> bool:
        if d_min <= 0:
            return True
        key = tuple(np.floor((p - domain.lo) / d_min).astype(int))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for q in occupied.get((key[0] + dx, key[1] + dy, key[2] + dz), ()):
                        if np.dot(p - q, p - q) < d_min * d_min:
                            return False
        return True

    flat = 0
    for ix in range(n_strata):
        for iy in range(n_strata):
            for iz in range(n_strata):
                n_here = int(counts[flat])
                nmax = density_max[flat]
                flat += 1
                if n_here == 0:
                    continue
                lo = domain.lo + np.array([ix, iy, iz]) * edges
                mid = lo + 0.5 * edges
                for _ in range(n_here):
                    placed = False
                    for attempt in range(PLACEMENT_RETRY_CAP):
                        shrink = spec.jitter * (1.0 - attempt / PLACEMENT_RETRY_CAP)
                        cand = mid + (rng.random(3) - 0.5) * edges * shrink
                        if nmax > 0:
                            accept = rng.random() * nmax
                            if accept > np.real(spec.density.sample(cand[None, :]))[0]:
                                continue
                        if separated(cand):
                            placed = True
                            break
                    if not placed:
                        raise DensityInfeasible(
                            f"could not place particle in stratum ({ix},{iy},{iz}) after "
                            f"{PLACEMENT_RETRY_CAP} retries at min distance {d_min:.4g}"
                        )
                    if d_min > 0:
                        key = tuple(np.floor((cand - domain.lo) / d_min).astype(int))
                        occupied.setdefault(key, []).append(cand)
                    positions.append(cand)

    h_field = spec.h
    particles = []
    for pos in positions:
        if spec.bc_kind == "soft":
            bc: BoundaryKind = Soft()
        elif spec.bc_kind == "hard":
            bc = Hard()
        else:
            h_val = complex(h_field.sample(pos[None, :])[0])
            bc = Impedance(h=h_val, kappa=spec.kappa)
        particles.append(Particle.sphere(pos, spec.a, bc))
    logger.info("generated cloud: law=%s a=%g M=%d strata=%d^3", spec.law, spec.a,
                len(particles), n_strata)
    return particles
