"""Scalar reference for cloud placement: one candidate, one draw and one check at a time.

``oracle_cloud`` places particles exactly as ``smallscat.core.generate_cloud``
is specified to: strata in C order, per stratum its bisection count, per
particle up to ``PLACEMENT_RETRY_CAP`` attempts that each draw three jitter
uniforms and, where the stratum's density bound is positive, one acceptance
uniform, then test the density and the separation.  It returns the centers and
the impedance values ``h`` (``None`` unless ``bc_kind == "impedance"``) and
raises the same ``DensityInfeasible``.  Tests compare the array-speed
production code against it bit for bit.  ``oracle_cell_masses`` samples the
density for the stratum masses in one array, where the production code takes
bounded slabs.
"""

from __future__ import annotations

import math

import numpy as np

from smallscat.core import _MASS_SUBSAMPLES, PLACEMENT_RETRY_CAP, _cell_masses
from smallscat.errors import DensityInfeasible


def oracle_cell_masses(density, domain, shape):
    """Per-cell subsampled midpoint masses and sample maxima, every sample in one array."""
    ns = _MASS_SUBSAMPLES
    nx, ny, nz = shape
    axes = [domain.lo[d] + (np.arange(n * ns) + 0.5) * domain.lengths[d] / (n * ns)
            for d, n in zip(range(3), shape)]
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    vals = np.maximum(np.real(density.sample(pts)), 0.0).reshape(nx, ns, ny, ns, nz, ns)
    masses = vals.mean(axis=(1, 3, 5)) * (domain.volume / (nx * ny * nz))
    return masses, vals.max(axis=(1, 3, 5)).ravel()


def oracle_bisection_counts(masses, total):
    """Recursive bisection remainder rounding, two slice sums per tree node."""
    flat = np.asarray(masses, dtype=float).ravel()
    counts = np.zeros(flat.size, dtype=int)

    def rec(lo, hi, n):
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


def oracle_cloud(spec, domain):
    """``(centers (M, 3), h (M,) or None)`` of the cloud ``spec`` describes."""
    if spec.strata_n is not None:
        n_strata = int(spec.strata_n)
    else:
        coarse, _ = _cell_masses(spec.density, domain, (8, 8, 8))
        m_hint = spec.count_prefactor() * float(coarse.sum())
        n_strata = max(1, math.ceil(max(m_hint, 1.0) ** (1.0 / 3.0)))
    shape = (n_strata, n_strata, n_strata)
    masses, density_max = _cell_masses(spec.density, domain, shape)
    m_total = int(round(spec.count_prefactor() * float(masses.sum())))
    if m_total < 1:
        raise ValueError("nothing to place")
    counts = oracle_bisection_counts(masses, m_total)

    rng = np.random.default_rng(spec.rng_seed)
    d_min = spec.separation_factor * spec.a
    edges = domain.lengths / n_strata
    occupied = {}
    positions = []

    def separated(p):
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

    centers = np.array(positions)
    if spec.bc_kind != "impedance":
        return centers, None
    return centers, np.array([complex(spec.h.sample(p[None, :])[0]) for p in positions])
