"""Scalar fields on a box: particle densities, impedance profiles, refraction maps.

The catalog is intentionally small (constant, affine, gaussian bump, gridded
CSV samples); arbitrary expression parsing is out of scope.  All fields are
evaluated vectorized on ``(n, 3)`` point arrays and may be complex valued.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import Box, record_eq


class ScalarField:
    """Base class; subclasses implement :meth:`sample`, row-wise: a sample of many points
    equals each point sampled alone, bit for bit, which cloud placement relies on to test
    a run of candidates in one call."""

    def sample(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantField(ScalarField):
    value: complex

    def sample(self, points):
        p = np.atleast_2d(points)
        return np.full(p.shape[0], self.value)


@dataclass(frozen=True)
class AffineField(ScalarField):
    """``value0 + gradient . x``."""

    value0: complex
    gradient: np.ndarray

    __eq__ = record_eq

    def __post_init__(self):
        object.__setattr__(self, "gradient", np.asarray(self.gradient).reshape(3))

    def sample(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        # elementwise, as ``p @ gradient`` on BLAS may round many rows unlike one
        return self.value0 + sum(p[:, d] * self.gradient[d] for d in range(3))


@dataclass(frozen=True)
class GaussianBumpField(ScalarField):
    """``base + amplitude * exp(-|x - center|^2 / width^2)``."""

    amplitude: complex
    center: np.ndarray
    width: float
    base: complex = 0.0

    __eq__ = record_eq

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        if self.width <= 0:
            raise ValueError("gaussian bump width must be positive")

    def sample(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.sum((p - self.center) ** 2, axis=1)
        return self.base + self.amplitude * np.exp(-r2 / self.width**2)


class GriddedField(ScalarField):
    """Trilinear interpolant of samples on a regular lattice.

    Points outside the lattice are clamped to the boundary values.
    """

    def __init__(self, axes, values):
        self.axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
        if any(ax.ndim != 1 or len(ax) < 1 for ax in self.axes):
            raise ValueError("each axis must be a nonempty 1-d array")
        if any(np.any(np.diff(ax) <= 0) for ax in self.axes):
            raise ValueError("axes must be strictly increasing")
        values = np.asarray(values)
        shape = tuple(len(ax) for ax in self.axes)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != lattice shape {shape}")
        self.values = values

    @classmethod
    def from_csv(cls, path) -> "GriddedField":
        """Load ``x,y,z,value`` (or ``x,y,z,re,im``) rows on a regular lattice."""
        path = Path(path)
        data = np.genfromtxt(path, delimiter=",", names=True)  # OSError if unreadable
        names = data.dtype.names or ()
        for col in ("x", "y", "z"):
            if col not in names:
                raise ValueError(f"gridded field {path} lacks column '{col}'")
        if "re" in names and "im" in names:
            vals = data["re"] + 1j * data["im"]
        elif "value" in names:
            vals = data["value"]
        else:
            raise ValueError(f"gridded field {path} needs 'value' or 're','im' columns")
        pts = np.stack([data["x"], data["y"], data["z"]], axis=1)
        axes = [np.unique(pts[:, d]) for d in range(3)]
        shape = tuple(len(ax) for ax in axes)
        if np.prod(shape) != len(pts):
            raise ValueError(f"gridded field {path} is not a full regular lattice")
        idx = [np.searchsorted(axes[d], pts[:, d]) for d in range(3)]
        grid = np.empty(shape, dtype=vals.dtype)
        grid[idx[0], idx[1], idx[2]] = vals
        return cls(axes, grid)

    def sample(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        out_dtype = complex if np.iscomplexobj(self.values) else float
        idx, frac = [], []
        for d in range(3):
            ax = self.axes[d]
            if len(ax) == 1:
                idx.append(np.zeros(p.shape[0], dtype=int))
                frac.append(np.zeros(p.shape[0]))
                continue
            i = np.clip(np.searchsorted(ax, p[:, d], side="right") - 1, 0, len(ax) - 2)
            t = (p[:, d] - ax[i]) / (ax[i + 1] - ax[i])
            idx.append(i)
            frac.append(np.clip(t, 0.0, 1.0))
        out = np.zeros(p.shape[0], dtype=out_dtype)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = (
                        (frac[0] if dx else 1 - frac[0])
                        * (frac[1] if dy else 1 - frac[1])
                        * (frac[2] if dz else 1 - frac[2])
                    )
                    ii = [np.minimum(idx[d] + off, len(self.axes[d]) - 1)
                          for d, off in zip(range(3), (dx, dy, dz))]
                    out += w * self.values[ii[0], ii[1], ii[2]]
        return out


def probe_points(box: Box) -> np.ndarray:
    """Deterministic probe lattice (12^3 cell midpoints plus the box corners)."""
    axes = [box.lo[d] + (np.arange(12) + 0.5) * box.lengths[d] / 12 for d in range(3)]
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    mids = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    corners = np.array([[box.lo[d] if b & (1 << d) == 0 else box.hi[d] for d in range(3)]
                        for b in range(8)])
    return np.vstack([mids, corners])
