"""Axis-aligned boxes and cube covers used by the collocation and quadrature code.

A cover partitions a box into an ``nx x ny x nz`` lattice of equal cells.
Cell centers are ordered in C order (x slowest, z fastest), matching
``np.arange(P).reshape(shape)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Tuple

import numpy as np

# Integral of 1/|y - c| over a unit cube centered at c (Richardson-extrapolated
# midpoint quadrature; see tests for the refinement oracle).
CUBE_SELF_POTENTIAL: float = 2.3800773639796


def record_eq(self, other) -> bool:
    """Value equality of frozen dataclass records: array fields compare by ``np.array_equal``.

    The ``__eq__`` of every record that holds arrays, where the generated one would raise
    on an array's ambiguous truth value.  Hashing such a record still raises TypeError.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        if f.compare:
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a is not b and not a == b:
                return False
    return True


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by two corners ``lo <= hi``."""

    lo: np.ndarray
    hi: np.ndarray

    __eq__ = record_eq

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if not np.all(hi > lo):
            raise ValueError(f"box must have positive extent, got lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def lengths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed box."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((p >= self.lo) & (p <= self.hi), axis=1)


@dataclass(frozen=True)
class GridCover:
    """Partition of a box into equal axis-aligned cells.

    Attributes
    ----------
    box : Box
        Covered domain.
    shape : (nx, ny, nz)
        Cell counts per axis.
    """

    box: Box
    shape: Tuple[int, int, int]
    cell_edges: np.ndarray = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)

    __eq__ = record_eq

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != 3 or any(n < 1 for n in shape):
            raise ValueError(f"cover shape must be three positive ints, got {self.shape}")
        object.__setattr__(self, "shape", shape)
        edges = self.box.lengths / np.asarray(shape, dtype=float)
        object.__setattr__(self, "cell_edges", edges)
        axes = [self.box.lo[d] + (np.arange(shape[d]) + 0.5) * edges[d] for d in range(3)]
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        centers = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        object.__setattr__(self, "centers", centers)

    @classmethod
    def from_edge(cls, box: Box, edge: float) -> "GridCover":
        """Cover with cells as close to cubes of the given edge as the box allows."""
        if edge <= 0:
            raise ValueError("cell edge must be positive")
        shape = tuple(max(1, int(round(l / edge))) for l in box.lengths)
        return cls(box=box, shape=shape)

    @classmethod
    def from_shape(cls, box: Box, n: int | Iterable[int]) -> "GridCover":
        if np.isscalar(n):
            n = (int(n),) * 3
        return cls(box=box, shape=tuple(n))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_edges))

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Flat cell index (C order) of each point, its per-axis indices clamped into the grid."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        m = np.clip(np.floor((p - self.box.lo) / self.cell_edges).astype(int), 0,
                    np.asarray(self.shape) - 1)
        _, ny, nz = self.shape
        return (m[:, 0] * ny + m[:, 1]) * nz + m[:, 2]

    def self_green_integral(self) -> float:
        """Static-kernel mean-value integral of ``1/(4 pi r)`` over one cell.

        Exact for cubes; near-cubic cells use the equivalent-volume cube edge.
        """
        h = self.cell_volume ** (1.0 / 3.0)
        return CUBE_SELF_POTENTIAL * h * h / (4.0 * np.pi)
