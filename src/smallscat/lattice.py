"""Translation-invariant kernels on a cube cover, applied by zero-padded FFT.

On a :class:`~smallscat.grids.GridCover` the coupling between cells ``i`` and
``j`` depends only on the index offset ``i - j``, so the ``P x P`` kernel
matrix is three-level Toeplitz.  Its samples at the offsets ``-(n-1)..(n-1)``
per axis, embedded in a grid of ``2n`` points per axis, define a circulant
that the FFT diagonalizes: one application costs a forward and an inverse FFT
of the padded grid, ``O(P log P)`` time and ``O(P)`` memory instead of the
``O(P^2)`` of the dense matrix (Vainikko, "Fast solvers of the
Lippmann-Schwinger equation", 2000; Vico, Greengard & Ferrando, "Fast
convolution with free-space Green's functions", JCP 2016).

Systems built from these operators, and every other second-kind system of
the package, are solved by :func:`solve_checked`: a restarted GMRES kept in
this module, so that it can count and cap its products.  The true residual
that ends each cycle through the same operator is the residual the solve
checks and returns, and a non-finite residual fails the solve at once.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import SolveFailure
from .grids import GridCover

DEFAULT_RTOL: float = 1e-10
RESTART: int = 80  # Arnoldi steps per GMRES cycle
MAX_CYCLES: int = 400
_EPS = float(np.finfo(float).eps)
_AXES = (-3, -2, -1)


class LatticeOperator:
    """Block convolution of cell vectors with translation-invariant kernels.

    Parameters
    ----------
    cover : GridCover
        The lattice; cells are in the cover's C order.
    kernel : callable
        Maps displacements ``d`` (target minus source center, shape
        ``(m, 3)``, never zero) to kernel samples of shape ``(m,)``, or
        ``(m, S)`` for ``S`` kernels sharing the lattice.
    self_value : complex
        The diagonal (zero offset) of every kernel: 0 drops the self cell,
        the mean-value integral over one cell keeps it.
    weights : array (P,), optional
        Per-cell factors applied to the input before the convolution, so the
        operator is ``T diag(weights)``.
    layout : sequence of (out, in, s, factor)
        Output channel ``out`` gains ``factor * kernel_s * (input channel in)``.
        The default is the single kernel, one input and one output channel.

    ``op @ v`` takes ``(P,)`` for a single input channel and returns
    ``(P,)``; otherwise it maps ``(n_in, P)`` to ``(n_out, P)``.
    """

    def __init__(self, cover: GridCover, kernel: Callable[[np.ndarray], np.ndarray],
                 self_value: complex = 0.0, weights: Optional[np.ndarray] = None,
                 layout: Sequence[Tuple[int, int, int, complex]] = ((0, 0, 0, 1.0),)):
        self.cover = cover
        self.n_cells = cover.n_cells
        self.weights = (None if weights is None
                        else np.asarray(weights, dtype=complex).reshape(cover.n_cells))
        self.layout = tuple(layout)
        self.n_in = 1 + max(entry[1] for entry in self.layout)
        self.n_out = 1 + max(entry[0] for entry in self.layout)
        self._padded = tuple(2 * n for n in cover.shape)

        offsets = [np.fft.fftfreq(m, 1.0 / m) for m in self._padded]
        grids = np.meshgrid(*offsets, indexing="ij")
        valid = np.logical_and.reduce([np.abs(o) < n for o, n in zip(grids, cover.shape)])
        valid[0, 0, 0] = False
        disp = np.stack([o[valid] * h for o, h in zip(grids, cover.cell_edges)], axis=1)
        n_kernels = 1 + max(entry[2] for entry in self.layout)
        values = np.asarray(kernel(disp), dtype=complex).reshape(len(disp), n_kernels)
        samples = np.zeros((n_kernels,) + self._padded, dtype=complex)
        samples[:, valid] = values.T
        samples[:, 0, 0, 0] = self_value
        self._hats = np.fft.fftn(samples, axes=_AXES)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x = np.asarray(v, dtype=complex)
        single = x.ndim == 1
        x = x.reshape(self.n_in, self.n_cells)
        if self.weights is not None:
            x = x * self.weights
        x_hat = np.fft.fftn(x.reshape((self.n_in,) + self.cover.shape), s=self._padded,
                            axes=_AXES)
        y_hat = np.zeros((self.n_out,) + self._padded, dtype=complex)
        for out, inp, s, factor in self.layout:
            y_hat[out] += factor * (self._hats[s] * x_hat[inp])
        # the inverse axis by axis, each cropped to the cover before the next: 1.75 passes
        # over the padded grid instead of 3
        nx, ny, nz = self.cover.shape
        y = np.fft.ifft(y_hat, axis=-1)[..., :nz]
        y = np.fft.ifft(y, axis=-2)[..., :ny, :]
        y = np.fft.ifft(y, axis=-3)[..., :nx, :, :]
        y = y.reshape(self.n_out, self.n_cells)
        return y[0] if single else y


def _rotation(f: complex, g: float) -> Tuple[float, complex, complex]:
    """Givens rotation ``c, s, rho`` with ``[c, s; -conj(s), c] [f; g] = [rho; 0]``, ``c`` real."""
    if g == 0.0:
        return 1.0, 0j, f
    if f == 0:
        return 0.0, 1 + 0j, complex(g)
    scale = abs(f)
    norm = math.hypot(scale, g)
    phase = f / scale
    return scale / norm, phase * (g / norm), phase * norm


def _gmres_cycle(system: Callable[[np.ndarray], np.ndarray], basis: np.ndarray, r: np.ndarray,
                 r_norm: float, p_tol: float) -> Tuple[np.ndarray, float, bool]:
    """One GMRES cycle from the residual ``r``.

    Runs Arnoldi steps until the least-squares residual falls to ``p_tol``,
    the basis is full, or the Krylov space breaks down; returns the
    correction to ``x``, that least-squares residual and the breakdown flag.
    """
    np.multiply(r, 1.0 / r_norm, out=basis[0])
    g = [complex(r_norm)]  # the rotated right-hand side
    columns: list = []  # the rotated Hessenberg columns, upper triangular
    rotations: list = []
    breakdown = False
    for j in range(len(basis) - 1):
        w = system(basis[j])
        w_norm = float(np.linalg.norm(w))
        v = basis[:j + 1]
        h = np.conj(v @ np.conj(w))  # v^H w without a conjugated copy of v
        w = w - h @ v
        again = np.conj(v @ np.conj(w))
        w -= again @ v
        h_next = float(np.linalg.norm(w))
        if not math.isfinite(h_next):
            raise SolveFailure(f"residual nan: Arnoldi norm {h_next} at step {j + 1}")
        breakdown = h_next <= _EPS * w_norm
        if not breakdown:
            np.multiply(w, 1.0 / h_next, out=basis[j + 1])
        col = (h + again).tolist()
        for k, (c, s) in enumerate(rotations):
            upper, lower = col[k], col[k + 1]
            col[k], col[k + 1] = c * upper + s * lower, c * lower - s.conjugate() * upper
        c, s, col[j] = _rotation(col[j], 0.0 if breakdown else h_next)
        rotations.append((c, s))
        columns.append(col)
        g.append(-s.conjugate() * g[j])
        g[j] *= c
        if abs(g[-1]) <= p_tol or breakdown:
            break
    y = g[:-1]
    if columns[-1][-1] == 0:  # singular last column: drop its direction
        y[-1] = 0j
    for k in range(len(y) - 1, -1, -1):
        if y[k] != 0:
            y[k] /= columns[k][k]
            for i in range(k):
                y[i] -= y[k] * columns[k][i]
    return np.array(y) @ basis[:len(y)], abs(g[-1]), breakdown


def solve_checked(system: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray,
                  rtol: float) -> Tuple[np.ndarray, float]:
    """Restarted GMRES solve of ``system(x) = rhs`` with a checked residual.

    Meant for second-kind systems ``x + K x = rhs``: the iteration starts
    from ``x = rhs``, which is returned exactly when ``K`` vanishes.  Cycles
    of at most :data:`RESTART` Arnoldi steps (Saad & Schultz 1986), with
    classical Gram-Schmidt run twice (Giraud, Langou & Rozloznik 2005), each
    end in the true residual ``rhs - system(x)``.  That residual, relative to
    ``|rhs|``, is the one returned: a solve of ``i`` Arnoldi steps in one
    cycle takes ``i + 2`` products.  The Krylov tolerance is
    ``rtol * 1e-2``; the inner stopping rule adapts between cycles, its
    factor cut by 4 after a cycle that met it and raised by 1.5 after one
    that did not (capped at 1).  Raises SolveFailure after
    :data:`MAX_CYCLES` cycles, on a breakdown short of the tolerance, and at
    once on a non-finite residual or Arnoldi norm.
    """
    rhs = np.asarray(rhs, dtype=complex)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    atol = rtol * 1e-2 * b_norm
    # rows are touched, and so resident, only as far as the Arnoldi steps reach
    basis = np.empty((min(RESTART, len(rhs)) + 1, len(rhs)), dtype=complex)
    x = rhs.copy()
    r = rhs - system(x)
    p_tol, p_factor = atol, 1.0
    for cycle in range(MAX_CYCLES + 1):
        r_norm = float(np.linalg.norm(r))
        if not math.isfinite(r_norm):
            raise SolveFailure(f"residual {r_norm / b_norm:.3e} above tolerance {rtol:.1e}")
        if r_norm <= atol:
            return x, r_norm / b_norm
        if cycle == MAX_CYCLES:
            raise SolveFailure(f"gmres did not converge in {MAX_CYCLES} cycles "
                               f"(residual {r_norm / b_norm:.3e})")
        if cycle > 0:
            if breakdown:
                raise SolveFailure(f"gmres broke down at residual {r_norm / b_norm:.3e}")
            p_factor = max(_EPS, 0.25 * p_factor) if p_resid <= p_tol else min(1.0, 1.5 * p_factor)
            p_tol = p_resid * min(p_factor, atol / r_norm)
        step, p_resid, breakdown = _gmres_cycle(system, basis, r, r_norm, p_tol)
        x += step
        r = rhs - system(x)
