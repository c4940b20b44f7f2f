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

A build samples the kernels once, at the offsets broadcast from three per-axis
vectors (no mask, no meshgrid), and places them in the padded grid by slice
copies.  Both transforms of a product are pruned, axis by axis: the forward
one pads each axis only where its input is nonzero, the inverse crops each
axis to the cover before the next, so each runs ``7 n^2`` line transforms
instead of the ``12 n^2`` of the whole padded grid.  The spectral products
are formed in one reused buffer, or in the input's spectrum for a single
kernel.  The results are bit for bit those of ``fftn(s=padded)`` of the
weighted input and spectra summed into zeros.

Systems built from these operators, and every other second-kind system of
the package, are solved by :func:`solve_checked`: a restarted GMRES kept in
this module, so that it can count and cap its products.  The true residual
that ends each cycle through the same operator is the residual the solve
checks and returns, and a non-finite residual fails the solve at once.
"""

from __future__ import annotations

import itertools
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
_CHUNK_CELLS: int = 1 << 13  # padded cells of the kernels a build transforms at once


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

        # the (2n-1)^3 offsets, broadcast from each axis's 0..n-1, -(n-1)..-1: the padded
        # order without index n
        axes = [np.delete(np.fft.fftfreq(m, 1.0 / m), n) * h
                for m, n, h in zip(self._padded, cover.shape, cover.cell_edges)]
        counts = tuple(len(a) for a in axes)
        disp = np.empty((3,) + counts)
        for c, a in enumerate(axes):
            disp[c] = a.reshape([-1 if i == c else 1 for i in range(3)])
        disp = disp.reshape(3, -1).T  # (m, 3) with contiguous columns
        disp[0] = cover.cell_edges  # in place of the zero offset, whose sample is self_value
        n_kernels = 1 + max(entry[2] for entry in self.layout)
        values = np.asarray(kernel(disp), dtype=complex).reshape(len(disp), n_kernels)
        values = values.T.reshape((n_kernels,) + counts)
        # eight slice copies per block of kernels; the padded index n of each axis stays 0
        halves = [((slice(0, n), slice(0, n)), (slice(n + 1, 2 * n), slice(n, 2 * n - 1)))
                  for n in cover.shape]
        step = max(1, _CHUNK_CELLS // math.prod(self._padded))
        hats = []
        for s0 in range(0, n_kernels, step):
            chunk = values[s0:s0 + step]
            samples = np.zeros((len(chunk),) + self._padded, dtype=complex)
            for (ox, ix), (oy, iy), (oz, iz) in itertools.product(*halves):
                samples[:, ox, oy, oz] = chunk[:, ix, iy, iz]
            samples[:, 0, 0, 0] = self_value
            hats.append(np.fft.fftn(samples, axes=_AXES))
        self._hats = hats[0] if len(hats) == 1 else np.concatenate(hats)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x = np.asarray(v, dtype=complex)
        single = x.ndim == 1
        nx, ny, nz = self.cover.shape
        x = x.reshape((self.n_in,) + self.cover.shape)
        if self.weights is not None:
            # into a contiguous temporary, not the padded grid: numpy may run a complex
            # product into a strided output through another loop, which can round differently
            x = x * self.weights.reshape(self.cover.shape)
        # the forward transform axis by axis, z, y, then x, each axis padded (by the
        # transform) only where its input is nonzero: 7 n^2 line transforms
        x_hat = np.fft.fft(x, n=2 * nz, axis=-1)
        x_hat = np.fft.fft(x_hat, n=2 * ny, axis=-2)
        x_hat = np.fft.fft(x_hat, n=2 * nx, axis=-3)
        # hats first and the factor first: numpy's complex product of two arrays can round
        # differently with its operands swapped
        if self.n_in == self.n_out == 1 and len(self.layout) == 1:
            (_, _, s, factor), = self.layout
            y_hat = np.multiply(self._hats[s], x_hat, out=x_hat)  # into the input's spectrum
            if factor != 1.0:
                np.multiply(factor, y_hat, out=y_hat)
        else:
            y_hat = np.empty((self.n_out,) + self._padded, dtype=complex)
            term = np.empty(self._padded, dtype=complex)
            started = [False] * self.n_out
            for out, inp, s, factor in self.layout:
                product = np.multiply(self._hats[s], x_hat[inp],
                                      out=term if started[out] else y_hat[out])
                if factor != 1.0:
                    np.multiply(factor, product, out=product)
                if started[out]:
                    y_hat[out] += product
                started[out] = True
            for out in range(self.n_out):
                if not started[out]:
                    y_hat[out] = 0.0
        # the inverse axis by axis, each cropped to the cover before the next: 1.75 passes
        # over the padded grid instead of 3
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
