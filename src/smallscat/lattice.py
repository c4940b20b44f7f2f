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

Systems built from these operators are solved by GMRES with the residual
recomputed through the same operator (:func:`solve_checked`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import fft
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import SolveFailure
from .grids import GridCover

DEFAULT_RTOL: float = 1e-10
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
        self._hats = fft.fftn(samples, axes=_AXES)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        x = np.asarray(v, dtype=complex)
        single = x.ndim == 1
        x = x.reshape(self.n_in, self.n_cells)
        if self.weights is not None:
            x = x * self.weights
        x_hat = fft.fftn(x.reshape((self.n_in,) + self.cover.shape), s=self._padded,
                         axes=_AXES)
        y_hat = np.zeros((self.n_out,) + self._padded, dtype=complex)
        for out, inp, s, factor in self.layout:
            y_hat[out] += factor * (self._hats[s] * x_hat[inp])
        nx, ny, nz = self.cover.shape
        y = fft.ifftn(y_hat, axes=_AXES, overwrite_x=True)[:, :nx, :ny, :nz]
        y = y.reshape(self.n_out, self.n_cells)
        return y[0] if single else y


def solve_checked(system: Callable[[np.ndarray], np.ndarray], rhs: np.ndarray,
                  rtol: float) -> Tuple[np.ndarray, float]:
    """GMRES solve of ``system(x) = rhs`` with the residual checked afterwards.

    Meant for second-kind systems ``x + K x = rhs``: the iteration starts
    from ``x = rhs``, which is returned exactly when ``K`` vanishes.  The
    Krylov tolerance is ``min(rtol * 1e-2, 1e-12)``; the relative residual is
    recomputed through ``system`` at the returned vector.  Raises
    SolveFailure when GMRES stops early or the residual exceeds ``rtol`` or is NaN.
    """
    n = len(rhs)
    op = LinearOperator((n, n), matvec=system, dtype=complex)
    x, info = gmres(op, rhs, x0=rhs.astype(complex), rtol=min(rtol * 1e-2, 1e-12),
                    atol=0.0, restart=80, maxiter=400)
    if info != 0:
        raise SolveFailure(f"gmres did not converge (info={info})")
    residual = float(np.linalg.norm(rhs - system(x)) / max(np.linalg.norm(rhs), 1e-300))
    if not residual <= rtol:
        raise SolveFailure(f"residual {residual:.3e} above tolerance {rtol:.1e}")
    return x, residual
