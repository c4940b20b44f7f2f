"""Reference formulation of the lattice operator and its kernel samples.

``OracleOperator`` builds and applies the zero-padded FFT convolution of
``smallscat.lattice.LatticeOperator`` the plain way: the padded offsets from a
``meshgrid``, the valid ones picked by a boolean mask and scattered back by it,
the forward transform through ``fftn(s=padded)`` of the weighted input, and
each output's spectrum summed into zeros, one ``factor * (hat * x_hat)`` term
at a time.  ``oracle_norms`` is ``np.linalg.norm(d, axis=1)`` and
``oracle_hard_kernels`` stacks the 16 hard-limit columns with ``column_stack``.
Tests compare the production code against these bit for bit.
"""

from __future__ import annotations

import numpy as np

from smallscat.background import free_space_green
from smallscat.homogenize import _DGP
from smallscat.manybody import _hard_layers

_AXES = (-3, -2, -1)


def oracle_norms(d):
    return np.linalg.norm(d, axis=1)


def oracle_green(k):
    return lambda d: free_space_green(k, oracle_norms(d))


def oracle_hard_kernels(d, k):
    parts = np.empty((8, len(d)))
    _hard_layers(k, oracle_norms(d), list(parts))
    factors = np.empty((4, len(d)), dtype=complex)
    factors.real, factors.imag = parts[[0, 1, 3, 4]], parts[[6, 2, 7, 5]]
    g, g_r, gp_r, radial = factors
    upper = [radial * d[:, s] * d[:, p] + (g_r if s == p else 0.0) for s, p in _DGP]
    return np.column_stack([g, g_r[:, None] * d, gp_r[:, None] * d, *upper,
                            (radial + 1j * k * gp_r)[:, None] * d])


class OracleOperator:
    """The operator ``LatticeOperator(cover, kernel, self_value, weights, layout)`` is."""

    def __init__(self, cover, kernel, self_value=0.0, weights=None, layout=((0, 0, 0, 1.0),)):
        self.cover = cover
        self.weights = (None if weights is None
                        else np.asarray(weights, dtype=complex).reshape(cover.n_cells))
        self.layout = tuple(layout)
        self.n_in = 1 + max(entry[1] for entry in self.layout)
        self.n_out = 1 + max(entry[0] for entry in self.layout)
        self.padded = tuple(2 * n for n in cover.shape)
        offsets = [np.fft.fftfreq(m, 1.0 / m) for m in self.padded]
        grids = np.meshgrid(*offsets, indexing="ij")
        valid = np.logical_and.reduce([np.abs(o) < n for o, n in zip(grids, cover.shape)])
        valid[0, 0, 0] = False
        disp = np.stack([o[valid] * h for o, h in zip(grids, cover.cell_edges)], axis=1)
        n_kernels = 1 + max(entry[2] for entry in self.layout)
        values = np.asarray(kernel(disp), dtype=complex).reshape(len(disp), n_kernels)
        samples = np.zeros((n_kernels,) + self.padded, dtype=complex)
        samples[:, valid] = values.T
        samples[:, 0, 0, 0] = self_value
        self.hats = np.fft.fftn(samples, axes=_AXES)

    def __matmul__(self, v):
        x = np.asarray(v, dtype=complex)
        single = x.ndim == 1
        x = x.reshape(self.n_in, self.cover.n_cells)
        if self.weights is not None:
            x = x * self.weights
        x_hat = np.fft.fftn(x.reshape((self.n_in,) + self.cover.shape), s=self.padded,
                            axes=_AXES)
        y_hat = np.zeros((self.n_out,) + self.padded, dtype=complex)
        for out, inp, s, factor in self.layout:
            y_hat[out] += factor * (self.hats[s] * x_hat[inp])
        nx, ny, nz = self.cover.shape
        y = np.fft.ifft(y_hat, axis=-1)[..., :nz]
        y = np.fft.ifft(y, axis=-2)[..., :ny, :]
        y = np.fft.ifft(y, axis=-3)[..., :nx, :, :]
        y = y.reshape(self.n_out, self.cover.n_cells)
        return y[0] if single else y
