"""Discrete Fourier analysis matching the continuum conventions.

The forward transform is the quadrature of f^(xi) = int f(y) e^{-i<y,xi>} dy
on the grid, i.e. the plain FFT times the cell volume (2L/N)^d and the
boundary phase e^{-i x_0 xi} = (-1)^m per axis.  The inverse carries
(2pi)^{-d} and the frequency-cell measure (pi/L)^d, which makes the round
trip exact up to FFT roundoff and gives the discrete Plancherel identity

    ||f||_2^2 = (2pi)^{-d} ||f^||_2^2

with each side weighted by its own cell measure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .grid import FREQUENCY, PHYSICAL, Field, GridSpec

# a symbol maps stacked frequency coordinates, shape (dim, ...), to values
# of the trailing shape; every multiplier below follows this convention
SymbolFn = Callable[[np.ndarray], np.ndarray]


def _negate_odd_indices(array: np.ndarray, dim: int) -> np.ndarray:
    """Multiply ``array`` in place by (-1)^(m_1 + ... + m_d) over its trailing dim axes.

    The wrapped index m of a storage index j is j or j - N, and N is even,
    so both have the parity of j: the sign is an exact negation of the odd
    storage indices of each axis, and no sign lattice is formed.
    """
    for axis in range(array.ndim - dim, array.ndim):
        odd = array[(slice(None),) * axis + (slice(1, None, 2),)]
        np.negative(odd, out=odd)
    return array


def dft_forward(field: Field) -> Field:
    """Quadrature of the continuum transform; physical -> frequency."""
    field.require(PHYSICAL)
    grid = field.grid
    spectrum = np.fft.fftn(field.samples)
    spectrum *= grid.cell_volume
    _negate_odd_indices(spectrum, grid.dim)
    spectrum.setflags(write=False)  # fresh array: the Field takes it without a copy
    return Field(grid, FREQUENCY, spectrum)


def dft_inverse(field: Field) -> Field:
    """Inverse quadrature with (2pi)^{-d} and lattice measure (pi/L)^d."""
    field.require(FREQUENCY)
    grid = field.grid
    samples = _negate_odd_indices(np.array(field.samples), grid.dim)
    _inverse_signed_in_place(grid, samples)  # in place, with the bits of a fresh output
    samples.setflags(write=False)  # fresh array: the Field takes it without a copy
    return Field(grid, PHYSICAL, samples)


def _inverse_signed_in_place(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """The inverse quadrature of spectra that already carry the sign (-1)^(m_1 + ... + m_d),
    over the trailing grid axes of a writable array, overwritten and returned.

    `dft_inverse` negates its odd indices first; `propagator.evolve_trajectory`
    folds the sign into its support values once, and a negation commutes
    with every IEEE product, so its frames keep the bits of `dft_inverse`
    without a negation pass per block.  Stacked spectra go through the
    transform in one batch.
    """
    np.fft.ifftn(samples, axes=tuple(range(-grid.dim, 0)), out=samples)
    samples /= grid.cell_volume
    return samples


def to_physical(field: Field) -> Field:
    return field if field.is_physical else dft_inverse(field)


def to_frequency(field: Field) -> Field:
    return field if field.is_frequency else dft_forward(field)


def apply_symbol(field: Field, symbol) -> Field:
    """Apply the Fourier multiplier ``symbol`` to a field.

    ``symbol`` receives the stacked frequency mesh, shape (dim, N, ..., N),
    and must return an array of shape (N, ..., N).  The output representation
    matches the input.  The route of time-independent multipliers (the
    Sobolev and Bessel weights, the elliptic amplitude) and the library's one
    caller of `GridSpec.frequency_mesh`; a phase e^{i t phi} is formed by
    `propagator.evolve` on the spectral support instead.
    """
    values = np.asarray(symbol(field.grid.frequency_mesh()))
    require_finite_symbol(field.grid, values)
    product = values * to_frequency(field).samples  # the order of `propagator.evolve`'s product
    product.setflags(write=False)  # fresh array: the Field takes it without a copy
    out = Field(field.grid, FREQUENCY, product)
    return out if field.is_frequency else dft_inverse(out)


def require_finite_symbol(grid: GridSpec, values: np.ndarray) -> None:
    """Raise ValueError naming the first lattice frequency where ``values`` is not finite."""
    finite = np.isfinite(values)
    if not finite.all():
        axis = grid.axis_frequencies()
        xi = tuple(float(axis[j]) for j in np.argwhere(~finite)[0])
        raise ValueError(f"symbol evaluated to a non-finite value at xi = {xi}")
