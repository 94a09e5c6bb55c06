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

# the active spectrum of `spectral_radius`: |spectrum| above this share of its peak
_RADIUS_REL_TOL = 1e-9
# the fewest points per spectrum that `_inverse_signed_in_place` transforms one at a time.
# numpy's batched transform of 2^17-point rows forms megabytes of temporaries per call that
# the allocator returns to the system and faults in afresh: two rows took 11-13 ms and 2,000
# page faults per call, one at a time 7-8 ms and 16 (two threads, 2-core Xeon).  Below 2^17
# points the batch is the faster: 200 frames of the unit annulus, reduced to their L^6 power
# sums on the frame engine, took a median 134 ms batched against 150 ms row by row on 2^15
# points (12 of 12 alternating pairs) and 337 against 359 ms on 2^16 points (11 of 12), in
# one process.  Those sums now run in slices (`propagator._power_sums`), without this transform.
_ONE_AT_A_TIME_POINTS = 2**17


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

    `dft_inverse` negates its odd indices first.  The frame engine folds
    the sign into its support values once, and a negation commutes with
    every IEEE product, so its frames keep the bits of `dft_inverse`
    without a negation pass per block.  Stacked spectra of at least
    `_ONE_AT_A_TIME_POINTS` points go through the transform one at a time,
    with the same bits as in one batch.
    """
    axes = tuple(range(-grid.dim, 0))
    if grid.size >= _ONE_AT_A_TIME_POINTS:
        for index in np.ndindex(samples.shape[: samples.ndim - grid.dim]):
            np.fft.ifftn(samples[index], axes=axes, out=samples[index])
    else:
        np.fft.ifftn(samples, axes=axes, out=samples)
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


def spectral_radius(field: Field) -> float:
    """Largest |xi_i| (per-axis) carrying relative spectral mass above `_RADIUS_REL_TOL`."""
    spectrum = to_frequency(field)
    mag = np.abs(spectrum.samples)
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    j = np.nonzero(mag > _RADIUS_REL_TOL * peak)  # lattice indices of the active entries, per axis
    return float(np.abs(field.grid.axis_frequencies()[np.concatenate(j)]).max())
