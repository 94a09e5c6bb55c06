"""The near-diagonal bilinear split of products of elliptic-phase evolutions,
and the bilinear adjoint-restriction diagnostic.

The bilinear pieces group frequency pairs (xi, eta) by their dyadic
separation 2^j lam^{-1/2}; summing the pieces reconstructs the product
exactly because the separation weights telescope to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import make_cutoffs
from .errors import SeparationError, TractabilityError
from .grid import FREQUENCY, Field
from .norms import admissibility_threshold, lp_norm, mixed_spacetime_norm
from .propagator import EllipticPhase, Trajectory, evolve_trajectory
from .spectral import apply_symbol, to_frequency

_MODE_REL_TOL = 1e-14  # the active modes of a bilinear piece's factors, relative to the peak
_RADIUS_REL_TOL = 1e-9  # the active spectra whose largest |xi_i| (0 if none) bound the pieces
_SUPPORT_REL_TOL = 1e-12  # the active supports of the adjoint-restriction densities
_SEPARATION_SHARE = 0.25  # the least support separation, a share of the joint diameter
_MIN_TIMES, _TIMES_PER_LAM = 64, 8  # bilinear_restriction_ratio's times on [-lam, lam]


def separation_weight(j: int, lam: float, xi, eta):
    """Near-diagonal weight for the pair (xi, eta) at dyadic separation 2^j lam^(-1/2).

    xi and eta are stacked coordinate arrays of matching shape (dim, ...).
    The weights telescope: summing j = 0..J gives 1 wherever
    |xi - eta| <= 8 sqrt(d) 2^J lam^(-1/2).
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if not lam > 0:
        raise ValueError("lam must be positive")
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    cut = make_cutoffs(dim=xi.shape[0] if xi.ndim > 0 else 1)
    gap = np.sqrt(((xi - eta) ** 2).sum(axis=0))
    root = np.sqrt(lam)
    if j == 0:
        return cut.diagonal_lowpass(root * gap)
    s = root * 2.0**-j
    return cut.diagonal_lowpass(s * gap) - cut.diagonal_lowpass(2.0 * s * gap)


# -- bilinear pieces -------------------------------------------------------------


_MAX_ACTIVE_MODES = 512


@dataclass(frozen=True)
class BilinearPiece:
    """One near-diagonal piece of a product of elliptic evolutions, space-time sampled."""

    j: int
    lam: float
    grid: object
    t_samples: tuple
    values: np.ndarray  # shape (len(t_samples), *grid.shape)


def _active_support(field: Field, rel_tol: float):
    """(xi, values): the frequencies (dim, n) and spectrum where |spectrum| > rel_tol * its peak.

    Frequencies are `GridSpec.axis_frequencies` at the active lattice
    indices, bit for bit the mesh entries; a zero field has none.
    """
    spectrum = to_frequency(field).samples
    mag = np.abs(spectrum)
    j = np.nonzero(mag > rel_tol * max(mag.max(), 1e-300))
    return np.stack([field.grid.axis_frequencies(j_a) for j_a in j]), spectrum[j]


def bilinear_piece(f: Field, g: Field, j: int, lam: float, t_samples, ep: EllipticPhase) -> BilinearPiece:
    """Direct double-lattice-sum evaluation of one near-diagonal bilinear piece.

    Tractable for one-dimensional band-limited data with at most
    512 active modes per factor; exactness beats speed here since the
    separation weight is not a tensor product.
    """
    if f.grid != g.grid:
        raise ValueError("both factors must share a grid")
    grid = f.grid
    if grid.dim != 1:
        raise TractabilityError("bilinear pieces are implemented for dim = 1")
    xi, wf = _active_support(f, _MODE_REL_TOL)
    eta, wg = _active_support(g, _MODE_REL_TOL)
    if xi.shape[1] > _MAX_ACTIVE_MODES or eta.shape[1] > _MAX_ACTIVE_MODES:
        raise TractabilityError(
            f"{xi.shape[1]} x {eta.shape[1]} active modes exceeds the "
            f"{_MAX_ACTIVE_MODES} cap; band-limit the data or coarsen the grid"
        )
    ts = tuple(float(t) for t in t_samples)
    x = grid.axis_points()
    scale = 1.0 / (2.0 * np.pi) ** (2 * grid.dim)

    amp_f = np.asarray(ep.amplitude(xi)) * (wf * grid.frequency_cell_volume)
    amp_g = np.asarray(ep.amplitude(eta)) * (wg * grid.frequency_cell_volume)
    ph_f = np.asarray(ep.phase(xi))
    ph_g = np.asarray(ep.phase(eta))

    pair_w = separation_weight(j, lam, xi[:, :, None], eta[:, None, :])
    pair_amp = (pair_w * np.outer(amp_f, amp_g)).reshape(-1)
    keep = np.abs(pair_amp) > 0.0
    if not keep.any():
        values = np.zeros((len(ts), *grid.shape), dtype=complex)
        return BilinearPiece(j=j, lam=lam, grid=grid, t_samples=ts, values=values)
    sum_xi = (xi[0][:, None] + eta[0][None, :]).reshape(-1)[keep]
    sum_ph = (ph_f[:, None] + ph_g[None, :]).reshape(-1)[keep]
    pair_amp = pair_amp[keep]

    space = np.exp(1j * np.outer(x, sum_xi))  # (N, pairs)
    values = np.empty((len(ts), *grid.shape), dtype=complex)
    for i, t in enumerate(ts):
        values[i] = scale * (space @ (pair_amp * np.exp(1j * t * sum_ph)))
    return BilinearPiece(j=j, lam=lam, grid=grid, t_samples=ts, values=values)


def relevant_piece_indices(f: Field, g: Field, lam: float) -> range:
    """Scale indices that can carry a nonzero piece for these data supports."""
    diam = sum(np.abs(_active_support(h, _RADIUS_REL_TOL)[0]).max(initial=0.0) for h in (f, g))
    dim = f.grid.dim
    j_max = int(np.ceil(np.log2(max(np.sqrt(lam) * diam / (8.0 * np.sqrt(dim)), 1.0)))) + 1
    return range(0, j_max + 1)


def bilinear_reconstruction_residual(
    f: Field, g: Field, lam: float, t_samples, ep: EllipticPhase
) -> float:
    """max |Sf Sg - sum_j piece_j| / max |Sf Sg| over the sampled space-time points.

    The product side is computed through the FFT evolution path, the pieces
    by direct double summation, so the telescoping identity is checked
    across two independent evaluation routes.  Each factor's amplified
    spectrum is formed once and evolved to every time by `evolve_trajectory`,
    so the times must increase strictly.
    """
    ts = tuple(float(t) for t in t_samples)
    sf, sg = (evolve_trajectory(apply_symbol(to_frequency(h), ep.amplitude), ts, ep.phase)
              for h in (f, g))
    product = np.array([a.samples * b.samples for a, b in zip(sf.frames, sg.frames)])
    total = np.zeros_like(product)
    for j in relevant_piece_indices(f, g, lam):
        total += bilinear_piece(f, g, j, lam, ts, ep).values
    denom = np.abs(product).max()
    if denom == 0.0:
        return 0.0
    return float(np.abs(product - total).max() / denom)


# -- bilinear adjoint-restriction diagnostic --------------------------------------


def extension_trajectory(h: Field, t_samples, ep: EllipticPhase) -> Trajectory:
    """The adjoint-restriction (extension) evolution of a frequency density h.

    The evolution `evolve_trajectory` of (2 pi)^d h under the
    elliptic phase, whose frames are the inverse transforms of (2 pi)^d h e^{i t phase}.
    """
    h.require(FREQUENCY)
    scaled = h.with_samples(h.samples * (2.0 * np.pi) ** h.grid.dim)
    return evolve_trajectory(scaled, t_samples, ep.phase)


def support_separation(h1: Field, h2: Field) -> float:
    """Minimum distance between the active supports of two frequency densities."""
    out = []
    for h in (h1, h2):
        h.require(FREQUENCY)
        xi, _ = _active_support(h, _SUPPORT_REL_TOL)
        if xi.shape[1] == 0:
            return np.inf
        out.append(xi.T)
    a, b = out
    if a.shape[0] * b.shape[0] > 10**8:
        raise TractabilityError("supports too large for pairwise separation check")
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min()))


def bilinear_restriction_ratio(h1: Field, h2: Field, p: float, lam: float, ep: EllipticPhase) -> float:
    """|| Eh1 Eh2 ||_{p/2} over box x [-lam, lam], divided by ||h1||_2 ||h2||_2.

    The bilinear adjoint-restriction bound predicts this stays bounded as
    lam grows; the ratio is the diagnostic scalar.  Supports must be
    separated by a quarter of their joint diameter (SeparationError
    otherwise); the time integral samples max(64, 8 lam) times.
    """
    if h1.grid != h2.grid:
        raise ValueError("densities must share a grid")
    dim = h1.grid.dim
    if not p > admissibility_threshold(dim):
        raise ValueError(f"p must exceed 2 + 4/(d+1) = {admissibility_threshold(dim):.4g}")
    n1, n2 = lp_norm(h1, 2.0), lp_norm(h2, 2.0)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    separation = _SEPARATION_SHARE * _joint_support_diameter(h1, h2)
    gap = support_separation(h1, h2)
    if gap < separation:
        raise SeparationError(f"supports are {gap:.4g} apart, below the required {separation:.4g}")
    ts = np.linspace(-lam, lam, max(_MIN_TIMES, int(_TIMES_PER_LAM * lam)))
    e1 = extension_trajectory(h1, ts, ep)
    e2 = extension_trajectory(h2, ts, ep)
    frames = tuple(
        f1.with_samples(f1.samples * f2.samples) for f1, f2 in zip(e1.frames, e2.frames)
    )
    product = Trajectory(h1.grid, tuple(ts), frames)
    return float(mixed_spacetime_norm(product, p / 2.0) / (n1 * n2))


def _joint_support_diameter(h1: Field, h2: Field) -> float:
    allpts = np.concatenate([_active_support(h, _SUPPORT_REL_TOL)[0] for h in (h1, h2)], axis=1)
    return float(np.sqrt(((allpts.max(axis=1) - allpts.min(axis=1)) ** 2).sum()))
