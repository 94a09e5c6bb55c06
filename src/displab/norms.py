"""Discrete L^p, mixed space-time and Bessel-weighted norms, and the
critical-exponent formulas.

Physical-side norms use the cell measure (2L/N)^d; frequency-side norms use
the lattice measure (pi/L)^d, so the two L^2 norms satisfy the discrete
Plancherel identity with factor (2pi)^{-d}.  Time integration is a
rectangle rule whose cells are the midpoints between samples, extended to
the declared interval, so a single sample represents the whole interval.
"""

from __future__ import annotations

import numpy as np

from .grid import FREQUENCY, Field
from .propagator import Trajectory
from .spectral import apply_symbol


def lp_norm(field: Field, p: float) -> float:
    """Riemann-sum L^p norm in the field's own representation and measure."""
    mag = np.abs(field.samples)
    if np.isinf(p):
        return float(mag.max())
    if not p >= 1:
        raise ValueError("p must be >= 1 or inf")
    measure = (
        field.grid.frequency_cell_volume
        if field.representation == FREQUENCY
        else field.grid.cell_volume
    )
    return float(((mag**p).sum() * measure) ** (1.0 / p))


def _time_weights(t: np.ndarray, interval: tuple[float, float]) -> np.ndarray:
    """Rectangle-rule weights: cells at sample midpoints, clipped to the interval."""
    a, b = interval
    if b < a:
        raise ValueError("interval must be ordered")
    edges = np.empty(t.size + 1)
    edges[0], edges[-1] = a, b
    edges[1:-1] = 0.5 * (t[1:] + t[:-1])
    w = np.diff(edges)
    if (w < -1e-12 * max(b - a, 1.0)).any():
        raise ValueError("t samples must lie inside the interval, in increasing order")
    return np.clip(w, 0.0, None)


def mixed_spacetime_norm(traj: Trajectory, p: float, interval: tuple[float, float] | None = None) -> float:
    """( int ||u(t)||_p^p dt )^(1/p) over the trajectory's declared interval."""
    t = np.asarray(traj.t_samples)
    if interval is None:
        interval = (float(t[0]), float(t[-1]))
    w = _time_weights(t, interval)
    if np.isinf(p):
        return max(lp_norm(fr, np.inf) for fr in traj.frames)
    vals = np.array([lp_norm(fr, p) ** p for fr in traj.frames])
    return float((vals @ w) ** (1.0 / p))


def bessel_symbol(beta: float):
    def symbol(xi):
        return (1.0 + (np.asarray(xi) ** 2).sum(axis=0)) ** (beta / 2.0)

    return symbol


def sobolev_norm(field: Field, p: float, beta: float) -> float:
    """L^p norm after the smoothing weight (1 + |xi|^2)^(beta/2)."""
    if beta == 0.0:
        return lp_norm(field, p)
    return lp_norm(apply_symbol(field, bessel_symbol(beta)), p)


# -- exponent formulas ---------------------------------------------------------


def _check_exponent_args(alpha: float, p: float) -> None:
    """The exponent formulas hold for a finite alpha > 0 and a finite p >= 1 only."""
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")


def smoothing_exponent(alpha: float, dim: int, p: float) -> float:
    """Critical regularity for the space-time estimate: alpha*(d(1/2-1/p) - 1/p)."""
    _check_exponent_args(alpha, p)
    return alpha * (dim * (0.5 - 1.0 / p) - 1.0 / p)


def maximal_exponent(alpha: float, dim: int, p: float) -> float:
    """Critical regularity for the maximal estimate: alpha*d*(1/2-1/p)."""
    _check_exponent_args(alpha, p)
    return alpha * dim * (0.5 - 1.0 / p)


def airy_exponent(p: float) -> float:
    """Endpoint regularity for the cubic one-dimensional flow: 3(p-4)/(2p)."""
    _check_exponent_args(3.0, p)
    return 3.0 * (p - 4.0) / (2.0 * p)


def admissibility_threshold(dim: int) -> float:
    """Lower endpoint of the admissible p range: 2 + 4/(d+1).

    Evaluated as one division, (2d+6)/(d+1), so rational values such as
    10/3 come out bitwise equal to their directly computed form.
    """
    return (2.0 * dim + 6.0) / (dim + 1.0)


def maximal_necessary_exponent(alpha: float, p: float) -> float:
    """Lower bound on the regularity any maximal estimate needs: alpha/(2p)."""
    _check_exponent_args(alpha, p)
    return alpha / (2.0 * p)
