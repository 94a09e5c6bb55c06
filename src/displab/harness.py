"""Scaling sweeps, log-log regression, and sharpness verdicts.

A sweep builds one datum per scale lam, evolves it over the unit time
interval with a focusing-refined time grid, and records the ratio of a
space-time (or maximal) solution norm to the lam^beta-weighted datum norm.
The fitted log-log slope of the ratio against lam detects the critical
regularity: at the critical beta the slope is ~0, and shifting beta by
delta shifts the slope by -delta.

One record builder.  Each family hands `_record` its numerator at unit
datum amplitude and its datum's Bessel-weighted norm as a function of the
exponent; `_record` alone picks the denominator (that norm at beta, or
lam^beta times the plain norm) and applies `datum_scale`.  Every norm is
absolutely homogeneous, so the scale multiplies numerator and denominator
by |datum_scale| and the ratio is that of the unit values.

Unit-scale reductions.  All sweep quantities are evaluated through the exact
unit-scale reductions of the extremizer families (see `extremizers`): the
solution norms come from the unit annulus profile W with
||U_t f_lam||_p = lam^{d(1-1/p)} ||W(., lam^alpha (t-1))||_p.  Datum norms
take one of two routes (`extremizers.datum_lp_norm`): the two-term
stationary-phase value once S min |phi''| >= `SP_CURVATURE` = 2^16
(S = lam^alpha; from lam 181 at alpha 2 and lam 27.9 at alpha 3) and
p >= 2, which matches the quadrature within 8.4e-10 relative there and
needs no quadrature nodes, and the dispersed-profile quadrature elsewhere.  The time
integral is restricted to the window |t - 1| <= horizon * lam^{-alpha} on
which the evolved profile provably fits inside the box (`faithful_horizon`),
all of [0, 1] for small lam.  For large lam the omitted early-time share depends
on p, since ||W(., s)||_p^p decays like |s|^{1-p/2}: about 5e-4 at p = 6,
13% at p = 4.5 and 47% at p = 4.  The per-record `coverage` field
extrapolates it.  A direct lam-scale route (`direct_smoothing_record`)
cross-validates at small lam.

Profile-norm curve.  Every scale reads the same unit profile, so the curve
s -> ||W(., s)||_p^p is shared by all scales and sweeps with the same
(alpha, p, one_sided), whatever their datum scale; each distinct s is
evolved once per process.  `run_sweep` fills the curve over the union of
its scales' s-grids, then builds the records one scale after another.  A
record is its rectangle-rule weights dotted with the looked-up values,
plus its datum norm.  The curve and the direct route's frames are summed
by `propagator._power_sums` in decimated slices, with no frame formed;
the even two-sided annulus runs only its distinct half of the slices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import SizingError
from .extremizers import (
    ExtremizerSpec,
    PACKET_GRID,
    SMOOTHING,
    datum_lp_norm,
    faithful_horizon,
    maximal_datum_norm,
    ridge_trace,
    smoothing_spectrum,
    unit_annulus_field,
    unit_profile_grid,
)
from .grid import GridSpec, quadrature_node_budget
from .norms import (
    _time_weights,
    admissibility_threshold,
    airy_exponent,
    maximal_necessary_exponent,
    smoothing_exponent,
    sobolev_norm,
)
from .propagator import DispersionParams, _power_sums
from .spectral import to_physical

FAMILIES = ("smoothing", "maximal", "airy")

# samples in each piece of the focusing s-grid: the uniform window, the refined
# window |s| <= 4 and the logarithmic bridge between them
FOCUSING_SAMPLES = 64
# time samples of the maximal family's ridge trace over [0, 1]
RIDGE_SAMPLES = 256


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: a family, its flow and norm exponent, the weight beta and the scales.

    ``norm_kind`` follows from the family ("maximal" for the maximal family,
    "mixed_spacetime" otherwise); left as None it is filled in, and an
    explicit value that disagrees with the family raises.
    """

    family: str
    alpha: float
    dim: int
    p: float
    beta: float
    lambdas: tuple
    norm_kind: str | None = None
    use_sobolev_denominator: bool = False
    datum_scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.dim != 1:
            raise ValueError("sweeps are implemented for dim = 1")
        DispersionParams(self.alpha, self.dim)  # a finite, positive alpha other than 1
        kind = "maximal" if self.family == "maximal" else "mixed_spacetime"
        if self.norm_kind is None:
            object.__setattr__(self, "norm_kind", kind)
        elif self.norm_kind not in ("mixed_spacetime", "maximal"):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        lams = tuple(float(v) for v in self.lambdas)
        if len(lams) < 1:
            raise ValueError("lambdas must be non-empty")
        if not all(np.isfinite(lams)):
            raise ValueError(f"lambdas must be finite, got {lams}")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambdas must be strictly increasing")
        if any(v < 8 for v in lams):
            raise ValueError("lambdas must be >= 8")
        if self.family == "airy" and self.alpha != 3.0:
            raise ValueError("the airy family runs the cubic flow; set alpha = 3")
        if self.norm_kind != kind:
            raise ValueError("the maximal family pairs with norm_kind='maximal'")
        if not (np.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if not np.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not (np.isfinite(self.datum_scale) and self.datum_scale != 0):
            raise ValueError(f"datum_scale must be finite and nonzero, got {self.datum_scale}")
        object.__setattr__(self, "lambdas", lams)


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    points: int
    half_width: float
    t_count: int
    numerator: float
    denominator: float
    ratio: float
    coverage: float = 1.0

    def __post_init__(self):
        for name in ("numerator", "denominator", "ratio"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"record field {name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_residual: float


def fit_loglog(records) -> FitResult:
    """Ordinary least squares of ln(ratio) on ln(lam), by the normal equations."""
    if len(records) < 2:
        raise ValueError("need at least 2 records to fit a slope")
    lam = np.array([r.lam for r in records], dtype=float)
    ratio = np.array([r.ratio for r in records], dtype=float)
    if (ratio <= 0).any():
        raise ValueError("ratios must be positive for a log-log fit")
    x, y = np.log(lam), np.log(ratio)
    n = x.size
    sx, sy, sxx, sxy = x.sum(), y.sum(), (x * x).sum(), (x * y).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    residual = np.abs(y - slope * x - intercept).max()
    return FitResult(slope=float(slope), intercept=float(intercept), max_residual=float(residual))


# -- time grids --------------------------------------------------------------------


def focusing_s_grid(lam: float, alpha: float, horizon: float) -> np.ndarray:
    """Rescaled time samples s = lam^alpha (t - 1), increasing, in [-s_hor, 0].

    A uniform coarse grid plus a refined window |s| <= 4; when the coarse
    window is much longer, logarithmically spaced bridge samples connect the
    two scales so the rectangle rule resolves the focusing shoulder.
    """
    s_hor = min(lam**alpha, horizon)
    pieces = [
        np.linspace(-s_hor, 0.0, FOCUSING_SAMPLES),
        np.linspace(-min(4.0, s_hor), 0.0, FOCUSING_SAMPLES),
    ]
    if s_hor > 8.0:
        pieces.append(-np.logspace(np.log10(4.0), np.log10(s_hor), FOCUSING_SAMPLES))
    s = np.sort(np.round(np.concatenate(pieces), 10))
    # the distinct values, as np.unique finds them, without its import of numpy.ma
    s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return s[s >= -s_hor * (1 + 1e-12)]


# -- sweep engines ------------------------------------------------------------------


class _ProfileCurve:
    """The profile-norm curve s -> ||W(., s)||_p^p of one unit profile.

    Every distinct s is evaluated once per process by `propagator._power_sums`
    and shared by all scales and sweeps with the same profile; the same pass
    reads the samples within N/64 of the box edges and raises SizingError
    where they exceed 1e-6 of their frame's largest.
    """

    def __init__(self, alpha: float, p: float, one_sided: bool):
        self.grid = unit_profile_grid()
        self.profile = unit_annulus_field(self.grid, one_sided=one_sided)
        self.params = DispersionParams(alpha, 1)
        self.p = p
        self.horizon = faithful_horizon(self.grid, alpha)
        self._values: dict[float, float] = {}

    def fill(self, s) -> None:
        new = sorted(set(np.asarray(s, dtype=float).tolist()) - self._values.keys())
        vals, edges = _power_sums(self.profile, new, self.params, self.p)
        if (edges > 1e-6).any():
            raise SizingError("evolved profile reached the box edge; enlarge the unit grid")
        self._values.update(zip(new, vals.tolist()))

    def __call__(self, s) -> np.ndarray:  # the values at s, once `fill` has evaluated them
        return np.array([self._values[v] for v in np.asarray(s, dtype=float).tolist()])


# one curve per (alpha, p, one_sided): the profile has unit amplitude, and `_record` scales
_profile_curve = lru_cache(maxsize=32)(_ProfileCurve)


def _coverage(s_grid: np.ndarray, vals: np.ndarray, integral: float, s_full: float) -> float:
    """Estimated captured fraction of the full time integral over [-s_full, 0].

    When the horizon truncates the window, the omitted early-time portion
    is extrapolated from the measured decay of the curve.
    """
    s_hor = float(-s_grid[0])
    if s_hor >= s_full * (1 - 1e-9):
        return 1.0
    k = max(2, s_grid.size // 8)
    tail_x = np.log(-s_grid[:k])
    tail_y = np.log(np.maximum(vals[:k], 1e-300))
    gamma = -np.polyfit(tail_x, tail_y, 1)[0]
    if gamma > 1.05:
        omitted = vals[0] * s_hor / (gamma - 1.0) * (1.0 - (s_hor / s_full) ** (gamma - 1.0))
    elif gamma > 0.5:
        omitted = vals[0] * s_hor * np.log(s_full / s_hor)
    else:
        omitted = vals[0] * (s_full - s_hor)
    return integral / (integral + max(omitted, 0.0))


def _record(cfg: SweepConfig, lam: float, grid: GridSpec, t_count: int, numerator: float,
            datum_norm, coverage: float = 1.0) -> SweepRecord:
    """The one builder of a `SweepRecord`, for every family and route.

    ``numerator`` is the solution norm of the unit-amplitude datum and
    ``datum_norm(beta)`` that datum's Bessel-weighted L^p norm, the plain
    norm at beta 0.  The denominator is the Sobolev norm at ``cfg.beta``
    or lam^beta times the plain norm; |datum_scale| multiplies both, and
    the ratio is taken from the unit values.
    """
    if cfg.use_sobolev_denominator:
        denominator = datum_norm(cfg.beta)
    else:
        denominator = lam**cfg.beta * datum_norm(0.0)
    scale = abs(cfg.datum_scale)
    return SweepRecord(
        lam=lam, points=grid.points, half_width=grid.half_width, t_count=t_count,
        numerator=scale * numerator, denominator=scale * denominator,
        ratio=numerator / denominator, coverage=coverage,
    )


def _smoothing_record(
    cfg: SweepConfig, lam: float, curve: _ProfileCurve, s_grid: np.ndarray
) -> SweepRecord:
    """One scale: the curve's rectangle-rule integral over s_grid, and the datum norm."""
    one_sided = cfg.family == "airy"
    vals = curve(s_grid)
    integral = float(vals @ _time_weights(s_grid, (float(s_grid[0]), 0.0)))
    numerator = lam ** (1.0 - 1.0 / cfg.p) * (lam**-cfg.alpha * integral) ** (1.0 / cfg.p)
    return _record(
        cfg, lam, curve.grid, s_grid.size, numerator,
        lambda beta: datum_lp_norm(lam, cfg.alpha, cfg.p, one_sided, beta),
        _coverage(s_grid, vals, integral, lam**cfg.alpha),
    )


def _maximal_record(cfg: SweepConfig, lam: float) -> SweepRecord:
    alpha, p = cfg.alpha, cfg.p
    t_grid = np.linspace(0.0, 1.0, RIDGE_SAMPLES)
    trace = np.abs(ridge_trace(lam, alpha, t_grid))
    w = _time_weights(t_grid, (0.0, 1.0))
    ridge_speed = alpha * lam ** (alpha - 1.0)
    numerator = (
        lam ** ((2.0 - alpha) / 2.0) * (ridge_speed * float((trace**p) @ w)) ** (1.0 / p)
    )
    return _record(cfg, lam, PACKET_GRID, t_grid.size, numerator,
                   lambda beta: maximal_datum_norm(lam, alpha, p, bessel_beta=beta))


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """One record per scale: datum, evolution, numerator / denominator / ratio.

    The smoothing and airy families fill the shared profile-norm curve over
    the union of their scales' s-grids in one call, then form the records in
    increasing lam.  A datum quadrature past the node budget
    (`grid.quadrature_node_budget`, DISPLAB_MAX_GRID_POINTS x 64) raises
    SizingError from `chirpquad.chirp_profile` before it allocates, naming its
    scale -lam^alpha, so the error names the smallest failing scale.  A
    cached norm (`datum_lp_norm` keeps its values) runs no quadrature and
    needs no nodes; the budget is still read first, so a bad
    DISPLAB_MAX_GRID_POINTS raises EnvironmentSettingError on every sweep.
    """
    if cfg.family == "maximal":
        return [_maximal_record(cfg, lam) for lam in cfg.lambdas]
    quadrature_node_budget()  # checks DISPLAB_MAX_GRID_POINTS, even with every norm cached
    curve = _profile_curve(cfg.alpha, cfg.p, cfg.family == "airy")
    s_grids = {lam: focusing_s_grid(lam, cfg.alpha, curve.horizon) for lam in cfg.lambdas}
    curve.fill(np.concatenate(list(s_grids.values())))
    return [_smoothing_record(cfg, lam, curve, s_grids[lam]) for lam in cfg.lambdas]


# -- direct (lam-scale) route for cross-validation -----------------------------------


def direct_smoothing_record(cfg: SweepConfig, lam: float) -> SweepRecord:
    """Same record as the unit-scale engine, from an honest lam-scale grid.

    `smoothing_spectrum` sizes the grid (nyquist >= 4 lam, half width >= 8
    C(alpha) lam^{alpha-1}) and raises SizingError naming lam past the grid
    cap: feasible only for small lam, which is the point, as it
    cross-validates the rescaled engine.  The frames are evolved from the
    datum's exact spectrum, so the phase is formed on the annulus alone;
    the denominator measures its inverse transform.
    """
    params = DispersionParams(cfg.alpha, 1)
    spectrum = smoothing_spectrum(ExtremizerSpec(SMOOTHING, lam, params))
    s_grid = focusing_s_grid(lam, cfg.alpha, lam**cfg.alpha)
    t_grid = 1.0 + s_grid / lam**cfg.alpha
    w = _time_weights(t_grid, (0.0, 1.0))
    vals = _power_sums(spectrum, t_grid, params, cfg.p)[0]
    numerator = float((vals @ w) ** (1.0 / cfg.p))
    datum = to_physical(spectrum)  # the norms measure a field in its own representation
    return _record(cfg, lam, spectrum.grid, t_grid.size, numerator,
                   lambda beta: sobolev_norm(datum, cfg.p, beta))


# -- verdicts -------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    slope: float
    expected_slope: float
    tolerance: float
    passed: bool
    fit: FitResult
    records: tuple


def critical_exponent(family: str, alpha: float, dim: int, p: float) -> float:
    """The beta at which a family's ratio slope vanishes.

    smoothing: the sharp smoothing exponent; airy: the one-sided cubic
    exponent; maximal: the necessary exponent alpha / (2p), which the
    traveling bump, an exact modulated dilation, meets with slope 0.
    """
    if family == "smoothing":
        return smoothing_exponent(alpha, dim, p)
    if family == "airy":
        return airy_exponent(p)
    if family == "maximal":
        return maximal_necessary_exponent(alpha, p)
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def expected_slope(cfg: SweepConfig) -> float:
    """The ratio slope the sharp exponent predicts at ``cfg.beta``: critical - beta.

    The lam^beta weight of the denominator shifts the slope by -beta.
    """
    return critical_exponent(cfg.family, cfg.alpha, cfg.dim, cfg.p) - cfg.beta


def slope_verdict(records, expected: float, tolerance: float) -> Verdict:
    """Fit the records' log-log slope; it passes within ``tolerance`` of ``expected``.

    The one place a slope verdict is decided, for `verify_sharpness` and
    the CLI's sweep command alike.
    """
    _require_tolerance(tolerance)
    fit = fit_loglog(records)
    return Verdict(
        slope=fit.slope, expected_slope=expected, tolerance=tolerance,
        passed=bool(abs(fit.slope - expected) <= tolerance), fit=fit, records=tuple(records),
    )


def _require_tolerance(tolerance: float) -> None:
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")


def _require_sweepable(cfg: SweepConfig) -> None:
    if len(cfg.lambdas) < 4:
        raise ValueError("verdicts need at least 4 scales in the sweep")


def verify_sharpness(cfg: SweepConfig, tolerance: float = 0.1) -> Verdict:
    """Sharpness of the space-time estimate: ratio slope ~ critical beta - beta."""
    _require_sweepable(cfg)
    if cfg.norm_kind != "mixed_spacetime":
        raise ValueError("sharpness sweeps need the mixed space-time norm")
    if cfg.family == "smoothing" and not cfg.p > admissibility_threshold(cfg.dim):
        raise ValueError(f"p must exceed {admissibility_threshold(cfg.dim):.4g}")
    return slope_verdict(run_sweep(cfg), expected_slope(cfg), tolerance)


def verify_maximal_necessary(cfg: SweepConfig, tolerance: float = 0.1) -> Verdict:
    """Necessary-condition check for the maximal estimate at beta = alpha/(2p).

    Runs the traveling-bump sweep at the boundary regularity and 0.2 below
    it; passes when the boundary slope is >= -tolerance and the shifted
    slope is > tolerance (the ratio grows when the weight is too weak).
    """
    _require_tolerance(tolerance)
    _require_sweepable(cfg)
    if cfg.family != "maximal":
        raise ValueError("the necessary-condition sweep runs the maximal family")
    boundary = critical_exponent(cfg.family, cfg.alpha, cfg.dim, cfg.p)
    boundary_records = run_sweep(replace(cfg, beta=boundary))
    at_boundary = fit_loglog(boundary_records)
    below = fit_loglog(run_sweep(replace(cfg, beta=boundary - 0.2)))
    passed = at_boundary.slope >= -tolerance and below.slope > tolerance
    return Verdict(
        slope=at_boundary.slope, expected_slope=0.0, tolerance=tolerance,
        passed=bool(passed), fit=below, records=tuple(boundary_records),
    )


def verify_airy(cfg: SweepConfig, tolerance: float = 0.1) -> Verdict:
    """Sharpness of the cubic-flow estimate with one-sided spectrum data."""
    if cfg.family != "airy":
        raise ValueError("verify_airy needs family='airy'")
    return verify_sharpness(cfg, tolerance)
