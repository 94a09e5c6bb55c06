"""Scaling sweeps, log-log regression, and sharpness verdicts.

A sweep builds one datum per scale lam, evolves it over the unit time
interval (integrated on a Gauss–Legendre time ladder), and records the
ratio of a space-time (or maximal) solution norm to the lam^beta-weighted
datum norm.  The fitted log-log slope of the ratio against lam detects the
critical regularity: at the critical beta the slope is ~0, and shifting
beta by delta shifts the slope by -delta.

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
its scales' time ladders (`time_ladder`: 8 Gauss–Legendre nodes on each of
the panels [-1/2, 0], [-1, -1/2] and [-2^{k+1}, -2^k] up to the window end,
the last panel cut there), then builds the records one scale after another.
A full panel's nodes depend on its edges alone, so scales share every node
but those of their last panel.  A record is its ladder weights dotted with
the looked-up values, plus its datum norm.  The curve and the direct
route's frames are summed by `propagator._power_sums` in decimated slices,
with no frame formed; the even two-sided annulus runs only its distinct
half of the slices.  Each frame is summed on its own box, the smallest
power-of-two decimation of its lattice whose half width reaches
`extremizers.frame_half_width` at its s (the inverse of
`faithful_horizon`, never below the 2^13-point unit grid's), so frames
near refocusing run on 2^13 points however large the lattice; both routes
raise SizingError (`_require_in_box`) for a frame whose edge ratio passes
1e-6.  Against whole-lattice sums the boxed frames move by at most 1.1e-15
relative on the curve (alpha 1.5, 2 and 3, both sides, p 2 to 6, every
ladder node to the horizon) and 1.9e-13 on the direct route (alpha 2 lam
16-64, alpha 3 lam 8-16, alpha 1.5 lam 64); the largest edge ratio read
5.1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .errors import SizingError
from .extremizers import (
    ExtremizerSpec,
    PACKET_GRID,
    SMOOTHING,
    _time_scale,
    datum_lp_norm,
    faithful_horizon,
    frame_half_width,
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

# samples in each piece of the direct route's focusing s-grid: the uniform window, the
# refined window |s| <= 4 and the logarithmic bridge between them
FOCUSING_SAMPLES = 64
# the 8-point Gauss–Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(8) gives
# it; written out, as importing numpy.polynomial costs about 5 ms of start-up
_GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GAUSS_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
# a dyadic edge within this fraction below the window end closes no panel: the panel before
# it stretches to the end, where a sliver's nodes would round onto each other
_SLIVER = 2.0**-8
# time samples of the maximal family's ridge trace over [0, 1]
RIDGE_SAMPLES = 256
# the largest share of its frame's peak that a power-sum frame may carry within N/64 of its
# box edges
_EDGE_RATIO = 1e-6


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


def _ladder_edges(S: float) -> np.ndarray:
    """|s| at the panel edges of the time ladder on [-S, 0]: 0, 1/2, 1, 2, 4, ..., S."""
    if not (np.isfinite(S) and S > 0):
        raise ValueError(f"the time window end S must be finite and positive, got {S}")
    edges = [0.0]
    edge = 0.5
    while edge * (1.0 + _SLIVER) < S:
        edges.append(edge)
        edge *= 2.0
    return np.array(edges + [S])


def _gauss_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 8-point Gauss–Legendre rule on each panel [-edges[i+1], -edges[i]], panel by panel.

    Each panel's nodes and weights are formed from its two edges alone.
    """
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (-(lo + half * (1.0 + _GAUSS_NODES))).ravel(), (half * _GAUSS_WEIGHTS).ravel()


def time_ladder(S: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the sweep's time rule on [-S, 0], ordered from s = 0 outward.

    Eight Gauss–Legendre nodes on each of the panels [-1/2, 0], [-1, -1/2]
    and [-2^{k+1}, -2^k] up to S, the last cut at S; when S lies within
    2^-8 above a dyadic edge, the panel below that edge stretches to S
    instead.  Full panels do not depend on S, so the rule of a smaller S is
    a bitwise prefix of a larger one's up to its last panel.
    """
    return _gauss_panels(_ladder_edges(S))


def focusing_s_grid(lam: float, alpha: float, horizon: float) -> np.ndarray:
    """Rescaled time samples s = lam^alpha (t - 1), increasing, in [-s_hor, 0].

    Only the direct route (`direct_smoothing_record`) reads it, with
    rectangle-rule weights.  A uniform coarse grid plus a refined window
    |s| <= 4; when the coarse window is much longer, logarithmically spaced
    bridge samples connect the two scales so the rectangle rule resolves
    the focusing shoulder.
    """
    s_hor = min(_time_scale(lam, alpha), horizon)
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


def _require_in_box(edges: np.ndarray, times, frame: str) -> None:
    """SizingError for the first frame of `propagator._power_sums` that reaches its box edge.

    That is an edge ratio (its samples within N/64 of the box edges over
    its largest) above `_EDGE_RATIO`; ``frame`` names the frame, with a
    ``{}`` for its time.
    """
    over = np.flatnonzero(edges > _EDGE_RATIO)
    if over.size:
        i = over[0]
        raise SizingError(f"{frame.format(times[i])} reached its box edge "
                          f"(edge ratio {edges[i]:.2g} > {_EDGE_RATIO:g})")


class _ProfileCurve:
    """The profile-norm curve s -> ||W(., s)||_p^p of one unit profile.

    Every distinct s is evaluated once per process by `propagator._power_sums`,
    each on the box `extremizers.frame_half_width` gives it, and shared by
    all scales and sweeps with the same profile; the same pass reads the
    samples within N/64 of the box edges, and `_require_in_box` raises
    SizingError where they exceed 1e-6 of their frame's largest.
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
        if not new:  # every node is cached: no slice pass to run
            return
        vals, edges = _power_sums(self.profile, new, self.params, self.p,
                                  frame_half_width(new, self.params.alpha))
        _require_in_box(edges, new, "the evolved unit profile at s = {:.6g}")
        self._values.update(zip(new, vals.tolist()))

    def __call__(self, s) -> np.ndarray:  # the values at s, once `fill` has evaluated them
        return np.array([self._values[v] for v in np.asarray(s, dtype=float).tolist()])


# one curve per (alpha, p, one_sided): the profile has unit amplitude, and `_record` scales
_profile_curve = lru_cache(maxsize=32)(_ProfileCurve)


def _coverage(nodes: np.ndarray, vals: np.ndarray, integral: float, S: float,
              s_full: float) -> float:
    """Estimated captured fraction of the full time integral over [-s_full, 0].

    ``integral`` covers the window [-S, 0], sampled at ``nodes`` ordered from
    s = 0 outward.  When the horizon truncates the window, the omitted
    early-time portion is extrapolated from the measured decay of the curve
    over the farthest nodes, starting from its value at s = -S on that decay.
    """
    if S >= s_full * (1 - 1e-9):
        return 1.0
    k = max(2, nodes.size // 8)
    tail_x = np.log(-nodes[-k:])
    tail_y = np.log(np.maximum(vals[-k:], 1e-300))
    gamma = -np.polyfit(tail_x, tail_y, 1)[0]
    edge = vals[-1] * (S / -nodes[-1]) ** -gamma
    if gamma > 1.05:
        omitted = edge * S / (gamma - 1.0) * (1.0 - (S / s_full) ** (gamma - 1.0))
    elif gamma > 0.5:
        omitted = edge * S * np.log(s_full / S)
    else:
        omitted = edge * (s_full - S)
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
    denominator = _denominator(cfg, lam, datum_norm)
    scale = abs(cfg.datum_scale)
    return SweepRecord(
        lam=lam, points=grid.points, half_width=grid.half_width, t_count=t_count,
        numerator=scale * numerator, denominator=scale * denominator,
        ratio=numerator / denominator, coverage=coverage,
    )


def _denominator(cfg: SweepConfig, lam: float, datum_norm) -> float:
    """The unit-amplitude denominator: the Sobolev norm at ``cfg.beta``, or lam^beta times
    the plain norm."""
    if cfg.use_sobolev_denominator:
        return datum_norm(cfg.beta)
    return lam**cfg.beta * datum_norm(0.0)


def _smoothing_datum_norm(cfg: SweepConfig, lam: float):
    """beta -> the smoothing (or airy) datum's Bessel-weighted norm, as `datum_lp_norm` caches it."""
    return partial(datum_lp_norm, lam, cfg.alpha, cfg.p, cfg.family == "airy")


def _smoothing_record(cfg: SweepConfig, lam: float, curve: _ProfileCurve, S: float,
                      nodes: np.ndarray, weights: np.ndarray) -> SweepRecord:
    """One scale: the curve's ladder integral over [-S, 0], and the datum norm."""
    vals = curve(nodes)
    integral = float(vals @ weights)
    numerator = lam ** (1.0 - 1.0 / cfg.p) * (lam**-cfg.alpha * integral) ** (1.0 / cfg.p)
    return _record(
        cfg, lam, curve.grid, nodes.size, numerator, _smoothing_datum_norm(cfg, lam),
        _coverage(nodes, vals, integral, S, lam**cfg.alpha),
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

    The smoothing and airy families first take every scale's denominator,
    in increasing lam, then fill the shared profile-norm curve over the
    union of their scales' time ladders on [-S, 0], S = min(lam^alpha,
    horizon), in one call, and form the records in increasing lam.  A datum
    quadrature past the node budget (`grid.quadrature_node_budget`,
    DISPLAB_MAX_GRID_POINTS x 64) raises SizingError from
    `chirpquad.chirp_profile` before it allocates, naming its scale
    -lam^alpha, so the error names the smallest failing scale and no frame
    has been evolved.  A cached norm (`datum_lp_norm` keeps its values) runs
    no quadrature and needs no nodes, so the records read the denominators
    taken first; the budget is still read first, so a bad
    DISPLAB_MAX_GRID_POINTS raises EnvironmentSettingError on every sweep.
    """
    if cfg.family == "maximal":
        return [_maximal_record(cfg, lam) for lam in cfg.lambdas]
    quadrature_node_budget()  # checks DISPLAB_MAX_GRID_POINTS, even with every norm cached
    for lam in cfg.lambdas:  # a datum past the node budget refuses before any frame work
        _denominator(cfg, lam, _smoothing_datum_norm(cfg, lam))
    curve = _profile_curve(cfg.alpha, cfg.p, cfg.family == "airy")
    windows = {lam: min(_time_scale(lam, cfg.alpha), curve.horizon) for lam in cfg.lambdas}
    ladders = {lam: time_ladder(S) for lam, S in windows.items()}
    curve.fill(np.concatenate([nodes for nodes, _ in ladders.values()]))
    return [_smoothing_record(cfg, lam, curve, windows[lam], *ladders[lam])
            for lam in cfg.lambdas]


# -- direct (lam-scale) route for cross-validation -----------------------------------


def direct_smoothing_record(cfg: SweepConfig, lam: float) -> SweepRecord:
    """Same record as the unit-scale engine, from an honest lam-scale grid.

    `smoothing_spectrum` sizes the grid (nyquist >= 4 lam, half width >= 8
    C(alpha) lam^{alpha-1}) and raises SizingError naming lam past the grid
    cap: feasible only for small lam, which is the point, as it
    cross-validates the rescaled engine.  The frames are evolved from the
    datum's exact spectrum, so the phase is formed on the annulus alone;
    the denominator measures its inverse transform.  The frame at t is
    the unit profile at s = lam^alpha (t - 1) dilated by 1/lam, so it is
    summed on the box of half width `extremizers.frame_half_width` (s) /
    lam, and a frame that reaches its box edge raises SizingError naming
    lam and t.  At lam 32, alpha 2, 148 of the 189 frames run on 2^13
    points, 40 on 2^14 and 1 on 2^15, of the lattice's 2^17.
    """
    params = DispersionParams(cfg.alpha, 1)
    spectrum = smoothing_spectrum(ExtremizerSpec(SMOOTHING, lam, params))
    s_grid = focusing_s_grid(lam, cfg.alpha, lam**cfg.alpha)
    t_grid = 1.0 + s_grid / lam**cfg.alpha
    w = _time_weights(t_grid, (0.0, 1.0))
    # the frame at t is the unit profile at s, dilated by 1/lam
    vals, edges = _power_sums(spectrum, t_grid, params, cfg.p,
                              frame_half_width(s_grid, cfg.alpha) / lam)
    _require_in_box(edges, t_grid, f"the lam = {lam:g} frame at t = {{:.12g}}")
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
