"""Test families saturating the smoothing and maximal estimates.

Two families, both frequency-localized at scale lam:

smoothing datum   spectrum e^{-i|xi|^alpha} theta(xi/lam) on the annulus
                  {lam/2 < |xi| < 2 lam}: a chirp that refocuses at t = 1.
maximal datum     a bump of radius ~ eps * lam^{(2-alpha)/2} at frequency
                  -lam e1, traveling along the ridge t(x) = x1/(alpha lam^{alpha-1}).

Everything the sweep harness needs about these families reduces exactly, by
a change of variables in the defining Fourier integrals, to unit-scale
profiles: the smoothing datum and its evolution are lam^d W(lam x,
lam^alpha (t-1)) for the unit annulus profile W, and the maximal datum is a
modulated dilation of a fixed packet.  The checks below therefore run
either on honest lam-scale grids (when those fit in memory) or through the
unit-scale reductions evaluated by chirped quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chirpquad import UniformSegment, chirp_profile, nonstationary_bound
from .cutoffs import make_cutoffs, smooth_step
from .errors import SizingError
from .grid import FREQUENCY, Field, GridSpec, _pow2_points, sized_grid
from .norms import _check_exponent_args, bessel_symbol, lp_norm
from .propagator import (
    DispersionParams,
    _chirped_box,
    _chirped_spectrum,
    _evolved_support,
    ball_constant,
)
from .spectral import apply_symbol, dft_inverse

SMOOTHING = "smoothing"
MAXIMAL = "maximal"

# nodes of the dispersed-profile quadrature over 0 <= u <= 1.25 C(alpha)
_DATUM_NODES = 8192
# S min_{[1/2, 2]} |phi''| (S = lam^alpha, phi(rho) = rho^alpha) from which `datum_lp_norm`
# is the stationary-phase value, not the quadrature
SP_CURVATURE = 2.0**16
# trapezoid nodes of `J_p` and `K_p` over [1/2, 2]
_J_NODES = 1025
# the evolved unit profile must stay _HORIZON_WIDTH inside the box shrunk by _HORIZON_MARGIN
_HORIZON_MARGIN, _HORIZON_WIDTH = 1.1, 60.0
# points of the unit profile grid whose half width is the least box `frame_half_width` gives
_FRAME_FLOOR_POINTS = 2**13
# envelope_check samples on the group annulus
_PEAK_SAMPLES = 512
# focusing_check frames over |t - 1| <= 1/(10 lam^alpha); odd, so the middle one is t = 1
_FOCUS_FRAMES = 9
# ridge_check samples along the ridge
_RIDGE_CHECK_SAMPLES = 33
# the fewest lattice frequencies inside the traveling bump that `maximal_spectrum` accepts.
# At lam 16, alpha 3, the lattice datum's L^2 and L^6 norms against `maximal_datum_norm`
# were off by 5-335% with 1 or 2 frequencies inside, 2-7% with 3 or 4, and under 1% from 6.
_BUMP_MODES = 3


@dataclass(frozen=True)
class ExtremizerSpec:
    """One test-family member: family, scale, flow and grid (`smoothing_spectrum` sizes a None one)."""

    family: str
    lam: float
    params: DispersionParams
    grid: GridSpec | None = None
    epsilon: float = 0.05

    def __post_init__(self):
        if self.family not in (SMOOTHING, MAXIMAL):
            raise ValueError(f"unknown family {self.family!r}")
        if not (np.isfinite(self.lam) and self.lam >= 8):
            raise ValueError(f"lam must be finite and >= 8, got {self.lam}")
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if self.grid is not None and self.grid.dim != self.params.dim:
            raise ValueError(f"grid dim {self.grid.dim} != params dim {self.params.dim}")


def smoothing_grid_requirements(lam: float, alpha: float) -> tuple[float, float]:
    """(min nyquist, min half width) for a faithful lam-scale smoothing datum."""
    return 4.0 * lam, 8.0 * ball_constant(alpha) * lam ** (alpha - 1.0)


def smoothing_spectrum(spec: ExtremizerSpec, allow_wrapped: bool = False) -> Field:
    """The chirped annulus datum's exact spectrum theta(|xi|/lam) e^{-i|xi|^alpha}.

    A frequency field on spec.grid, exactly zero off lam/2 < |xi| < 2 lam,
    formed on the index box that holds the annulus, so the evolutions form
    their phase on the annulus alone; its inverse transform is the physical
    datum, whose round-off covers the whole lattice.  `grid.sized_grid` sizes
    a None grid (dim 1) at 1.1x the required half width and 1.05x the
    required nyquist.  ``allow_wrapped`` skips the spatial-extent
    requirement; the datum then wraps around the box and only
    frequency-local quantities (such as the refocused values near t = 1)
    remain faithful.
    """
    if spec.family != SMOOTHING:
        raise ValueError("spec.family must be 'smoothing'")
    lam, alpha = spec.lam, spec.params.alpha
    need_nyq, need_hw = smoothing_grid_requirements(lam, alpha)
    grid = spec.grid
    if grid is None and spec.params.dim != 1:
        raise ValueError("automatic datum grids are one-dimensional; pass a grid")
    if grid is None:
        grid = sized_grid(1.1 * need_hw, 1.05 * need_nyq, f"the smoothing datum at lam={lam:g}")
    if grid.nyquist < need_nyq or (not allow_wrapped and grid.half_width < need_hw):
        n_req = _pow2_points(need_hw, need_nyq)
        if n_req is None:
            raise OverflowError(f"the datum grid's points at lam = {lam:g}, alpha = {alpha:g} "
                                "overflow the float range")
        raise SizingError(
            f"grid (N={grid.points}, L={grid.half_width:.4g}) cannot hold the "
            f"scale-{lam:g} datum: need nyquist >= {need_nyq:.4g} and "
            f"half width >= {need_hw:.4g} (about N={n_req})",
            required_points=n_req,
            required_half_width=need_hw,
        )
    spectrum = _chirped_spectrum(grid, 2.0 * lam, _scaled_annulus(lam, grid.dim), -1j, alpha)
    return Field(grid, FREQUENCY, spectrum)


def _scaled_annulus(lam: float, dim: int):
    """theta(r / lam), the smoothing datum's amplitude at scale lam."""
    annulus = make_cutoffs(dim=dim).annulus
    inv = 1.0 / lam
    return lambda r: annulus(inv * r)


def maximal_spectrum(spec: ExtremizerSpec) -> Field:
    """The traveling-bump datum's spectrum on spec.grid (dim = 1).

    The normalized bump at frequency -lam, dilated by lam^{(2-alpha)/2};
    exactly zero off its support, so the evolutions form their phase there
    alone.
    """
    if spec.family != MAXIMAL:
        raise ValueError("spec.family must be 'maximal'")
    grid = spec.grid
    if grid is None:
        raise ValueError("spec.grid is required to build a sampled datum")
    if grid.dim != 1:
        raise ValueError("the traveling-bump datum is built in dimension 1")
    eps = spec.epsilon
    lam, alpha = spec.lam, spec.params.alpha
    width = eps * lam ** ((2.0 - alpha) / 2.0)
    if grid.nyquist < 1.05 * (lam + width):
        raise SizingError(
            f"grid nyquist {grid.nyquist:.4g} cannot carry the bump at frequency "
            f"-{lam:g} (need >= {1.05 * (lam + width):.4g})"
        )
    xi = grid.axis_frequencies()
    radius = 0.9 * width  # the bump is exactly 0 at |xi + lam| >= radius
    inside = np.count_nonzero(np.abs(xi + lam) < radius)
    if inside < _BUMP_MODES:
        # an open interval of length 2 radius holds at least 2 radius / spacing - 1 lattice points
        need_hw = np.pi * (_BUMP_MODES + 1) / (2.0 * radius)
        raise SizingError(
            f"grid (N={grid.points}, L={grid.half_width:.4g}) resolves the radius-{radius:.3g} "
            f"bump at frequency -{lam:g} with {inside} lattice frequencies, fewer than "
            f"{_BUMP_MODES}: need half width >= {need_hw:.4g}",
            required_half_width=need_hw,
        )
    shift = lam ** ((alpha - 2.0) / 2.0)
    spectrum = _normalized_bump(eps)(shift * np.abs(xi + lam))
    return Field(grid, FREQUENCY, spectrum)


# -- unit-scale reductions -------------------------------------------------------


def unit_profile_grid(points: int = 2**15) -> GridSpec:
    """One-dimensional grid carrying the unit annulus with 4x spectral headroom: nyquist 8."""
    return GridSpec(1, points, np.pi * points / 16.0)


def unit_annulus_field(grid: GridSpec, one_sided: bool = False) -> Field:
    """Frequency field theta(|eta|), optionally restricted to eta_1 > 0.

    Formed by `propagator._chirped_spectrum` with chirp 0 on the index box
    of the annulus |eta| < 2; every entry is bit for bit the lattice-wide
    formula.
    """
    annulus = make_cutoffs(dim=grid.dim).annulus
    spectrum = _chirped_spectrum(grid, 2.0, annulus, 0.0, 1.0, one_sided)
    return Field(grid, FREQUENCY, spectrum)


def faithful_horizon(grid: GridSpec, alpha: float) -> float:
    """Largest |s| for which the evolved unit profile stays inside the box."""
    return max((grid.half_width / _HORIZON_MARGIN - _HORIZON_WIDTH) / ball_constant(alpha), 0.0)


def frame_half_width(s, alpha: float) -> np.ndarray:
    """Half width of the smallest box that holds the evolved unit profile at each time s.

    The inverse of `faithful_horizon`: a box of at least this half width
    has a horizon of at least |s|.  It is _HORIZON_MARGIN (C(alpha) |s| +
    _HORIZON_WIDTH), but never below the half width of the
    `_FRAME_FLOOR_POINTS` = 2^13-point unit profile grid, which holds the
    annulus's own tail.  Over the time ladders to the 2^15-point grid's
    horizon (alpha 1.5, 2 and 3, both sides, p 2 to 6), a floor of 2^12
    points let the farthest frame on it (alpha 2, s = -158) read an edge
    ratio of 8.6e-7, just under the sweep's 1e-6 edge guard, and moved
    frames by up to 6.0e-13 from their whole-lattice sums; at 2^13 every
    edge ratio reads at most 4.9e-8 and frames move by at most 1.1e-15.
    """
    reach = _HORIZON_MARGIN * (ball_constant(alpha) * np.abs(np.asarray(s, dtype=float))
                               + _HORIZON_WIDTH)
    return np.maximum(reach, unit_profile_grid(_FRAME_FLOOR_POINTS).half_width)


def _annulus_intervals(one_sided: bool) -> tuple:
    return ((0.5, 2.0),) if one_sided else ((0.5, 2.0), (-2.0, -0.5))


def _datum_segments(S: float, alpha: float, one_sided: bool) -> list[UniformSegment]:
    """Targets y = S u of the dispersed-profile quadrature, 0 <= u <= 1.25 C(alpha)."""
    du = 1.25 * ball_constant(alpha) / (_DATUM_NODES - 1)
    segments = [UniformSegment(0.0, du * S, _DATUM_NODES)]
    if one_sided:
        # the non-stationary side u < 0 carries only rapidly vanishing mass;
        # cover it coarsely, ending strictly below 0 to avoid double counting
        neg_count = max(_DATUM_NODES // 32, 16)
        neg_step = 8.0 * du * S
        segments.insert(0, UniformSegment(-neg_count * neg_step, neg_step, neg_count))
    return segments


def J_p(amplitude, alpha: float, p: float) -> float:
    """int_{1/2}^{2} |a(rho)|^p |alpha (alpha - 1) rho^{alpha-2}|^{1-p/2} drho, a = ``amplitude``.

    The L^p mass of a chirped profile's leading stationary-phase (SP) term.
    Take V(y) = (2 pi)^-1 int a(eta) e^{i (y eta - S phi(eta))} deta with
    phi(eta) = eta^alpha and a real amplitude supported in 1/2 <= eta <= 2.
    The phase is stationary at the one eta = rho with y = S phi'(rho), where
    its second derivative is -S phi''(rho).  Hormander's expansion (The
    Analysis of Linear Partial Differential Operators I, Theorem 7.7.5) is

        V(y) = (2 pi S |phi''(rho)|)^{-1/2} e^{i theta} sum_j S^-j L_j a,
        L_j a = i^-j sum_{nu - mu = j, 2 nu >= 3 mu} (d^2/phi''(rho))^nu (g^mu a)(rho) / (2^nu mu! nu!),

    with theta real and g(eta) = -sum_{k >= 3} phi^(k)(rho) (eta - rho)^k / k!
    the phase's Taylor remainder past order 2.  Each sum is real, so L_1 a
    and L_3 a are imaginary while L_0 a = a and L_2 a are real, and the odd
    orders drop out of

        2 pi S |phi''(rho)| |V(y)|^2 = a(rho)^2 + S^-2 b(rho) + O(S^-4),
        b = |L_1 a|^2 + 2 a L_2 a.

    Past the group positions of the support the phase is not stationary
    and V decays faster than any power of S.  The change of variables
    y = S phi'(rho), dy = S |phi''(rho)| drho, and, for p >= 2,
    (a^2 + S^-2 b)^{p/2} = a^p + (p/2) a^{p-2} b S^-2 + O(S^-4), give

        int |V|^p dy = (2 pi)^{-p/2} S^{1-p/2} (J_p + K_p S^-2 + O(S^-4)),

    with K_p = (p/2) int a^{p-2} b |phi''|^{1-p/2} drho (`K_p`).  At p = 2
    the sum is Plancherel's identity, exact at every S, so int b drho = 0
    and K_2 = 0.  The chirped annulus is two such profiles, mirror images
    over eta > 0 and eta < 0, so its mass is twice this; a one-sided datum
    carries one.  The amplitude must vanish to all orders at 1/2 and 2, as
    the annulus does: then the trapezoid rule on `_J_NODES` points reaches
    round-off (within 2.2e-16 of 200,001 points at alpha 1.5-4, p 4-12,
    beta 0 and -0.5).  The absolute value keeps the formula for alpha < 1,
    where phi'' < 0.
    """
    rho = np.linspace(0.5, 2.0, _J_NODES)
    curvature = np.abs(alpha * (alpha - 1.0)) * rho ** (alpha - 2.0)
    return float(np.trapezoid(np.abs(amplitude(rho)) ** p * curvature ** (1.0 - p / 2.0), rho))


def K_p(amplitude, alpha: float, p: float) -> float:
    """(p/2) int_{1/2}^{2} |a|^{p-2} b |phi''|^{1-p/2} drho: `J_p`'s S^-2 companion, p >= 2.

    b = |L_1 a|^2 + 2 a L_2 a (derivation in `J_p`); with c = phi''(rho),

        24 c^6 b = 6 c^4 (a''^2 - a a'''')
                 + c^3 (a^2 phi^(6) + 6 a a' phi^(5) + 12 a a'' phi^(4) + 20 a a''' phi''' - 12 a' a'' phi''')
                 + c^2 (6 a'^2 phi'''^2 - 7 a^2 phi''' phi^(5) - 4 a^2 phi^(4)^2
                        - 32 a a' phi''' phi^(4) - 30 a a'' phi'''^2)
                 + 5 a c phi'''^2 (5 a phi^(4) + 6 a' phi''') - 15 a^2 phi'''^4.

    The derivatives of a are taken by FFT on `J_p`'s nodes: a vanishes to
    all orders at both ends, so its periodic extension over [1/2, 2] is
    C-infinity and its spectrum falls to round-off.  Below p = 2 the weight
    |a|^{p-2} would blow that round-off up near the zeros of a.
    """
    rho = np.linspace(0.5, 2.0, _J_NODES)
    a, a1, a2, a3, a4 = _periodic_derivatives(amplitude(rho))
    phase, coef = [], alpha * (alpha - 1.0)
    for k in range(2, 7):  # phi^(k)(rho) = alpha (alpha - 1) ... (alpha - k + 1) rho^{alpha - k}
        phase.append(coef * rho ** (alpha - k))
        coef *= alpha - k
    c, f3, f4, f5, f6 = phase
    b = (6.0 * c**4 * (a2**2 - a * a4)
         + c**3 * (a**2 * f6 + 6.0 * a * a1 * f5 + 12.0 * a * a2 * f4 + 20.0 * a * a3 * f3
                   - 12.0 * a1 * a2 * f3)
         + c**2 * (6.0 * a1**2 * f3**2 - 7.0 * a**2 * f3 * f5 - 4.0 * a**2 * f4**2
                   - 32.0 * a * a1 * f3 * f4 - 30.0 * a * a2 * f3**2)
         + 5.0 * a * c * f3**2 * (5.0 * a * f4 + 6.0 * a1 * f3)
         - 15.0 * a**2 * f3**4) / (24.0 * c**6)
    weight = np.abs(a) ** (p - 2.0) * np.abs(c) ** (1.0 - p / 2.0)
    return 0.5 * p * float(np.trapezoid(weight * b, rho))


def _periodic_derivatives(values: np.ndarray) -> list[np.ndarray]:
    """``values`` on `_J_NODES` points of [1/2, 2] and their first four derivatives, by FFT.

    The last node closes the period of length 3/2; the Nyquist mode, at
    round-off for such an amplitude, is dropped.
    """
    n = _J_NODES - 1
    spectrum = np.fft.rfft(values[:n])
    ik = (2j * np.pi / 1.5) * np.arange(spectrum.size)
    ik[-1] = 0.0
    out = [values]
    for order in range(1, 5):
        derivative = np.fft.irfft(spectrum * ik**order, n)
        out.append(np.append(derivative, derivative[0]))
    return out


def _time_scale(lam: float, alpha: float) -> float:
    """S = lam^alpha; past the float range, an OverflowError naming lam and alpha."""
    try:
        return lam**alpha
    except OverflowError:
        raise OverflowError(
            f"the time scale lam^alpha at lam = {lam:g}, alpha = {alpha:g} overflows the float range"
        ) from None


def _stationary_phase(lam: float, alpha: float, p: float) -> bool:
    """The route rule of `datum_lp_norm`: the SP value once p >= 2 and

        S min_{[1/2, 2]} |phi''| = S |alpha (alpha - 1)| 2^{-|alpha - 2|} >= `SP_CURVATURE`.
    """
    curvature = abs(alpha * (alpha - 1.0)) * 2.0 ** -abs(alpha - 2.0)
    return _time_scale(lam, alpha) * curvature >= SP_CURVATURE and p >= 2.0


@lru_cache(maxsize=256)
def datum_lp_norm(
    lam: float, alpha: float, p: float, one_sided: bool = False, bessel_beta: float = 0.0
) -> float:
    """||f_lam||_p, Bessel-weighted if ``bessel_beta`` != 0: the SP value or the quadrature.

    Exact reduction: f_lam(x) = lam^d V(x lam^{1-alpha}) with V the chirped
    annulus profile at scale S = lam^alpha, so the norm is
    lam^{d + (alpha-1) d / p} ||V||_p in the rescaled variable (d = 1 here).
    The weight `norms.bessel_symbol` is read at xi = lam eta.

    Two routes, one rule (`_stationary_phase`).  From S min |phi''| >=
    `SP_CURVATURE` = 2^16 on (S >= 2^15 at alpha 2, 2^14.4 at alpha 3 and
    4, 2^20.1 at alpha 1.1), for p >= 2, the norm is the two-term
    stationary-phase value (`J_p`, `K_p`):

        lam^{1 + (alpha-1)/p} (2 (2 pi)^{-p/2} S^{-p/2} (J_p + K_p S^-2))^{1/p},

    with J_p and K_p halved for one-sided data; their amplitude is the
    annulus times the Bessel weight, so the Sobolev denominator takes the
    same route.  Elsewhere `_datum_quadrature` runs.  At the crossover the
    two agree within 8.4e-10 relative over alpha 1.1-4, p 4-12, beta -0.5
    to 1 and both sides (2.1e-10 at beta 0), and the gap falls like S^-4.
    Below p = 2 the remainder is larger (1.9e-7 at p = 1, alpha 2, at the
    crossover), so those norms take the quadrature at every S.

    Raises ValueError for a lam or alpha that is not finite and positive, a
    p that is not finite and >= 1, or a bessel_beta that is not finite.
    """
    if not 0.0 < lam < np.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    _check_exponent_args(alpha, p)
    if not np.isfinite(bessel_beta):
        raise ValueError(f"bessel_beta must be finite, got {bessel_beta}")
    if not _stationary_phase(lam, alpha, p):
        return _datum_quadrature(lam, alpha, p, one_sided, bessel_beta)
    annulus, weight = make_cutoffs(dim=1).annulus, bessel_symbol(bessel_beta)
    amplitude = lambda rho: annulus(rho) * weight(lam * rho[None])  # noqa: E731
    S = lam**alpha
    mass = J_p(amplitude, alpha, p) + K_p(amplitude, alpha, p) / S / S
    if not one_sided:
        mass *= 2.0
    # (2 pi S)^{-1/2} (2 (J_p + K_p S^-2))^{1/p}, with no power of S that could leave the float range
    return float(lam ** (1.0 + (alpha - 1.0) / p) * mass ** (1.0 / p) / np.sqrt(2.0 * np.pi * S))


def _datum_quadrature(lam: float, alpha: float, p: float, one_sided: bool, bessel_beta: float) -> float:
    """`datum_lp_norm` by the dispersed-profile quadrature: ||V||_p from `chirp_profile`.

    The route short of the crossover (`_stationary_phase`), and the SP route's oracle in tests.
    """
    annulus = make_cutoffs(dim=1).annulus
    S = lam**alpha

    amplitude = annulus
    if bessel_beta != 0.0:
        weight = bessel_symbol(bessel_beta)
        amplitude = lambda eta: annulus(eta) * weight(lam * np.asarray(eta)[None])  # noqa: E731

    segments = _datum_segments(S, alpha, one_sided)
    values = chirp_profile(amplitude, _annulus_intervals(one_sided), alpha, -S, segments)
    total = 0.0
    for seg, vals in zip(segments, values):
        u = seg.points() / S
        mass = np.trapezoid(np.abs(vals) ** p, u)
        total += mass if one_sided else 2.0 * mass
    return float(lam ** (1.0 + (alpha - 1.0) / p) * total ** (1.0 / p))


@dataclass(frozen=True)
class EnvelopeReport:
    peak_ratio: float
    tail_ratio: float


def envelope_check(spec: ExtremizerSpec) -> EnvelopeReport:
    """Stationary-envelope diagnostics for the smoothing datum.

    peak_ratio: max |f_lam| / lam^{d - d alpha / 2}, probed on the group
    annulus |x| ~ alpha lam^{alpha-1} by chirp-z quadrature.  tail_ratio:
    the same normalization applied to an upper bound on |f_lam| over
    |x| >= 8 C(alpha) lam^{alpha-1}: `chirpquad.nonstationary_bound`
    (sum_j |S|^{j-n} r_{n,j} dist^-j from P_{n,j} = S^{j-n} R_{n,j}) falls
    with the distance to the group annulus, so its value at the nearest
    target is its supremum there.  A certified bound, not a measured value:
    a chirp-z quadrature of the tail reads its own round-off (3.7e-10 at
    alpha 2, lam 64, where the bound is 5.3e-18).
    """
    if spec.family != SMOOTHING:
        raise ValueError("envelope_check applies to the smoothing family")
    lam, alpha = spec.lam, spec.params.alpha
    cut = make_cutoffs(dim=1)
    S = _time_scale(lam, alpha)
    cball = ball_constant(alpha)
    inner = alpha * 2.0 ** (1.0 - alpha)

    u_lo, u_hi = 0.7 * inner, 1.1 * cball
    du = (u_hi - u_lo) / (_PEAK_SAMPLES - 1)
    peak_seg = UniformSegment(u_lo * S, du * S, _PEAK_SAMPLES)
    vals = chirp_profile(cut.annulus, _annulus_intervals(False), alpha, -S, [peak_seg])[0]
    tail = nonstationary_bound(cut.annulus, _annulus_intervals(False), alpha, -S, 8.0 * cball * S)[0]
    return EnvelopeReport(
        peak_ratio=float(lam ** (alpha / 2.0) * np.abs(vals).max()),
        tail_ratio=float(lam ** (alpha / 2.0) * tail),
    )


@dataclass(frozen=True)
class FocusingReport:
    min_modulus_ratio: float
    focus_value: complex
    predicted_focus_value: float


# int theta(|xi|) dxi over the line, exactly.  step(u) + step(1 - u) = 1 makes
# a rise or fall of width w integrate to w / 2; theta rises on [1/2, 2^-1/2],
# equals 1 up to 2^1/2 and falls to 0 at 2, so each half-line carries
# (2^-1/2 - 1/2)/2 + (2^1/2 - 2^-1/2) + (2 - 2^1/2)/2 = 3/4 + 2^1/2/4.
ANNULUS_INTEGRAL = (3.0 + 2.0**0.5) / 2.0
# int_0^1 of the bump profile 1 - step((s - 0.4)/0.5): 0.4 + 0.5/2, by the same identity
_BUMP_PROFILE_MASS = 0.65


def focusing_check(spec: ExtremizerSpec) -> FocusingReport:
    """Refocusing lower-bound check on |x| <= 1/(10 lam), |t - 1| <= 1/(10 lam^alpha).

    The lattice is a small box (half width L = 40) with a mesh h fine
    enough to resolve the 1/lam focal spot, sized by `grid.sized_grid`: past
    the grid cap it raises SizingError before forming any array.  The datum
    wraps spatially, so the lattice sum is the periodized field; that leaves
    the refocused values near t = 1 untouched, because the solution there is
    concentrated at scale 1/lam.  Only the window samples x_j = j h are
    formed, each as the inverse quadrature of the exact spectrum summed
    over the annulus:

        u(x_j, t) = (2L)^-1 sum_m X_m e^{i t phi(xi_m)} e^{2 pi i (m j mod N) / N}.

    X_m are the datum's nonzero values from `propagator._chirped_box` (as
    in `smoothing_spectrum`) and the evolved values are the flow's one
    product `propagator._evolved_support`, so every term is bit for bit
    an entry of `evolve`'s evolved spectrum; the twiddle
    angles are reduced modulo N in integers, and one (frames x support) @
    (support x window) product sums them.  No array of the lattice's N
    points is formed.  The exact focus value at (0, 1) is
    lam^d (2 pi)^-d int theta, read from the middle frame at j = 0.
    """
    if spec.family != SMOOTHING:
        raise ValueError("focusing_check applies to the smoothing family")
    lam, params = spec.lam, spec.params
    # first, so a lam^alpha past the float range raises OverflowError before the lattice is sized
    t_vals = 1.0 + np.linspace(-1.0, 1.0, _FOCUS_FRAMES) / (10.0 * _time_scale(lam, params.alpha))
    # box wide enough that the frequency lattice resolves the annulus bump to ~1e-9 (spacing
    # pi/L), mesh fine enough to resolve the 1/lam focal spot: dx <= 1/(40 lam), nyquist 40 pi lam
    grid = sized_grid(40.0, 40.0 * np.pi * lam, f"the focusing lattice at lam={lam:g}")
    (m,), box = _chirped_box(grid, 2.0 * lam, _scaled_annulus(lam, 1), -1j, params.alpha)
    support = np.flatnonzero(box)
    m = m[support]
    j = _focus_window(grid, lam)
    frames = _evolved_support(box[support], params(grid.axis_frequencies(m)[None]), t_vals)
    twiddle = 1j * (2.0 * np.pi / grid.points) * (np.multiply.outer(m, j) % grid.points)
    np.exp(twiddle, out=twiddle)
    values = frames @ twiddle / (2.0 * grid.half_width)
    predicted = lam * ANNULUS_INTEGRAL / (2.0 * np.pi)
    return FocusingReport(
        min_modulus_ratio=float(np.abs(values).min()) / lam,
        focus_value=complex(values[_FOCUS_FRAMES // 2, np.flatnonzero(j == 0)[0]]),
        predicted_focus_value=float(predicted),
    )


def _focus_window(grid: GridSpec, lam: float) -> np.ndarray:
    """Offsets j of the samples x_{N/2 + j} with |x| <= 1/(10 lam).

    x is formed as `GridSpec.axis_points` forms it, so the window holds the
    same samples as the whole axis's.
    """
    bound = 1.0 / (10.0 * lam)
    reach = int(bound / grid.spacing) + 1
    j = np.arange(-reach, reach + 1)
    x = -grid.half_width + grid.spacing * (grid.points // 2 + j)
    return j[np.abs(x) <= bound]


# -- traveling-bump packet machinery ----------------------------------------------


# the frequency lattice (spacing pi/L ~ 1.1e-3) must resolve the radius-~0.05
# bump well, and the box must hold the packet's ~1/0.01 scale tails
PACKET_GRID = GridSpec(1, 2**12, 2800.0)


def _normalized_bump(epsilon: float):
    """Radial bump supported in r < 0.9 eps, with (2pi)^-1 int chi(|w|) dw = 1."""
    c = 2.0 * np.pi / (2.0 * epsilon * _BUMP_PROFILE_MASS)

    def bump(r):
        return c * (1.0 - smooth_step((np.abs(r) / epsilon - 0.4) / 0.5))

    return bump


@lru_cache(maxsize=32)
def packet_field(epsilon: float) -> Field:
    """Frequency field of the normalized bump on the packet grid.

    Formed by `propagator._chirped_spectrum` with chirp 0 on the index box
    of |w| < 0.9 epsilon, outside which the bump is exactly 0 (79 nonzero
    entries of 4096 at epsilon 0.05); every entry is bit for bit the
    lattice-wide formula.
    """
    return Field(PACKET_GRID, FREQUENCY,
                 _chirped_spectrum(PACKET_GRID, 0.9 * epsilon, _normalized_bump(epsilon), 0.0, 1.0))


def packet_taylor_remainder(alpha: float):
    """rho(v) = |1 - v|^alpha - 1 + alpha v; the exact dispersion remainder."""

    def rho(v):
        return np.abs(1.0 - v) ** alpha - 1.0 + alpha * v

    return rho


def ridge_trace(lam: float, alpha: float, t_grid, epsilon: float = 0.05) -> np.ndarray:
    """Packet-center values G(0, t) along the ridge t(x) = x/(alpha lam^{alpha-1}).

    |u(x, t(x))| = lam^{(2-alpha)/2} |G(0, t(x))| exactly, so these values
    carry the whole ridge-trace norm.  The phases are formed only on the
    packet's support, one row of them per time.
    """
    spec_field = packet_field(epsilon)
    grid = spec_field.grid
    support = np.flatnonzero(spec_field.samples)
    weights = spec_field.samples[support] * grid.frequency_cell_volume / (2.0 * np.pi)
    w = grid.axis_frequencies()[support]
    rho_w = packet_taylor_remainder(alpha)(lam ** (-alpha / 2.0) * w)
    phase = 1j * (np.asarray(t_grid, dtype=float).reshape(-1) * _time_scale(lam, alpha))
    return (weights * np.exp(phase[:, None] * rho_w)).sum(axis=1)


def maximal_datum_norm(lam: float, alpha: float, p: float, epsilon: float = 0.05,
                       bessel_beta: float = 0.0) -> float:
    """||g_lam||_p, Bessel-weighted when ``bessel_beta`` is nonzero, via the packet.

    The exact modulated-dilation reduction: the spectrum of g_lam is the
    packet's, dilated by lam^{(2-alpha)/2} and centred at -lam, so packet
    frequency w sits at xi = -lam (1 - lam^{-alpha/2} w), where the weight
    `norms.bessel_symbol` (even in xi) is read.
    """
    f = packet_field(epsilon)
    if bessel_beta != 0.0:
        shift = lam ** (-alpha / 2.0)
        weight = bessel_symbol(bessel_beta)
        f = apply_symbol(f, lambda w: weight(lam * (1.0 - shift * np.asarray(w))))
    base = lp_norm(dft_inverse(f), p)
    return float(lam ** ((2.0 - alpha) / 2.0 * (1.0 - 1.0 / p)) * base)


@dataclass(frozen=True)
class RidgeReport:
    min_ridge_ratio: float
    rectangle_length: float


def ridge_check(spec: ExtremizerSpec) -> RidgeReport:
    """Lower-bound check along the ridge over the rectangle 0 <= x <= c lam^{alpha-1}.

    The rectangle constant defaults to c = alpha/100; the reported ratio is
    min |u(x, t(x))| / lam^{-d(alpha-2)/2} over the sampled rectangle.
    """
    if spec.family != MAXIMAL:
        raise ValueError("ridge_check applies to the maximal family")
    lam, alpha = spec.lam, spec.params.alpha
    c = alpha / 100.0
    t_max = c / alpha  # t(x) at the far end of the rectangle
    t_grid = np.linspace(0.0, t_max, _RIDGE_CHECK_SAMPLES)
    vals = np.abs(ridge_trace(lam, alpha, t_grid, spec.epsilon))
    return RidgeReport(
        min_ridge_ratio=float(vals.min()),
        rectangle_length=c * lam ** (alpha - 1.0),
    )
