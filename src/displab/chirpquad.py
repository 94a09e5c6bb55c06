"""Quadrature of chirped Fourier integrals over band-limited amplitudes.

Evaluates, in one dimension,

    I(y) = (2 pi)^-1  sum_intervals  int a(xi) e^{i (y xi + S |xi|^alpha)} dxi

at large collections of y points, for |S| up to ~1e8 where a literal dense
lattice would need 1e8..1e9 nodes.  Two routes share one lattice-sum back end:

dense   one trapezoid lattice per interval and segment, fine enough that
        the implied periodization images stay clear of every target.

banded  the interval is split by a smooth partition of unity into narrow
        bands; each band's profile is supported (up to rapidly decaying
        tails) on the window its group positions y = -S phi'(xi) sweep, so
        it is evaluated only there, on a much coarser lattice.  Total node
        count drops by roughly the band count.  Band pieces are summed
        coherently on the caller's grid; targets outside every window
        receive the (rapidly vanishing) tail contributions of nothing, so
        the banded route must only be used with targets inside the swept
        region, or together with `nonstationary_bound` for the rest.  Each
        window's lattices, weights and transforms form one job; the jobs
        are queued at once and run two at a time by `grid._run_blocks`,
        and the calling thread only slices the segments and adds the jobs'
        sums in window order.

Route rule.  `chirp_profile` runs dense up to `DENSE_CAP` = 2^17
dense-lattice nodes and banded above it, for every caller; `_route`
returns that choice with its node count, which is the count the budget
check reads.  Both routes stay: the dense one is the banded one's oracle
in tests, and the faster below the cap; tests force one by patching
`DENSE_CAP`.  On `extremizers._datum_quadrature`'s 8192 targets at alpha 2
(2-core Xeon, best of 3, weights on the centred phase) the dense route
costs 0.008 s at 81,790 nodes against 0.077 s banded, 0.018 s against
0.048 s at 162,756, 0.032 s against 0.039 s at 324,688, 0.049 s against
0.038 s at 486,620 and 0.136 s against 0.039 s at 1,296,278.  The costs
cross between 3e5 and 5e5 nodes, yet the cap stays at 2^17: the dense
route runs on one thread, and with the cap at 3 * 2^17 the seed-0
benchmark `sweep` peaked at 77-78 MB against 61-63 MB.  No sweep scale
within 3% of a dyadic one crosses 2^17 (their dense counts skip from
81,790 to 243,310).  The switch costs no accuracy
that shows: the dense route carries a chirp round-off floor of about 1e-8
absolute itself, and on the datum norms the rule moves to banded the two
routes agree on sum |I|^6 within 1e-9 relative.

The trapezoid lattice sum equals the exact periodization of I, so the only
quadrature error is wrap-around of the profile's rapidly decaying tails;
lattice periods are chosen so the images stay `pad` away from every
target.

Back end.  The lattice spacing is ours to choose, so `_lattice_sum` picks
it for each (interval or band window, segment) pair so that the step
angle, target step times node spacing, is 2 pi / L with L the smallest
5-smooth length at or above the required period over the target step.
The chirp-z sum (Rabiner, Schafer & Rader 1969) over that lattice is then
a plain DFT of length L: the weights fold onto their node index mod L and
one inverse FFT returns target k at k mod L.  Where L is over twice the
Bluestein length of the nodes and targets (few of both on a long period:
small scales on the banded route, and one of the 6 quadratures of the
seed-0 benchmark `sweep`, alpha 2 at lam 16), a Bluestein `CZT` plan (Bluestein 1970) at
angle 2 pi / L runs instead, built by the job that applies it.  There
n, m < L / 2, so the plan's largest chirp angle pi max(n, m)^2 / L stays
below pi max(n, m) / 2 and no plan is chunked; it holds its lattice whole,
while the folded route forms its weights in blocks of whole periods.
There is no direct O(nodes x targets) sum and no plan cache: the seed-0
benchmark `sweep` builds 2 plans and `localization` none.

Weights.  Each lattice's phase is formed about its midpoint c, as
S (|x|^alpha - |c|^alpha) + y_0 (x - c), and the constant
e^{i (S |c|^alpha + y_0 c)} joins the final twiddle.  On the band
windows of `extremizers._datum_quadrature` at alpha 3, lam 256 the phase
stays within 1.1e5 rather than 2.6e8, so its cosine and sine, written
into the real and imaginary parts of the chirp, need no slow reduction of
large arguments.  On either form the largest phase error is the rounding
of |x|^alpha before the multiplication by S.  Against a long-double-phase
oracle the centred form put datum norms at 14 scales (alpha 1.5 to 4) a
median 3.1e-13 relative away, the uncentred one 1.2e-12, and at most
5.1e-11 against 4.3e-10; it is the further off at alpha 3, lam 256
(1.55e-11 against 2.1e-12) and alpha 4, lam 64 (1.31e-11 against
4.4e-12).  Forming S |c|^alpha without rounding (Dekker's product) moved
no norm by more than 3e-15 relative, so the constant is rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import make_cutoffs
from .errors import SizingError
from .grid import _run_blocks, quadrature_node_budget

_TAIL_CLEARANCE = 1500.0  # absolute image clearance added to every lattice, in y units
_FOLD_BLOCK = 2**21  # most lattice nodes whose weights are formed at once
_OVERSAMPLE = 1.15  # lattice period over the span it must hold clear of images
BAND_COUNT = 48  # bands per interval on the banded route
DENSE_CAP = 2**17  # most dense-lattice nodes `chirp_profile` evaluates densely
_BOUND_STEPS = 5  # integrations by parts tried by nonstationary_bound
_BOUND_NODES = 16384  # lattice nodes per interval in _bound_norms
_BOUND_PIECES = 16  # pieces per interval, each bounded at its own distance from the targets


@dataclass(frozen=True)
class UniformSegment:
    """An arithmetic progression of target points y = start + step * (0..count-1)."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if self.count < 1 or self.step <= 0:
            raise ValueError("segment needs count >= 1 and positive step")

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.count - 1)


def _group_position(xi: np.ndarray, alpha: float, scale: float) -> np.ndarray:
    """Stationary target y(xi) = -S * d/dxi |xi|^alpha."""
    return -scale * alpha * np.abs(xi) ** (alpha - 1.0) * np.sign(xi)


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length pocketfft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class CZT:
    """Chirp-z plan: ``X_k = sum_j x_j w^{jk}`` for k < m, |w| = 1, from n inputs.

    Bluestein's identity jk = (j^2 + k^2 - (k - j)^2) / 2 turns the sum into
    a convolution with the chirp e^{-i theta t^2 / 2}, theta = angle(w); the
    FFT of that kernel is stored, so a call is one forward and one inverse
    FFT.  Inputs shorter than n are zero-padded.
    """

    def __init__(self, n: int, m: int, w: complex):
        if n < 1 or m < 1:
            raise ValueError("a chirp-z plan needs n >= 1 and m >= 1")
        self.n, self.m = n, m
        self.nfft = _smooth_length(n + m - 1)
        t = np.arange(max(n, m), dtype=float)
        # reduce theta t^2 / 2 mod 2 pi before the exp: t^2 is exact in float64
        chirp = np.exp(1j * np.mod(0.5 * np.angle(w) * t * t, 2.0 * np.pi))
        kernel = np.zeros(self.nfft, dtype=complex)
        kernel[:m] = chirp[:m].conj()
        kernel[self.nfft - n + 1 :] = chirp[1:n][::-1].conj()
        self._pre, self._post = chirp[:n], chirp[:m]
        self._kernel_fft = np.fft.fft(kernel)
        for arr in (self._pre, self._post, self._kernel_fft):
            arr.setflags(write=False)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.size > self.n:
            raise ValueError(f"plan takes at most {self.n} inputs, got {x.size}")
        spectrum = np.fft.fft(x * self._pre[: x.size], self.nfft)
        spectrum *= self._kernel_fft
        return np.fft.ifft(spectrum)[: self.m] * self._post


def _lattice_sum(amplitude, alpha, scale, lo, hi, period, seg: UniformSegment) -> np.ndarray:
    """sum_x a(x) e^{i (S |x|^alpha + y x)} d / 2 pi at ``seg``'s targets y, over a centred
    lattice x in [lo, hi] of spacing d.

    The spacing d sets the step angle seg.step * d to 2 pi / L, with L the
    smallest 5-smooth length at or above period / seg.step, so the lattice's
    period in y, L seg.step, is at least ``period``.  With x_j = x_0 + j d and
    y_k = start + k step and the lattice's midpoint c the sum is
    e^{i (k step x_0 + S |c|^alpha + start c)} sum_j w_j e^{2 pi i jk / L},
    w_j = a(x_j) e^{i (S (|x_j|^alpha - |c|^alpha) + start (x_j - c))} d / 2 pi,
    a phase that stays small on a narrow lattice: the weights fold
    onto j mod L, in blocks of whole periods, and one inverse FFT of length L
    gives target k at k mod L.  Where L is over twice the Bluestein length of
    the folded nodes and targets (few of both on a long period), a `CZT` plan
    at angle 2 pi / L runs instead; then n, m < L / 2, so its largest chirp
    angle pi max(n, m)^2 / L stays below pi max(n, m) / 2.
    """
    L = _smooth_length(int(np.ceil(period / seg.step)))
    d = 2.0 * np.pi / (L * seg.step)
    n = int((hi - lo) / d) + 1
    x0 = 0.5 * (lo + hi - (n - 1) * d)
    c = 0.5 * (lo + hi)
    c_alpha = abs(c) ** alpha

    def weights(j0: int, j1: int) -> np.ndarray:
        x = x0 + d * np.arange(j0, j1)
        phase = scale * (np.abs(x) ** alpha - c_alpha) + seg.start * (x - c)
        chirp = np.empty(x.size, dtype=complex)
        np.cos(phase, out=chirp.real)
        np.sin(phase, out=chirp.imag)
        return np.asarray(amplitude(x), dtype=complex) * chirp * (d / (2.0 * np.pi))

    m = seg.count
    if L > 2 * _smooth_length(min(n, L) + min(m, L) - 1):
        sums = CZT(n, m, np.exp(2j * np.pi / L))(weights(0, n))
    else:
        folded = np.zeros(L, dtype=complex)
        block = L * max(_FOLD_BLOCK // L, 1)
        for j0 in range(0, n, block):
            w = weights(j0, min(j0 + block, n))
            whole = w.size - w.size % L
            folded += w[:whole].reshape(-1, L).sum(axis=0)
            folded[: w.size - whole] += w[whole:]
        sums = np.resize(np.fft.ifft(folded, norm="forward"), m)
    centre = (scale * c_alpha + seg.start * c) % (2.0 * np.pi)
    return sums * np.exp(1j * ((seg.step * x0) * np.arange(m) + centre))


def _interval_lattice(lo: float, hi: float, spacing: float):
    n = max(int(np.ceil((hi - lo) / spacing)), 8)
    d = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * d, d


def _dense_periods(intervals, alpha, scale, segments) -> list[float]:
    """Each interval's dense-lattice period in y: images stay clear of every target."""
    y_max = max(max(abs(s.start), abs(s.stop)) for s in segments)
    periods = []
    for lo, hi in intervals:
        reach = abs(scale) * alpha * max(abs(lo), abs(hi)) ** (alpha - 1.0)
        periods.append(_OVERSAMPLE * (y_max + reach + _TAIL_CLEARANCE))
    return periods


def dense_node_estimate(intervals, alpha, scale, segments) -> int:
    """Node count of the dense route's lattices for these targets."""
    periods = _dense_periods(intervals, alpha, scale, segments)
    return sum(
        int(np.ceil((hi - lo) * t / (2.0 * np.pi))) for (lo, hi), t in zip(intervals, periods)
    )


def _route(intervals, alpha, scale, segments) -> tuple[bool, int]:
    """(banded, nodes): the route `chirp_profile` runs for these targets and its node count.

    Banded above `DENSE_CAP` dense nodes; the banded route spends about one
    band's share of the dense nodes.
    """
    n_dense = dense_node_estimate(intervals, alpha, scale, segments)
    banded = n_dense > DENSE_CAP
    return banded, n_dense // BAND_COUNT if banded else n_dense


def chirp_profile(amplitude, intervals, alpha: float, scale: float, segments) -> list[np.ndarray]:
    """Evaluate the chirped profile on each segment; returns one array per segment.

    ``segments`` is a sequence of `UniformSegment`.  ``amplitude`` maps xi
    arrays to (complex) values and must be supported inside ``intervals``
    (finite unions of single-signed intervals).  Raises SizingError, before
    any lattice is allocated, when the route's node count exceeds
    `grid.quadrature_node_budget`.
    """
    intervals = tuple((float(lo), float(hi)) for lo, hi in intervals)
    for lo, hi in intervals:
        if not hi > lo:
            raise ValueError(f"empty interval ({lo}, {hi})")
        if lo < 0 < hi:
            raise ValueError("intervals must not straddle 0; split them")
    out = [np.zeros(seg.count, dtype=complex) for seg in segments]

    use_banded, nodes = _route(intervals, alpha, scale, segments)
    budget = quadrature_node_budget()
    if nodes > budget:
        raise SizingError(
            f"chirp-z quadrature at scale {scale:.3g} needs ~{nodes:.2e} nodes, "
            f"over the budget of {budget:.2e}; "
            "raise DISPLAB_MAX_GRID_POINTS or use a smaller scale"
        )

    if not use_banded:
        for (lo, hi), period in zip(intervals, _dense_periods(intervals, alpha, scale, segments)):
            for seg, acc in zip(segments, out):
                acc += _lattice_sum(amplitude, alpha, scale, lo, hi, period, seg)
        return out

    _banded_profile(amplitude, intervals, alpha, scale, segments, out)
    return out


def _banded_profile(amplitude, intervals, alpha, scale, segments, out):
    """Sum every band window onto ``out``, the windows run two at a time by `grid._run_blocks`.

    Each window job forms its own lattices, weights and transforms; the
    calling thread only slices segments and adds views, in window order,
    so the sums are bit for bit the serial ones.
    """
    cells = make_cutoffs(dim=1)
    jobs = []

    def window(job):
        blo, bhi, p, h, period, sliced = job

        def band(x):
            return amplitude(x) * cells.cell_1d(x / h - p)

        return [_lattice_sum(band, alpha, scale, blo, bhi, period, sub) for sub, _, _ in sliced]

    for lo, hi in intervals:
        h = (hi - lo) / BAND_COUNT
        curvature = alpha * abs(alpha - 1.0) * max(abs(lo) ** (alpha - 2.0), abs(hi) ** (alpha - 2.0))
        pad = 1500.0 / h + 8.0 * np.sqrt(abs(scale) * curvature + 1.0)
        # cell centers p*h covering [lo, hi] with one cell of slack each side
        p_lo = int(np.floor(lo / h)) - 1
        p_hi = int(np.ceil(hi / h)) + 1
        for p in range(p_lo, p_hi + 1):
            c = p * h
            blo, bhi = max(c - 0.6 * h, lo), min(c + 0.6 * h, hi)
            if bhi <= blo:
                continue
            g_edges = _group_position(np.array([blo, bhi]), alpha, scale)
            foot_lo, foot_hi = float(g_edges.min()), float(g_edges.max())
            win_lo, win_hi = foot_lo - pad, foot_hi + pad
            # restrict each segment the window covers to the window slice
            sliced = []
            for seg, acc in zip(segments, out):
                if seg.stop < win_lo or seg.start > win_hi:
                    continue
                q0 = max(0, int(np.floor((win_lo - seg.start) / seg.step)))
                q1 = min(seg.count - 1, int(np.ceil((win_hi - seg.start) / seg.step)))
                if q1 < q0:
                    continue
                sub = UniformSegment(seg.start + q0 * seg.step, seg.step, q1 - q0 + 1)
                sliced.append((sub, acc, q0))
            if not sliced:
                continue
            span = (win_hi - win_lo) + pad + _TAIL_CLEARANCE
            jobs.append((blo, bhi, p, h, _OVERSAMPLE * span, sliced))
    for (*_, sliced), views in zip(jobs, _run_blocks(window, jobs)):
        for (sub, acc, q0), view in zip(sliced, views):
            acc[q0 : q0 + sub.count] += view


def nonstationary_bound(amplitude, intervals, alpha: float, scale: float, y: np.ndarray) -> np.ndarray:
    """Integration-by-parts upper bound for |I(y)| away from all group positions.

    With s = y + sigma(xi) the real phase slope, n integrations by parts give
    |I(y)| <= (2 pi)^-1 int |h_n|, h_0 = a and h_{n+1} = (h_n / s)'.  So
    h_n = sum_{j=n}^{2n} P_{n,j} s^-j, where P_{0,0} = a, P_{n+1,j+1} += P_{n,j}'
    and P_{n+1,j+2} -= (j + 1) sigma' P_{n,j}; as sigma' = S alpha (alpha - 1)
    |xi|^{alpha-2}, P_{n,j} = S^{j-n} R_{n,j} with R free of S and y.  On each
    of `_BOUND_PIECES` pieces of an interval, |s| >= dist(y), the distance from
    y to the group positions of the piece's ends, so per interval

        |I(y)| <= min_{n=1..5} sum_pieces sum_j |S|^{j-n} r_{n,j} dist(y)^-j,

    r_{n,j} = (2 pi)^-1 int_piece |R_{n,j}| from `_bound_norms`.  The bound
    falls as every dist(y) grows, so past the group positions its supremum
    over a set of targets is its value at the nearest one.  Enforced: dist(y)
    > |y| / 20 on every piece.  Every tail the lab reports comes from this
    bound: a quadrature there reads round-off.
    """
    total = 0.0
    for coefficients, dist in _bound_terms(amplitude, intervals, alpha, scale, y):
        j = np.arange(coefficients.shape[2])
        total = total + np.einsum("pnj,pjt->nt", coefficients, dist[:, None] ** -j[:, None]).min(0)
    return total


def _bound_terms(amplitude, intervals, alpha: float, scale: float, y):
    """Per interval, |S|^{j-n} r_{n,j} as a (piece, n, j) array and dist(y) as (piece, y)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not (np.isfinite(scale) and np.isfinite(y).all()):
        raise ValueError(f"the bound needs a finite scale and targets, got scale {scale} and y {y}")
    powers = np.maximum(np.arange(2 * _BOUND_STEPS + 1) - np.arange(1, _BOUND_STEPS + 1)[:, None], 0)
    terms = []
    for lo, hi in intervals:
        g = _group_position(np.linspace(lo, hi, _BOUND_PIECES + 1), alpha, scale)[:, None]
        dist = np.maximum(np.maximum(np.minimum(g[:-1], g[1:]) - y, y - np.maximum(g[:-1], g[1:])), 0.0)
        if np.any(dist <= 0.05 * np.abs(y)):
            raise ValueError("targets are too close to the stationary region for the bound")
        terms.append((_bound_norms(amplitude, lo, hi, alpha) * abs(scale) ** powers, dist))
    return terms


@lru_cache(maxsize=32)
def _bound_norms(amplitude, lo: float, hi: float, alpha: float) -> np.ndarray:
    """r_{n,j} as a (piece, n, j) array: R_{n,j} = P_{n,j} at S = 1 on `_BOUND_NODES` nodes
    of [lo, hi], derivatives by `np.gradient`; keyed by the amplitude (cutoffs are shared)."""
    xi, d = _interval_lattice(lo, hi, (hi - lo) / _BOUND_NODES)
    curvature = alpha * (alpha - 1.0) * np.abs(xi) ** (alpha - 2.0)
    rows = {0: np.asarray(amplitude(xi))}
    norms = np.zeros((_BOUND_PIECES, _BOUND_STEPS, 2 * _BOUND_STEPS + 1))
    for n in range(_BOUND_STEPS):
        previous, rows = rows, {}
        for j, p in previous.items():
            rows[j + 1] = rows.get(j + 1, 0.0) + np.gradient(p, d)
            rows[j + 2] = rows.get(j + 2, 0.0) - (j + 1) * curvature * p
        for j, p in rows.items():
            norms[:, n, j] = np.abs(p).reshape(_BOUND_PIECES, -1).sum(axis=1) * d / (2.0 * np.pi)
    norms.setflags(write=False)
    return norms
