"""Quadrature of chirped Fourier integrals over band-limited amplitudes.

Evaluates, in one dimension,

    I(y) = (2 pi)^-1  sum_intervals  int a(xi) e^{i (y xi + S |xi|^alpha)} dxi

at large collections of y points, for |S| up to ~1e8 where a literal dense
lattice would need 1e8..1e9 nodes.  Two routes share one chirp-z back end:

dense   one trapezoid lattice per interval, fine enough that the implied
        periodization images stay clear of every target; evaluated in
        chunks through the chirp-z transform.

banded  the interval is split by a smooth partition of unity into narrow
        bands; each band's profile is supported (up to rapidly decaying
        tails) on the window its group positions y = -S phi'(xi) sweep, so
        it is evaluated only there, on a much coarser lattice.  Total node
        count drops by roughly the band count.  Band pieces are summed
        coherently on the caller's grid; targets outside every window
        receive the (rapidly vanishing) tail contributions of nothing, so
        the banded route must only be used with targets inside the swept
        region, or together with `nonstationary_bound` for the rest.  The
        windows' weights and transforms run two at a time on the pool of
        `grid._block_pool`; their plans are resolved, and their sums added,
        in window order on the caller's thread.

Route rule.  ``method="auto"`` runs dense up to `DENSE_CAP` = 2^17
dense-lattice nodes and banded above it, for every caller; `_route`
returns that choice with its node count, which is the count the budget
check reads.  On `extremizers.datum_lp_norm`'s 8192 targets (2-core Xeon,
warm plans, best of 3) the dense route costs 0.029 s at 81,790 nodes
against 0.140 s banded, 0.053 s against 0.075 s at 162,722, 0.131 s
against 0.054 s at 243,310 and 0.907 s against 0.057 s at 1,943,592.
The two costs cross between 1.6e5 and 2.4e5 nodes; 2^17 is the power of
two near there that no sweep scale within 3% of a dyadic one crosses
(their dense counts skip from 81,790 to 243,310).  The switch costs no
accuracy that shows: the dense route carries a chirp round-off floor of
about 1e-8 absolute itself, and on the datum norms the rule moves to
banded the two routes agree on sum |I|^6 within 1e-9 relative.

The trapezoid lattice sum equals the exact periodization of I, so the only
quadrature error is wrap-around of the profile's rapidly decaying tails;
lattice spacings are chosen so the images stay `pad` away from every
target.

Back end.  Every block of every segment, down to one node or one target,
goes through a numpy Bluestein chirp-z transform (`CZT`; Rabiner, Schafer
& Rader 1969, Bluestein 1970): one forward and one inverse FFT of a
5-smooth length.  A segment's start is folded into the block weights, so
a plan depends only on (nodes, targets, step angle) and the last few are
kept in a small LRU cache.  There is no direct O(nodes x targets) sum.
The cache is too small for a sweep: at alpha 3 the one-sided (airy)
datum norm at a scale needs the 49 band plans the two-sided norm at that
scale built, and by then they are evicted, so the seed-0 benchmark
`sweep` builds 378 plans of which 149 repeat an earlier one.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoffs import make_cutoffs
from .errors import SizingError
from .grid import _block_pool, _block_workers, quadrature_node_budget

_TAIL_CLEARANCE = 1500.0  # absolute image clearance added to every lattice, in y units
_MAX_CHIRP_ANGLE = 2.0e8  # cap on n^2*theta/2 inside the chirp-z plan, keeps roundoff ~<1e-7
_DEFAULT_CHUNK = 2**21
_OVERSAMPLE = 1.15  # lattice period over the span it must hold clear of images
BAND_COUNT = 48  # bands per interval on the banded route
DENSE_CAP = 2**17  # most dense-lattice nodes the automatic route evaluates densely
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


def as_segments(y) -> tuple[UniformSegment, ...]:
    """Coerce a uniform 1-d array (or segment sequence) into segments."""
    if isinstance(y, UniformSegment):
        return (y,)
    if isinstance(y, (tuple, list)) and y and isinstance(y[0], UniformSegment):
        return tuple(y)
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("targets must be a 1-d array with >= 2 points or segments")
    steps = np.diff(arr)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12 * abs(steps[0])):
        raise ValueError("array targets must be uniformly spaced; pass segments instead")
    return (UniformSegment(float(arr[0]), float(steps[0]), arr.size),)


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


@lru_cache(maxsize=4)
def _plan(n: int, m: int, theta: float) -> CZT:
    return CZT(n=n, m=m, w=np.exp(1j * theta))


def _czt_eval(
    nodes: np.ndarray,
    weights: np.ndarray,
    segments,
    out: list[np.ndarray],
    chunk_cap: int = _DEFAULT_CHUNK,
) -> None:
    """Accumulate sum_n weights[n] e^{i y nodes[n]} onto each segment's output.

    With y_k = start + k step and a block's nodes x_0 + j dxi, the block sum
    is e^{i y_k x_0} sum_j (weights_j e^{i start dxi j}) e^{i step dxi jk}.
    """
    _czt_apply(nodes, weights, segments, _czt_plans(nodes, segments, chunk_cap), out)


def _czt_plans(nodes: np.ndarray, segments, chunk_cap: int = _DEFAULT_CHUNK) -> list:
    """(chunk, plan) per segment for the lattice ``nodes``, resolved through `_plan`."""
    if nodes.size == 0:
        return []
    dxi = nodes[1] - nodes[0] if nodes.size > 1 else 1.0
    plans = []
    for seg in segments:
        theta = seg.step * dxi
        # cap the chunk so the chirp angle n^2*theta/2 stays reducible in float64
        chunk = int(min(chunk_cap, max(4096, np.sqrt(2.0 * _MAX_CHIRP_ANGLE / max(theta, 1e-300)))))
        chunk = min(chunk, nodes.size)
        plans.append((chunk, _plan(chunk, seg.count, theta)))
    return plans


def _czt_apply(nodes: np.ndarray, weights: np.ndarray, segments, plans, out) -> None:
    """The sums of `_czt_eval` through plans `_czt_plans` resolved for these nodes."""
    dxi = nodes[1] - nodes[0] if nodes.size > 1 else 1.0
    for seg, (chunk, transform), acc in zip(segments, plans, out):
        points = seg.points()
        shift = np.exp(1j * (seg.start * dxi) * np.arange(chunk))
        for start in range(0, nodes.size, chunk):
            block = weights[start : start + chunk]
            acc += np.exp(1j * points * nodes[start]) * transform(block * shift[: block.size])


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


def _route(intervals, alpha, scale, segments, method: str = "auto") -> tuple[bool, int]:
    """(banded, nodes): the route `chirp_profile` runs for these targets and its node count.

    ``method="auto"`` is banded above `DENSE_CAP` dense nodes; the banded
    route spends about one band's share of the dense nodes.
    """
    if method not in ("auto", "dense", "banded"):
        raise ValueError(f"unknown method {method!r}")
    n_dense = dense_node_estimate(intervals, alpha, scale, segments)
    banded = method == "banded" or (method == "auto" and n_dense > DENSE_CAP)
    return banded, n_dense // BAND_COUNT if banded else n_dense


def chirp_profile(
    amplitude,
    intervals,
    alpha: float,
    scale: float,
    segments,
    *,
    method: str = "auto",
) -> list[np.ndarray]:
    """Evaluate the chirped profile on each segment; returns one array per segment.

    ``amplitude`` maps xi arrays to (complex) values and must be supported
    inside ``intervals`` (finite unions of single-signed intervals).  Raises
    SizingError, before any lattice is allocated, when the route's node
    count exceeds `grid.quadrature_node_budget`.
    """
    segments = as_segments(segments)
    intervals = tuple((float(lo), float(hi)) for lo, hi in intervals)
    for lo, hi in intervals:
        if not hi > lo:
            raise ValueError(f"empty interval ({lo}, {hi})")
        if lo < 0 < hi:
            raise ValueError("intervals must not straddle 0; split them")
    out = [np.zeros(seg.count, dtype=complex) for seg in segments]

    use_banded, nodes = _route(intervals, alpha, scale, segments, method)
    budget = quadrature_node_budget()
    if nodes > budget:
        raise SizingError(
            f"chirp-z quadrature at scale {scale:.3g} needs ~{nodes:.2e} nodes, "
            f"over the budget of {budget:.2e}; "
            "raise DISPLAB_MAX_GRID_POINTS or use a smaller scale"
        )

    if not use_banded:
        for (lo, hi), period in zip(intervals, _dense_periods(intervals, alpha, scale, segments)):
            nodes, d = _interval_lattice(lo, hi, 2.0 * np.pi / period)
            weights = (
                np.asarray(amplitude(nodes), dtype=complex)
                * np.exp(1j * scale * np.abs(nodes) ** alpha)
                * (d / (2.0 * np.pi))
            )
            _czt_eval(nodes, weights, segments, out)
        return out

    _banded_profile(amplitude, intervals, alpha, scale, segments, out)
    return out


def _banded_profile(amplitude, intervals, alpha, scale, segments, out):
    """Sum every band window onto ``out``, at most two windows in flight on `grid._block_pool`.

    Only the calling thread builds the lattices (plans read their spacing),
    resolves plans and adds views, all in window order, so plan builds,
    cache hits and sums are bit for bit the serial ones.
    """
    cells = make_cutoffs(dim=1)
    pool = _block_pool(os.getpid()) if _block_workers() > 1 else None
    pending = deque()

    def window(nodes, d, p, h, subs, plans):
        weights = (
            np.asarray(amplitude(nodes), dtype=complex)
            * cells.cell_1d(nodes / h - p)
            * np.exp(1j * scale * np.abs(nodes) ** alpha)
            * (d / (2.0 * np.pi))
        )
        views = [np.zeros(sub.count, dtype=complex) for sub in subs]
        _czt_apply(nodes, weights, subs, plans, views)
        return views

    def settle():  # add the oldest window's views; reading a result re-raises its error
        views, sliced = pending.popleft()
        for (sub, acc, q0), view in zip(sliced, views if pool is None else views.result()):
            acc[q0 : q0 + sub.count] += view

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
            nodes, d = _interval_lattice(blo, bhi, 2.0 * np.pi / (_OVERSAMPLE * span))
            subs = [sub for sub, _, _ in sliced]
            job = (nodes, d, p, h, subs, _czt_plans(nodes, subs))
            if len(pending) == 2:
                settle()
            pending.append((window(*job) if pool is None else pool.submit(window, *job), sliced))
    while pending:
        settle()


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
