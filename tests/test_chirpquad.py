import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import displab
from displab.chirpquad import (
    _BOUND_NODES,
    _BOUND_PIECES,
    _BOUND_STEPS,
    CZT,
    DENSE_CAP,
    UniformSegment,
    _bound_norms,
    _bound_terms,
    _interval_lattice,
    _lattice_sum,
    _smooth_length,
    as_segments,
    chirp_profile,
    dense_node_estimate,
    nonstationary_bound,
)
from displab.cutoffs import make_cutoffs

INTERVALS = ((0.5, 2.0), (-2.0, -0.5))


def brute_profile(amplitude, intervals, alpha, scale, y, nodes=400000):
    total = np.zeros(np.size(y), dtype=complex)
    for lo, hi in intervals:
        xi = np.linspace(lo, hi, nodes)
        d = (hi - lo) / (nodes - 1)
        w = np.asarray(amplitude(xi), dtype=complex) * np.exp(1j * scale * np.abs(xi) ** alpha)
        w[0] *= 0.5
        w[-1] *= 0.5
        total += (np.exp(1j * np.outer(np.atleast_1d(y), xi)) @ w) * d / (2 * np.pi)
    return total


def test_segment_helpers():
    seg = UniformSegment(1.0, 0.5, 5)
    assert seg.stop == 3.0
    np.testing.assert_allclose(seg.points(), [1.0, 1.5, 2.0, 2.5, 3.0])
    (coerced,) = as_segments(np.linspace(0.0, 1.0, 11))
    assert coerced.count == 11 and coerced.step == pytest.approx(0.1)
    with pytest.raises(ValueError):
        as_segments(np.array([0.0, 1.0, 3.0]))
    with pytest.raises(ValueError):
        UniformSegment(0.0, -1.0, 4)


def test_interval_validation():
    cut = make_cutoffs()
    with pytest.raises(ValueError, match="straddle"):
        chirp_profile(cut.annulus, ((-1.0, 1.0),), 2.0, 10.0, np.linspace(0, 1, 8))


def test_dense_matches_brute_force():
    cut = make_cutoffs()
    scale = -1200.0
    seg = UniformSegment(1000.0, 40.0, 80)
    out = chirp_profile(cut.annulus, INTERVALS, 2.0, scale, [seg], method="dense")[0]
    ref = brute_profile(cut.annulus, INTERVALS, 2.0, scale, seg.points())
    assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-8


def test_dense_zero_scale_is_plain_transform():
    cut = make_cutoffs()
    seg = UniformSegment(-6.0, 0.25, 49)
    out = chirp_profile(cut.annulus, INTERVALS, 2.0, 0.0, [seg], method="dense")[0]
    ref = brute_profile(cut.annulus, INTERVALS, 2.0, 0.0, seg.points())
    assert np.abs(out - ref).max() < 1e-10


@pytest.mark.slow
@pytest.mark.parametrize("alpha,scale", [(2.0, -65536.0), (3.0, -884736.0), (1.5, 40000.0)])
def test_banded_matches_dense(alpha, scale):
    cut = make_cutoffs()
    slope_hi = alpha * 2.0 ** (alpha - 1.0)
    u = np.linspace(0.0, 1.25 * slope_hi, 3000)
    seg = UniformSegment(0.0, (u[1] - u[0]) * abs(scale), u.size)
    dense = chirp_profile(cut.annulus, INTERVALS, alpha, scale, [seg], method="dense")[0]
    banded = chirp_profile(cut.annulus, INTERVALS, alpha, scale, [seg], method="banded")[0]
    peak = np.abs(dense).max()
    # the dense route carries an ~1e-8 absolute chirp-roundoff floor
    assert np.abs(dense - banded).max() < 5e-8 + 1e-5 * peak
    m_d = (np.abs(dense) ** 6).sum()
    m_b = (np.abs(banded) ** 6).sum()
    assert abs(m_d - m_b) / m_d < 1e-5


@settings(max_examples=30)
@given(
    alpha=st.floats(1.5, 3.5),
    scale=st.floats(30.0, 1e4),
    sign=st.sampled_from([-1.0, 1.0]),
    intervals=st.sampled_from([INTERVALS, INTERVALS[:1]]),
    amplitude=st.sampled_from(["annulus", "bandpass"]),
    offset=st.floats(-0.25, 0.25),
    reach=st.floats(0.2, 1.25),
    count=st.integers(2, 800),
)
def test_banded_matches_dense_at_small_scales(alpha, scale, sign, intervals, amplitude,
                                              offset, reach, count):
    """The two routes evaluate the same profile: they agree within the route accuracy."""
    amp = getattr(make_cutoffs(), amplitude)
    swept = alpha * 2.0 ** (alpha - 1.0) * scale  # largest group position
    seg = UniformSegment(offset * swept, reach * swept / count, count)
    scale *= sign
    dense = chirp_profile(amp, intervals, alpha, scale, [seg], method="dense")[0]
    banded = chirp_profile(amp, intervals, alpha, scale, [seg], method="banded")[0]
    assert np.abs(dense - banded).max() < 5e-8 + 1e-5 * np.abs(dense).max()


def test_auto_switches_to_banded():
    cut = make_cutoffs()
    alpha, scale = 3.0, -(200.0**3)
    seg = UniformSegment(0.0, abs(scale) * 15.0 / 2000, 2001)
    assert dense_node_estimate(INTERVALS, alpha, scale, [seg]) > 2**23
    out = chirp_profile(cut.annulus, INTERVALS, alpha, scale, [seg])  # must not blow memory
    assert np.isfinite(out[0]).all()


def test_banded_windows_are_bitwise_on_one_and_two_threads(monkeypatch):
    """Two threads add the same window sums in the same order, from the same plan builds."""
    from displab import chirpquad

    built, sums = [], []
    plan_class, lattice_sum = chirpquad.CZT, chirpquad._lattice_sum

    def counted(n, m, w):
        built.append((n, m, w))
        return plan_class(n, m, w)

    def summed(*args):
        sums.append(args[-1])
        return lattice_sum(*args)

    monkeypatch.setattr(chirpquad, "CZT", counted)
    monkeypatch.setattr(chirpquad, "_lattice_sum", summed)
    alpha, scale = 2.0, -65536.0
    swept = 4.0 * abs(scale)
    segments = [UniformSegment(-1.2 * swept, swept / 700, 800), UniformSegment(0.3 * swept, 7.0, 900)]
    profiles, plans = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for workers in (1, 2, 1, 2):
            monkeypatch.setattr(chirpquad, "_block_workers", lambda: workers)
            built.clear()
            sums.clear()
            profiles.append(chirp_profile(make_cutoffs().annulus, INTERVALS, alpha, scale, segments,
                                          method="banded"))
            plans.append(Counter(built))
    finally:
        sys.setswitchinterval(interval)
    # both back ends ran: windows summed by a folded FFT and windows summed by a CZT plan
    assert 0 < sum(plans[0].values()) < len(sums)
    for profile, plan in zip(profiles[1:], plans[1:]):
        assert all(np.array_equal(a, b) for a, b in zip(profile, profiles[0]))
        assert plan == plans[0]


def _profile_segment(alpha, scale, count=512):
    """Targets over the swept group positions, as `datum_lp_norm` places them."""
    reach = 1.25 * alpha * 2.0 ** (alpha - 1.0) * abs(scale)
    return UniformSegment(0.0, reach / (count - 1), count)


def _dense_nodes(alpha, scale):
    return dense_node_estimate(INTERVALS, alpha, scale, [_profile_segment(alpha, scale)])


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_auto_route_is_dense_up_to_the_cap_and_banded_above(alpha):
    """Bisect the scale to the crossover: auto is bitwise dense at it and bitwise banded past it."""
    below, above = 1.0, 1e7
    for _ in range(80):
        mid = np.sqrt(below * above)
        below, above = (mid, above) if _dense_nodes(alpha, -mid) <= DENSE_CAP else (below, mid)
    # the two intervals' lattices grow together, two nodes at a time
    assert DENSE_CAP - 2 <= _dense_nodes(alpha, -below) <= DENSE_CAP < _dense_nodes(alpha, -above)
    assert _dense_nodes(alpha, -above) <= DENSE_CAP + 2
    amp = make_cutoffs().annulus
    for scale, route in ((below, "dense"), (above, "banded")):
        seg = _profile_segment(alpha, -scale)
        auto = chirp_profile(amp, INTERVALS, alpha, -scale, [seg])[0]
        forced = chirp_profile(amp, INTERVALS, alpha, -scale, [seg], method=route)[0]
        assert np.array_equal(auto, forced)


def test_nonstationary_bound_dominates_truth():
    cut = make_cutoffs()
    for scale in (-64.0, -256.0):
        swept = 4.0 * abs(scale)  # max group position: |S| * alpha * 2^{alpha-1}, alpha=2
        y = np.array([6.0 * swept, 8.0 * swept])
        bound = nonstationary_bound(cut.annulus, INTERVALS, 2.0, scale, y)
        truth = np.abs(brute_profile(cut.annulus, INTERVALS, 2.0, scale, y, nodes=2_000_000))
        assert (bound >= truth - 1e-14).all()
        assert bound.max() < 1e-8  # and it is genuinely small out there


def complex_bound(amplitude, intervals, alpha, scale, y, iters=5, grid_points=16384):
    """Oracle for ``nonstationary_bound``: the recursion g_{n+1} = (g_n / (i s))' in complex."""
    total = np.zeros(y.size)
    for lo, hi in intervals:
        n = grid_points
        d = (hi - lo) / n
        xi = lo + (np.arange(n) + 0.5) * d
        slope = y[:, None] + scale * alpha * np.abs(xi) ** (alpha - 1.0) * np.sign(xi)
        g = np.broadcast_to(np.asarray(amplitude(xi), dtype=complex), slope.shape).copy()
        best = np.full(y.size, np.inf)
        for _ in range(iters):
            g = np.gradient(g / (1j * slope), d, axis=1)
            best = np.minimum(best, np.abs(g).sum(axis=1) * d / (2.0 * np.pi))
        total += best
    return total


@pytest.mark.parametrize("alpha,scale,swept", [
    (2.0, -64.0, 256.0),
    (2.0, -256.0, 1024.0),
    # the localization workload's largest kernel: alpha = 3, k = 8, t = 1, y past its ball
    (3.0, 2.0**24, 4.0 * 12.0 * 2.0**24),
])
def test_nonstationary_bound_holds_the_complex_recursion(alpha, scale, swept):
    """The closed form bounds the recursion's |g_n| termwise: at or above it, up to the
    finite-difference gap, and within 3x of it."""
    cut = make_cutoffs()
    y = np.linspace(1.5 * swept, 8.0 * swept, 7)
    bound = nonstationary_bound(cut.annulus, INTERVALS, alpha, scale, y)
    assert bound.dtype == np.float64
    oracle = complex_bound(cut.annulus, INTERVALS, alpha, scale, y)
    assert ((1.0 - 1e-3) * oracle <= bound).all() and (bound <= 3.0 * oracle).all()
    # a complex amplitude keeps its modulus through the recursion
    rotated = nonstationary_bound(lambda xi: np.exp(0.7j) * cut.annulus(xi), INTERVALS, alpha,
                                  scale, y)
    np.testing.assert_allclose(rotated, bound, rtol=1e-2, atol=0.0)


def test_nonstationary_bound_rejects_swept_targets():
    cut = make_cutoffs()
    with pytest.raises(ValueError):
        nonstationary_bound(cut.annulus, INTERVALS, 2.0, -100.0, np.array([200.0]))


def unblocked_bound(amplitude, intervals, alpha, scale, y):
    """Oracle for ``nonstationary_bound``: the real recursion over all targets in one batch."""
    total = np.zeros(y.size)
    for lo, hi in intervals:
        xi, d = _interval_lattice(lo, hi, (hi - lo) / _BOUND_NODES)
        phase_slope = y[:, None] + scale * alpha * np.abs(xi) ** (alpha - 1.0) * np.sign(xi)
        h = np.asarray(amplitude(xi))
        best = np.full(y.size, np.inf)
        for _ in range(_BOUND_STEPS):
            h = np.gradient(h / phase_slope, d, axis=1)
            best = np.minimum(best, np.abs(h).sum(axis=1) * d / (2.0 * np.pi))
        total += best
    return total


@pytest.mark.parametrize("targets", [1, 3, 96, 97])
@pytest.mark.parametrize("alpha,scale", [(2.0, -256.0), (3.0, 2.0**24)])
def test_nonstationary_bound_holds_the_batch_recursion_and_decreases(targets, alpha, scale):
    cut = make_cutoffs()
    ball = 4.0 * alpha * 2.0 ** (alpha - 1.0) * abs(scale)  # four times the swept reach
    y = np.linspace(ball, 3.0 * ball, targets)
    bound = nonstationary_bound(cut.bandpass, INTERVALS, alpha, scale, y)
    assert ((1.0 - 1e-3) * unblocked_bound(cut.bandpass, INTERVALS, alpha, scale, y) <= bound).all()
    assert (np.diff(bound) <= 0.0).all()


def test_nonstationary_bound_checks_the_last_target():
    cut = make_cutoffs()
    y = np.linspace(2000.0, 6000.0, 97)
    y[-1] = 200.0  # the one target inside the swept region |y| <= 400
    with pytest.raises(ValueError):
        nonstationary_bound(cut.annulus, INTERVALS, 2.0, -100.0, y)


@pytest.mark.parametrize("y, scale, named", [
    ([np.nan, 5000.0], -100.0, r"y \[ *nan"),
    ([5000.0], np.inf, "scale inf"),
    ([np.inf], -100.0, r"y \[inf\]"),
])
def test_nonstationary_bound_rejects_non_finite_input(y, scale, named):
    with pytest.raises(ValueError, match=named):
        nonstationary_bound(make_cutoffs().annulus, INTERVALS, 2.0, scale, y)


def direct_norms(amplitude, lo, hi, alpha, scale):
    """Oracle for ``_bound_terms``: (2 pi)^-1 int |P_{n,j}| per piece, P formed with
    sigma' = S alpha (alpha - 1) |xi|^(alpha - 2)."""
    xi, d = _interval_lattice(lo, hi, (hi - lo) / _BOUND_NODES)
    sigma_prime = scale * alpha * (alpha - 1.0) * np.abs(xi) ** (alpha - 2.0)
    rows = {0: amplitude(xi)}
    norms = np.zeros((_BOUND_PIECES, _BOUND_STEPS, 2 * _BOUND_STEPS + 1))
    for n in range(_BOUND_STEPS):
        previous, rows = rows, {}
        for j, p in previous.items():
            rows[j + 1] = rows.get(j + 1, 0.0) + np.gradient(p, d)
            rows[j + 2] = rows.get(j + 2, 0.0) - (j + 1) * sigma_prime * p
        for j, p in rows.items():
            for piece, part in enumerate(np.split(np.abs(p), _BOUND_PIECES)):
                norms[piece, n, j] = part.sum() * d / (2.0 * np.pi)
    return norms


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [0.0, 64.0, -64.0, 2.0**24])
def test_bound_coefficients_scale_out(alpha, scale):
    """|S|^{j-n} r_{n,j} is (2 pi)^-1 int |P_{n,j}| formed directly at S."""
    bandpass = make_cutoffs().bandpass
    y = [1e3 * (abs(scale) + 1.0)]  # far past every group position
    for (lo, hi), (coefficients, _) in zip(INTERVALS, _bound_terms(bandpass, INTERVALS, alpha,
                                                                   scale, y)):
        np.testing.assert_allclose(coefficients, direct_norms(bandpass, lo, hi, alpha, scale),
                                   rtol=1e-12, atol=0.0)


def test_bound_norms_are_keyed_by_the_cutoff():
    """Equal cutoffs share cached norms; another sharpness gets norms of its own."""
    default = _bound_norms(make_cutoffs().bandpass, 0.5, 2.0, 2.0)
    hits = _bound_norms.cache_info().hits
    assert _bound_norms(make_cutoffs(dim=1).bandpass, 0.5, 2.0, 2.0) is default
    assert _bound_norms.cache_info().hits == hits + 1
    sharper = _bound_norms(make_cutoffs(2.0).bandpass, 0.5, 2.0, 2.0)
    assert not np.array_equal(sharper, default)
    np.testing.assert_array_equal(sharper, direct_norms(make_cutoffs(2.0).bandpass, 0.5, 2.0, 2.0,
                                                        1.0))


def brute_sum(weights, start, theta, m):
    """sum_j weights_j e^{i (start + theta k) j} for k < m, over unit-spaced nodes j."""
    j = np.arange(weights.size)
    out = np.empty(m, dtype=complex)
    for k0 in range(0, m, 256):
        k = np.arange(k0, min(k0 + 256, m))
        out[k] = np.exp(1j * (start * j + theta * np.outer(k, j).astype(float))) @ weights
    return out


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5000),
    m=st.one_of(st.just(1), st.integers(1, 3000)),
    spare=st.one_of(st.just(0), st.integers(0, 10**6)),
    start=st.floats(-1e4, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_chirp_z_matches_brute_force_sum(n, m, spare, start, seed):
    """A plan at the step angle 2 pi / L of the CZT case, L > 2 (n + m - 1), with the start
    folded into the weights, is the direct sum."""
    theta = 2.0 * np.pi / (2 * _smooth_length(n + m - 1) + 1 + spare)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = CZT(n, m, np.exp(1j * theta))(weights * np.exp(1j * start * np.arange(n)))
    ref = brute_sum(weights, start, theta, m)
    # float64 roundoff of the largest phases either side forms
    phase = theta * max(n, m) ** 2 + abs(start) * n
    assert np.abs(out - ref).max() <= 1e-15 * (1.0 + phase) * np.abs(weights).sum()


@pytest.mark.parametrize("n, m, L", [
    (1006, 696, 9216000),  # the largest L the suite reaches (a band window at a small scale)
    (1050, 8192, 28125),  # the largest chirp angle it reaches (datum norm, alpha 2, lam 16)
])
def test_czt_case_chirp_angle_is_bounded(n, m, L):
    """In the CZT case L > 2 (n + m - 1), so the plan's largest chirp angle pi max(n, m)^2 / L
    stays below pi max(n, m) / 2 and the plan needs no chunking to keep its round-off."""
    assert L > 2 * _smooth_length(n + m - 1)
    theta = 2.0 * np.pi / L
    assert 0.5 * theta * max(n, m) ** 2 < 0.5 * np.pi * max(n, m)
    weights = np.random.default_rng(n).standard_normal(n) + 0j
    out = CZT(n, m, np.exp(1j * theta))(weights)
    phase = theta * max(n, m) ** 2
    assert np.abs(out - brute_sum(weights, 0.0, theta, m)).max() <= 1e-15 * (1.0 + phase) * np.abs(
        weights).sum()


_TWO_PI_LONG = np.longdouble("6.283185307179586476925286766559005768")


def long_double_lattice_sum(amplitude, alpha, scale, lo, hi, period, seg):
    """`_lattice_sum`'s lattice, nodes and transforms, with every phase formed in long double
    and reduced modulo 2 pi there before its exponential: the oracle for the weights' phase."""
    L = _smooth_length(int(np.ceil(period / seg.step)))
    d = 2.0 * np.pi / (L * seg.step)
    n = int((hi - lo) / d) + 1
    x0 = 0.5 * (lo + hi - (n - 1) * d)
    x = x0 + d * np.arange(n)
    xl = x.astype(np.longdouble)
    phase = np.longdouble(scale) * np.abs(xl) ** np.longdouble(alpha) + np.longdouble(seg.start) * xl
    w = np.asarray(amplitude(x), dtype=complex) * np.exp(
        1j * np.fmod(phase, _TWO_PI_LONG).astype(float)) * (d / (2.0 * np.pi))
    m = seg.count
    if L > 2 * _smooth_length(min(n, L) + min(m, L) - 1):
        sums = CZT(n, m, np.exp(2j * np.pi / L))(w)
    else:
        folded = np.pad(w, (0, -n % L)).reshape(-1, L).sum(axis=0)
        sums = np.resize(np.fft.ifft(folded, norm="forward"), m)
    k = np.arange(m, dtype=np.longdouble)
    twiddle = np.fmod(np.longdouble(seg.step) * np.longdouble(x0) * k, _TWO_PI_LONG)
    return sums * np.exp(1j * twiddle.astype(float))


def _lattice_case(data, case):
    """(L, nodes, targets) that put `_lattice_sum` on the folded FFT with n > L ("fold") or
    m > L ("tile"), or on the CZT plan ("czt")."""
    if case == "czt":
        L = _smooth_length(data.draw(st.integers(64, 20000)))
        return L, data.draw(st.integers(1, L // 6)), data.draw(st.integers(1, L // 6))
    L = _smooth_length(data.draw(st.integers(8, 400)))
    many, few = st.integers(L + 1, 8 * L), st.integers(1, L)
    nodes, targets = (many, few) if case == "fold" else (few, many)
    return L, data.draw(nodes), data.draw(targets)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(["fold", "tile", "czt"]),
    step=st.floats(0.5, 20.0),
    lo=st.floats(-3.0, 3.0),
    scale=st.one_of(st.floats(-1e3, 1e3), st.floats(1e8, 4e9), st.floats(-4e9, -1e8)),
    start=st.floats(-1e4, 1e4),
    data=st.data(),
)
def test_lattice_sum_matches_brute_force(case, step, lo, scale, start, data):
    """The folded FFT, read at k mod L, and the CZT plan both return the lattice's direct sum,
    also where the phase S x^2 passes 1e8 (26 of the 60 draws)."""
    from displab import chirpquad

    L, n, m = _lattice_case(data, case)
    d = 2.0 * np.pi / (L * step)
    seen, built = [], []

    def amplitude(x):
        seen.append(x)
        return np.cos(40.0 * x) + 1j * np.sin(3.0 * x)

    def counted(n, m, w):
        built.append(w)
        return CZT(n, m, w)

    seg = UniformSegment(start, step, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chirpquad, "CZT", counted)
        out = _lattice_sum(amplitude, 2.0, scale, lo, lo + (n - 0.5) * d, (L - 0.5) * step, seg)
    x = np.concatenate(seen)
    assert x.size == n and (len(built) == 1) == (case == "czt")
    w = (np.cos(40.0 * x) + 1j * np.sin(3.0 * x)) * np.exp(1j * scale * x**2) * (d / (2.0 * np.pi))
    # y_k x_j = y_k x_0 + (start d + k step d) j on the lattice x_j = x_0 + j d
    y = seg.points()
    ref = np.exp(1j * y * x[0]) * brute_sum(w, start * d, step * d, m)
    reach = np.abs(x).max() + n * d
    phase = np.abs(y).max() * reach + abs(scale) * reach**2 + 2.0 * np.pi * max(n, m) ** 2 / L
    assert np.abs(out - ref).max() <= 1e-15 * (1.0 + phase) * np.abs(w).sum()


def test_czt_plan_is_read_only_and_checks_length():
    plan = CZT(n=5, m=3, w=np.exp(0.25j))
    x = np.arange(1.0, 4.0) + 0j  # shorter inputs are zero-padded
    np.testing.assert_allclose(plan(x), brute_sum(x, 0.0, 0.25, 3), rtol=1e-14)
    with pytest.raises(ValueError):
        plan(np.ones(6, dtype=complex))
    with pytest.raises(ValueError):
        plan._kernel_fft[0] = 0.0
    with pytest.raises(ValueError):
        CZT(n=0, m=3, w=1.0)


def test_smooth_length_is_the_next_5_smooth_number():
    def smooth(k):
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        return k == 1

    smooth_numbers = [k for k in range(1, 5000) if smooth(k)]
    for n in range(1, 4000):
        assert _smooth_length(n) == next(k for k in smooth_numbers if k >= n)


def test_import_leaves_scipy_signal_out():
    src = os.path.dirname(os.path.dirname(displab.__file__))
    code = "import sys, displab; print('scipy.signal' in sys.modules or 'scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.strip() == "False"
