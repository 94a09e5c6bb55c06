import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from displab.cutoffs import make_cutoffs, smooth_step
from displab.errors import EllipticityError, SizingError
from displab.extremizers import (
    SMOOTHING,
    ExtremizerSpec,
    smoothing_grid_requirements,
    smoothing_spectrum,
    unit_annulus_field,
    unit_profile_grid,
)
from displab.grid import FREQUENCY, PHYSICAL, Field, GridSpec
from displab.norms import lp_norm
from displab.propagator import (
    _BAND_INTERVALS,
    DispersionParams,
    EllipticPhase,
    Trajectory,
    _chirped_box,
    _chirped_spectrum,
    _kernel_grid,
    _outside_mass_bound,
    _power_sums,
    ball_constant,
    band_kernel,
    evolve,
    evolve_trajectory,
    kernel_tail_mass,
    make_elliptic_phase,
    quadratic_phase,
)
from displab.spectral import apply_symbol, dft_inverse, to_frequency, to_physical
from test_chirpquad import unblocked_bound


def band_limited_field(grid, rng, radius_cells=0.2):
    mesh = grid.frequency_mesh()[0]
    coef = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    coef[np.abs(mesh) > radius_cells * grid.nyquist] = 0.0
    return to_physical(Field(grid, FREQUENCY, coef))


def test_params_validation():
    DispersionParams(1.5, 1)
    with pytest.raises(ValueError):
        DispersionParams(1.0, 1)
    for alpha in (-2.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            DispersionParams(alpha, 1)


def test_ball_constant():
    assert ball_constant(0.5) == 1.0
    assert ball_constant(2.0) == 4.0
    assert ball_constant(3.0) == 12.0
    with pytest.raises(ValueError):
        ball_constant(1.0)


def test_evolve_identity_at_zero(rng):
    g = GridSpec(1, 256, 10.0)
    f = band_limited_field(g, rng)
    out = evolve(f, 0.0, DispersionParams(1.5, 1))
    assert np.abs(out.samples - f.samples).max() < 1e-12 * np.abs(f.samples).max()


def test_evolve_plane_wave_eigenfunction():
    g = GridSpec(1, 128, 10.0)
    xi0 = 6 * g.frequency_spacing
    pw = Field.from_function(g, lambda x: np.exp(1j * xi0 * x[0]))
    for alpha in (1.5, 2.0, 3.0):
        out = evolve(pw, 0.9, DispersionParams(alpha, 1))
        expected = np.exp(1j * 0.9 * abs(xi0) ** alpha) * pw.samples
        assert np.abs(out.samples - expected).max() < 1e-11


def test_evolve_gaussian_against_quadrature_oracle():
    """Direct oscillatory quadrature of the inversion integral at probe points."""
    g = GridSpec(1, 1024, 25.0)
    f = Field.from_function(g, lambda x: np.exp(-x[0] ** 2 / 2.0))
    t = 0.7
    out = to_physical(evolve(f, t, DispersionParams(2.0, 1)))
    # fhat is the exact Gaussian transform; quadrature on a fine xi lattice
    xi = np.linspace(-14.0, 14.0, 300001)
    fhat = np.sqrt(2.0 * np.pi) * np.exp(-(xi**2) / 2.0)
    for probe in np.linspace(-4.0, 4.0, 10):
        idx = int(round((probe + g.half_width) / g.spacing))
        x = g.axis_points()[idx]
        oracle = np.trapezoid(np.exp(1j * t * xi**2) * fhat * np.exp(1j * x * xi), xi) / (2 * np.pi)
        assert abs(out.samples[idx] - oracle) / abs(oracle) < 1e-8


def test_evolve_gaussian_closed_form():
    # fractional chirp with the conjugate-time free kernel: the multiplier
    # e^{+i t xi^2} sends e^{-x^2/2} to (1-2it)^{-1/2} e^{-x^2/(2(1-2it))}
    g = GridSpec(1, 512, 20.0)
    f = Field.from_function(g, lambda x: np.exp(-x[0] ** 2 / 2.0))
    t = 0.4
    out = to_physical(evolve(f, t, DispersionParams(2.0, 1)))
    x = g.axis_points()
    sigma = 1.0 - 2.0j * t
    expected = sigma**-0.5 * np.exp(-(x**2) / (2.0 * sigma))
    assert np.abs(out.samples - expected).max() < 1e-10


def test_unitarity(rng):
    g = GridSpec(1, 512, 12.0)
    f = band_limited_field(g, rng)
    for alpha in (1.5, 2.0, 3.0):
        for t in (0.0, 0.3, 1.0):
            out = evolve(f, t, DispersionParams(alpha, 1))
            assert abs(lp_norm(out, 2.0) / lp_norm(f, 2.0) - 1.0) <= 1e-12


def test_group_law_and_translation_covariance(rng):
    g = GridSpec(1, 512, 12.0)
    f = band_limited_field(g, rng)
    params = DispersionParams(1.5, 1)
    s, t = 0.3, 0.55
    once = evolve(evolve(f, s, params), t, params)
    direct = evolve(f, s + t, params)
    scale = np.abs(f.samples).max()
    assert np.abs(once.samples - direct.samples).max() <= 1e-11 * scale

    shift = 37
    rolled = f.with_samples(np.roll(f.samples, shift))
    lhs = evolve(rolled, t, params).samples
    rhs = np.roll(evolve(f, t, params).samples, shift)
    assert np.abs(lhs - rhs).max() <= 1e-11 * scale


@settings(max_examples=40)
@given(
    dim=st.sampled_from([2, 3]),
    points=st.sampled_from([8, 16, 32]),
    half_width=st.floats(1.0, 16.0),
    alpha=st.floats(0.5, 3.5).filter(lambda a: abs(a - 1.0) > 1e-3),
    s=st.floats(-3.0, 3.0),
    t=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_unitarity_and_group_law_in_higher_dimensions(dim, points, half_width, alpha, s, t, seed):
    rng = np.random.default_rng(seed)
    g = GridSpec(dim, points, half_width)
    f = Field(g, PHYSICAL, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    params = DispersionParams(alpha, dim)
    assert abs(lp_norm(evolve(f, t, params), 2.0) / lp_norm(f, 2.0) - 1.0) <= 1e-13
    once = evolve(evolve(f, s, params), t, params)
    direct = evolve(f, s + t, params)
    # float64 rounding of the phases t |xi|^alpha, largest at the lattice corner
    corner = (g.nyquist * np.sqrt(dim)) ** alpha
    tolerance = 1e-15 * (8.0 + (abs(s) + abs(t)) * corner)
    err = np.linalg.norm(once.samples - direct.samples) / np.linalg.norm(f.samples)
    assert err <= tolerance


def test_evolve_two_dimensional(rng):
    g = GridSpec(2, 64, 6.0)
    mesh = g.frequency_mesh()
    coef = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    coef[np.sqrt((mesh**2).sum(axis=0)) > 0.2 * g.nyquist] = 0.0
    f = to_physical(Field(g, FREQUENCY, coef))
    params = DispersionParams(2.0, 2)
    out = evolve(f, 0.8, params)
    assert abs(lp_norm(out, 2.0) / lp_norm(f, 2.0) - 1.0) < 1e-12
    back = evolve(out, -0.8, params)
    assert np.abs(back.samples - f.samples).max() < 1e-11 * np.abs(f.samples).max()
    with pytest.raises(ValueError):
        evolve(f, 0.1, DispersionParams(2.0, 1))  # dim mismatch


def full_lattice_evolve(field, t, alpha):
    """e^{i t |xi|^alpha} as one multiplier over the whole lattice; shares no code with `evolve`."""

    def symbol(xi):
        return np.exp(1j * t * (np.asarray(xi) ** 2).sum(axis=0) ** (alpha / 2.0))

    return apply_symbol(field, symbol)


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_support_evolution_is_the_full_lattice_multiplier(alpha, one_sided):
    profile = unit_annulus_field(unit_profile_grid(), one_sided=one_sided)
    params = DispersionParams(alpha, 1)
    for t in (0.0, 0.37, 1.0, -3.0, 25.0, -400.0):
        got = to_physical(evolve(profile, t, params)).samples
        assert np.array_equal(got, to_physical(full_lattice_evolve(profile, t, alpha)).samples)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("dim, points, half_width", [(1, 2**12, 20.0), (2, 128, 8.0), (3, 32, 4.0)])
def test_full_support_evolution_is_the_full_lattice_multiplier(dim, points, half_width, alpha):
    g = GridSpec(dim, points, half_width)
    gaussian = Field.from_function(g, lambda x: np.exp(-(np.asarray(x) ** 2).sum(axis=0)))
    params = DispersionParams(alpha, dim)
    for t in (0.3, -1.1):
        got = evolve(gaussian, t, params)
        assert got.is_physical
        assert np.array_equal(got.samples, full_lattice_evolve(gaussian, t, alpha).samples)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_evolve_rejects_nonfinite_times(t):
    spectrum = unit_annulus_field(unit_profile_grid(2**10))
    for field in (spectrum, to_physical(spectrum)):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            evolve(field, t, DispersionParams(2.0, 1))


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_power_sums_match_per_frame_oracle(alpha, one_sided):
    from displab.propagator import _BLOCK_SAMPLES

    grid = unit_profile_grid()
    profile = unit_annulus_field(grid, one_sided=one_sided)
    params = DispersionParams(alpha, 1)
    block = _BLOCK_SAMPLES // grid.size
    s = np.linspace(-400.0, 0.0, 2 * block + 5)  # two full blocks and a partial one
    got = _power_sums(profile, s, params, 6.0)[0]
    oracle = [lp_norm(to_physical(evolve(profile, float(v), params)), 6.0) ** 6.0
              for v in s]
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)


def test_power_sum_blocks_are_bitwise_those_of_single_frames(monkeypatch):
    """Blocks on two threads, the serial loop and one frame at a time give the same bits."""
    from displab import propagator

    grid = unit_profile_grid()
    profile = unit_annulus_field(grid)
    params = DispersionParams(2.0, 1)
    block = propagator._BLOCK_SAMPLES // grid.size
    s = np.linspace(-400.0, 0.0, 2 * block + 5)  # two full blocks and a partial one
    single = np.array([_power_sums(profile, [v], params, 6.0)[0][0] for v in s])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        monkeypatch.setattr("displab.grid._block_workers", lambda: 2)
        threaded = _power_sums(profile, s, params, 6.0)[0]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr("displab.grid._block_workers", lambda: 1)
    serial = _power_sums(profile, s, params, 6.0)[0]
    assert np.array_equal(threaded, single)
    assert np.array_equal(serial, single)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alpha", [1.5, 3.0])
@pytest.mark.parametrize(
    "dim, points, half_width", [(1, 2**12, 20.0), (1, 2**17, 400.0), (2, 128, 8.0), (3, 32, 4.0)]
)
def test_trajectory_frames_are_bitwise_evolve(monkeypatch, dim, points, half_width, alpha, workers):
    """The trajectory and `evolve` form one product: every frame has the bits of a single evolve."""
    from displab import propagator

    g = GridSpec(dim, points, half_width)
    gaussian = Field.from_function(g, lambda x: np.exp(-(np.asarray(x) ** 2).sum(axis=0)))
    params = DispersionParams(alpha, dim)
    block = propagator._BLOCK_SAMPLES // g.size
    t = np.linspace(-1.1, 0.9, 2 * block + 3)  # two full blocks and a partial one
    monkeypatch.setattr("displab.grid._block_workers", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        traj = evolve_trajectory(gaussian, t, params)
    finally:
        sys.setswitchinterval(interval)
    for frame, v in zip(traj.frames, t):
        single = to_physical(evolve(gaussian, float(v), params))
        assert np.array_equal(frame.samples, single.samples)


@pytest.mark.parametrize("workers", [1, 2])
def test_trajectory_peak_is_its_frames_and_one_block(monkeypatch, workers):
    """The frames are evolved in place in the trajectory's own array: over 200 unit-annulus
    frames, the traced peak stays below that array plus one block buffer (16 bytes per
    `_BLOCK_SAMPLES` sample), on one thread and two."""
    from displab import propagator

    grid = unit_profile_grid()
    profile = unit_annulus_field(grid)
    params = DispersionParams(2.0, 1)
    s = np.linspace(-400.0, 0.0, 200)
    monkeypatch.setattr("displab.grid._block_workers", lambda: workers)
    evolve_trajectory(profile, s[:20], params)  # three blocks: builds the pool outside the trace
    tracemalloc.start()
    try:
        traj = evolve_trajectory(profile, s, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frames = 16 * s.size * grid.size
    assert len(traj) == s.size
    assert peak < frames + 16 * propagator._BLOCK_SAMPLES, f"{(peak - frames) / 2**20:.1f} MiB over"


@pytest.mark.parametrize("workers", [1, 2])
def test_slice_power_sums_stay_within_the_block_budget(monkeypatch, workers):
    """The slice sums of `_power_sums` over five blocks: the traced peak stays below,
    per thread, a block of frames, one real temporary of its size and one block of support
    products, plus the support arrays (at most 96 bytes per support point)."""
    from displab import propagator

    grid = unit_profile_grid()
    profile = unit_annulus_field(grid)
    params = DispersionParams(2.0, 1)
    block = propagator._BLOCK_SAMPLES // grid.size
    s = np.linspace(-400.0, 0.0, 4 * block + 3)  # four full blocks and a partial one
    support = np.count_nonzero(to_frequency(profile).samples)
    monkeypatch.setattr("displab.grid._block_workers", lambda: workers)
    expected = _power_sums(profile, s, params, 6.0)[0]  # builds the pool outside the trace
    tracemalloc.start()
    try:
        norms = _power_sums(profile, s, params, 6.0)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(norms, expected)
    per_thread = (16 + 8) * block * grid.size + 16 * block * support
    assert peak < workers * per_thread + 96 * support, f"peak {peak / per_thread:.2f} blocks"


def direct_spectrum(lam):
    """The chirped annulus datum on the grid of `harness.direct_smoothing_record` at alpha 2."""
    need_nyq, need_hw = smoothing_grid_requirements(lam, 2.0)
    half_width = 1.1 * need_hw
    points = int(2 ** np.ceil(np.log2(2.0 * half_width * need_nyq * 1.05 / np.pi)))
    grid = GridSpec(1, points, half_width)
    return smoothing_spectrum(ExtremizerSpec(SMOOTHING, lam, DispersionParams(2.0, 1), grid))


def slice_cases():
    """(name, field, phase, times): even and one-sided spectra and a physical input."""
    profile_grid = unit_profile_grid()
    gaussian = GridSpec(1, 2**12, 20.0)  # its spectrum spans the lattice: entries share residues
    cases = [(f"annulus alpha {alpha:g}{' one-sided' * one_sided}",
              unit_annulus_field(profile_grid, one_sided), DispersionParams(alpha, 1),
              np.linspace(-400.0, 0.0, 11))
             for alpha in (2.0, 3.0) for one_sided in (False, True)]
    cases += [(f"smoothing lam {lam:g}", direct_spectrum(lam), DispersionParams(2.0, 1),
               1.0 + np.linspace(-1.0, 0.0, 7) * 64.0 / lam**2) for lam in (16.0, 32.0)]
    cases.append(("physical gaussian", Field.from_function(gaussian, lambda x: np.exp(-x[0] ** 2)),
                  DispersionParams(1.5, 1), np.linspace(-1.1, 0.9, 5)))
    return cases


@pytest.mark.parametrize("case", slice_cases(), ids=lambda case: case[0])
def test_slice_power_sums_match_the_per_frame_oracle(case):
    _, field, params, t = case
    got = _power_sums(field, t, params, 6.0)[0]
    oracle = [lp_norm(to_physical(evolve(field, float(v), params)), 6.0) ** 6.0 for v in t]
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim, points, half_width", [(2, 64, 6.0), (3, 16, 3.0)])
def test_power_sums_reject_a_grid_of_dim_other_than_1(dim, points, half_width):
    """The slices are one-dimensional: d > 1 norms go through `evolve_trajectory` and `lp_norm`."""
    g = GridSpec(dim, points, half_width)
    gaussian = Field.from_function(g, lambda x: np.exp(-(np.asarray(x) ** 2).sum(axis=0)))
    for field in (gaussian, to_frequency(gaussian)):
        with pytest.raises(ValueError, match="1-d grids, got dim = "):
            _power_sums(field, np.linspace(-0.7, 0.9, 5), DispersionParams(2.0, dim), 6.0)


@pytest.mark.parametrize("one_sided, transforms", [(False, 8 // 2 + 1), (True, 8)])
def test_even_spectra_run_only_their_distinct_slices(monkeypatch, one_sided, transforms):
    """P = 8 slices of L = N / 8 points: an even spectrum runs r = 0 .. P/2, a one-sided one all P."""
    grid = unit_profile_grid()
    profile = unit_annulus_field(grid, one_sided)
    s = np.linspace(-50.0, 0.0, 13)
    shapes = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, **kw: shapes.append(a.shape) or ifft(a, **kw))
    _power_sums(profile, s, DispersionParams(2.0, 1), 6.0)
    assert {shape[1:] for shape in shapes} == {(grid.points // 8,)}
    assert sum(shape[0] for shape in shapes) == transforms * s.size


def test_slice_buffers_are_never_shared_under_stress(monkeypatch):
    """On eight pool threads, switching every microsecond, no block starts on a buffer set that
    another block still holds, at most one set per thread is built, and every sum keeps the
    bits of the serial loop, though the blocks hold 2 times here against 128 there."""
    from concurrent.futures import ThreadPoolExecutor

    from displab import propagator

    grid = unit_profile_grid(2**12)
    profile = unit_annulus_field(grid)
    params = DispersionParams(2.0, 1)
    s = np.linspace(-20.0, 0.0, 300)
    monkeypatch.setattr("displab.grid._block_workers", lambda: 1)
    expected = _power_sums(profile, s, params, 6.0)
    owner, built, lock, local = {}, set(), threading.Lock(), threading.local()
    evolved_support, fold = propagator._evolved_support, propagator._fold

    def taking(spectrum, values, t, out=None):
        local.buffer = out.__array_interface__["data"][0]  # the block's buffer set
        with lock:
            owner[local.buffer] = threading.get_ident()
            built.add(local.buffer)
        return evolved_support(spectrum, values, t, out=out)

    def holding(values, first, out):
        fold(values, first, out)
        time.sleep(0.0005)  # the other threads take buffers meanwhile
        with lock:
            assert owner[local.buffer] == threading.get_ident()

    monkeypatch.setattr(propagator, "_evolved_support", taking)
    monkeypatch.setattr(propagator, "_fold", holding)
    monkeypatch.setattr(propagator, "_BLOCK_SAMPLES", 2**12)  # slices of N / 8 = 512 points still
    pool = ThreadPoolExecutor(max_workers=8)
    monkeypatch.setattr("displab.grid._block_pool", lambda pid: pool)
    monkeypatch.setattr("displab.grid._block_workers", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _power_sums(profile, s, params, 6.0)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=True)
    assert 2 <= len(built) <= 8
    assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])


@given(log2_size=st.integers(0, 6), length=st.integers(0, 300), first=st.integers(-1000, 1000),
       rows=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_fold_sums_onto_shared_residues(log2_size, length, first, rows, seed):
    """`_fold` is np.add.at onto (first + i) mod size, bit for bit, also when a run wraps
    the residues more than once and from a negative first index."""
    from displab import propagator

    rng = np.random.default_rng(seed)
    size = 2**log2_size
    values = rng.standard_normal((rows, length)) + 1j * rng.standard_normal((rows, length))
    out = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
    expected = out.copy()
    for row in range(rows):
        np.add.at(expected[row], (first + np.arange(length)) % size, values[row])
    propagator._fold(values, first, out)
    assert np.array_equal(out, expected)


@given(log2_points=st.integers(3, 22), data=st.data(), rows=st.integers(1, 3))
def test_twiddles_are_the_direct_exponentials(log2_points, data, rows):
    """`_twiddles` is e^{2 pi i ((m r) mod n) / n} at m = first + i within 1e-14, for any
    first in [-n, n] and r < n."""
    from displab import propagator

    n = 2**log2_points
    r = data.draw(st.integers(0, n - 1))
    first = data.draw(st.integers(-n, n))
    table = propagator._twiddles(first, rows, r, n)
    assert table.shape == (rows, propagator._TWIDDLE_ROW)
    m = first + np.arange(table.size)
    direct = np.exp(2j * np.pi / n * ((m * r) % n))
    assert np.abs(table.reshape(-1) - direct).max() <= 1e-14


@settings(max_examples=20, deadline=None)
@given(log2_points=st.integers(6, 12), log2_slice=st.integers(1, 5),
       half_width=st.floats(4.0, 40.0), t=st.floats(-2.0, 2.0),
       alpha=st.sampled_from([0.5, 1.5, 2.0, 3.0]))
def test_power_sums_on_short_slices_match_the_per_frame_oracle(
        log2_points, log2_slice, half_width, t, alpha):
    """Slices far shorter than the spectrum's span (P * S > n) fold entries onto shared
    residues; the sums still match the per-frame oracle within 1e-12 relative."""
    from unittest import mock  # monkeypatch is per test, not per hypothesis example

    from displab import propagator

    grid = GridSpec(1, 2**log2_points, half_width)
    field = to_frequency(Field.from_function(grid, lambda x: np.exp(-((x[0] - 0.3) ** 2))))
    params = DispersionParams(alpha, 1)
    times = [t, 0.5 * t]
    with mock.patch.object(propagator, "_BLOCK_SAMPLES", 2**log2_slice):
        got = _power_sums(field, times, params, 6.0)[0]
    oracle = [lp_norm(to_physical(evolve(field, v, params)), 6.0) ** 6.0 for v in times]
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_trajectory_rejects_what_evolve_rejects(t):
    spectrum = unit_annulus_field(unit_profile_grid(2**10))
    for field in (spectrum, to_physical(spectrum)):
        with pytest.raises(ValueError, match="finite"):
            evolve_trajectory(field, [0.0, t], DispersionParams(2.0, 1))
        with pytest.raises(ValueError, match="dim"):
            evolve_trajectory(field, [0.0, 1.0], DispersionParams(2.0, 2))


def test_trajectory_reraises_an_error_of_a_block(monkeypatch):
    from displab import propagator

    grid = unit_profile_grid(2**12)
    block = propagator._BLOCK_SAMPLES // grid.size
    t = np.linspace(-1.0, 0.0, 3 * block)
    evolved_support = propagator._evolved_support

    def failing(spectrum, values, ts, out=None):
        if ts[0] == t[block]:
            raise RuntimeError("block failed")
        return evolved_support(spectrum, values, ts, out=out)

    monkeypatch.setattr(propagator, "_evolved_support", failing)
    monkeypatch.setattr("displab.grid._block_workers", lambda: 2)
    with pytest.raises(RuntimeError, match="block failed"):
        evolve_trajectory(unit_annulus_field(grid), t, DispersionParams(2.0, 1))


def _forked_norms(profile, s, params, expected):
    sys.exit(0 if np.array_equal(_power_sums(profile, s, params, 6.0)[0], expected) else 1)


def test_block_pool_runs_in_a_forked_child(monkeypatch):
    """A child forked after the pool was built gets threads of its own, not a dead pool."""
    import multiprocessing

    from displab import propagator

    monkeypatch.setattr("displab.grid._block_workers", lambda: 2)
    grid = unit_profile_grid(2**12)
    profile = unit_annulus_field(grid)
    params = DispersionParams(2.0, 1)
    s = np.linspace(-50.0, 0.0, 3 * (propagator._BLOCK_SAMPLES // grid.size))
    expected = _power_sums(profile, s, params, 6.0)[0]  # builds this process's pool
    child = multiprocessing.get_context("fork").Process(
        target=_forked_norms, args=(profile, s, params, expected))
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive
    assert child.exitcode == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="CPU affinity is Linux-only")
def test_import_and_one_cpu_start_no_thread():
    """Importing builds no pool, and on one CPU the power-sum blocks run in the calling
    thread."""
    code = """
import os, sys, threading
import numpy as np
import displab
assert threading.active_count() == 1 and "concurrent.futures" not in sys.modules
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from displab import propagator
from displab.extremizers import unit_annulus_field, unit_profile_grid
grid = unit_profile_grid(2**12)
s = np.linspace(-50.0, 0.0, 3 * (propagator._BLOCK_SAMPLES // grid.size))
propagator._power_sums(unit_annulus_field(grid), s, propagator.DispersionParams(2.0, 1), 6.0)
import displab.grid
assert displab.grid._block_workers() == 1
assert threading.active_count() == 1 and displab.grid._block_pool.cache_info().currsize == 0
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_power_sums_physical_input_and_validation(rng):
    g = GridSpec(1, 512, 12.0)
    f = band_limited_field(g, rng)
    params = DispersionParams(1.5, 1)
    ts = [0.0, 0.3, 1.0]
    got = _power_sums(f, ts, params, 3.0)[0]
    oracle = [lp_norm(to_physical(evolve(f, t, params)), 3.0) ** 3.0 for t in ts]
    np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match="finite"):
        _power_sums(f, [0.1, np.nan], params, 2.0)
    with pytest.raises(ValueError, match="p must"):
        _power_sums(f, ts, params, np.inf)
    with pytest.raises(ValueError, match="dim"):
        _power_sums(f, ts, DispersionParams(2.0, 2), 2.0)
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
        # |xi|^1000 overflows on this lattice
        _power_sums(Field.zeros(GridSpec(1, 64, 0.01)), ts, DispersionParams(1000.0, 1), 2.0)
    assert np.array_equal(_power_sums(f, 0.3, params, 3.0)[0], got[1:2])  # a bare time


def test_trajectory_transforms_its_datum_once(monkeypatch):
    from displab import spectral

    g = GridSpec(1, 256, 10.0)
    gaussian = Field.from_function(g, lambda x: np.exp(-np.asarray(x)[0] ** 2))
    params = DispersionParams(2.0, 1)
    ts = np.linspace(0.0, 1.0, 9)
    oracle = [to_physical(evolve(gaussian, float(t), params)).samples for t in ts]
    calls = []
    forward = spectral.dft_forward
    monkeypatch.setattr(spectral, "dft_forward", lambda f: calls.append(f) or forward(f))
    traj = evolve_trajectory(gaussian, ts, params)
    assert len(calls) == 1
    assert all(np.array_equal(fr.samples, want) for fr, want in zip(traj.frames, oracle))


def test_trajectory_basics(rng):
    g = GridSpec(1, 128, 6.0)
    f = band_limited_field(g, rng)
    params = DispersionParams(2.0, 1)
    traj = evolve_trajectory(f, [0.0], params)
    assert len(traj) == 1
    assert np.abs(traj.frames[0].samples - f.samples).max() < 1e-12 * np.abs(f.samples).max()
    with pytest.raises(ValueError):
        evolve_trajectory(f, [], params)
    traj = evolve_trajectory(f, np.linspace(0, 1, 9), params)
    base = lp_norm(f, 2.0)
    for frame in traj.frames:
        assert abs(lp_norm(frame, 2.0) - base) / base < 1e-12
    with pytest.raises(ValueError):
        Trajectory(g, (0.0, 0.0), (traj.frames[0], traj.frames[1]))


# -- elliptic phases ---------------------------------------------------------------


def elliptic_evolve(field, t, ep):
    """The elliptic-phase operator amplitude * e^{i t phase} at one time: the amplitude
    through `apply_symbol`, then `evolve`'s product on its support."""
    out = evolve(apply_symbol(to_frequency(field), ep.amplitude), t, ep.phase)
    return out if field.is_frequency else dft_inverse(out)


def test_elliptic_t0_reduces_to_amplitude(rng):
    g = GridSpec(1, 256, 10.0)
    f = band_limited_field(g, rng)
    ep = quadratic_phase()
    out = elliptic_evolve(f, 0.0, ep)
    masked = apply_symbol(f, ep.amplitude)
    assert np.abs(out.samples - masked.samples).max() < 1e-12 * np.abs(masked.samples).max()


def test_elliptic_power_phase_matches_evolve(rng):
    alpha = 1.5
    g = GridSpec(1, 512, 40.0)
    cut = make_cutoffs()
    mesh = g.frequency_mesh()[0]
    coef = cut.annulus(np.abs(mesh)) * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
    f = to_physical(Field(g, FREQUENCY, coef))
    ep = make_elliptic_phase(
        lambda xi: (np.asarray(xi) ** 2).sum(axis=0) ** (alpha / 2.0),
        lambda xi: cut.annulus(np.sqrt((np.asarray(xi) ** 2).sum(axis=0))),
        [(-2.0, 2.0)],
    )
    t = 0.8
    lhs = elliptic_evolve(f, t, ep)
    # the annulus amplitude is already 1 on the data support
    rhs = apply_symbol(evolve(f, t, DispersionParams(alpha, 1)), ep.amplitude)
    assert np.abs(lhs.samples - rhs.samples).max() < 1e-11 * np.abs(rhs.samples).max()


def test_elliptic_rejects_degenerate_phase():
    """A phase failing the Hessian probe builds no `EllipticPhase`, so no evolution can take one."""
    amp = lambda xi: np.exp(-np.asarray(xi)[0] ** 2)  # noqa: E731
    with pytest.raises(EllipticityError, match=r"min eigenvalue 0\)"):
        make_elliptic_phase(lambda xi: 0.0 * np.asarray(xi)[0], amp, [(-1, 1)])
    with pytest.raises(EllipticityError, match=r"min eigenvalue 0\)"):
        EllipticPhase(quadratic_phase().phase, amp, 0.0)
    with pytest.raises(EllipticityError, match=r"min eigenvalue nan\)"):
        EllipticPhase(quadratic_phase().phase, amp, np.nan)
    with pytest.raises(EllipticityError, match=r"min eigenvalue -1\)"):
        EllipticPhase(quadratic_phase().phase, amp, -1.0)


def test_a_phase_not_finite_at_a_probe_point_fails_the_probe():
    """A nan or infinite Hessian entry makes the probe nan, whatever LAPACK would make of it."""
    amp = lambda xi: np.exp(-np.asarray(xi)[0] ** 2)  # noqa: E731
    for hole in (np.nan, np.inf):
        def phase(xi, hole=hole):
            return np.where(np.asarray(xi)[0] > 0.5, hole, 0.5 * np.asarray(xi)[0] ** 2)

        with pytest.raises(EllipticityError, match=r"min eigenvalue nan\)"):
            make_elliptic_phase(phase, amp, [(-1, 1)])


def _probe_oracle(phase, amplitude, support_box, dim):
    """The probe as a per-point loop: one phase call per point and stencil entry, one eigenvalue
    solve per point, and the same probe points as `make_elliptic_phase`."""
    rng = np.random.default_rng(0)
    box = np.atleast_2d(np.asarray(support_box, dtype=float))
    pts = rng.uniform(box[:, 0], box[:, 1], size=(400, dim)).T
    amp = np.abs(np.asarray(amplitude(pts)))
    pts = pts[:, amp > 1e-6 * max(amp.max(), 1e-300)][:, :100]
    step = 1e-3

    def ph(point):
        return float(np.asarray(phase(point.reshape(-1, 1))).reshape(()))

    def hessian_at(p):
        h = np.zeros((dim, dim))
        for a in range(dim):
            for b in range(a, dim):
                ea = np.zeros(dim); ea[a] = step
                eb = np.zeros(dim); eb[b] = step
                if a == b:
                    val = (ph(p + ea) - 2 * ph(p) + ph(p - ea)) / step**2
                else:
                    val = (
                        ph(p + ea + eb) - ph(p + ea - eb) - ph(p - ea + eb) + ph(p - ea - eb)
                    ) / (4 * step**2)
                h[a, b] = h[b, a] = val
        return h

    return min(float(np.linalg.eigvalsh(hessian_at(pts[:, i])).min()) for i in range(pts.shape[1]))


def _coupled_phase(xi):
    """A non-separable convex phase: cosh xi_1 + xi_1 xi_2 + xi_2^2 + e^(xi_1 - xi_2) / 10."""
    x, y = np.asarray(xi)
    return np.cosh(x) + x * y + y**2 + 0.1 * np.exp(x - y)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hessian_probe_is_the_per_point_loop(dim):
    """The stacked stencil and eigenvalue solve keep each element's arithmetic, bit for bit."""
    ep = quadratic_phase(dim)
    box = [(-1.8, 1.8)] * dim
    assert ep.hessian_probe.hex() == _probe_oracle(ep.phase, ep.amplitude, box, dim).hex()
    if dim == 2:
        coupled = make_elliptic_phase(_coupled_phase, ep.amplitude, box, dim=2)
        oracle = _probe_oracle(_coupled_phase, ep.amplitude, box, 2)
        assert coupled.hessian_probe.hex() == oracle.hex()
        assert 0.3 < oracle < 0.5  # the coupling shows: the separable part alone reads >= 1


def test_hessian_probe_calls_the_phase_once_per_stencil_point():
    """1 + 2d + 2d(d-1) phase calls, each over every probe point at once."""
    shapes = []

    def phase(xi):
        shapes.append(np.shape(xi))
        return 0.5 * (np.asarray(xi) ** 2).sum(axis=0)

    quadratic = quadratic_phase(3)
    make_elliptic_phase(phase, quadratic.amplitude, [(-1.8, 1.8)] * 3, dim=3)
    assert shapes == [(3, 100)] * (1 + 6 + 12)


def _elliptic_datum(grid, rng):
    """Random physical data whose spectrum fills the quadratic phase's amplitude support."""
    r = np.sqrt(sum(np.meshgrid(*[grid.axis_frequencies() ** 2] * grid.dim, indexing="ij")))
    coef = np.where(r < 2.5, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape), 0.0)
    return to_physical(Field(grid, FREQUENCY, coef))


@pytest.mark.parametrize("dim, points, half_width", [(1, 512, 40.0), (2, 128, 20.0)])
def test_elliptic_evolve_is_the_per_frame_symbol(rng, dim, points, half_width):
    """`evolve`'s product on the support against the former full-mesh symbol route, the oracle."""
    g = GridSpec(dim, points, half_width)
    f = _elliptic_datum(g, rng)
    ep = quadratic_phase(dim)
    for t in (0.0, 0.7, -2.3, 15.0):
        def symbol(xi):
            return np.asarray(ep.amplitude(xi)) * np.exp(1j * t * np.asarray(ep.phase(xi)))

        for field in (f, to_frequency(f)):
            got, oracle = elliptic_evolve(field, t, ep), apply_symbol(field, symbol)
            assert got.representation == field.representation
            assert np.abs(got.samples - oracle.samples).max() <= 1e-12 * np.abs(oracle.samples).max()


@pytest.mark.parametrize("dim, points, half_width", [(1, 512, 40.0), (2, 64, 20.0)])
def test_elliptic_phase_is_formed_on_the_support(monkeypatch, rng, dim, points, half_width):
    """The phase sees the support's stacked frequencies plus the lattice corner, never the mesh;
    the one mesh per call is `apply_symbol`'s, for the time-independent amplitude."""
    g = GridSpec(dim, points, half_width)
    f = _elliptic_datum(g, rng)
    quadratic = quadratic_phase(dim)
    support = np.count_nonzero(apply_symbol(to_frequency(f), quadratic.amplitude).samples)
    shapes, meshes = [], []

    def phase(xi):
        shapes.append(np.shape(xi))
        return quadratic.phase(xi)

    ep = EllipticPhase(phase, quadratic.amplitude, quadratic.hessian_probe)
    real = GridSpec.frequency_mesh
    monkeypatch.setattr(GridSpec, "frequency_mesh", lambda grid: meshes.append(grid) or real(grid))
    for t in (0.5, 1.0, 2.0):
        elliptic_evolve(f, t, ep)
    assert shapes == [(dim, support + 1)] * 3
    assert meshes == [g] * 3


def test_a_phase_non_finite_on_the_support_raises(rng):
    g = GridSpec(1, 256, 10.0)
    f = to_frequency(band_limited_field(g, rng))
    nyquist = g.nyquist
    f = f.with_samples(np.where(np.abs(g.axis_frequencies()) < 0.2 * nyquist, f.samples, 0.0))

    def phase_finite_below(edge):
        return lambda xi: np.where(np.abs(xi[0]) < edge, 0.5 * xi[0] ** 2, np.inf)

    broken = phase_finite_below(4.0)
    for run in (
        lambda: evolve(f, 0.5, broken),
        lambda: evolve_trajectory(f, [0.0, 0.5], broken),
        lambda: _power_sums(f, [0.0, 0.5], broken, 6.0),
        lambda: elliptic_evolve(f, 0.5, EllipticPhase(broken, lambda xi: np.ones(xi.shape[1:]), 1.0)),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            run()
    # the phase is read on the support and at the corner, not across the lattice
    def holed(xi):
        r = np.abs(xi[0])
        return np.where((r > 0.5 * nyquist) & (r < 0.9 * nyquist), np.nan, 0.5 * xi[0] ** 2)

    evolve(f, 0.5, holed)
    with pytest.raises(ValueError, match="non-finite"):  # the corner, even with no support
        evolve(Field.zeros(g), 0.5, phase_finite_below(0.99 * nyquist))


def values_at(field: Field, points: np.ndarray) -> np.ndarray:
    """The field's trigonometric interpolant at off-grid ``points`` (shape (dim, n)), by direct lattice sum."""
    grid = field.grid
    mesh = grid.frequency_mesh().reshape(grid.dim, -1)
    scale = grid.frequency_cell_volume / (2.0 * np.pi) ** grid.dim
    return scale * (np.exp(1j * (points.T @ mesh)) @ to_frequency(field).samples.reshape(-1))


def test_parabolic_rescaling_identity():
    """Both sides on independent grids agree at probe points."""
    xi0 = 0.5
    amp = lambda xi: np.ones_like(np.asarray(xi)[0])  # noqa: E731
    ep = make_elliptic_phase(lambda xi: 0.5 * (np.asarray(xi) ** 2).sum(axis=0), amp, [(-2, 2)])
    probes = np.array([[-1.3, 0.2, 0.9, 2.4]])
    for delta in (0.5, 0.25):
        g = GridSpec(1, 4096, 480.0)
        gs = GridSpec(1, 4096, 480.0 / delta)

        def fhat(xi):
            return np.exp(-(((xi - xi0) / (0.15 * delta)) ** 2)) * np.exp(1j * 3 * xi)

        f = Field(g, FREQUENCY, fhat(g.frequency_mesh()[0]))
        f_star = Field(gs, FREQUENCY, delta * fhat(xi0 + delta * gs.frequency_mesh()[0]))
        for t in (0.7, 1.9):
            lhs = values_at(elliptic_evolve(f, t, ep), probes)
            rhs = np.exp(1j * (probes[0] * xi0 + t * 0.5 * xi0**2)) * values_at(
                elliptic_evolve(f_star, delta**2 * t, ep), delta * (probes + t * xi0)
            )
            assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-6


# -- one-sided cubic flow --------------------------------------------------------------


def airy_evolve(field: Field, t: float) -> Field:
    """Solve u_t + u_xxx = 0 via half-line spectral projections (d = 1 only).

    The oracle of the airy sweep's flow: its own signed symbol xi^3, where
    the sweep runs |xi|^3 on one-sided data.  The projections use a smooth
    transition of width one frequency cell around 0, which is exact for
    mean-zero or annulus-supported data.
    """
    if field.grid.dim != 1:
        raise ValueError("the cubic one-dimensional flow requires dim = 1")
    h = field.grid.frequency_spacing

    def symbol(xi):
        x = np.asarray(xi)[0]
        plus = smooth_step(x / h + 0.5)
        return plus * np.exp(1j * t * np.abs(x) ** 3) + (1.0 - plus) * np.exp(
            -1j * t * np.abs(x) ** 3
        )

    return apply_symbol(field, symbol)


def test_airy_identity_at_zero_mean_zero(rng):
    g = GridSpec(1, 256, 10.0)
    coef = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    coef[0] = 0.0
    f = to_physical(Field(g, FREQUENCY, coef))
    out = airy_evolve(f, 0.0)
    assert np.abs(out.samples - f.samples).max() <= 1e-10 * np.abs(f.samples).max()


def test_airy_plane_wave():
    g = GridSpec(1, 256, 10.0)
    xi0 = 9 * g.frequency_spacing
    pw = Field.from_function(g, lambda x: np.exp(1j * xi0 * x[0]))
    out = airy_evolve(pw, 0.6)
    assert np.abs(out.samples - np.exp(1j * 0.6 * xi0**3) * pw.samples).max() < 1e-11


def test_airy_l2_conserved(rng):
    g = GridSpec(1, 512, 15.0)
    coef = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    coef[0] = 0.0
    f = to_physical(Field(g, FREQUENCY, coef))
    base = lp_norm(f, 2.0)
    for t in np.linspace(0.0, 1.0, 5):
        assert abs(lp_norm(airy_evolve(f, float(t)), 2.0) - base) / base < 1e-11


def test_airy_requires_dim_one():
    g = GridSpec(2, 16, 4.0)
    with pytest.raises(ValueError):
        airy_evolve(Field.zeros(g), 0.5)


def test_airy_negative_frequency_branch():
    g = GridSpec(1, 256, 10.0)
    xi0 = -9 * g.frequency_spacing
    pw = Field.from_function(g, lambda x: np.exp(1j * xi0 * x[0]))
    out = airy_evolve(pw, 0.6)
    # u_t + u_xxx = 0 evolves every mode by e^{i t xi^3}
    assert np.abs(out.samples - np.exp(1j * 0.6 * xi0**3) * pw.samples).max() < 1e-11


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0, 25.0, -3.0])
def test_one_sided_cubic_evolve_is_the_airy_flow(t):
    """The airy sweep's route, |xi|^3 on one-sided data, is the signed cubic flow."""
    profile = unit_annulus_field(unit_profile_grid(), one_sided=True)
    got = to_physical(evolve(profile, t, DispersionParams(3.0, 1))).samples
    oracle = to_physical(airy_evolve(profile, t)).samples
    assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()


# -- band kernels -----------------------------------------------------------------------


def test_band_kernel_t0_real_even():
    kappa = band_kernel(3, 0.0, DispersionParams(2.0, 1))
    assert np.abs(kappa.samples.imag).max() < 1e-12 * np.abs(kappa.samples.real).max()
    vals = kappa.samples.real
    assert abs(vals[1:][::-1] - vals[1:]).max() < 1e-12 * np.abs(vals).max()


def test_band_kernel_l1_mass_stable_under_refinement():
    params = DispersionParams(2.0, 1)
    masses = []
    for n in (2**12, 2**13):
        grid = GridSpec(1, n, 400.0)
        kappa = band_kernel(4, 0.7, params, grid=grid)
        masses.append(np.abs(kappa.samples).sum() * grid.spacing)
    assert abs(masses[1] - masses[0]) / masses[0] < 0.05


@given(alpha=st.sampled_from([0.5, 1.5, 2.0, 3.0]), scale=st.floats(-2.0**17, 2.0**17))
@example(alpha=2.0, scale=2.0**10)  # alpha 2, k 5, t 1: 2^15 points
@example(alpha=2.0, scale=2.0**14)  # alpha 2, k 7, t 1: 2^19 points
@example(alpha=3.0, scale=2.0**18)  # alpha 3, k 6, t 1: past the default cap
def test_kernel_grid_holds_the_spread_at_nyquist_8_to_16(alpha, scale):
    """`_kernel_grid` has half width 1.2 (C(alpha) |scale| + 120), a power of two of points
    and nyquist in [8, 16); past the cap it raises SizingError naming the points it needs."""
    half_width = 1.2 * (ball_constant(alpha) * abs(scale) + 120.0)
    needed = 2 ** int(np.ceil(np.log2(16.0 * half_width / np.pi)))
    if needed > 2**22:
        with pytest.raises(SizingError) as refused:
            _kernel_grid(alpha, scale)
        assert refused.value.required_points == needed
        return
    grid = _kernel_grid(alpha, scale)
    assert grid.half_width == half_width and grid.points == needed
    assert 8.0 * (1.0 - 1e-12) <= grid.nyquist < 16.0
    assert ball_constant(alpha) * abs(scale) < grid.half_width


def test_band_kernel_holds_only_its_spectrum_and_samples():
    """On a 2^19-point kernel grid the traced peak of `band_kernel` stays below 2.25 complex
    arrays of the grid: the spectrum and the samples, the index box freed before the transform."""
    params = DispersionParams(2.0, 1)
    grid = _kernel_grid(2.0, 2.0**14)  # alpha 2, k 7, t 1
    assert grid.points == 2**19
    tracemalloc.start()
    try:
        kernel = band_kernel(7, 1.0, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.grid == grid
    assert peak < 2.25 * 16 * grid.points, f"peak {peak / (16 * grid.points):.2f} of the lattice"


# largest log2(N) per dimension in the band-spectrum property: at most 2^18 points
_BAND_LOG2_POINTS = {1: 13, 2: 8, 3: 6}


@settings(max_examples=60)
@given(
    dim=st.sampled_from([1, 2, 3]),
    log2_points=st.integers(3, 13),
    # pi j / 4 puts |xi| = 2 (j even) and |xi| = 1/2 (j divisible by 8) on the lattice
    half_width=st.one_of(st.floats(0.5, 600.0), st.integers(1, 400).map(lambda j: np.pi * j / 4)),
    scale=st.floats(-2.0**20, 2.0**20),
    alpha=st.floats(0.25, 4.0),
)
@example(dim=1, log2_points=12, half_width=300.0, scale=0.7 * 2.0**6, alpha=2.0)
@example(dim=2, log2_points=6, half_width=12.0, scale=5.0, alpha=3.0)
@example(dim=3, log2_points=5, half_width=2.0 * np.pi, scale=-3.0, alpha=1.5)
def test_band_spectrum_is_the_full_lattice_formula(dim, log2_points, half_width, scale, alpha):
    """The box-and-band construction is bit for bit the lattice-wide bandpass(r) e^{i S r^alpha}."""
    grid = GridSpec(dim, 2 ** min(log2_points, _BAND_LOG2_POINTS[dim]), half_width)
    bandpass = make_cutoffs(dim=grid.dim).bandpass
    spectrum = _chirped_spectrum(grid, 2.0, bandpass, 1j * scale, alpha)
    r = np.sqrt((grid.frequency_mesh() ** 2).sum(axis=0))
    full = bandpass(r) * np.exp(1j * scale * r**alpha)
    assert np.array_equal(spectrum, full)
    assert not spectrum.flags.writeable


def test_kernel_tail_mass_basics():
    params = DispersionParams(2.0, 1)
    assert kernel_tail_mass(6, 1.0, params) < 0.01
    assert kernel_tail_mass(6, 0.0, params) < 0.01
    with pytest.raises(ValueError):
        kernel_tail_mass(6, 1.5, params)
    for k in (0, -3):  # unchecked, k = -3 read a share of 20.8
        for fn in (kernel_tail_mass, band_kernel):
            with pytest.raises(ValueError, match="band index"):
                fn(k, 1.0, params)


def _ball_and_scale(alpha, k, t):
    return 4.0 * ball_constant(alpha) * 2.0 ** (alpha * k), 2.0 ** (alpha * k) * t


def honest_tail_mass(k, t, params):
    """Oracle: the kernel's share of discrete L1 mass beyond the ball, on a box of 1.25 ball."""
    ball, _ = _ball_and_scale(params.alpha, k, t)
    half_width = 1.25 * ball
    grid = GridSpec(1, 2 ** max(3, int(np.ceil(np.log2(16.0 * half_width / np.pi)))), half_width)
    mag = np.abs(band_kernel(k, t, params, grid=grid).samples)
    return mag[np.abs(grid.axis_points()) > ball].sum() / mag.sum()


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_kernel_tail_mass_bounds_the_honest_grid(alpha):
    """Wherever the honest grid reads above round-off, the certified value is at least as large."""
    params = DispersionParams(alpha, 1)
    checked = 0
    for k in (1, 2, 3):
        for t in (0.0, 0.5, 1.0):
            honest = honest_tail_mass(k, t, params)
            if honest > 1e-10:
                assert kernel_tail_mass(k, t, params) >= honest
                checked += 1
    assert checked >= 3


@pytest.mark.parametrize("alpha, k, t", [
    (1.5, 1, 1.0), (1.5, 3, 0.0), (2.0, 5, 1.0), (3.0, 6, 0.5), (3.0, 8, 1.0), (2.0, 2, 0.5),
    (3.0, 8, 0.0),
])
def test_outside_mass_holds_the_recursion_out_to_81_balls(alpha, k, t):
    """The closed-form integral is at least the recursion oracle's trapezoid, 384 linear
    targets over [b, 3b] and 257 geometric ones over [3b, 81b], up to the finite-difference gap."""
    ball, scale = _ball_and_scale(alpha, k, t)
    bandpass = make_cutoffs(dim=1).bandpass

    def oracle(y):
        return np.concatenate([unblocked_bound(bandpass, _BAND_INTERVALS, alpha, scale, y[i : i + 64])
                               for i in range(0, y.size, 64)])

    near, far = np.linspace(ball, 3 * ball, 384), np.geomspace(3 * ball, 81 * ball, 257)
    integral = np.trapezoid(oracle(near), near) + np.trapezoid(oracle(far), far)
    assert _outside_mass_bound(alpha, scale, ball) >= (1.0 - 1e-3) * 2.0 * integral


def test_kernel_tail_past_the_grid_cap_runs_no_quadrature(monkeypatch):
    """alpha 3, k 6, t 1 is past the kernel grid cap: its tail bound needs no chirp-z nodes."""
    with pytest.raises(SizingError):
        _kernel_grid(3.0, 2.0**18)
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "256")  # budget 16384 nodes
    assert 0.0 < kernel_tail_mass(6, 1.0, DispersionParams(3.0, 1)) < 1e-20


def test_kernel_tail_bound_that_overflows_raises_and_a_finite_one_is_kept():
    """From k = 57 (alpha 2, t = 1) powers of the spread in the bound overflow: k = 57 keeps its
    finite bound over the mass floor, with no warning; at k = 100 an overflow meets a zero
    coefficient, and the nan bound raises OverflowError instead of being returned."""
    params = DispersionParams(2.0, 1)
    ball, scale = _ball_and_scale(2.0, 57, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _outside_mass_bound(2.0, scale, ball)
    assert kernel_tail_mass(57, 1.0, params) == bound > 0.0
    with pytest.raises(OverflowError, match=r"k = 100 at t = 1.0, alpha = 2.0 is not finite"):
        kernel_tail_mass(100, 1.0, params)


def test_band_kernel_past_the_grid_cap_names_the_cap():
    with pytest.raises(SizingError, match=r"needs 33554432 points, over the cap of 4194304 "
                       r"\(DISPLAB_MAX_GRID_POINTS\); pass a grid") as err:
        band_kernel(6, 1.0, DispersionParams(3.0, 1))
    assert err.value.required_points == 2**25


def test_kernel_grids_honour_the_grid_cap(monkeypatch):
    """DISPLAB_MAX_GRID_POINTS caps band-kernel grids; the tail is the bound over the floor 1
    whatever the cap."""
    params = DispersionParams(2.0, 1)
    ball, scale = _ball_and_scale(2.0, 5, 1.0)
    outside = _outside_mass_bound(2.0, scale, ball)
    assert band_kernel(5, 1.0, params).grid.points == _kernel_grid(2.0, scale).points == 2**15
    assert kernel_tail_mass(5, 1.0, params) == outside
    for cap in ("16384", "256"):
        monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", cap)
        with pytest.raises(SizingError, match=f"over the cap of {cap}"):
            band_kernel(5, 1.0, params)
        assert kernel_tail_mass(5, 1.0, params) == outside


def test_kernel_tail_builds_no_grid_and_runs_no_transform(monkeypatch):
    """On the 54 acceptance and `localization` points (alpha 1.5, 2, 3; k 3..8; t 0, 1/2, 1)
    `kernel_tail_mass` is bit for bit `_outside_mass_bound` over the floor 1, with no kernel
    grid and no FFT, and the worst share is at most 4.7e-5 (alpha 1.5, k 3, t 1)."""
    from displab import propagator

    def refuse(*args, **kwargs):
        raise AssertionError("the tail share built a kernel grid or ran a transform")

    monkeypatch.setattr(propagator, "_kernel_grid", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    worst = 0.0
    for alpha in (1.5, 2.0, 3.0):
        for k in range(3, 9):
            for t in (0.0, 0.5, 1.0):
                ball, scale = _ball_and_scale(alpha, k, t)
                share = kernel_tail_mass(k, t, DispersionParams(alpha, 1))
                assert share == _outside_mass_bound(alpha, scale, ball)
                worst = max(worst, share)
    assert 0.0 < worst <= 4.7e-5


@given(log2_points=st.integers(3, 16), nyquist=st.floats(8.0, 64.0),
       scale=st.floats(-2.0**20, 2.0**20), alpha=st.floats(0.25, 4.0))
def test_band_box_is_even(log2_points, nyquist, scale, alpha):
    """The one-sided box, mirrored into m < 0, is bit for bit the two-sided box.

    At nyquist >= 8, as on every kernel grid, the band misses m = -n/2."""
    n = 2**log2_points
    grid = GridSpec(1, n, np.pi * n / (2.0 * nyquist))
    bandpass = make_cutoffs(dim=1).bandpass
    (m,), box = _chirped_box(grid, 2.0, bandpass, 1j * scale, alpha)
    (half,), one_sided = _chirped_box(grid, 2.0, bandpass, 1j * scale, alpha, one_sided=True)
    assert np.array_equal(m[m > 0], half) and np.array_equal(box[m > 0], one_sided)
    mirrored = np.isin(m, -half)
    assert np.array_equal(box[mirrored], one_sided[: mirrored.sum()][::-1])
    assert not box[(m <= 0) & ~mirrored].any()


@pytest.mark.slow
def test_grid_kernel_masses_clear_the_floor():
    """Every kernel on its grid, k = 1..8 at alpha 1.5, 2, 3, has L1 mass >= 1, the floor
    `kernel_tail_mass` divides by: |kappa^| <= ||kappa||_1 and kappa^ peaks at max bandpass = 1.
    """
    masses = []
    for alpha in (1.5, 2.0, 3.0):
        params = DispersionParams(alpha, 1)
        for k in range(1, 9):
            for t in (0.0, 0.5, 1.0):
                try:
                    kernel = band_kernel(k, t, params)
                except SizingError:
                    continue
                masses.append(np.abs(kernel.samples).sum() * kernel.grid.spacing)
    assert len(masses) == 66  # all but alpha 3, k 6..8, t > 0
    assert min(masses) >= 1.0


def test_band_kernel_on_a_grid_below_nyquist_8_raises_sizing_error():
    """A user grid whose nyquist cannot carry the unit annulus with 4x headroom is refused."""
    grid = GridSpec(1, 64, 20.0)  # nyquist 5.03
    with pytest.raises(SizingError, match=r"kernel grid nyquist 5\.03 < 8"):
        band_kernel(3, 0.5, DispersionParams(2.0, 1), grid=grid)


def test_band_kernel_past_the_float_range_names_the_band_spread():
    with pytest.raises(OverflowError, match=r"^the band spread 2\^\(alpha k\) at k = 600, alpha = 2 "
                                            "overflows the float range$"):
        band_kernel(600, 1.0, DispersionParams(2.0, 1))


def test_band_kernel_refuses_a_grid_of_another_dimension():
    with pytest.raises(ValueError, match=r"^grid dim 1 != params dim 2$"):
        band_kernel(3, 0.5, DispersionParams(2.0, 2), grid=GridSpec(1, 256, 20.0))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_band_kernel_refuses_a_time_that_is_not_finite(t):
    with pytest.raises(ValueError, match=f"t must be finite, got {t}"):
        band_kernel(5, t, DispersionParams(2.0, 1))
