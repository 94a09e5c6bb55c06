import numpy as np
import pytest
from scipy.integrate import quad

from displab import chirpquad, extremizers, propagator
from displab.cutoffs import make_cutoffs, smooth_step
from displab.errors import SizingError
from displab.extremizers import (
    ANNULUS_INTEGRAL,
    MAXIMAL,
    PACKET_GRID,
    SMOOTHING,
    SP_CURVATURE,
    ExtremizerSpec,
    J_p,
    K_p,
    _annulus_intervals,
    _datum_quadrature,
    _datum_segments,
    _focus_window,
    _normalized_bump,
    datum_lp_norm,
    envelope_check,
    focusing_check,
    maximal_datum_norm,
    maximal_spectrum,
    packet_field,
    packet_taylor_remainder,
    ridge_check,
    ridge_trace,
    smoothing_grid_requirements,
    smoothing_spectrum,
    unit_annulus_field,
    unit_profile_grid,
)
from displab.grid import FREQUENCY, Field, GridSpec
from displab.norms import lp_norm, sobolev_norm
from displab.propagator import (
    DispersionParams,
    _power_sums,
    band_kernel,
    evolve,
    evolve_trajectory,
)
from displab.spectral import dft_forward, dft_inverse, to_physical
from test_chirpquad import long_double_lattice_sum
from test_norms import maximal_norm
from test_propagator import full_lattice_evolve


def smoothing_grid(lam, alpha, margin=1.1):
    nyq, hw = smoothing_grid_requirements(lam, alpha)
    hw *= margin
    points = int(2 ** np.ceil(np.log2(2 * hw * nyq * 1.05 / np.pi)))
    return GridSpec(1, points, hw)


def test_spec_validation():
    params = DispersionParams(2.0, 1)
    with pytest.raises(ValueError):
        ExtremizerSpec("other", 16.0, params)
    with pytest.raises(ValueError):
        ExtremizerSpec(SMOOTHING, 4.0, params)


@pytest.mark.parametrize("family", [SMOOTHING, MAXIMAL])
@pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
def test_spec_rejects_nonfinite_scale(family, lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        ExtremizerSpec(family, lam, DispersionParams(2.0, 1))


def test_smoothing_datum_spectrum(rng):
    lam, alpha = 16.0, 2.0
    grid = smoothing_grid(lam, alpha)
    spec = ExtremizerSpec(SMOOTHING, lam, DispersionParams(alpha, 1), grid)
    f = to_physical(smoothing_spectrum(spec))
    fhat = dft_forward(f)
    mesh = grid.frequency_mesh()[0]
    mag = np.abs(fhat.samples)
    outside = (np.abs(mesh) < lam / 2) | (np.abs(mesh) > 2 * lam)
    assert mag[outside].max() <= 1e-12 * mag.max()
    # modulus equals the annulus bump exactly: the chirp is unimodular
    cut = make_cutoffs()
    assert np.abs(mag - cut.annulus(np.abs(mesh) / lam)).max() < 1e-11


@pytest.mark.parametrize("dim, points, half_width, lam, alpha", [
    (1, 2**13, 110.0, 16.0, 2.0),
    (1, 2**12, 30.0, 27.3, 3.0),
    (1, 2**11, 4.0 * np.pi, 8.0, 1.5),  # |xi| = lam / 2 and 2 lam fall on the lattice
    (2, 128, 5.0, 9.5, 2.0),
    (3, 64, 2.5, 8.0, 3.0),
])
def test_smoothing_spectrum_is_the_full_lattice_formula(dim, points, half_width, lam, alpha):
    """The box construction is bit for bit the lattice-wide annulus(r / lam) e^{-i r^alpha}."""
    grid = GridSpec(dim, points, half_width)
    spec = ExtremizerSpec(SMOOTHING, lam, DispersionParams(alpha, dim), grid)
    spectrum = smoothing_spectrum(spec, allow_wrapped=True)
    r = np.sqrt((grid.frequency_mesh() ** 2).sum(axis=0))
    full = make_cutoffs(dim=dim).annulus((1.0 / lam) * r) * np.exp(-1j * r**alpha)
    assert np.array_equal(spectrum.samples, full)
    assert np.count_nonzero(spectrum.samples) > 0


@pytest.mark.parametrize("lam", [16.0, 32.0])
def test_smoothing_spectrum_is_exact_on_the_annulus(lam):
    spec = ExtremizerSpec(SMOOTHING, lam, DispersionParams(2.0, 1), smoothing_grid(lam, 2.0))
    spectrum = smoothing_spectrum(spec)
    assert spectrum.is_frequency
    r = np.abs(spec.grid.frequency_mesh()[0])
    off = (r <= lam / 2) | (r >= 2 * lam)
    assert np.all(spectrum.samples[off] == 0.0)


def test_smoothing_datum_l2_plancherel_oracle():
    lam, alpha = 16.0, 2.0
    grid = smoothing_grid(lam, alpha)
    spec = ExtremizerSpec(SMOOTHING, lam, DispersionParams(alpha, 1), grid)
    f = to_physical(smoothing_spectrum(spec))
    cut = make_cutoffs()
    integral = 2.0 * quad(lambda r: cut.annulus(r / lam) ** 2, 0.3 * lam, 2.2 * lam,
                          limit=400, epsabs=1e-12)[0]
    oracle = np.sqrt(integral / (2.0 * np.pi))
    assert abs(lp_norm(f, 2.0) - oracle) / oracle < 1e-10


def test_smoothing_datum_sizing_error():
    lam = 32.0
    grid = GridSpec(1, 256, 10.0)
    spec = ExtremizerSpec(SMOOTHING, lam, DispersionParams(2.0, 1), grid)
    with pytest.raises(SizingError) as err:
        smoothing_spectrum(spec)
    assert err.value.required_points is not None


def test_smoothing_datum_whose_grid_points_overflow_names_them():
    """At lam 1e300 the points the datum would need are past the float range: OverflowError."""
    spec = ExtremizerSpec(SMOOTHING, 1e300, DispersionParams(2.0, 1), GridSpec(1, 1024, 20.0))
    with pytest.raises(OverflowError, match=r"^the datum grid's points at lam = 1e\+300, alpha = 2 "
                       "overflow the float range"):
        smoothing_spectrum(spec, allow_wrapped=True)


def test_datum_norm_scaling_slope():
    alpha, p = 2.0, 6.0
    lams = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
    norms = np.array([datum_lp_norm(lam, alpha, p) for lam in lams])
    slope = np.polyfit(np.log(lams), np.log(norms), 1)[0]
    predicted = 1 - alpha / 2 + (alpha - 1) / p
    assert abs(slope - predicted) <= 0.1


@pytest.mark.slow
def test_datum_norm_matches_direct_grid():
    lam, alpha = 16.0, 2.0
    grid = smoothing_grid(lam, alpha)
    spec = ExtremizerSpec(SMOOTHING, lam, DispersionParams(alpha, 1), grid)
    f = to_physical(smoothing_spectrum(spec))
    for p in (2.0, 6.0):
        direct = lp_norm(f, p)
        reduced = datum_lp_norm(lam, alpha, p)
        assert abs(direct - reduced) / direct < 1e-6


def test_one_sided_datum_l2_against_quadrature():
    # Plancherel: ||f||_2^2 = (2pi)^-1 int_{xi>0} theta(xi/lam)^2 dxi
    lam, alpha = 16.0, 3.0
    cut = make_cutoffs()
    integral = quad(lambda r: cut.annulus(r / lam) ** 2, 0.3 * lam, 2.2 * lam,
                    limit=400, epsabs=1e-12)[0]
    oracle = np.sqrt(integral / (2.0 * np.pi))
    reduced = datum_lp_norm(lam, alpha, 2.0, one_sided=True)
    assert abs(reduced - oracle) / oracle < 1e-6


@pytest.mark.slow
def test_one_sided_datum_norm_matches_direct_grid():
    lam, alpha = 8.0, 3.0
    nyq, hw = smoothing_grid_requirements(lam, alpha)
    hw *= 1.1
    points = int(2 ** np.ceil(np.log2(2 * hw * nyq * 1.05 / np.pi)))
    grid = GridSpec(1, points, hw)
    cut = make_cutoffs()

    def spectrum(xi):
        x = np.asarray(xi)[0]
        return cut.annulus(np.abs(x) / lam) * np.exp(-1j * np.abs(x) ** alpha) * (x > 0)

    f = to_physical(Field(grid, FREQUENCY, spectrum(grid.frequency_mesh())))
    for p in (2.0, 6.0):
        direct = lp_norm(f, p)
        reduced = datum_lp_norm(lam, alpha, p, one_sided=True)
        assert abs(direct - reduced) / direct < 1e-5


def test_unit_profile_grid_headroom():
    g = unit_profile_grid()
    assert g.nyquist >= 8.0
    f = unit_annulus_field(g)
    assert f.representation == FREQUENCY
    one_sided = unit_annulus_field(g, one_sided=True)
    mesh = g.frequency_mesh()[0]
    assert np.abs(one_sided.samples[mesh < 0]).max() == 0.0


def lattice_annulus(grid, one_sided):
    """Oracle: the unit annulus formed on the whole lattice from the frequency mesh."""
    mesh = grid.frequency_mesh()
    vals = make_cutoffs(dim=grid.dim).annulus(np.sqrt((mesh**2).sum(axis=0)))
    return vals * (mesh[0] > 0) if one_sided else vals


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("grid", [unit_profile_grid(), GridSpec(1, 2**10, 30.0),
                                  GridSpec(2, 64, 6.0), GridSpec(3, 32, 4.0)])
def test_unit_annulus_field_is_the_full_lattice_formula(grid, one_sided):
    """The box construction is bit for bit the lattice-wide theta(r), one-sided or not."""
    got = unit_annulus_field(grid, one_sided=one_sided)
    assert np.array_equal(got.samples, lattice_annulus(grid, one_sided))
    assert np.count_nonzero(got.samples) > 0


@pytest.mark.parametrize("eps", [0.05, 0.1])
def test_packet_field_is_the_full_lattice_formula(eps):
    """The box construction is bit for bit the normalized bump on the whole packet lattice."""
    full = _normalized_bump(eps)(PACKET_GRID.frequency_mesh()[0])
    assert np.array_equal(packet_field(eps).samples, full)


def lattice_ridge_trace(lam, alpha, t_grid, epsilon):
    """Oracle: one lattice-wide sum per time, over every packet frequency."""
    spec_field = packet_field(epsilon)
    grid = spec_field.grid
    w = grid.frequency_mesh()[0]
    weights = spec_field.samples * grid.frequency_cell_volume / (2.0 * np.pi)
    rho_w = packet_taylor_remainder(alpha)(lam ** (-alpha / 2.0) * w)
    return np.array(
        [complex((weights * np.exp(1j * (t * lam**alpha) * rho_w)).sum()) for t in t_grid]
    )


@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("lam", [16.0, 64.0, 256.0])
def test_ridge_trace_matches_the_lattice_sum(lam, alpha):
    """Summing over the packet's support only moves round-off (the sum order changes)."""
    t_grid = np.linspace(0.0, 1.0, 129)
    got = ridge_trace(lam, alpha, t_grid)
    oracle = lattice_ridge_trace(lam, alpha, t_grid, 0.05)
    np.testing.assert_allclose(got, oracle, rtol=1e-14, atol=0.0)


def test_focusing_check_keeps_no_lattice_array_alive():
    """Nothing the check forms, annulus values, phases or twiddles, outlives it in a cache."""
    import gc
    import tracemalloc

    params = DispersionParams(2.0, 1)
    focusing_check(ExtremizerSpec(SMOOTHING, 16.0, params))  # first-call imports
    gc.collect()
    tracemalloc.start()
    try:
        focusing_check(ExtremizerSpec(SMOOTHING, 128.0, params))
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20, f"{kept / 2**20:.1f} MB kept alive"


def test_focusing_check_peak_is_below_half_a_lattice():
    """At lam 128 the check's 2^19-point lattice is never formed: its traced peak stays below
    4 MB, half of one complex array of that lattice."""
    import tracemalloc

    params = DispersionParams(2.0, 1)
    focusing_check(ExtremizerSpec(SMOOTHING, 16.0, params))  # first-call imports
    tracemalloc.start()
    try:
        focusing_check(ExtremizerSpec(SMOOTHING, 128.0, params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22, f"peak {peak / 2**20:.1f} MB"


def test_focusing_check_runs_no_frame_engine_or_transform(monkeypatch):
    """The window values are a direct sum over the annulus: no trajectory, slice power sum,
    inverse FFT or lattice-wide point array."""

    def refuse(*args, **kwargs):
        raise AssertionError("the focusing check formed a lattice-wide frame")

    monkeypatch.setattr(propagator, "evolve_trajectory", refuse)
    monkeypatch.setattr(propagator, "_power_sums", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    monkeypatch.setattr(GridSpec, "axis_points", refuse)
    rep = focusing_check(ExtremizerSpec(SMOOTHING, 64.0, DispersionParams(3.0, 1)))
    assert rep.min_modulus_ratio >= 0.1


@pytest.mark.parametrize("lam", [16.0, 20.48, 90.3, 124.2])
def test_focus_window_is_the_axis_points_window(lam):
    """The window offsets pick the same samples as |axis_points| <= 1/(10 lam) on the lattice;
    at lam 20.48 the bound falls on the sample j = 8."""
    grid = GridSpec(1, int(2 ** np.ceil(np.log2(2.0 * 40.0 * 40.0 * lam))), 40.0)
    want = np.flatnonzero(np.abs(grid.axis_points()) <= 1.0 / (10.0 * lam)) - grid.points // 2
    np.testing.assert_array_equal(_focus_window(grid, lam), want)


def test_evolution_and_datum_paths_form_no_frequency_mesh(monkeypatch):
    """Every lattice frequency there is read from `GridSpec.axis_frequencies`, on the support."""

    def no_mesh(grid):
        raise AssertionError("a lattice-wide frequency mesh was formed")

    monkeypatch.setattr(GridSpec, "frequency_mesh", no_mesh)
    params = DispersionParams(3.0, 1)
    profile = unit_annulus_field(unit_profile_grid(2**12), one_sided=True)
    evolve(to_physical(profile), 0.5, params)
    _power_sums(profile, [0.0, 1.0], params, 6.0)
    ridge_trace(16.0, 3.0, [0.0, 0.5], epsilon=0.07)  # an epsilon no other test caches
    focusing_check(ExtremizerSpec(SMOOTHING, 16.0, DispersionParams(2.0, 1)))
    band_kernel(2, 0.5, DispersionParams(2.0, 1))


def test_envelope_peak_slopes():
    for alpha in (2.0, 3.0):
        params = DispersionParams(alpha, 1)
        lams = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
        peaks = [envelope_check(ExtremizerSpec(SMOOTHING, lam, params)).peak_ratio for lam in lams]
        slope = np.polyfit(np.log(lams), np.log(peaks), 1)[0]
        assert abs(slope) <= 0.15
        assert max(peaks) / min(peaks) < 2.0


def test_envelope_tail():
    rep = envelope_check(ExtremizerSpec(SMOOTHING, 64.0, DispersionParams(2.0, 1)))
    assert rep.tail_ratio <= 1e-4
    rep3 = envelope_check(ExtremizerSpec(SMOOTHING, 64.0, DispersionParams(3.0, 1)))
    assert rep3.tail_ratio <= 1e-4


def test_envelope_quadrature_respects_the_node_budget(monkeypatch):
    """The peak quadrature checks its node count before it allocates a lattice."""
    spec = ExtremizerSpec(SMOOTHING, 1024.0, DispersionParams(2.0, 1))  # 100,774 banded nodes
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "256")  # budget 16384 nodes
    with pytest.raises(SizingError, match="budget"):
        envelope_check(spec)


# -- the stationary-phase route of datum_lp_norm ---------------------------------------

# The two-term SP value against the quadrature at S min|phi''| = 2^16 to 2^17, over alpha 2
# and 3, p 6, beta -0.5 to 1 and both sides, measured at most 1.8e-10 relative (alpha 2,
# beta -0.5, at the crossover), and at S = 2^20 over alpha 1.5-4 and p 4-12 at most 3.8e-12;
# the gap falls like S^-4.
SP_GAP = 6e-10
# The same from the crossover to S = 2^20 over alpha 1.1-4 and p 4-12: at most 8.4e-10
# (alpha 2, beta -0.5, p 12, at the crossover).
SP_CROSSOVER_GAP = 1e-9
SP_ALPHAS = (1.1, 1.25, 1.5, 2.0, 3.0, 4.0)


def sp_value(monkeypatch, lam, alpha, p, one_sided, beta):
    """`datum_lp_norm`'s stationary-phase value at any scale: the crossover moved to 0."""
    with monkeypatch.context() as patched:
        patched.setattr(extremizers, "SP_CURVATURE", 0.0)
        return datum_lp_norm.__wrapped__(lam, alpha, p, one_sided, beta)


def leading_value(lam, alpha, p):
    """The one-term SP value of the two-sided datum, J_p alone."""
    mass = 2.0 * J_p(make_cutoffs().annulus, alpha, p)
    return lam ** (1.0 + (alpha - 1.0) / p) * mass ** (1.0 / p) / np.sqrt(2.0 * np.pi * lam**alpha)


def crossover_log2_scale(alpha):
    """log2 S at which S min_{[1/2, 2]} phi'' reaches `SP_CURVATURE`."""
    return np.log2(SP_CURVATURE / (alpha * (alpha - 1.0) * 2.0 ** -abs(alpha - 2.0)))


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_stationary_phase_matches_the_quadrature_around_the_crossover(
        monkeypatch, alpha, beta, one_sided):
    for octaves in (0.0, 0.5, 1.0):
        lam = 2.0 ** ((crossover_log2_scale(alpha) + octaves) / alpha)
        quadrature = _datum_quadrature(lam, alpha, 6.0, one_sided, beta)
        assert abs(sp_value(monkeypatch, lam, alpha, 6.0, one_sided, beta) - quadrature) <= (
            SP_GAP * quadrature)


@pytest.mark.slow
@pytest.mark.parametrize("alpha", SP_ALPHAS)
def test_two_term_value_matches_the_quadrature_from_the_crossover_to_2_20(monkeypatch, alpha):
    """Every octave of S from the crossover up to 2^20, which the grid test below covers (the
    crossover alone at alpha 1.1, where it is 2^20.08), p 4, 6 and 12, beta -0.5, 0 and 1,
    both sides: within SP_CROSSOVER_GAP."""
    start = crossover_log2_scale(alpha)
    for log2_scale in np.arange(start, max(start + 1.0, 20.0), 1.0):
        lam = 2.0 ** (log2_scale / alpha)
        for p in (4.0, 6.0, 12.0):
            for beta in (-0.5, 0.0, 1.0):
                for one_sided in (False, True):
                    quadrature = _datum_quadrature(lam, alpha, p, one_sided, beta)
                    sp = sp_value(monkeypatch, lam, alpha, p, one_sided, beta)
                    assert abs(sp - quadrature) <= SP_CROSSOVER_GAP * quadrature, (
                        log2_scale, p, beta, one_sided)


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
def test_stationary_phase_matches_the_quadrature_over_the_grid(monkeypatch, alpha):
    """At S = 2^20, p 4, 6 and 12, beta -0.5, 0 and 1, both sides: within SP_GAP."""
    lam = 2.0 ** (20.0 / alpha)
    for p in (4.0, 6.0, 12.0):
        for beta in (-0.5, 0.0, 1.0):
            for one_sided in (False, True):
                quadrature = _datum_quadrature(lam, alpha, p, one_sided, beta)
                sp = sp_value(monkeypatch, lam, alpha, p, one_sided, beta)
                assert abs(sp - quadrature) <= SP_GAP * quadrature, (p, beta, one_sided)


@pytest.mark.slow
def test_stationary_phase_matches_the_quadrature_at_alpha_4_lam_128():
    """S = 2^28, where the quadrature takes seconds: measured 2.1e-10 apart."""
    quadrature = _datum_quadrature(128.0, 4.0, 6.0, False, 0.0)
    assert abs(datum_lp_norm.__wrapped__(128.0, 4.0, 6.0) - quadrature) <= SP_GAP * quadrature


@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("lam, alpha", [(16.0, 2.0), (16.0, 3.0), (2.0**10.5, 2.0), (2.0**7, 3.0)])
def test_stationary_phase_is_plancherel_at_p_2(monkeypatch, lam, alpha, one_sided):
    """At p = 2 the SP formula is exact at every S: ||f_lam||_2^2 = lam (2 pi)^-1 int theta^2
    over each side of the annulus."""
    annulus = make_cutoffs().annulus
    breaks = (2.0**-0.5, 2.0**0.5)
    integral = quad(lambda r: annulus(r) ** 2, 0.5, 2.0, points=breaks, epsabs=1e-15, epsrel=1e-13)[0]
    oracle = np.sqrt((1.0 if one_sided else 2.0) * lam * integral / (2.0 * np.pi))
    assert abs(sp_value(monkeypatch, lam, alpha, 2.0, one_sided, 0.0) - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("alpha", SP_ALPHAS)
def test_second_stationary_phase_coefficient_vanishes_at_p_2(alpha):
    """Plancherel: int b drho = 0, so K_2 = 0.  What is left is round-off, which the c^-6 of b
    scales up near alpha 1 (1.8e-11 at alpha 1.1, 2.9e-14 at alpha 2), so below alpha 2 it
    is bounded against K_4."""
    annulus = make_cutoffs().annulus
    bound = 1e-12 if alpha >= 2.0 else 1e-15 * abs(K_p(annulus, alpha, 4.0))
    assert abs(K_p(annulus, alpha, 2.0)) <= bound


@pytest.mark.parametrize("p", [4.0, 6.0])
@pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 3.0])
def test_second_stationary_phase_coefficient_is_the_quadrature_gap(alpha, p):
    """-K_p / (p J_p) is the leading term's relative gap to the quadrature times S^2, at
    S = 2^18 within 1e-3 (measured 55.31 and 51.50 at alpha 2, p 4 and 6)."""
    annulus = make_cutoffs().annulus
    lam = 2.0 ** (18.0 / alpha)
    quadrature = _datum_quadrature(lam, alpha, p, False, 0.0)
    gap = (leading_value(lam, alpha, p) / quadrature - 1.0) * lam ** (2.0 * alpha)
    predicted = -K_p(annulus, alpha, p) / (p * J_p(annulus, alpha, p))
    assert gap == pytest.approx(predicted, rel=1e-3)


@pytest.mark.parametrize("alpha, p", [(2.0, 6.0), (3.0, 12.0)])
def test_two_term_remainder_falls_like_s_minus_4(monkeypatch, alpha, p):
    """(two-term / quadrature - 1) S^4 over S = 2^13, 2^14, 2^15, where the gap is still far
    above the quadrature's own error: one sign, within 25% of each other (the one-term gap
    times S^4 would grow fourfold an octave)."""
    scaled = []
    for log2_scale in (13.0, 14.0, 15.0):
        lam = 2.0 ** (log2_scale / alpha)
        quadrature = _datum_quadrature(lam, alpha, p, False, 0.0)
        scaled.append((sp_value(monkeypatch, lam, alpha, p, False, 0.0) / quadrature - 1.0)
                      * 2.0 ** (4.0 * log2_scale))
    assert np.all(np.sign(scaled) == np.sign(scaled[0]))
    assert max(np.abs(scaled)) <= 1.25 * min(np.abs(scaled))


def test_no_quadrature_runs_past_the_crossover(monkeypatch):
    """From S min|phi''| = 2^16 on, for p >= 2, `datum_lp_norm` is the SP value: `chirp_profile`
    never runs.  The seed-0 benchmark's scales past it (alpha 2, lam 256; alpha 3, lam 32 and
    64) stay there under 3% jitter.  Just below the crossover, or below p = 2, the norm is the
    quadrature's."""

    def refuse(*args, **kwargs):
        raise AssertionError("chirp_profile ran past the crossover")

    monkeypatch.setattr(extremizers, "chirp_profile", refuse)
    scales = [(1024.0, 2.0), (128.0, 3.0), (32.0, 4.0), (256.0, 4.0), (2.0**18.3, 1.1)]
    for lam, alpha in [(256.0, 2.0), (32.0, 3.0), (64.0, 3.0)]:
        scales += [(0.97 * lam, alpha), (lam, alpha), (1.03 * lam, alpha)]
    for lam, alpha in scales:
        for one_sided in (False, True):
            for beta in (0.0, -0.5):
                assert datum_lp_norm.__wrapped__(lam, alpha, 6.0, one_sided, beta) > 0
    below = 0.999 * (SP_CURVATURE / 3.0) ** (1.0 / 3.0)
    for lam, alpha, p in [(below, 3.0, 6.0), (1024.0, 2.0, 1.5)]:
        with pytest.raises(AssertionError, match="crossover"):
            datum_lp_norm.__wrapped__(lam, alpha, p)


@pytest.mark.parametrize(
    "args, name",
    [((16.0, 2.0, np.nan), "p"), ((16.0, 2.0, -1.0), "p"), ((16.0, 2.0, 0.0), "p"),
     ((16.0, 2.0, np.inf), "p"), ((np.nan, 2.0, 6.0), "lam"), ((-16.0, 2.0, 6.0), "lam"),
     ((0.0, 2.0, 6.0), "lam"), ((np.inf, 2.0, 6.0), "lam"), ((16.0, np.nan, 6.0), "alpha"),
     ((16.0, 0.0, 6.0), "alpha"), ((16.0, 2.0, 6.0, False, np.nan), "bessel_beta"),
     ((16.0, 2.0, 6.0, True, -np.inf), "bessel_beta")],
)
def test_datum_norm_rejects_arguments_outside_their_range(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        datum_lp_norm(*args)


@pytest.mark.parametrize("lam, alpha, one_sided", [(128.0, 2.0, False), (27.0, 3.0, True)])
def test_datum_norm_budget_check_reads_datum_quadrature_nodes(monkeypatch, lam, alpha, one_sided):
    """The smallest budget holding the quadrature's route node count (`chirpquad._route` on
    `_datum_segments`) runs the norm; one node less refuses it."""
    S = lam**alpha
    segments = _datum_segments(S, alpha, one_sided)
    nodes = chirpquad._route(_annulus_intervals(one_sided), alpha, -S, segments)[1]
    norm = datum_lp_norm.__wrapped__  # past the cache, so every call checks its budget
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", str(-(-nodes // 64)))  # budget 64 x points
    assert norm(lam, alpha, 6.0, one_sided) > 0
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", str((nodes - 1) // 64))
    with pytest.raises(SizingError, match="budget"):
        norm(lam, alpha, 6.0, one_sided)


@pytest.mark.slow
@pytest.mark.parametrize(
    "lam, alpha, one_sided",
    [(32.0, 3.0, False), (32.0, 3.0, True), (64.0, 3.0, True), (256.0, 2.0, False)],
)
def test_banded_datum_norms_match_the_dense_route(monkeypatch, lam, alpha, one_sided):
    """Datum quadratures between 2^17 and 2^21 dense nodes run banded; the dense route agrees."""
    banded = _datum_quadrature(lam, alpha, 6.0, one_sided, 0.0)
    monkeypatch.setattr(chirpquad, "DENSE_CAP", 2**40)  # every call dense
    dense = _datum_quadrature(lam, alpha, 6.0, one_sided, 0.0)
    assert abs(banded - dense) <= 1e-9 * dense


@pytest.mark.slow
def test_banded_envelope_peak_matches_the_dense_route(monkeypatch):
    spec = ExtremizerSpec(SMOOTHING, 64.0, DispersionParams(3.0, 1))  # 3,628,094 dense nodes
    banded = envelope_check(spec).peak_ratio
    monkeypatch.setattr(chirpquad, "DENSE_CAP", 2**40)
    dense = envelope_check(spec).peak_ratio
    assert abs(banded - dense) <= 1e-7 * dense


def test_chirp_z_plans_over_the_benchmark_scales(monkeypatch):
    """Each quadrature folds onto its own lattice period, so a `CZT` plan is built only where
    few nodes and targets sit on a long period: the datum quadratures at the seed-0
    benchmark's scales build at most 16 and its envelope peaks none."""
    built = []
    plan_class = chirpquad.CZT
    monkeypatch.setattr(chirpquad, "CZT", lambda n, m, w: built.append(w) or plan_class(n, m, w))
    scales = (16.0, 32.0, 64.0, 128.0, 256.0)
    for alpha in (2.0, 3.0):
        for lam in scales:
            _datum_quadrature(lam, alpha, 6.0, False, 0.0)
    for lam in scales[:4]:  # the airy sweep's one-sided norms
        _datum_quadrature(lam, 3.0, 6.0, True, 0.0)
    assert len(built) <= 16
    built.clear()
    for alpha in (2.0, 3.0):
        for lam in scales:
            envelope_check(ExtremizerSpec(SMOOTHING, lam, DispersionParams(alpha, 1)))
    assert built == []


def test_focusing_lower_bound_and_exact_value():
    params = DispersionParams(2.0, 1)
    ratios = []
    for lam in (16.0, 32.0, 64.0):
        rep = focusing_check(ExtremizerSpec(SMOOTHING, lam, params))
        ratios.append(rep.min_modulus_ratio)
        assert rep.min_modulus_ratio >= 0.1
        rel = abs(rep.focus_value - rep.predicted_focus_value) / rep.predicted_focus_value
        assert rel <= 1e-8
    assert max(ratios) / min(ratios) <= 1.2


def physical_focusing(lam, params):
    """(min modulus ratio, focus value) of `focusing_check`, evolving the physical datum.

    Each full-lattice frame is reduced to its window minimum (and the middle
    frame to its focus sample) as it is formed, so one frame is alive at a time.
    """
    grid = GridSpec(1, int(2 ** np.ceil(np.log2(2.0 * 40.0 * 40.0 * lam))), 40.0)
    spec = ExtremizerSpec(SMOOTHING, lam, params, grid)
    datum = to_physical(smoothing_spectrum(spec, allow_wrapped=True))
    window = np.abs(grid.axis_points()) <= 1.0 / (10.0 * lam)
    t_vals = 1.0 + np.linspace(-1.0, 1.0, 9) / (10.0 * lam**params.alpha)
    minima = []
    for i, t in enumerate(t_vals):
        frame = to_physical(full_lattice_evolve(datum, float(t), params.alpha)).samples
        minima.append(float(np.abs(frame[window]).min()))
        if i == 4:
            focus = complex(frame[grid.points // 2])
        del frame
    return min(minima) / lam, focus


@pytest.mark.parametrize(
    "lam, alpha", [(16.0, 2.0), (32.0, 2.0), (16.0, 3.0), (128.0, 2.0), (90.3, 4.0)]
)
def test_focusing_from_the_spectrum_matches_the_physical_datum(lam, alpha):
    params = DispersionParams(alpha, 1)
    rep = focusing_check(ExtremizerSpec(SMOOTHING, lam, params))
    min_ratio, focus = physical_focusing(lam, params)
    assert rep.min_modulus_ratio == pytest.approx(min_ratio, rel=1e-12, abs=0.0)
    assert rep.focus_value.real == pytest.approx(focus.real, rel=1e-12, abs=0.0)
    assert abs(rep.focus_value.imag - focus.imag) <= 1e-12 * abs(focus)


def test_focus_value_is_lam_times_annulus_integral():
    rep = focusing_check(ExtremizerSpec(SMOOTHING, 32.0, DispersionParams(2.0, 1)))
    assert rep.predicted_focus_value == pytest.approx(32.0 * ANNULUS_INTEGRAL / (2 * np.pi))


def test_closed_form_cutoff_integrals_match_quad():
    from displab.extremizers import _BUMP_PROFILE_MASS

    cut = make_cutoffs()
    tight = dict(limit=400, epsabs=1e-13, epsrel=1e-13)
    line = 2.0 * quad(cut.annulus, 0.4, 2.1, **tight)[0]
    assert ANNULUS_INTEGRAL == pytest.approx(line, rel=1e-13, abs=0.0)
    mass = quad(lambda s: 1.0 - smooth_step((s - 0.4) / 0.5), 0.0, 1.0, **tight)[0]
    assert _BUMP_PROFILE_MASS == pytest.approx(mass, rel=1e-13, abs=0.0)


# -- traveling bump -------------------------------------------------------------------


def maximal_grid(lam, alpha, eps=0.05, tails=130.0):
    # tails sets the frequency-lattice resolution across the bump (and the
    # spatial extent of the packet profile the box must hold)
    width = eps * lam ** ((2.0 - alpha) / 2.0)
    hw = tails / width
    nyq = 1.1 * (lam + 10 * width)
    points = int(2 ** np.ceil(np.log2(2 * hw * nyq / np.pi)))
    return GridSpec(1, points, hw)


def test_maximal_datum_spectrum_and_symmetry():
    lam, alpha = 32.0, 3.0
    grid = maximal_grid(lam, alpha)
    spec = ExtremizerSpec(MAXIMAL, lam, DispersionParams(alpha, 1), grid)
    g = to_physical(maximal_spectrum(spec))
    ghat = dft_forward(g)
    mesh = grid.frequency_mesh()[0]
    mag = np.abs(ghat.samples)
    radius = 0.05 * lam ** ((2.0 - alpha) / 2.0)
    outside = np.abs(mesh + lam) > radius
    assert mag[outside].max() <= 1e-12 * mag.max()
    # |g| is even about 0: the spectrum is a real bump at a single center
    vals = np.abs(g.samples)
    assert np.abs(vals[1:][::-1] - vals[1:]).max() <= 1e-9 * vals.max()


def test_maximal_spectrum_refuses_an_unresolved_bump():
    """Fewer than three lattice frequencies inside |xi + lam| < 0.9 eps lam^((2 - alpha)/2)
    raise SizingError; at its required half width the bump holds at least three."""
    lam, params = 16.0, DispersionParams(3.0, 1)
    radius = 0.9 * 0.05 * lam ** -0.5
    for points, half_width in [(1024, 20.0), (4096, 150.0)]:
        spec = ExtremizerSpec(MAXIMAL, lam, params, GridSpec(1, points, half_width))
        with pytest.raises(SizingError, match="need half width") as info:
            maximal_spectrum(spec)
        need = info.value.required_half_width
        for offset in np.linspace(0.0, 1.0, 7):  # wherever the lattice falls on the bump
            grid = GridSpec(1, 2**16, need)
            xi = grid.axis_frequencies() + offset * grid.frequency_spacing
            assert np.count_nonzero(np.abs(xi + lam) < radius) >= 3
        spectrum = maximal_spectrum(ExtremizerSpec(MAXIMAL, lam, params, GridSpec(1, 2**16, need)))
        assert np.count_nonzero(spectrum.samples) >= 3


@pytest.mark.slow
def test_maximal_datum_norm_matches_direct_grid():
    alpha, p, eps = 3.0, 6.0, 0.05
    for lam in (16.0, 32.0):
        grid = maximal_grid(lam, alpha, eps)
        spec = ExtremizerSpec(MAXIMAL, lam, DispersionParams(alpha, 1), grid, epsilon=eps)
        g = to_physical(maximal_spectrum(spec))
        direct = lp_norm(g, p)
        reduced = maximal_datum_norm(lam, alpha, p, eps)
        # two independent lattice quadratures of the same Gevrey-bump profile
        assert abs(direct - reduced) / direct < 1e-4


@pytest.mark.parametrize("beta", [0.25, -0.5, 1.0])
@pytest.mark.parametrize("family", [SMOOTHING, MAXIMAL])
def test_bessel_weighted_datum_norms_match_the_lattice_sobolev_norm(family, beta):
    """Both reductions read `norms.bessel_symbol` where their datum's frequencies sit: the
    Sobolev norm of the physical datum on a lam-scale grid agrees (measured at lam 16: within
    6.3e-16 for the chirped annulus and 5.1e-9 for the traveling bump)."""
    lam, p = 16.0, 6.0
    if family == SMOOTHING:
        alpha = 2.0
        spec = ExtremizerSpec(family, lam, DispersionParams(alpha, 1), smoothing_grid(lam, alpha))
        datum, reduced = smoothing_spectrum(spec), datum_lp_norm(lam, alpha, p, False, beta)
    else:
        alpha = 3.0
        spec = ExtremizerSpec(family, lam, DispersionParams(alpha, 1), maximal_grid(lam, alpha))
        datum, reduced = maximal_spectrum(spec), maximal_datum_norm(lam, alpha, p, bessel_beta=beta)
    direct = sobolev_norm(to_physical(datum), p, beta)
    assert abs(reduced - direct) <= 1e-7 * direct


def test_maximal_datum_norm_scaling():
    alpha, p = 3.0, 6.0
    lams = np.array([16.0, 32.0, 64.0, 128.0])
    norms = np.array([maximal_datum_norm(lam, alpha, p) for lam in lams])
    slope = np.polyfit(np.log(lams), np.log(norms), 1)[0]
    predicted = (alpha - 2.0) / 2.0 * (1.0 / p - 1.0)
    assert abs(slope - predicted) <= 0.1


def test_ridge_check_floor_and_stability():
    params = DispersionParams(3.0, 1)
    ratios = []
    for lam in (16.0, 32.0, 64.0):
        rep = ridge_check(ExtremizerSpec(MAXIMAL, lam, params, epsilon=0.05))
        ratios.append(rep.min_ridge_ratio)
        assert rep.min_ridge_ratio >= 0.1
    assert max(ratios) / min(ratios) <= 1.2


def test_ridge_value_at_origin_positive():
    # at x = 0, t = 0 the trace is the packet center value: exactly the
    # normalized bump integral, which is 1 by construction
    vals = ridge_trace(32.0, 3.0, [0.0], 0.05)
    assert vals[0].real == pytest.approx(1.0, rel=1e-6)
    assert abs(vals[0].imag) < 1e-9


@pytest.mark.slow
def test_ridge_trace_is_dominated_by_true_maximal(rng):
    """The ridge trace lower-bounds a finely sampled maximal function."""
    lam, alpha, eps, p = 12.0, 3.0, 0.05, 6.0
    ridge_speed = alpha * lam ** (alpha - 1.0)
    hw = 1.3 * ridge_speed
    nyq = 1.15 * lam
    points = int(2 ** np.ceil(np.log2(2 * hw * nyq / np.pi)))
    grid = GridSpec(1, points, hw)
    spec = ExtremizerSpec(MAXIMAL, lam, DispersionParams(alpha, 1), grid, epsilon=eps)
    g = to_physical(maximal_spectrum(spec))
    passage = lam ** (-alpha / 2.0) / alpha
    ts = np.linspace(0.0, 1.0, int(8.0 / passage) + 2)
    traj = evolve_trajectory(g, ts, DispersionParams(alpha, 1))
    true_max = maximal_norm(traj, p)

    t_grid = np.linspace(0.0, 1.0, 257)
    trace = np.abs(ridge_trace(lam, alpha, t_grid, eps))
    w = np.full(t_grid.size, 1.0 / 256.0)
    w[0] = w[-1] = 0.5 / 256.0
    ridge_norm = lam ** ((2 - alpha) / 2.0) * (ridge_speed * (trace**p) @ w) ** (1 / p)
    assert ridge_norm <= true_max * 1.02
    assert ridge_norm >= 0.5 * true_max  # and it is not a vacuous bound


def test_packet_field_normalization():
    f = packet_field(0.05)
    phys = dft_inverse(f)
    center = phys.samples[f.grid.points // 2]
    assert center.real == pytest.approx(1.0, rel=1e-6)


@pytest.mark.slow
@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is no wider than double")
def test_weights_match_a_long_double_phase_oracle(monkeypatch):
    """Datum quadratures at alpha 3, lam 256 and alpha 4, lam 64 within 5e-11 relative, and
    the alpha 3, lam 256 envelope peak within 1e-9, of the same quadratures with every phase
    formed in long double (`long_double_lattice_sum`).  These are the scales where the
    weights sit furthest from the oracle: 1.55e-11 and 1.31e-11 on the norms, 4.9e-10 on the
    peak."""

    def measure():
        norms = [_datum_quadrature(256.0, 3.0, 6.0, False, 0.0),
                 _datum_quadrature(64.0, 4.0, 6.0, False, 0.0)]
        peak = envelope_check(ExtremizerSpec(SMOOTHING, 256.0, DispersionParams(3.0, 1))).peak_ratio
        return norms, peak

    norms, peak = measure()
    monkeypatch.setattr(chirpquad, "_lattice_sum", long_double_lattice_sum)
    oracle_norms, oracle_peak = measure()
    np.testing.assert_allclose(norms, oracle_norms, rtol=5e-11, atol=0.0)
    assert abs(peak - oracle_peak) <= 1e-9 * oracle_peak


def test_focusing_lattice_is_sized_under_the_grid_cap(monkeypatch):
    """Under a cap of 65,536 points, lam 16 runs on its 2^16-point lattice, and lam 32, which
    needs 2^17, is refused before any array is formed: the refusal's traced peak stays under
    1 MiB."""
    import tracemalloc

    from displab import grid as grid_module

    sized = []

    def recording(*args):
        sized.append(grid_module.sized_grid(*args))
        return sized[-1]

    monkeypatch.setattr(extremizers, "sized_grid", recording)
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "65536")
    params = DispersionParams(2.0, 1)
    assert focusing_check(ExtremizerSpec(SMOOTHING, 16.0, params)).min_modulus_ratio >= 0.1
    assert [grid.points for grid in sized] == [2**16]
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="^the focusing lattice at lam=32 needs 131072 points, "
                           "over the cap of 65536") as err:
            focusing_check(ExtremizerSpec(SMOOTHING, 32.0, params))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.required_points == 2**17
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_smoothing_spectrum_sizes_a_one_dimensional_grid_only():
    """A None grid is sized in dim 1 at the direct route's margins; in dim 2 it is refused."""
    lam, alpha = 16.0, 2.0
    spectrum = smoothing_spectrum(ExtremizerSpec(SMOOTHING, lam, DispersionParams(alpha, 1)))
    assert spectrum.grid == smoothing_grid(lam, alpha)
    with pytest.raises(ValueError, match="automatic datum grids are one-dimensional"):
        smoothing_spectrum(ExtremizerSpec(SMOOTHING, lam, DispersionParams(alpha, 2)))
