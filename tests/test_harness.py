import numpy as np
import pytest

from displab.cutoffs import make_cutoffs
from displab.extremizers import SMOOTHING, ExtremizerSpec, smoothing_spectrum
from displab.grid import FREQUENCY, Field, GridSpec
from displab import harness
from displab.harness import (
    FOCUSING_SAMPLES,
    SweepConfig,
    SweepRecord,
    direct_smoothing_record,
    fit_loglog,
    focusing_s_grid,
    run_sweep,
    slope_verdict,
    time_ladder,
    verify_airy,
    verify_maximal_necessary,
    verify_sharpness,
)
from displab.norms import _time_weights, airy_exponent, lp_norm, smoothing_exponent, sobolev_norm
from displab.propagator import DispersionParams, _power_sums
from displab.spectral import apply_symbol, to_physical


def records_from(lams, ratios):
    return [
        SweepRecord(lam=lam, points=8, half_width=1.0, t_count=1,
                    numerator=r, denominator=1.0, ratio=r)
        for lam, r in zip(lams, ratios)
    ]


def test_fit_exact_power_law():
    lams = [8.0, 16.0, 32.0, 64.0]
    fit = fit_loglog(records_from(lams, [lam**0.5 for lam in lams]))
    assert abs(fit.slope - 0.5) < 1e-12
    assert fit.max_residual < 1e-12


def test_fit_constant_ratios():
    fit = fit_loglog(records_from([8.0, 16.0, 32.0], [2.5, 2.5, 2.5]))
    assert abs(fit.slope) < 1e-13


def test_fit_against_lstsq_oracle(rng):
    lams = [8.0, 24.0, 80.0]
    ratios = [3.0, 1.2, 0.7]
    fit = fit_loglog(records_from(lams, ratios))
    x = np.log(lams)
    design = np.stack([x, np.ones(3)], axis=1)
    slope, intercept = np.linalg.lstsq(design, np.log(ratios), rcond=None)[0]
    assert fit.slope == pytest.approx(slope, abs=1e-12)
    assert fit.intercept == pytest.approx(intercept, abs=1e-12)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_loglog(records_from([8.0], [1.0]))
    recs = records_from([8.0, 16.0], [1.0, 2.0])
    object.__setattr__(recs[0], "ratio", -1.0)
    with pytest.raises(ValueError):
        fit_loglog(recs)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig("smoothing", 2.0, 2, 6.0, 0.0, (16.0,))  # dim != 1
    with pytest.raises(ValueError):
        SweepConfig("smoothing", 2.0, 1, 6.0, 0.0, (32.0, 16.0))  # not increasing
    with pytest.raises(ValueError):
        SweepConfig("airy", 2.0, 1, 6.0, 0.0, (16.0,))  # airy needs alpha = 3
    with pytest.raises(ValueError):
        SweepConfig("maximal", 2.0, 1, 6.0, 0.0, (16.0,), norm_kind="mixed_spacetime")
    with pytest.raises(ValueError):
        SweepRecord(16.0, 8, 1.0, 1, numerator=np.inf, denominator=1.0, ratio=1.0)


@pytest.mark.parametrize("family,alpha,kind", [
    ("smoothing", 2.0, "mixed_spacetime"), ("airy", 3.0, "mixed_spacetime"),
    ("maximal", 3.0, "maximal"),
])
def test_sweep_config_rejects_nonfinite_p(family, alpha, kind):
    for p in (np.inf, np.nan):
        with pytest.raises(ValueError, match="p must be finite"):
            SweepConfig(family, alpha, 1, p, 0.0, (16.0,), norm_kind=kind)


def test_norm_kind_follows_the_family():
    assert SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0,)).norm_kind == "maximal"
    assert SweepConfig("smoothing", 2.0, 1, 6.0, 0.0, (16.0,)).norm_kind == "mixed_spacetime"
    assert SweepConfig("airy", 3.0, 1, 6.0, 0.0, (16.0,)).norm_kind == "mixed_spacetime"
    explicit = SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0,), norm_kind="maximal")
    assert explicit == SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0,))
    with pytest.raises(ValueError, match="pairs with"):
        SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0,), norm_kind="mixed_spacetime")
    with pytest.raises(ValueError, match="pairs with"):
        SweepConfig("smoothing", 2.0, 1, 6.0, 0.0, (16.0,), norm_kind="maximal")
    with pytest.raises(ValueError, match="unknown norm kind"):
        SweepConfig("smoothing", 2.0, 1, 6.0, 0.0, (16.0,), norm_kind="sup")


@pytest.mark.parametrize("family,alpha", [("smoothing", 2.0), ("airy", 3.0), ("maximal", 3.0)])
@pytest.mark.parametrize("lambdas,beta,match", [
    ((16.0, np.inf), 0.0, "lambdas must be finite"),
    ((16.0, np.nan), 0.0, "lambdas must be finite"),
    ((np.inf,), 0.0, "lambdas must be finite"),
    ((16.0, 32.0), np.inf, "beta must be finite"),
    ((16.0, 32.0), -np.inf, "beta must be finite"),
    ((16.0, 32.0), np.nan, "beta must be finite"),
])
def test_sweep_config_rejects_nonfinite_scales_and_beta(family, alpha, lambdas, beta, match):
    with pytest.raises(ValueError, match=match):
        SweepConfig(family, alpha, 1, 6.0, beta, lambdas)


@pytest.mark.parametrize("family", ["smoothing", "maximal"])
@pytest.mark.parametrize("alpha", [np.inf, np.nan, -2.0, 0.0])
def test_sweep_config_rejects_a_nonfinite_or_nonpositive_alpha(family, alpha):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        SweepConfig(family, alpha, 1, 6.0, 0.0, (16.0, 32.0))


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, -0.5])
def test_verdicts_reject_a_nonfinite_or_negative_tolerance(monkeypatch, tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        slope_verdict(records_from([16.0, 32.0], [1.0, 2.0]), 0.0, tolerance)

    def refuse(cfg):
        raise AssertionError("a sweep ran before the tolerance was checked")

    monkeypatch.setattr(harness, "run_sweep", refuse)
    cfg = SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0, 32.0, 64.0, 128.0))
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        verify_maximal_necessary(cfg, tolerance)


def test_single_scale_smoke():
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, 0.0, (16.0,))
    (rec,) = run_sweep(cfg)
    assert rec.ratio > 0 and np.isfinite(rec.ratio)
    assert rec.coverage == pytest.approx(1.0)  # lam^alpha fits inside the horizon


def test_focusing_s_grid_profile():
    s = focusing_s_grid(16.0, 2.0, horizon=1e9)
    assert s[0] == pytest.approx(-256.0)
    assert s[-1] == 0.0
    assert np.all(np.diff(s) > 0)
    fine = s[s >= -4.0]
    assert fine.size >= FOCUSING_SAMPLES - 1


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_focusing_s_grid_is_np_unique_of_its_pieces(alpha):
    """The sort-and-mask dedup gives `np.unique`'s grid bit for bit at the acceptance scales,
    on the profile curve's horizon."""
    horizon = harness.faithful_horizon(harness.unit_profile_grid(), alpha)
    for lam in (16.0, 32.0, 64.0, 128.0, 256.0):
        s_hor = min(lam**alpha, horizon)
        pieces = [np.linspace(-s_hor, 0.0, FOCUSING_SAMPLES),
                  np.linspace(-min(4.0, s_hor), 0.0, FOCUSING_SAMPLES)]
        if s_hor > 8.0:
            pieces.append(-np.logspace(np.log10(4.0), np.log10(s_hor), FOCUSING_SAMPLES))
        s = np.unique(np.round(np.concatenate(pieces), 10))
        want = s[s >= -s_hor * (1 + 1e-12)]
        got = focusing_s_grid(lam, alpha, horizon)
        assert got.tobytes() == want.tobytes()


def test_time_grids_leave_numpy_ma_unimported():
    """`np.unique` imports `numpy.ma` on its first call (10-15 ms on a 2-core Xeon), and
    `numpy.polynomial` costs about 5 ms to import; the time grids import neither."""
    import os
    import subprocess
    import sys

    code = """
import sys
from displab.harness import focusing_s_grid, time_ladder
focusing_s_grid(64.0, 2.0, 1e3)
time_ladder(1e3)
assert "numpy.ma" not in sys.modules
assert "numpy.polynomial" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_gauss_rule_is_leggauss_within_one_ulp():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.all(np.abs(harness._GAUSS_NODES - nodes) <= np.spacing(np.abs(nodes)))
    assert np.all(np.abs(harness._GAUSS_WEIGHTS - weights) <= np.spacing(weights))


@pytest.mark.parametrize("S", [0.3, 1.0, 256.0, 1447.2685805799763])
def test_every_ladder_panel_integrates_degree_15_exactly(S):
    for nodes, weights in zip(*(v.reshape(-1, 8) for v in time_ladder(S))):
        centre, half = 0.5 * (nodes[0] + nodes[-1]), 0.5 * weights.sum()
        for degree in range(16):
            exact = 2.0 * half / (degree + 1) if degree % 2 == 0 else 0.0
            got = ((nodes - centre) / half) ** degree @ weights
            assert got == pytest.approx(exact, rel=0, abs=1e-14 * half)


def test_a_smaller_window_is_a_bitwise_prefix_of_a_larger_one():
    """S = 256 ends on a dyadic edge, so all ten of its panels are panels of the alpha = 2
    horizon's ladder (S = 1447.27), bit for bit."""
    small, large = time_ladder(256.0), time_ladder(1447.2685805799763)
    assert small[0].size == 80 and large[0].size == 104
    for a, b in zip(small, large):
        assert a.tobytes() == b[:a.size].tobytes()


@pytest.mark.parametrize("S, panels", [
    (256.0, 10), (np.nextafter(256.0, np.inf), 10), (256.0 * (1 + 2.0**-9), 10),
    (256.0 * (1 + 2.0**-7), 11), (1.0, 2), (0.75, 2), (np.nextafter(0.5, np.inf), 1), (0.5, 1),
    (0.3, 1), (1e-6, 1),
])
def test_ladder_has_no_empty_panel_or_repeated_node(S, panels):
    """A window end on, just above or well above a dyadic edge, and S <= 1: the panels tile
    [-S, 0] with positive widths, and the nodes run strictly outward inside it."""
    nodes, weights = time_ladder(S)
    assert nodes.size == 8 * panels
    assert np.all(np.diff(nodes) < 0) and nodes[0] < 0 and nodes[-1] > -S
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(S, rel=1e-14)
    assert harness._ladder_edges(S)[-1] == S


@pytest.mark.parametrize("S", [0.0, -1.0, np.inf, np.nan])
def test_ladder_rejects_a_window_end_that_is_not_finite_and_positive(S):
    with pytest.raises(ValueError, match="finite and positive"):
        time_ladder(S)


def refined_ladder(parts):
    """The ladder with every panel cut into ``parts`` equal sub-panels of 8 nodes each."""

    def rule(S):
        edges = harness._ladder_edges(S)
        cuts = edges[:-1, None] + (edges[1:] - edges[:-1])[:, None] * np.arange(parts) / parts
        return harness._gauss_panels(np.append(cuts.ravel(), S))

    return rule


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [2.0, 3.0])
@pytest.mark.parametrize("p", [4.5, 6.0, 12.0])
def test_ladder_matches_the_reference_rule(alpha, p):
    """Eight sub-panels per panel, on the windows of the scales 16 to 256: the ladder's
    integral of the profile-norm curve agrees within 3e-7 relative."""
    curve = harness._profile_curve(alpha, p, False)
    for S in sorted({min(lam**alpha, curve.horizon) for lam in (16.0, 32.0, 64.0, 128.0, 256.0)}):
        rules = [time_ladder(S), refined_ladder(8)(S)]
        curve.fill(np.concatenate([nodes for nodes, _ in rules]))
        got, reference = (float(curve(nodes) @ weights) for nodes, weights in rules)
        assert got == pytest.approx(reference, rel=3e-7), S


@pytest.mark.slow
@pytest.mark.parametrize("family, alpha, p", [
    ("smoothing", 2.0, 4.5), ("smoothing", 2.0, 6.0), ("smoothing", 2.0, 12.0),
    ("smoothing", 3.0, 6.0), ("airy", 3.0, 6.0),
])
def test_halving_every_panel_moves_no_numerator_past_1e_7(monkeypatch, family, alpha, p):
    cfg = SweepConfig(family, alpha, 1, p, 0.0, (16.0, 32.0, 64.0, 128.0, 256.0))
    ladder = run_sweep(cfg)
    monkeypatch.setattr(harness, "time_ladder", refined_ladder(2))
    halved = run_sweep(cfg)
    assert [r.t_count for r in halved] == [2 * r.t_count for r in ladder]
    for a, b in zip(ladder, halved):
        assert b.numerator == pytest.approx(a.numerator, rel=1e-7), a.lam


def test_denominator_scaling_slope():
    beta = 0.25
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, beta, (16.0, 32.0, 64.0, 128.0))
    recs = run_sweep(cfg)
    lams = np.array([r.lam for r in recs])
    dens = np.array([r.denominator for r in recs])
    slope = np.polyfit(np.log(lams), np.log(dens), 1)[0]
    predicted = beta + 1 - 2.0 / 2 + (2.0 - 1) / 6.0
    assert abs(slope - predicted) <= 0.1


def test_verdicts_require_enough_scales():
    cfg = SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0,), norm_kind="maximal")
    with pytest.raises(ValueError, match="4"):
        verify_maximal_necessary(cfg)


def test_verify_sharpness_requirements():
    cfg = SweepConfig("smoothing", 2.0, 1, 3.0, 0.0, (16.0, 32.0, 64.0, 128.0))
    with pytest.raises(ValueError, match="exceed"):
        verify_sharpness(cfg)


def test_determinism():
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, 1 / 3, (16.0, 32.0))
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_datum_rescale_leaves_ratio_invariant():
    """A scaled datum reads the unit profile's curve, so no second curve is filled, and the
    ratios keep their bits: |datum_scale| multiplies numerator and denominator alike."""
    lams = (16.0, 32.0)
    base = run_sweep(SweepConfig("smoothing", 2.0, 1, 6.0, 1 / 3, lams))
    misses = harness._profile_curve.cache_info().misses
    scaled = run_sweep(SweepConfig("smoothing", 2.0, 1, 6.0, 1 / 3, lams, datum_scale=7.3))
    assert harness._profile_curve.cache_info().misses == misses
    assert [r.ratio for r in scaled] == [r.ratio for r in base]
    assert [r.numerator for r in scaled] == [7.3 * r.numerator for r in base]
    assert [r.denominator for r in scaled] == [7.3 * r.denominator for r in base]
    scaled_max = run_sweep(
        SweepConfig("maximal", 3.0, 1, 6.0, 0.25, lams, norm_kind="maximal", datum_scale=3.1)
    )
    base_max = run_sweep(SweepConfig("maximal", 3.0, 1, 6.0, 0.25, lams, norm_kind="maximal"))
    assert [r.ratio for r in scaled_max] == [r.ratio for r in base_max]


@pytest.mark.parametrize("scale", [0.0, np.nan, np.inf, -np.inf])
def test_config_rejects_a_zero_or_nonfinite_datum_scale(scale):
    with pytest.raises(ValueError, match="datum_scale"):
        SweepConfig("smoothing", 2.0, 1, 6.0, 1 / 3, (16.0,), datum_scale=scale)


@pytest.mark.parametrize("sobolev", [False, True])
@pytest.mark.parametrize("route", ["smoothing", "maximal", "direct"])
def test_negative_datum_scale_scales_every_route_by_its_modulus(route, sobolev):
    """Norms are absolutely homogeneous: scale -2 doubles numerator and denominator on every
    route and keeps the ratio's bits."""
    maximal = route == "maximal"
    family, alpha, beta = ("maximal", 3.0, 0.25) if maximal else ("smoothing", 2.0, 1 / 3)
    cfg = SweepConfig(family, alpha, 1, 6.0, beta, (16.0,), use_sobolev_denominator=sobolev)
    negative = SweepConfig(family, alpha, 1, 6.0, beta, (16.0,), use_sobolev_denominator=sobolev,
                           datum_scale=-2.0)
    if route == "direct":
        unit, scaled = direct_smoothing_record(cfg, 16.0), direct_smoothing_record(negative, 16.0)
    else:
        (unit,), (scaled,) = run_sweep(cfg), run_sweep(negative)
    assert scaled.numerator == 2.0 * unit.numerator
    assert scaled.denominator == 2.0 * unit.denominator
    assert scaled.ratio == unit.ratio


def rectangle_rule(lam, alpha):
    """The direct route's times t in [0, 1] and their rectangle-rule weights."""
    t_grid = 1.0 + focusing_s_grid(lam, alpha, lam**alpha) / lam**alpha
    return t_grid, _time_weights(t_grid, (0.0, 1.0))


def ladder_rule(lam, alpha):
    """The sweep's time ladder on the whole window [-lam^alpha, 0], mapped to t in [0, 1]."""
    S = lam**alpha
    nodes, weights = time_ladder(S)
    return 1.0 + nodes / S, weights / S


@pytest.mark.slow
def test_rescaled_engine_matches_direct_route():
    """The unit-profile engine and an honest lam-scale grid agree on the same time nodes."""
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, smoothing_exponent(2, 1, 6), (16.0,))
    rescaled = run_sweep(cfg)[0]
    grid = smoothing_spectrum(ExtremizerSpec(SMOOTHING, 16.0, DispersionParams(2.0, 1))).grid
    numerator, denominator = physical_direct_record(cfg, 16.0, grid, ladder_rule)
    assert numerator == pytest.approx(rescaled.numerator, rel=1e-9)
    assert denominator == pytest.approx(rescaled.denominator, rel=1e-9)


def test_direct_route_is_within_the_rectangle_gap_of_the_sweep():
    """The direct route keeps the rectangle rule on `focusing_s_grid`; at alpha 2, p 6,
    lam 16 its numerator sits 5.68e-5 relative above the ladder's."""
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, smoothing_exponent(2, 1, 6), (16.0,))
    rescaled = run_sweep(cfg)[0]
    direct = direct_smoothing_record(cfg, 16.0)
    assert direct.numerator == pytest.approx(rescaled.numerator, rel=6e-5)
    assert direct.denominator == pytest.approx(rescaled.denominator, rel=1e-9)


def physical_direct_record(cfg, lam, grid, rule):
    """(numerator, denominator) of the direct record, evolved from the physical datum and
    integrated in time by ``rule(lam, alpha)`` -> (t in [0, 1], weights)."""
    params = DispersionParams(cfg.alpha, 1)
    datum = to_physical(smoothing_spectrum(ExtremizerSpec(SMOOTHING, lam, params, grid)))
    if cfg.datum_scale != 1.0:
        datum = datum.with_samples(datum.samples * cfg.datum_scale)
    t_grid, weights = rule(lam, cfg.alpha)
    vals = _power_sums(datum, t_grid, params, cfg.p)[0]
    numerator = float((vals @ weights) ** (1.0 / cfg.p))
    if cfg.use_sobolev_denominator:
        return numerator, sobolev_norm(datum, cfg.p, cfg.beta)
    return numerator, lam**cfg.beta * lp_norm(datum, cfg.p)


@pytest.mark.parametrize("datum_scale, sobolev", [(1.0, False), (1.3, True)])
def test_direct_record_from_the_spectrum_matches_the_physical_datum(datum_scale, sobolev):
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, smoothing_exponent(2, 1, 6), (16.0,),
                      datum_scale=datum_scale, use_sobolev_denominator=sobolev)
    record = direct_smoothing_record(cfg, 16.0)
    grid = GridSpec(1, record.points, record.half_width)
    numerator, denominator = physical_direct_record(cfg, 16.0, grid, rectangle_rule)
    assert record.numerator == pytest.approx(numerator, rel=1e-12, abs=0.0)
    assert record.denominator == pytest.approx(denominator, rel=1e-12, abs=0.0)
    assert record.ratio == pytest.approx(numerator / denominator, rel=1e-12, abs=0.0)


@pytest.mark.slow
def test_sobolev_denominator_agrees_in_slope():
    lams = (16.0, 32.0, 64.0, 128.0)
    beta = smoothing_exponent(2, 1, 6)
    plain = fit_loglog(run_sweep(SweepConfig("smoothing", 2.0, 1, 6.0, beta, lams)))
    bessel = fit_loglog(
        run_sweep(SweepConfig("smoothing", 2.0, 1, 6.0, beta, lams, use_sobolev_denominator=True))
    )
    assert abs(plain.slope - bessel.slope) <= 0.05


def test_subsequence_slope_consistency():
    lams = (16.0, 32.0, 64.0, 128.0, 256.0)
    recs = run_sweep(SweepConfig("smoothing", 2.0, 1, 6.0, smoothing_exponent(2, 1, 6), lams))
    full = fit_loglog(recs)
    for drop in range(len(recs)):
        sub = [r for i, r in enumerate(recs) if i != drop]
        fit = fit_loglog(sub)
        assert abs(fit.slope - full.slope) <= 2.0 * full.max_residual + 1e-9


@pytest.mark.slow
def test_verify_sharpness_all_betas():
    lams = (16.0, 32.0, 64.0, 128.0)
    beta_c = smoothing_exponent(2, 1, 6)
    for shift, expected in ((0.0, 0.0), (-0.2, 0.2), (0.2, -0.2)):
        verdict = verify_sharpness(
            SweepConfig("smoothing", 2.0, 1, 6.0, beta_c + shift, lams), tolerance=0.1
        )
        assert verdict.passed
        assert abs(verdict.slope - expected) <= 0.1


def test_verify_maximal_necessary_contract():
    cfg = SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0, 32.0, 64.0, 128.0),
                      norm_kind="maximal")
    verdict = verify_maximal_necessary(cfg, 0.1)
    assert verdict.passed
    assert verdict.slope >= -0.1  # boundary regularity: non-growing ratio
    assert verdict.fit.slope > 0.1  # weakened weight: strictly growing


@pytest.mark.slow
def test_verify_airy_contract():
    lams = (16.0, 32.0, 64.0, 128.0)
    verdict = verify_airy(SweepConfig("airy", 3.0, 1, 6.0, airy_exponent(6.0), lams), 0.1)
    assert verdict.passed and abs(verdict.slope) <= 0.1
    verdict = verify_airy(SweepConfig("airy", 3.0, 1, 6.0, 0.0, lams), 0.1)
    assert verdict.passed and abs(verdict.slope - 0.5) <= 0.1
    # boundary exponent: p = 4 sits at the zero of the endpoint formula
    verdict = verify_airy(SweepConfig("airy", 3.0, 1, 4.0, 0.0, lams), 0.1)
    assert verdict.passed and abs(verdict.slope) <= 0.1


def random_band_upper_bound_check(alpha: float, p: float, bands) -> float:
    """Spot check of the per-band space-time bound on random band-limited data.

    Returns the largest measured constant
    ||T_k f||_{L^p(dx dt)} / (2^{k beta(p)} ||f||_p) over the requested
    bands; the bound predicts this stays O(1) in the band.  A diagnostic,
    not a certification.
    """
    rng = np.random.default_rng(0)
    beta_p = smoothing_exponent(alpha, 1, p)
    params = DispersionParams(alpha, 1)
    bandpass = make_cutoffs(dim=1).bandpass
    points = 2**12
    worst = 0.0
    for k in bands:
        grid = GridSpec(1, points, np.pi * points / (2 * 2.0 ** (k + 3)))
        coef = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
        raw = Field(grid, FREQUENCY, coef)
        f = to_physical(apply_symbol(raw, lambda xi: bandpass(2.0**-k * np.abs(xi[0]))))
        ts = np.linspace(0.0, 1.0, 65)
        num = (_power_sums(f, ts, params, p)[0] @ _time_weights(ts, (0.0, 1.0))) ** (1.0 / p)
        den = 2.0 ** (k * beta_p) * lp_norm(f, p)
        worst = max(worst, float(num / den))
    return worst


@pytest.mark.slow
def test_random_band_upper_bound_spot_check():
    worst = random_band_upper_bound_check(2.0, 6.0, bands=(3, 4, 5))
    assert worst < 10.0  # stays O(1) across the bands


def test_focusing_window_lower_bound_slope():
    """Mixed norm restricted to |t-1| <= (10 lam^alpha)^-1 grows like lam^{d-(d+alpha)/p}."""
    from displab.extremizers import unit_annulus_field, unit_profile_grid
    from displab.norms import lp_norm as _lp
    from displab.propagator import DispersionParams, evolve
    from displab.spectral import to_physical

    alpha, p = 2.0, 6.0
    grid = unit_profile_grid(2**12)
    profile = unit_annulus_field(grid)
    params = DispersionParams(alpha, 1)
    s = np.linspace(-0.1, 0.0, 17)
    w = np.diff(np.concatenate([[-0.1], 0.5 * (s[1:] + s[:-1]), [0.0]]))
    vals = np.array(
        [_lp(to_physical(evolve(profile, float(si), params)), p) ** p for si in s]
    )
    window_integral = float(vals @ w)
    lams = np.array([16.0, 32.0, 64.0, 128.0])
    norms = lams ** (1 - 1 / p) * (lams**-alpha * window_integral) ** (1 / p)
    slope = np.polyfit(np.log(lams), np.log(norms), 1)[0]
    assert slope >= 1 - (1 + alpha) / p - 0.1


def test_memory_cap_names_smallest_failing_scale(monkeypatch):
    """Budget 65,536 nodes: the datum quadratures at alpha 2, lam 32, 64, 128 and 160 (all
    below the stationary-phase crossover) need 5,884, 21,066, 81,790 and 127,334.  The records
    run in increasing lam, so `chirp_profile` refuses lam 128 first, at scale -128^2.  A norm
    `datum_lp_norm` has cached runs no quadrature, so once lam 128's norms are cached under
    the default budget the cap refuses lam 160 first."""
    from displab.errors import SizingError
    from displab.extremizers import datum_lp_norm

    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, 0.5, (32.0, 64.0, 128.0, 160.0))
    datum_lp_norm.cache_clear()
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "1024")
    with pytest.raises(SizingError, match=r"at scale -1\.64e\+04 needs ~8\.18e\+04 nodes"):
        run_sweep(cfg)
    monkeypatch.delenv("DISPLAB_MAX_GRID_POINTS")
    run_sweep(SweepConfig("smoothing", 2.0, 1, 6.0, 0.5, (128.0,)))
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "1024")
    with pytest.raises(SizingError, match=r"at scale -2\.56e\+04 needs ~1\.27e\+05 nodes"):
        run_sweep(cfg)


def test_a_refused_sweep_evolves_no_frame(monkeypatch):
    """The datum norms run, in increasing lam, before the curve is filled: under a budget of
    65,536 nodes lam 128 is refused without one call of `_power_sums`."""
    from displab.errors import SizingError
    from displab.extremizers import datum_lp_norm

    real, calls = harness._power_sums, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "_power_sums", counting)
    harness._profile_curve.cache_clear()
    datum_lp_norm.cache_clear()
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "1024")
    with pytest.raises(SizingError, match=r"at scale -1\.64e\+04"):
        run_sweep(SweepConfig("smoothing", 2.0, 1, 6.0, 0.5, (32.0, 64.0, 128.0, 160.0)))
    assert calls == []


def test_sweep_sizing_admits_what_the_datum_quadrature_runs(monkeypatch):
    """Budget 2^20: the datum quadrature at alpha 3, lam 16 needs 61,548 nodes, and lam 128
    (S = 2^21) takes the stationary-phase route, which needs none."""
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "16384")
    records = run_sweep(SweepConfig("smoothing", 3.0, 1, 6.0, 0.5, (16.0, 128.0)))
    assert [r.lam for r in records] == [16.0, 128.0]


def test_sweep_runs_alpha_4_to_lam_256_under_the_default_budget(monkeypatch):
    """alpha 4, lam 32 to 256 are stationary-phase scales (S = 2^20 to 2^32), so no node
    budget refuses them; the lam 256 quadrature would need 3.5e9 nodes."""
    monkeypatch.delenv("DISPLAB_MAX_GRID_POINTS", raising=False)
    lams = (32.0, 64.0, 128.0, 256.0)
    records = run_sweep(SweepConfig("smoothing", 4.0, 1, 6.0, smoothing_exponent(4.0, 1, 6.0), lams))
    assert [r.lam for r in records] == list(lams)


def _count_curve_frames(monkeypatch):
    """Record every time the harness sums through the slice routine; fail on any `evolve` call."""
    import displab.harness as harness
    from displab import propagator

    times = []
    real = harness._power_sums

    def counting(field, t, params, p, half_widths=None):
        times.extend(np.asarray(t).tolist())
        return real(field, t, params, p, half_widths)

    def no_single_frames(*args, **kwargs):
        raise AssertionError("a sweep sums every frame in `_power_sums`")

    monkeypatch.setattr(harness, "_power_sums", counting)
    monkeypatch.setattr(propagator, "evolve", no_single_frames)
    harness._profile_curve.cache_clear()
    return times


@pytest.mark.slow
def test_profile_curve_is_shared_across_scales_and_sweeps(monkeypatch):
    """All five alpha = 3 scales share one 88-node time ladder; a second beta reuses it."""
    evaluated = _count_curve_frames(monkeypatch)
    lams = (16.0, 32.0, 64.0, 128.0, 256.0)
    beta = smoothing_exponent(3, 1, 6)
    first = run_sweep(SweepConfig("smoothing", 3.0, 1, 6.0, beta, lams))
    assert len(evaluated) == 88
    assert [r.t_count for r in first] == [88] * 5
    second = run_sweep(SweepConfig("smoothing", 3.0, 1, 6.0, beta - 0.2, lams))
    assert len(evaluated) == 88
    for a, b in zip(first, second):
        assert b.numerator == a.numerator and b.coverage == a.coverage


@pytest.mark.slow
def test_edge_check_evolves_each_horizon_once(monkeypatch):
    """All five alpha = 3 scales stop at the same horizon, evolved once in the curve pass.

    The box-edge check reads the curve's own frames, so it adds no frame:
    the sweep evolves the 88 distinct s of the curve and nothing else.
    """
    import displab.harness as harness

    times = _count_curve_frames(monkeypatch)
    lams = (16.0, 32.0, 64.0, 128.0, 256.0)
    run_sweep(SweepConfig("smoothing", 3.0, 1, 6.0, smoothing_exponent(3, 1, 6), lams))
    horizon = harness._profile_curve(3.0, 6.0, False).horizon
    farthest = {float(time_ladder(min(lam**3.0, horizon))[0][-1]) for lam in lams}
    assert len(farthest) == 1 and times.count(farthest.pop()) == 1
    assert len(times) == len(set(times)) == 88


def test_box_edge_check_fires_past_the_faithful_horizon(monkeypatch):
    """At eight times the faithful horizon the alpha = 3 profile reaches the box edges."""
    import displab.harness as harness
    from displab.errors import SizingError

    real = harness.faithful_horizon
    monkeypatch.setattr(harness, "faithful_horizon", lambda grid, alpha: 8.0 * real(grid, alpha))
    harness._profile_curve.cache_clear()
    try:
        with pytest.raises(SizingError, match="box edge"):
            run_sweep(SweepConfig("smoothing", 3.0, 1, 6.0, 0.5, (16.0, 32.0)))
        assert not harness._profile_curve(3.0, 6.0, False)._values  # nothing kept
    finally:
        harness._profile_curve.cache_clear()  # drop the curve built on the widened horizon


@pytest.mark.parametrize("one_sided", [False, True])
def test_box_edge_check_is_the_full_frame_rule(one_sided):
    """On a 2^12-point profile grid past its horizon, the curve raises SizingError for exactly
    the s where the full frame's N / 64 samples at either end exceed 1e-6 of its peak."""
    from displab.errors import SizingError
    from displab.extremizers import unit_annulus_field, unit_profile_grid
    from displab.propagator import evolve

    curve = harness._ProfileCurve(3.0, 6.0, one_sided)  # not the cached one: its grid changes
    curve.grid = unit_profile_grid(2**12)
    curve.profile = unit_annulus_field(curve.grid, one_sided)
    edge = curve.grid.points // 64
    fired = []
    for s in -np.linspace(0.5, 120.0, 240):  # the rule first fires near s = -55
        frame = np.abs(to_physical(evolve(curve.profile, float(s), curve.params)).samples)
        rule = max(frame[:edge].max(), frame[-edge:].max()) > 1e-6 * frame.max()
        try:
            curve.fill([s])
        except SizingError:
            raised = True
        else:
            raised = False
        assert raised == rule, s
        fired.append(rule)
    assert 0 < sum(fired) < len(fired)


@pytest.mark.parametrize("name", ["DISPLAB_MAX_GRID_POINTS"])
@pytest.mark.parametrize("value", ["abc", "2.5", "0", "-5"])
def test_bad_environment_values_raise(monkeypatch, name, value):
    from displab.errors import EnvironmentSettingError

    monkeypatch.setenv(name, value)
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, 1 / 3, (16.0,))
    with pytest.raises(EnvironmentSettingError, match=name) as info:
        run_sweep(cfg)
    assert info.value.name == name


def test_direct_record_past_the_grid_cap_names_lam(monkeypatch):
    """Under a cap of 1024 points the lam-scale datum grid (2^15 points at alpha 2, lam 16)
    is refused before any array of it is formed, and the error names lam."""
    from displab.errors import SizingError

    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, smoothing_exponent(2.0, 1, 6.0), (16.0, 32.0))
    assert direct_smoothing_record(cfg, 16.0).points == 2**15
    monkeypatch.setenv("DISPLAB_MAX_GRID_POINTS", "1024")
    with pytest.raises(SizingError, match=r"^the smoothing datum at lam=16 needs 32768 points, "
                       r"over the cap of 1024") as err:
        direct_smoothing_record(cfg, 16.0)
    assert err.value.required_points == 2**15


# -- per-frame boxes ------------------------------------------------------------------


def whole_and_boxed(field, t, s, alpha, p, scale=1.0):
    """(whole, boxed, edges): the sums of `_power_sums` on the whole lattice and on the boxes
    `frame_half_width` (s) / ``scale`` gives, and the boxed edge ratios."""
    from displab.extremizers import frame_half_width

    params = DispersionParams(alpha, 1)
    whole = _power_sums(field, t, params, p)[0]
    boxed, edges = _power_sums(field, t, params, p, frame_half_width(s, alpha) / scale)
    return whole, boxed, edges


@pytest.mark.parametrize("p", [2.0, 4.5, 6.0])
@pytest.mark.parametrize("one_sided", [False, True])
@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_boxed_curve_frames_match_the_whole_lattice(alpha, one_sided, p):
    """Every node of the ladder to the unit grid's horizon, and s = 0: each boxed frame is
    within 1e-13 of its whole-lattice sum, and the ladder integral within 1e-14."""
    from displab.extremizers import faithful_horizon, unit_annulus_field, unit_profile_grid

    grid = unit_profile_grid()
    nodes, weights = time_ladder(faithful_horizon(grid, alpha))
    s = np.append(nodes, 0.0)
    whole, boxed, edges = whole_and_boxed(unit_annulus_field(grid, one_sided), s, s, alpha, p)
    np.testing.assert_allclose(boxed, whole, rtol=1e-13, atol=0.0)
    assert boxed[:-1] @ weights == pytest.approx(whole[:-1] @ weights, rel=1e-14, abs=0.0)
    assert edges.max() <= 1e-7


@pytest.mark.slow
@pytest.mark.parametrize("alpha, lam", [(2.0, 16.0), (2.0, 32.0), (3.0, 8.0)])
def test_boxed_direct_frames_match_the_whole_lattice(alpha, lam):
    """The direct record's frames on their boxes, at p 2 and 6: within 1e-13 of the
    whole-lattice sums, and the record's numerator is the boxed one."""
    params = DispersionParams(alpha, 1)
    spectrum = smoothing_spectrum(ExtremizerSpec(SMOOTHING, lam, params))
    s = focusing_s_grid(lam, alpha, lam**alpha)
    t = 1.0 + s / lam**alpha
    for p in (2.0, 6.0):
        whole, boxed, edges = whole_and_boxed(spectrum, t, s, alpha, p, scale=lam)
        np.testing.assert_allclose(boxed, whole, rtol=1e-13, atol=0.0)
        assert edges.max() <= 1e-7
    cfg = SweepConfig("smoothing", alpha, 1, 6.0, 0.0, (lam,))
    w = _time_weights(t, (0.0, 1.0))
    assert direct_smoothing_record(cfg, lam).numerator == float((boxed @ w) ** (1.0 / 6.0))


def test_frames_past_a_lowered_box_floor_raise_on_both_routes(monkeypatch):
    """With the box floor lowered to 2^9 unit-grid points the frames leak out of their boxes
    (curve edge ratios of 3.8e-4 to 1.5e-3 for |s| < 7.6): the curve and the direct route
    both refuse them, the direct error naming lam and the time."""
    from displab import extremizers
    from displab.errors import SizingError

    monkeypatch.setattr(extremizers, "_FRAME_FLOOR_POINTS", 2**9)
    curve = harness._ProfileCurve(2.0, 6.0, False)  # not the cached one: no value is kept
    with pytest.raises(SizingError, match=r"^the evolved unit profile at s = .* reached its box "
                       r"edge \(edge ratio .* > 1e-06\)"):
        curve.fill(time_ladder(64.0)[0])
    assert not curve._values
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, 0.0, (16.0,))
    with pytest.raises(SizingError, match=r"^the lam = 16 frame at t = [\d.]+ reached its box edge "
                       r"\(edge ratio .* > 1e-06\)"):
        direct_smoothing_record(cfg, 16.0)


def test_a_repeated_sweep_runs_no_power_sum(monkeypatch):
    """A sweep whose ladder nodes are all in the curve takes no slice pass."""
    cfg = SweepConfig("smoothing", 2.0, 1, 6.0, 1 / 3, (16.0, 32.0))
    first = run_sweep(cfg)
    real, calls = harness._power_sums, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "_power_sums", counting)
    assert run_sweep(cfg) == first
    assert calls == []


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_frame_half_width_inverts_the_faithful_horizon(alpha):
    """At every node of the ladder to the unit grid's horizon, the box `_power_sums` picks
    for `frame_half_width` has a horizon of at least |s|, and the next smaller box a horizon
    below |s| unless the picked box is the 2^13-point floor."""
    from displab.extremizers import faithful_horizon, frame_half_width, unit_profile_grid
    from displab.propagator import _box_shifts

    grid = unit_profile_grid()
    nodes = time_ladder(faithful_horizon(grid, alpha))[0]
    shifts = _box_shifts(grid, nodes.size, frame_half_width(nodes, alpha))

    def box(shift):
        return GridSpec(1, grid.points >> shift, grid.half_width / 2**shift)

    floor = 0
    for s, shift in zip(nodes, shifts.tolist()):
        assert faithful_horizon(box(shift), alpha) >= abs(s), s
        if box(shift).points == 2**13:
            floor += 1
        else:
            assert faithful_horizon(box(shift + 1), alpha) < abs(s), s
    assert box(shifts.max()).points == 2**13 and 0 < floor < nodes.size
