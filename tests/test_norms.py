import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from displab.grid import FREQUENCY, PHYSICAL, Field, GridSpec
from displab.norms import (
    admissibility_threshold,
    airy_exponent,
    lp_norm,
    maximal_exponent,
    maximal_necessary_exponent,
    mixed_spacetime_norm,
    smoothing_exponent,
    sobolev_norm,
)
from displab.propagator import DispersionParams, Trajectory, evolve_trajectory
from displab.spectral import to_physical


def test_constant_field_norm():
    g = GridSpec(1, 64, 5.0)
    c = 3.0 - 4.0j
    f = Field(g, PHYSICAL, np.full(64, c))
    for p in (1.0, 2.0, 6.0):
        assert lp_norm(f, p) == pytest.approx(5.0 * (2 * g.half_width) ** (1 / p))
    assert lp_norm(f, np.inf) == pytest.approx(5.0)


def test_gaussian_l2_against_quadrature():
    g = GridSpec(1, 512, 20.0)
    f = Field.from_function(g, lambda x: np.exp(-x[0] ** 2 / 2.0))
    oracle = quad(lambda x: np.exp(-(x**2)), -20, 20)[0] ** 0.5
    assert abs(lp_norm(f, 2.0) - oracle) / oracle < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-50, max_value=50).filter(lambda c: abs(c) > 1e-3),
       st.sampled_from([1.0, 2.0, 3.0, 6.0]))
def test_absolute_homogeneity(c, p):
    g = GridSpec(1, 32, 2.0)
    rng = np.random.default_rng(5)
    f = Field(g, PHYSICAL, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    scaled = f.with_samples(c * f.samples)
    assert lp_norm(scaled, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)


def test_holder_consistency(rng):
    g = GridSpec(1, 128, 3.0)
    f = Field(g, PHYSICAL, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    vol = 2.0 * g.half_width
    for p, r in ((1.0, 2.0), (2.0, 6.0), (4.0, np.inf)):
        lhs = lp_norm(f, p)
        scale = vol ** (1 / p - (0 if np.isinf(r) else 1 / r))
        assert lhs <= scale * lp_norm(f, r) * (1 + 1e-10)


def _gaussian_trajectory(t_samples):
    g = GridSpec(1, 256, 15.0)
    f = Field.from_function(g, lambda x: np.exp(-x[0] ** 2 / 2.0))
    return evolve_trajectory(f, t_samples, DispersionParams(2.0, 1))


def test_mixed_norm_single_frame():
    traj = _gaussian_trajectory([0.4])
    assert mixed_spacetime_norm(traj, 4.0, (0.0, 1.0)) == pytest.approx(
        lp_norm(traj.frames[0], 4.0)
    )


def test_mixed_norm_time_constant():
    g = GridSpec(1, 64, 4.0)
    f = Field.from_function(g, lambda x: np.exp(-x[0] ** 2))
    frames = (f, f, f)
    traj = Trajectory(g, (0.0, 0.5, 1.0), frames)
    length = 2.5
    got = mixed_spacetime_norm(traj, 3.0, (0.0, length))
    assert got == pytest.approx(lp_norm(f, 3.0) * length ** (1 / 3.0))


def test_mixed_norm_time_refinement_consistency():
    coarse = mixed_spacetime_norm(_gaussian_trajectory(np.linspace(0, 1, 33)), 4.0, (0.0, 1.0))
    fine = mixed_spacetime_norm(_gaussian_trajectory(np.linspace(0, 1, 65)), 4.0, (0.0, 1.0))
    assert abs(fine - coarse) / fine < 0.01


def maximal_norm(traj, p: float) -> float:
    """L^p norm of the pointwise sup of a trajectory's frames over its sampled times."""
    sup = np.abs(traj.frames[0].samples).copy()
    for fr in traj.frames[1:]:
        np.maximum(sup, np.abs(fr.samples), out=sup)
    return lp_norm(traj.frames[0].with_samples(sup), p)


def test_maximal_norm_basics():
    traj = _gaussian_trajectory(np.linspace(0, 1, 17))
    m = maximal_norm(traj, 4.0)
    for frame in traj.frames:
        assert m >= lp_norm(frame, 4.0) - 1e-12
    single = _gaussian_trajectory([0.3])
    assert maximal_norm(single, 4.0) == pytest.approx(lp_norm(single.frames[0], 4.0))


def test_maximal_norm_refinement_consistency():
    coarse = maximal_norm(_gaussian_trajectory(np.linspace(0, 1, 33)), 4.0)
    fine = maximal_norm(_gaussian_trajectory(np.linspace(0, 1, 65)), 4.0)
    assert abs(fine - coarse) / fine < 0.01


def test_sobolev_norm_beta_zero_and_single_mode(rng):
    g = GridSpec(1, 128, 6.0)
    f = Field(g, PHYSICAL, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    assert sobolev_norm(f, 3.0, 0.0) == lp_norm(f, 3.0)
    xi0 = 7 * g.frequency_spacing
    pw = Field.from_function(g, lambda x: np.exp(1j * xi0 * x[0]))
    assert sobolev_norm(pw, 4.0, 2.0) == pytest.approx((1 + xi0**2) * lp_norm(pw, 4.0), rel=1e-10)


def test_sobolev_annulus_equivalence(rng):
    lam = 32.0
    g = GridSpec(1, 1024, 20.0)
    mesh = g.frequency_mesh()[0]
    coef = np.where((np.abs(mesh) > lam / 2) & (np.abs(mesh) < 2 * lam),
                    rng.standard_normal(1024) + 1j * rng.standard_normal(1024), 0.0)
    f = to_physical(Field(g, FREQUENCY, coef))
    for p in (2.0, 6.0):
        for beta in (0.5, 1.0, -1.0):
            ratio = sobolev_norm(f, p, beta) / (lam**beta * lp_norm(f, p))
            slack = 1.15
            assert 2.0 ** -abs(beta) / slack <= ratio <= 2.0 ** abs(beta) * slack


# -- exponent formulas --------------------------------------------------------------


def test_smoothing_exponent_values():
    assert smoothing_exponent(2, 1, 6) == pytest.approx(1.0 / 3.0)
    assert smoothing_exponent(2, 1, 4) == pytest.approx(0.0)
    assert smoothing_exponent(3, 1, 6) == pytest.approx(0.5)
    big = smoothing_exponent(2.0, 3, 1e12)
    assert big == pytest.approx(2.0 * 3 / 2.0, rel=1e-10)  # p -> inf limit: alpha d / 2


def test_maximal_exponent_values():
    assert maximal_exponent(2, 1, 4) == pytest.approx(0.5)
    assert maximal_exponent(2, 1, 2) == 0.0
    assert maximal_exponent(3, 1, 6) == pytest.approx(1.0)


def test_airy_exponent_values():
    assert airy_exponent(4) == 0.0
    assert airy_exponent(6) == pytest.approx(0.5)
    assert airy_exponent(12) == pytest.approx(1.0)


def test_admissibility_threshold_values():
    assert admissibility_threshold(1) == pytest.approx(4.0)
    assert admissibility_threshold(2) == pytest.approx(10.0 / 3.0)
    assert admissibility_threshold(10**9) == pytest.approx(2.0, abs=1e-8)


def test_maximal_necessary_values():
    assert maximal_necessary_exponent(2, 4) == pytest.approx(0.25)
    assert maximal_necessary_exponent(3, 6) == pytest.approx(0.25)
    # strictly below the sufficient exponent on sample admissible queries
    for alpha, dim, p in ((2.0, 1, 5.0), (3.0, 1, 6.0), (1.5, 2, 4.0)):
        assert maximal_necessary_exponent(alpha, p) < maximal_exponent(alpha, dim, p)


@pytest.mark.parametrize("p", [0.0, 0.5, -6.0, np.inf, np.nan])
@pytest.mark.parametrize("formula", [
    lambda p: smoothing_exponent(2.0, 1, p),
    lambda p: maximal_exponent(2.0, 1, p),
    airy_exponent,
    lambda p: maximal_necessary_exponent(2.0, p),
], ids=["smoothing", "maximal", "airy", "maximal_necessary"])
def test_exponent_formulas_reject_p_outside_their_range(formula, p):
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        formula(p)


@pytest.mark.parametrize("alpha", [0.0, -2.0, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("formula", [
    lambda alpha: smoothing_exponent(alpha, 1, 6.0),
    lambda alpha: maximal_exponent(alpha, 1, 6.0),
    lambda alpha: maximal_necessary_exponent(alpha, 6.0),
], ids=["smoothing", "maximal", "maximal_necessary"])
def test_exponent_formulas_reject_alpha_outside_their_range(formula, alpha):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        formula(alpha)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1.01, max_value=10.0),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=2.0, max_value=50.0),
)
def test_exponent_identity(alpha, dim, p):
    lhs = smoothing_exponent(alpha, dim, p) + alpha / p
    assert abs(lhs - maximal_exponent(alpha, dim, p)) < 1e-14
