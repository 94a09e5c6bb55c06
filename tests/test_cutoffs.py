import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from displab.cutoffs import make_cutoffs, smooth_step


def test_step_endpoints():
    step = smooth_step()
    assert step(-1.0) == 0.0
    assert step(0.0) == 0.0
    assert step(1.0) == 1.0
    assert step(2.0) == 1.0
    assert 0.0 < step(0.5) < 1.0
    # complementary symmetry keeps half-line splits exact
    u = np.linspace(0, 1, 101)
    assert np.abs(step(u) + step(1 - u) - 1).max() < 1e-15


@pytest.mark.parametrize("sharpness", [0.5, 1.0, 2.5])
@given(u=st.floats(-1.0, 2.0))
def test_step_and_its_reflection_sum_to_one(sharpness, u):
    step = smooth_step(sharpness)
    assert abs(step(u) + step(1.0 - u) - 1.0) <= 1e-15


def clip_where_step(sharpness=1.0):
    """The step evaluated everywhere through clip and where: the oracle for ``smooth_step``."""

    def step(u):
        u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            rising = np.where(u > 0.0, np.exp(-sharpness / np.where(u > 0.0, u, 1.0)), 0.0)
            falling = np.where(
                u < 1.0, np.exp(-sharpness / np.where(u < 1.0, 1.0 - u, 1.0)), 0.0
            )
            return rising / (rising + falling)

    return step


EDGES = [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0 - 1e-16, 1.0 + 2e-16]


@pytest.mark.parametrize("sharpness", [1.0, 0.3, 2.5])
def test_step_is_bitwise_the_full_formula(rng, sharpness):
    u = np.concatenate([rng.uniform(-0.5, 1.5, 10**5), EDGES])
    step, oracle = smooth_step(sharpness), clip_where_step(sharpness)
    assert np.array_equal(step(u), oracle(u), equal_nan=True)
    grid = np.concatenate([u[:20], EDGES]).reshape(2, 3, 5)
    assert np.array_equal(step(grid), oracle(grid), equal_nan=True)
    for x in EDGES + [0.25, 0.75]:
        value = step(x)
        assert np.ndim(value) == 0
        assert np.array_equal(value, oracle(x), equal_nan=True)


def heaviside_step(sharpness=1.0):
    """The step with its exact 0 and 1 from ``np.heaviside(u - 1, 1)``: the earlier form,
    an oracle for ``smooth_step``'s comparison ``u >= 1``."""

    def step(u):
        u = np.asarray(u, dtype=np.float64)
        out = np.heaviside(u - 1.0, 1.0, out=np.empty_like(u))
        inside = (u > 0.0) & (u < 1.0)
        v = u[inside]
        with np.errstate(over="ignore"):
            rising = np.exp(-sharpness / v)
            falling = np.exp(-sharpness / (1.0 - v))
        out[inside] = rising / (rising + falling)
        return out[()]

    return step


SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.0**-1030,
           -(2.0**-1030), 2.0**-1022, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 0.5]


def same_bits(a, b):
    """Equal values, NaN where NaN, and equal signs, zeros included."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(
        np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b))


@settings(max_examples=200)
@given(
    values=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()), max_size=40),
    sharpness=st.sampled_from([0.3, 1.0, 2.5]),
)
def test_step_is_bitwise_the_heaviside_form(values, sharpness):
    step, oracle = smooth_step(sharpness), heaviside_step(sharpness)
    u = np.array(values, dtype=np.float64)
    assert same_bits(step(u), oracle(u))
    assert same_bits(step(u.reshape(-1, 1)), oracle(u.reshape(-1, 1)))
    for x in values[:8] + SPECIAL:
        got, want = step(x), oracle(x)
        assert type(got) is np.float64 and np.ndim(got) == 0  # a numpy scalar for 0-d input
        assert same_bits(got, want)
        assert same_bits(step(np.array(x)), want)


def full_cell_1d(sharpness):
    """`cell_1d` as the plain formula edge(s + 1/2) - edge(s - 1/2) on every point."""
    step = smooth_step(sharpness)

    def cell_1d(s):
        s = np.asarray(s, dtype=np.float64)
        with np.errstate(over="ignore"):  # |s| near the float maximum overflows to inf
            return step((s + 0.5 + 0.1) / 0.2) - step((s - 0.5 + 0.1) / 0.2)

    return cell_1d


CELL_POINTS = [0.0, 0.39, 0.4, 0.5, 0.6, 0.61, 0.45, 0.55, 1.0, 2.0, np.nan, np.inf, 5e-324]


@settings(max_examples=200)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from(CELL_POINTS + [-v for v in CELL_POINTS]),
            st.floats(-1.0, 1.0),
            st.floats(0.38, 0.62),
            st.floats(-0.62, -0.38),
            st.floats(),
        ),
        max_size=40,
    ),
    sharpness=st.sampled_from([0.3, 1.0, 2.5]),
)
def test_cell_profile_is_bitwise_the_full_formula(values, sharpness):
    """`cell_1d` runs its steps only on the ramps 0.39 < |s| < 0.61 and writes exact 1.0 and
    0.0 elsewhere, with the bits of the full formula, NaN and 0-d input included."""
    cell_1d, oracle = make_cutoffs(sharpness).cell_1d, full_cell_1d(sharpness)
    s = np.array(values, dtype=np.float64)
    assert same_bits(cell_1d(s), oracle(s))
    assert same_bits(cell_1d(s.reshape(-1, 1)), oracle(s.reshape(-1, 1)))
    for x in values[:8] + CELL_POINTS:
        got = cell_1d(x)
        assert type(got) is np.float64 and np.ndim(got) == 0  # a numpy scalar for 0-d input
        assert same_bits(got, oracle(x))


def test_annulus_plateau_and_support():
    cut = make_cutoffs()
    assert cut.annulus(0.9) > 0.0
    assert cut.annulus(0.9) <= 1.0
    assert cut.annulus(1.0) == 1.0
    assert cut.annulus(2.0**-0.5) == 1.0
    assert cut.annulus(2.0**0.5) == 1.0
    assert cut.annulus(0.4) == 0.0
    assert cut.annulus(0.5) == 0.0
    assert cut.annulus(2.0) == 0.0
    assert cut.annulus(2.1) == 0.0
    assert cut.annulus(-1.0) == 1.0  # radial in its argument


def test_lowpass_bandpass_partition(rng):
    cut = make_cutoffs()
    K = 9
    r = rng.uniform(0.0, 2.0 ** (K - 1), 1000)
    total = cut.lowpass_sum(r, K)
    assert np.abs(total - 1.0).max() <= 1e-12
    # bandpass support: (1/2, 2)
    assert cut.bandpass(0.5) == 0.0
    assert cut.bandpass(2.0) == 0.0
    assert cut.bandpass(1.0) > 0.99


def test_cell_translates_sum_to_one(rng):
    for dim, count in ((1, 500), (2, 500), (3, 120)):
        cut = make_cutoffs(dim=dim)
        pts = rng.uniform(-3.0, 3.0, size=(dim, count))
        total = np.zeros(count)
        for idx in np.ndindex(*([9] * dim)):
            n = np.asarray(idx) - 4
            total += cut.cell(pts - n.reshape(dim, *([1] * (pts.ndim - 1))))
        assert np.abs(total - 1.0).max() <= 1e-12


def test_cell_plateau_and_support():
    cut = make_cutoffs()
    assert cut.cell_1d(0.0) == 1.0
    assert cut.cell_1d(0.4) == pytest.approx(1.0, abs=1e-15)
    assert cut.cell_1d(0.6) == 0.0
    assert cut.cell_1d(-0.6) == 0.0


def test_diagonal_lowpass_radii():
    for dim in (1, 2, 3):
        cut = make_cutoffs(dim=dim)
        s = 8.0 * np.sqrt(dim)
        assert cut.diagonal_lowpass(s) == 1.0
        assert cut.diagonal_lowpass(0.0) == 1.0
        assert cut.diagonal_lowpass(2 * s) == 0.0
        assert 0.0 < cut.diagonal_lowpass(1.5 * s) < 1.0


def test_sharpness_knob_preserves_identities(rng):
    cut = make_cutoffs(smoothness_scale=2.5)
    r = rng.uniform(0.0, 32.0, 300)
    assert np.abs(cut.lowpass_sum(r, 7) - 1.0).max() <= 1e-12
    with pytest.raises(ValueError):
        make_cutoffs(smoothness_scale=-1.0)


def test_band_symbol_support():
    cut = make_cutoffs()
    xi = np.stack([np.linspace(-20, 20, 801)])
    k = 3
    vals = cut.bandpass(2.0**-k * np.abs(xi[0]))
    r = np.abs(xi[0])
    assert vals[(r < 2.0 ** (k - 1)) | (r > 2.0 ** (k + 1))].max() == 0.0
