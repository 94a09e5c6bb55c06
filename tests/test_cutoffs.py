import numpy as np
import pytest
from hypothesis import given
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
