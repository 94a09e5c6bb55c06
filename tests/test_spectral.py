import numpy as np
import pytest

from displab.errors import GridAdequacyError, RepresentationError
from displab.grid import FREQUENCY, PHYSICAL, Field, GridSpec
from displab.norms import lp_norm
from displab.spectral import (
    apply_symbol,
    dft_forward,
    dft_inverse,
    dft_inverse_samples,
    ensure_headroom,
    spectral_radius,
)


def slow_dft(field: Field) -> np.ndarray:
    """O(N^2) direct summation oracle for the forward transform."""
    g = field.grid
    x = g.point_mesh().reshape(g.dim, -1)
    xi = g.frequency_mesh().reshape(g.dim, -1)
    phases = np.exp(-1j * (xi.T @ x))
    return (phases @ field.samples.reshape(-1)) * g.cell_volume


def fftfreq_parity(grid: GridSpec) -> np.ndarray:
    """Oracle for the transforms' sign: the signed wrapped indices from ``fftfreq``, then their parity."""
    m = np.rint(np.fft.fftfreq(grid.points) * grid.points).astype(np.int64)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    out = sign
    for _ in range(grid.dim - 1):
        out = np.multiply.outer(out, sign)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transform_parity_is_the_fftfreq_construction(dim):
    """Both transforms apply (-1)^(m_1 + ... + m_d) exactly as a sign-lattice product would."""
    rng = np.random.default_rng(dim)
    for log2_points in range(3, 13):
        if dim * log2_points > 20:  # keep each transformed lattice within 2^20 entries
            break
        grid = GridSpec(dim, 2**log2_points, 1.0)
        sign = fftfreq_parity(grid)
        samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        forward = dft_forward(Field(grid, PHYSICAL, samples)).samples
        assert np.array_equal(forward, grid.cell_volume * sign * np.fft.fftn(samples))
        inverse = dft_inverse(Field(grid, FREQUENCY, samples)).samples
        assert np.array_equal(inverse, np.fft.ifftn(samples * sign) / grid.cell_volume)
        stacked = np.stack([samples, samples[::-1]])
        want = np.fft.ifftn(stacked * sign, axes=tuple(range(-dim, 0))) / grid.cell_volume
        assert np.array_equal(dft_inverse_samples(grid, stacked), want)
        assert np.array_equal(stacked[0], samples)  # the caller's spectra are left as they were


def test_delta_transform():
    g = GridSpec(1, 32, 5.0)
    samples = np.zeros(32, dtype=complex)
    samples[16] = 1.0  # the x = 0 cell
    fhat = dft_forward(Field(g, PHYSICAL, samples))
    assert np.abs(fhat.samples - g.cell_volume).max() < 1e-14


def test_lattice_mode_orthogonality():
    g = GridSpec(1, 64, 7.0)
    m0 = 5
    xi0 = m0 * g.frequency_spacing
    f = Field.from_function(g, lambda x: np.exp(1j * xi0 * x[0]))
    fhat = dft_forward(f)
    expected = np.zeros(64)
    expected[m0] = 2.0 * g.half_width
    assert np.abs(fhat.samples - expected).max() < 1e-11


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 64), (2, 16), (2, 32)])
def test_forward_matches_direct_sum(dim, n, rng):
    g = GridSpec(dim, n, 3.0)
    f = Field(g, PHYSICAL, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    fast = dft_forward(f).samples.reshape(-1)
    slow = slow_dft(f)
    assert np.abs(fast - slow).max() / np.abs(slow).max() < 1e-12


def test_round_trip(rng):
    g = GridSpec(1, 32, 2.0)
    f = Field(g, PHYSICAL, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    back = dft_inverse(dft_forward(f))
    assert np.abs(back.samples - f.samples).max() <= 1e-12 * np.abs(f.samples).max()


def test_wrong_representation_raises(rng):
    g = GridSpec(1, 16, 1.0)
    f = Field(g, FREQUENCY, rng.standard_normal(16))
    with pytest.raises(RepresentationError):
        dft_forward(f)
    with pytest.raises(RepresentationError):
        dft_inverse(dft_inverse(f))


def test_single_mode_inverse():
    g = GridSpec(1, 32, 4.0)
    m0 = 3
    spectrum = np.zeros(32, dtype=complex)
    spectrum[m0] = 2.0 * g.half_width
    f = dft_inverse(Field(g, FREQUENCY, spectrum))
    xi0 = m0 * g.frequency_spacing
    expected = np.exp(1j * xi0 * g.axis_points())
    assert np.abs(f.samples - expected).max() < 1e-12


def test_discrete_plancherel(rng):
    for dim in (1, 2):
        g = GridSpec(dim, 32, 6.0)
        f = Field(g, PHYSICAL, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        fhat = dft_forward(f)
        lhs = lp_norm(f, 2.0) ** 2
        rhs = (2.0 * np.pi) ** -dim * lp_norm(fhat, 2.0) ** 2
        assert abs(lhs - rhs) / lhs < 1e-10


def test_apply_symbol_identity_and_eigenfunction(rng):
    g = GridSpec(1, 64, 8.0)
    f = Field(g, PHYSICAL, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    out = apply_symbol(f, lambda xi: np.ones_like(xi[0]))
    assert np.abs(out.samples - f.samples).max() < 1e-12 * np.abs(f.samples).max()

    xi0 = 4 * g.frequency_spacing
    t = 0.37
    pw = Field.from_function(g, lambda x: np.exp(1j * xi0 * x[0]))
    out = apply_symbol(pw, lambda xi: np.exp(1j * t * xi[0] ** 2))
    assert np.abs(out.samples - np.exp(1j * t * xi0**2) * pw.samples).max() < 1e-12


def test_apply_symbol_matches_masking_oracle(rng):
    g = GridSpec(1, 8, 2.0)
    f = Field(g, PHYSICAL, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    mask = lambda xi: (np.abs(xi[0]) < 2.0).astype(float)  # noqa: E731
    out = apply_symbol(f, mask)
    spectrum = dft_forward(f).samples * (np.abs(g.axis_frequencies()) < 2.0)
    oracle = dft_inverse(Field(g, FREQUENCY, spectrum))
    assert np.abs(out.samples - oracle.samples).max() < 1e-12


def test_apply_symbol_rejects_nonfinite():
    g = GridSpec(1, 16, 2.0)
    f = Field.zeros(g)
    with pytest.raises(ValueError, match="non-finite"), np.errstate(divide="ignore"):
        apply_symbol(f, lambda xi: 1.0 / xi[0])


def test_unimodular_symbol_preserves_l2(rng):
    g = GridSpec(1, 128, 5.0)
    f = Field(g, PHYSICAL, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    out = apply_symbol(f, lambda xi: np.exp(1j * np.sin(np.sqrt((xi**2).sum(axis=0)))))
    assert abs(lp_norm(out, 2.0) - lp_norm(f, 2.0)) / lp_norm(f, 2.0) < 1e-12


@pytest.mark.parametrize("dim, points", [(1, 256), (2, 64), (3, 16)])
def test_spectral_radius_is_the_mesh_formula(dim, points, rng):
    g = GridSpec(dim, points, 3.0)
    mesh = g.frequency_mesh()
    for _ in range(5):
        coef = np.zeros(g.shape, dtype=complex)
        picks = rng.choice(g.size, 7, replace=False)
        coef.reshape(-1)[picks] = rng.standard_normal(7) * 10.0 ** rng.integers(-12, 1, 7)
        f = Field(g, FREQUENCY, coef)
        mag = np.abs(coef)
        active = mag > 1e-9 * mag.max()
        oracle = max(float(np.abs(mesh[a][active]).max()) for a in range(dim))
        assert spectral_radius(f) == oracle


@pytest.mark.parametrize("dim, points, half_width", [(1, 2**12, 3.0), (2, 64, 40.0), (3, 16, 0.5)])
def test_full_lattice_spectra_stay_within_nyquist(dim, points, half_width, rng):
    """No lattice frequency exceeds nyquist, so a headroom factor of 1 always holds: `evolve`
    and `evolve_trajectory` skip that scan."""
    g = GridSpec(dim, points, half_width)
    f = Field(g, FREQUENCY, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    assert spectral_radius(f) <= g.nyquist
    assert ensure_headroom(f, factor=1.0) <= g.nyquist


def test_headroom_validation(rng):
    g = GridSpec(1, 64, 8.0)
    xi0 = 10 * g.frequency_spacing
    f = Field.from_function(g, lambda x: np.exp(1j * xi0 * x[0]))
    assert spectral_radius(f) == pytest.approx(xi0)
    ensure_headroom(f, factor=1.0)
    with pytest.raises(GridAdequacyError):
        ensure_headroom(f, factor=4.0)
