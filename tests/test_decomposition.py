import dataclasses

import numpy as np
import pytest

from displab.cutoffs import make_cutoffs
from displab.decomposition import (
    bilinear_piece,
    bilinear_reconstruction_residual,
    bilinear_restriction_ratio,
    extension_trajectory,
    relevant_piece_indices,
    separation_weight,
    support_separation,
)
from displab.errors import EllipticityError, SeparationError, TractabilityError
from displab.grid import FREQUENCY, Field, GridSpec
from displab.norms import lp_norm, mixed_spacetime_norm
from displab.propagator import (
    DispersionParams,
    Trajectory,
    evolve,
    make_elliptic_phase,
    quadratic_phase,
)
from displab.spectral import apply_symbol, dft_inverse, to_frequency, to_physical
from test_propagator import elliptic_evolve


# -- dyadic bands and cube projections, applied with apply_symbol (d = 1) -----------------


def annulus_field(grid, rng, lo=0.9, hi=1.1):
    mesh = grid.frequency_mesh()[0]
    coef = np.where((np.abs(mesh) > lo) & (np.abs(mesh) < hi),
                    rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points), 0.0)
    return to_physical(Field(grid, FREQUENCY, coef))


def band_project(field, k):
    """Dyadic band k: lowpass(|xi|) for k = 0, bandpass(2^-k |xi|) else."""
    cut = make_cutoffs(dim=1)
    if k == 0:
        return apply_symbol(field, lambda xi: cut.lowpass(np.abs(xi[0])))
    return apply_symbol(field, lambda xi: cut.bandpass(2.0**-k * np.abs(xi[0])))


def cube_project(field, j, n, lam):
    """Cube member n of side 2^j lam^(-1/2): cell(xi / side - n)."""
    cut = make_cutoffs(dim=1)
    side = 2.0**j / np.sqrt(lam)
    return apply_symbol(field, lambda xi: cut.cell(np.asarray(xi) / side - n))


def active_cubes(field, j, lam, rel_tol=1e-13):
    """Indices n of the cube members that can overlap the field's active spectrum."""
    mag = np.abs(to_frequency(field).samples)
    active = field.grid.frequency_mesh()[0][mag > rel_tol * mag.max()] / (2.0**j / np.sqrt(lam))
    return range(int(np.floor(active.min() - 0.6)), int(np.ceil(active.max() + 0.6)) + 1)


def test_thin_annulus_splits_between_bands(rng):
    g = GridSpec(1, 512, 40.0)
    f = annulus_field(g, rng)
    b0 = band_project(f, 0)
    b1 = band_project(f, 1)
    rest = band_project(f, 2)
    scale = np.abs(f.samples).max()
    assert np.abs(b0.samples + b1.samples - f.samples).max() <= 1e-12 * scale
    assert np.abs(rest.samples).max() <= 1e-12 * scale


def test_band_telescoping(rng):
    g = GridSpec(1, 1024, 32.0)
    mesh = g.frequency_mesh()[0]
    coef = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    coef[np.abs(mesh) > 8.0] = 0.0  # spectrum below 2^(K-1) with K = 4
    f = to_physical(Field(g, FREQUENCY, coef))
    total = np.zeros(1024, dtype=complex)
    for k in range(0, 5):
        total += band_project(f, k).samples
    assert np.abs(total - f.samples).max() <= 1e-12 * np.abs(f.samples).max()


def test_band_energy_overlap_window(rng):
    g = GridSpec(1, 1024, 32.0)
    mesh = g.frequency_mesh()[0]
    coef = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    coef[np.abs(mesh) > 8.0] = 0.0
    f = to_physical(Field(g, FREQUENCY, coef))
    energy = sum(lp_norm(band_project(f, k), 2.0) ** 2 for k in range(5))
    total = lp_norm(f, 2.0) ** 2
    assert 0.5 * total <= energy <= 2.0 * total


def test_evolve_band_is_composition(rng):
    """Evolving a band projection is the one multiplier bandpass(2^-k |xi|) e^{i t |xi|^2}."""
    g = GridSpec(1, 512, 40.0)
    f = annulus_field(g, rng)
    bandpass = make_cutoffs(dim=1).bandpass
    lhs = apply_symbol(f, lambda xi: bandpass(0.5 * np.abs(xi[0])) * np.exp(0.6j * xi[0] ** 2))
    rhs = evolve(band_project(f, 1), 0.6, DispersionParams(2.0, 1))
    assert np.abs(lhs.samples - rhs.samples).max() < 1e-13


def test_cube_reconstruction(rng):
    g = GridSpec(1, 1024, 32.0)
    mesh = g.frequency_mesh()[0]
    coef = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    coef[np.abs(mesh) > 8.0] = 0.0
    f = to_physical(Field(g, FREQUENCY, coef))
    total = np.zeros(1024, dtype=complex)
    for n in active_cubes(f, 2, 64.0):
        total += cube_project(f, 2, n, 64.0).samples
    assert np.abs(total - f.samples).max() <= 1e-12 * np.abs(f.samples).max()


def test_cube_plateau_captures_narrow_data(rng):
    lam, j = 64.0, 1
    side = 2.0**j / np.sqrt(lam)  # 0.25
    g = GridSpec(1, 1024, 64 * np.pi)  # frequency spacing 1/64
    mesh = g.frequency_mesh()[0]
    center = 8 * side  # center of cube n=8
    coef = np.where(np.abs(mesh - center) < 0.15 * side,
                    rng.standard_normal(1024) + 1j * rng.standard_normal(1024), 0.0)
    f = to_physical(Field(g, FREQUENCY, coef))
    captured = cube_project(f, j, 8, lam)
    assert np.abs(captured.samples - f.samples).max() <= 1e-12 * np.abs(f.samples).max()
    far = cube_project(f, j, 11, lam)
    assert np.abs(far.samples).max() <= 1e-12 * np.abs(f.samples).max()


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_cube_lp_stability(p, rng):
    g = GridSpec(1, 1024, 32.0)
    mesh = g.frequency_mesh()[0]
    coef = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    coef[np.abs(mesh) > 4.0] = 0.0
    f = to_physical(Field(g, FREQUENCY, coef))
    total = sum(lp_norm(cube_project(f, 1, n, 64.0), p) ** p for n in active_cubes(f, 1, 64.0))
    assert total ** (1.0 / p) <= 4.0 * lp_norm(f, p)


# -- the near-diagonal bilinear split ------------------------------------------------------


def test_separation_weight_support_and_telescoping(rng):
    lam = 256.0
    xi = np.stack([rng.uniform(-4, 4, 400)])
    eta = np.stack([rng.uniform(-4, 4, 400)])
    total = sum(separation_weight(j, lam, xi, eta) for j in range(12))
    assert np.abs(total - 1.0).max() <= 1e-12
    # support of the j-th weight: 4 sqrt(d) 2^j lam^{-1/2} <= |xi - eta| <= 16 sqrt(d) ...
    j = 3
    gap = np.abs(xi[0] - eta[0])
    w = separation_weight(j, lam, xi, eta)
    lo = 4.0 * 2.0**j / np.sqrt(lam)
    hi = 16.0 * 2.0**j / np.sqrt(lam)
    assert np.all(w[(gap < lo) | (gap > hi)] == 0.0)
    # the diagonal weight is 1 on the diagonal
    same = np.stack([np.array([0.3])])
    assert separation_weight(0, lam, same, same) == pytest.approx(1.0)


def _mode_field(grid, positions, values):
    coef = np.zeros(grid.points, dtype=complex)
    mesh = grid.frequency_mesh()[0]
    for xi0, v in zip(positions, values):
        coef[np.argmin(np.abs(mesh - xi0))] = v
    return Field(grid, FREQUENCY, coef)


def test_bilinear_two_mode_case():
    g = GridSpec(1, 256, 100.0)
    lam = 256.0
    ep = quadratic_phase()
    f = _mode_field(g, [0.4], [1.0])
    h = _mode_field(g, [0.4 + 6.0 / np.sqrt(lam)], [1.0])  # separation inside the j=1 shell
    ts = [0.3]
    contributions = {}
    total = np.zeros((1, 256), dtype=complex)
    for j in relevant_piece_indices(f, h, lam):
        piece = bilinear_piece(f, h, j, lam, ts, ep)
        contributions[j] = np.abs(piece.values).max()
        total += piece.values
    # exactly the pieces straddling the separation 6 lam^{-1/2} contribute
    assert sum(1 for v in contributions.values() if v > 1e-14) in (1, 2)

    prod = (
        to_physical(elliptic_evolve(f, 0.3, ep)).samples
        * to_physical(elliptic_evolve(h, 0.3, ep)).samples
    )
    assert np.abs(total[0] - prod).max() <= 1e-12 * np.abs(prod).max()


def test_bilinear_vanishes_for_large_j():
    g = GridSpec(1, 256, 100.0)
    ep = quadratic_phase()
    f = _mode_field(g, [0.4], [1.0])
    h = _mode_field(g, [0.5], [1.0])
    piece = bilinear_piece(f, h, 13, 256.0, [0.0], ep)
    assert np.abs(piece.values).max() == 0.0


def test_bilinear_reconstruction_residual(rng):
    g = GridSpec(1, 512, 160.0)
    mesh = g.frequency_mesh()[0]
    ep = quadratic_phase()
    idx = np.flatnonzero(np.abs(mesh) < 1.0)
    for seed in range(3):
        r = np.random.default_rng(seed)
        cf = np.zeros(512, dtype=complex)
        cg = np.zeros(512, dtype=complex)
        cf[r.choice(idx, 64, replace=False)] = r.standard_normal(64) + 1j * r.standard_normal(64)
        cg[r.choice(idx, 64, replace=False)] = r.standard_normal(64) + 1j * r.standard_normal(64)
        f, h = Field(g, FREQUENCY, cf), Field(g, FREQUENCY, cg)
        assert bilinear_reconstruction_residual(f, h, 256.0, [0.0, 0.5, 1.0], ep) <= 1e-10


def per_time_residual(f, g, lam, t_samples, ep):
    """Oracle for ``bilinear_reconstruction_residual``: each factor through `elliptic_evolve`
    one time at a time."""
    ts = tuple(float(t) for t in t_samples)
    product = np.array([to_physical(elliptic_evolve(f, t, ep)).samples
                        * to_physical(elliptic_evolve(g, t, ep)).samples for t in ts])
    total = np.zeros_like(product)
    for j in relevant_piece_indices(f, g, lam):
        total += bilinear_piece(f, g, j, lam, ts, ep).values
    return float(np.abs(product - total).max() / np.abs(product).max())


def test_bilinear_residual_evolves_each_factor_once_as_the_per_time_route(monkeypatch):
    """One amplified spectrum and one trajectory per factor give the per-time residual."""
    from displab import decomposition

    g = GridSpec(1, 512, 160.0)
    idx = np.flatnonzero(np.abs(g.frequency_mesh()[0]) < 1.0)
    r = np.random.default_rng(7)
    factors = []
    for _ in range(2):
        coef = np.zeros(512, dtype=complex)
        coef[r.choice(idx, 64, replace=False)] = r.standard_normal(64) + 1j * r.standard_normal(64)
        factors.append(Field(g, FREQUENCY, coef))
    f, h = factors[0], dft_inverse(factors[1])  # one factor in each representation
    ep, ts = quadratic_phase(), [0.0, 0.5, 1.0]
    oracle = per_time_residual(f, h, 256.0, ts, ep)
    amplified = []
    monkeypatch.setattr(decomposition, "apply_symbol",
                        lambda *a: amplified.append(a) or apply_symbol(*a))
    residual = bilinear_reconstruction_residual(f, h, 256.0, ts, ep)
    assert len(amplified) == 2
    assert abs(residual - oracle) <= 1e-12 * oracle


def test_bilinear_residual_zero_factor():
    g = GridSpec(1, 256, 100.0)
    ep = quadratic_phase()
    f = _mode_field(g, [0.4], [1.0])
    zero = Field.zeros(g, FREQUENCY)
    assert bilinear_reconstruction_residual(f, zero, 256.0, [0.5], ep) == 0.0


def test_bilinear_single_mode_product():
    g = GridSpec(1, 256, 100.0)
    ep = quadratic_phase()
    f = _mode_field(g, [0.4], [1.0 + 0.5j])
    assert bilinear_reconstruction_residual(f, f, 256.0, [0.7], ep) <= 1e-12


def test_bilinear_mode_cap():
    g = GridSpec(1, 2048, 2048.0)
    ep = quadratic_phase()
    rng = np.random.default_rng(0)
    mesh = g.frequency_mesh()[0]
    coef = np.where(np.abs(mesh) < 0.9, 1.0 + 0j, 0.0)
    f = Field(g, FREQUENCY, coef)
    with pytest.raises(TractabilityError, match="active modes"):
        bilinear_piece(f, f, 0, 256.0, [0.0], ep)


# -- restriction diagnostic ---------------------------------------------------------


def _separated_pair(grid):
    mesh = grid.frequency_mesh()[0]
    h1 = Field(grid, FREQUENCY, np.where((mesh > -1.0) & (mesh < -0.25), 1.0, 0.0) * np.exp(-mesh**2))
    h2 = Field(grid, FREQUENCY, np.where((mesh > 0.25) & (mesh < 1.0), 1.0 + 0.3 * np.sin(3 * mesh), 0.0))
    return h1, h2


def test_restriction_ratio_zero_factor():
    g = GridSpec(1, 256, 50.0)
    h1, _ = _separated_pair(g)
    assert bilinear_restriction_ratio(h1, Field.zeros(g, FREQUENCY), 6.0, 16.0, quadratic_phase()) == 0.0


def test_restriction_ratio_unimodular_invariance():
    g = GridSpec(1, 256, 50.0)
    h1, h2 = _separated_pair(g)
    ep = quadratic_phase()
    base = bilinear_restriction_ratio(h1, h2, 6.0, 16.0, ep)
    rotated = h1.with_samples(np.exp(1.23j) * h1.samples)
    again = bilinear_restriction_ratio(rotated, h2, 6.0, 16.0, ep)
    assert again == pytest.approx(base, rel=1e-12)


def test_restriction_ratio_requires_separation():
    g = GridSpec(1, 256, 50.0)
    mesh = g.frequency_mesh()[0]
    h1 = Field(g, FREQUENCY, np.where(np.abs(mesh) < 0.6, 1.0, 0.0))
    h2 = Field(g, FREQUENCY, np.where(np.abs(mesh - 0.5) < 0.2, 1.0, 0.0))
    with pytest.raises(SeparationError):
        bilinear_restriction_ratio(h1, h2, 6.0, 16.0, quadratic_phase())
    assert support_separation(h1, h2) == 0.0


def test_restriction_ratio_admissibility():
    g = GridSpec(1, 256, 50.0)
    h1, h2 = _separated_pair(g)
    with pytest.raises(ValueError, match="exceed"):
        bilinear_restriction_ratio(h1, h2, 3.0, 16.0, quadratic_phase())


@pytest.mark.slow
def test_restriction_ratio_bounded_in_lam():
    g = GridSpec(1, 512, 200.0)
    h1, h2 = _separated_pair(g)
    ep = quadratic_phase()
    lams = np.array([16.0, 32.0, 64.0, 128.0])
    ratios = np.array([bilinear_restriction_ratio(h1, h2, 6.0, lam, ep) for lam in lams])
    slope = np.polyfit(np.log(lams), np.log(ratios), 1)[0]
    assert slope <= 0.05


@pytest.mark.slow
def test_elliptic_operator_ratio_bounded(rng):
    """|| Sf ||_{L^p(box x [0, lam])} / (lam^{1/2 - 1/p} ||f||_p) stays bounded in lam."""
    g = GridSpec(1, 512, 200.0)
    mesh = g.frequency_mesh()[0]
    coef = np.where(np.abs(mesh) < 1.0, rng.standard_normal(512) + 1j * rng.standard_normal(512), 0)
    f = to_physical(Field(g, FREQUENCY, coef))
    ep = quadratic_phase()
    ratios = []
    for lam in (16.0, 64.0, 128.0):
        ts = np.linspace(0.0, lam, max(64, int(4 * lam)))
        frames = tuple(to_physical(elliptic_evolve(f, float(t), ep)) for t in ts)
        traj = Trajectory(g, tuple(ts), frames)
        ratios.append(mixed_spacetime_norm(traj, 6.0) / (lam ** (0.5 - 1.0 / 6.0) * lp_norm(f, 6.0)))
    assert max(ratios) / min(ratios) < 2.0


# -- the extension operator on `evolve_trajectory` ------------------------------------


def test_a_phase_failing_the_probe_reaches_no_elliptic_route():
    """Construction runs the Hessian probe, so the routes hold no check of their own: a flat
    phase, or a passing one whose probe is replaced by 0, raises before any route can run."""
    amp = lambda xi: np.exp(-np.asarray(xi)[0] ** 2)  # noqa: E731
    with pytest.raises(EllipticityError):
        make_elliptic_phase(lambda xi: 0.0 * np.asarray(xi)[0], amp, [(-1, 1)])
    with pytest.raises(EllipticityError):
        dataclasses.replace(quadratic_phase(), hessian_probe=0.0)


def test_restriction_routes_read_no_frequency_mesh(monkeypatch):
    """The phase is formed on the support and the supports are read by lattice index."""
    g = GridSpec(1, 256, 50.0)
    h1, h2 = _separated_pair(g)
    ep = quadratic_phase()

    def no_mesh(self):
        raise AssertionError("frequency_mesh called")

    monkeypatch.setattr(GridSpec, "frequency_mesh", no_mesh)
    assert len(extension_trajectory(h1, [0.0, 0.5, 1.0], ep)) == 3
    assert support_separation(h1, h2) > 0.0
    assert bilinear_restriction_ratio(h1, h2, 6.0, 16.0, ep) > 0.0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dim, points, half_width", [(1, 2**14, 400.0), (2, 128, 40.0)])
def test_extension_trajectory_is_the_per_frame_route(monkeypatch, dim, points, half_width, workers):
    """`evolve_trajectory` against the former per-frame symbol route, kept here as the oracle."""
    from displab import propagator

    g = GridSpec(dim, points, half_width)
    xi = g.axis_frequencies()
    if dim == 1:
        density = np.where((xi > 0.25) & (xi < 1.0), 1.0 + 0.3 * np.sin(3 * xi), 0.0)
    else:
        r2 = xi[:, None] ** 2 + xi[None, :] ** 2
        density = np.where(r2 < 1.0, np.cos(xi)[:, None] * (1.0 - r2), 0.0)
    h = Field(g, FREQUENCY, density)
    ep = quadratic_phase(dim)
    ts = np.linspace(-16.0, 16.0, 3 * (propagator._BLOCK_SAMPLES // g.size) + 5)
    monkeypatch.setattr("displab.grid._block_workers", lambda: workers)
    traj = extension_trajectory(h, ts, ep)
    for t, frame in zip(ts, traj.frames):
        symbol = lambda xi: np.exp(1j * t * np.asarray(ep.phase(xi)))  # noqa: E731
        oracle = dft_inverse(apply_symbol(h, symbol)).samples * (2.0 * np.pi) ** dim
        assert np.abs(frame.samples - oracle).max() <= 1e-12 * np.abs(oracle).max()
