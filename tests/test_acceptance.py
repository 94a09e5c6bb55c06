"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n PASS/FAIL` line (visible with `pytest -s`
or in the captured output of failures) and asserts the same condition.
"""

import numpy as np

from displab.cutoffs import make_cutoffs
from displab.decomposition import (
    bilinear_reconstruction_residual,
    bilinear_restriction_ratio,
    separation_weight,
)
from displab.extremizers import (
    SMOOTHING,
    ExtremizerSpec,
    envelope_check,
    focusing_check,
)
from displab.grid import FREQUENCY, Field, GridSpec
from displab.harness import SweepConfig, fit_loglog, run_sweep, verify_airy, verify_maximal_necessary
from displab.norms import (
    admissibility_threshold,
    airy_exponent,
    lp_norm,
    maximal_exponent,
    smoothing_exponent,
)
from displab.errors import SizingError
from displab.propagator import (
    DispersionParams,
    ball_constant,
    band_kernel,
    evolve,
    kernel_tail_mass,
    quadratic_phase,
)
from displab.spectral import dft_forward, to_physical


def report(n: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {n:2d} {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def band_limited(grid, rng, frac=0.2):
    mesh = grid.frequency_mesh()[0]
    coef = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    coef[np.abs(mesh) > frac * grid.nyquist] = 0.0
    return to_physical(Field(grid, FREQUENCY, coef))


def test_criterion_01_unitarity_and_group_law(rng):
    grid = GridSpec(1, 4096, 40.0)
    f = band_limited(grid, rng)
    worst_unit = 0.0
    worst_group = 0.0
    for alpha in (1.5, 2.0, 3.0):
        params = DispersionParams(alpha, 1)
        base = lp_norm(f, 2.0)
        for t in (0.0, 0.3, 1.0):
            worst_unit = max(worst_unit, abs(lp_norm(evolve(f, t, params), 2.0) / base - 1.0))
        s, t = 0.3, 1.0
        two_step = evolve(evolve(f, s, params), t, params)
        one_step = evolve(f, s + t, params)
        worst_group = max(
            worst_group,
            np.abs(two_step.samples - one_step.samples).max() / np.abs(f.samples).max(),
        )
    report(
        1,
        "unitarity and group law",
        worst_unit <= 1e-12 and worst_group <= 1e-11,
        f"unitarity {worst_unit:.2e}, group {worst_group:.2e}",
    )


def test_criterion_02_transform_oracle(rng):
    worst = 0.0
    for dim, n in ((1, 64), (2, 16), (2, 32)):
        grid = GridSpec(dim, n, 3.0)
        f = Field(grid, "physical",
                  rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        fast = dft_forward(f).samples.reshape(-1)
        x = grid.point_mesh().reshape(dim, -1)
        xi = grid.frequency_mesh().reshape(dim, -1)
        slow = (np.exp(-1j * (xi.T @ x)) @ f.samples.reshape(-1)) * grid.cell_volume
        worst = max(worst, float(np.abs(fast - slow).max() / np.abs(slow).max()))
    report(2, "forward transform matches O(N^2) direct summation", worst <= 1e-12,
           f"max rel err {worst:.2e}")


def test_criterion_03_partition_identities(rng):
    cut1 = make_cutoffs(dim=1)
    r = rng.uniform(0.0, 2.0**7, 1000)
    err_lp = np.abs(cut1.lowpass_sum(r, 9) - 1.0).max()

    cut2 = make_cutoffs(dim=2)
    pts = rng.uniform(-3.0, 3.0, size=(2, 1000))
    total = np.zeros(1000)
    for i in range(-4, 5):
        for j in range(-4, 5):
            total += cut2.cell(pts - np.array([i, j]).reshape(2, 1, 1)[:, :, 0])
    err_cell = np.abs(total - 1.0).max()

    lam = 256.0
    xi = np.stack([rng.uniform(-4, 4, 1000)])
    eta = np.stack([rng.uniform(-4, 4, 1000)])
    tele = sum(separation_weight(j, lam, xi, eta) for j in range(12))
    err_tele = np.abs(tele - 1.0).max()

    worst = max(err_lp, err_cell, err_tele)
    report(3, "partition-of-unity identities at random frequencies", worst <= 1e-12,
           f"lp {err_lp:.1e}, cell {err_cell:.1e}, pair {err_tele:.1e}")


def test_criterion_04_bilinear_reconstruction():
    grid = GridSpec(1, 512, 160.0)
    mesh = grid.frequency_mesh()[0]
    ep = quadratic_phase()
    idx = np.flatnonzero(np.abs(mesh) < 1.0)
    worst = 0.0
    for seed in range(3):
        r = np.random.default_rng(seed)
        cf = np.zeros(512, dtype=complex)
        cg = np.zeros(512, dtype=complex)
        cf[r.choice(idx, 64, replace=False)] = r.standard_normal(64) + 1j * r.standard_normal(64)
        cg[r.choice(idx, 64, replace=False)] = r.standard_normal(64) + 1j * r.standard_normal(64)
        f, g = Field(grid, FREQUENCY, cf), Field(grid, FREQUENCY, cg)
        worst = max(worst, bilinear_reconstruction_residual(f, g, 256.0, [0.0, 0.5, 1.0], ep))
    report(4, "bilinear near-diagonal reconstruction residual", worst <= 1e-10,
           f"max residual {worst:.2e}")


def test_criterion_05_kernel_localization():
    worst = 0.0
    for alpha in (1.5, 2.0, 3.0):
        params = DispersionParams(alpha, 1)
        for k in range(3, 9):
            for t in (0.0, 0.5, 1.0):
                worst = max(worst, kernel_tail_mass(k, t, params))
    report(5, "band-kernel mass outside the locality ball below 1%", worst < 0.01,
           f"worst tail fraction {worst:.2e}")


def test_criterion_05_kernel_masses_clear_the_floor():
    """Cross-check of acceptance 05's denominator, the floor 1, on the same grid of kernels.

    On every kernel whose grid fits the grid cap, `band_kernel`'s samples have L1 mass at
    least 1, and `kernel_tail_mass` is at least the share of that mass outside the ball.
    """
    lightest, checked = np.inf, 0
    for alpha in (1.5, 2.0, 3.0):
        params = DispersionParams(alpha, 1)
        for k in range(3, 9):
            ball = 4.0 * ball_constant(alpha) * 2.0 ** (alpha * k)
            for t in (0.0, 0.5, 1.0):
                try:
                    kernel = band_kernel(k, t, params)
                except SizingError:  # past the grid cap
                    continue
                grid = kernel.grid
                mag = np.abs(kernel.samples) * grid.spacing
                mass = mag.sum()
                outside = mag[np.abs(grid.axis_points()) > ball].sum()
                assert kernel_tail_mass(k, t, params) >= outside / mass
                lightest = min(lightest, mass)
                checked += 1
    assert checked == 48  # all but alpha 3, k 6..8, t > 0
    assert lightest >= 1.0, f"a kernel's L1 mass is {lightest:.3f}, below the floor 1"


def test_criterion_06_smoothing_sharpness_endpoint():
    lams = (16.0, 32.0, 64.0, 128.0, 256.0)
    results = []
    for alpha in (2.0, 3.0):
        beta_c = smoothing_exponent(alpha, 1, 6.0)
        for shift, expected in ((0.0, 0.0), (-0.2, 0.2), (0.2, -0.2)):
            cfg = SweepConfig("smoothing", alpha, 1, 6.0, beta_c + shift, lams)
            slope = fit_loglog(run_sweep(cfg)).slope
            results.append((alpha, shift, slope, expected, abs(slope - expected) <= 0.1))
    ok = all(r[-1] for r in results)
    detail = "; ".join(f"a={a} b=c{s:+.1f}: {sl:+.3f}~{e:+.1f}" for a, s, sl, e, _ in results)
    report(6, "space-time sharpness slopes at and around the critical index", ok, detail)


def test_criterion_07_stationary_phase_envelope():
    lams = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
    ok = True
    details = []
    for alpha in (2.0, 3.0):
        params = DispersionParams(alpha, 1)
        peaks = [envelope_check(ExtremizerSpec(SMOOTHING, lam, params)).peak_ratio for lam in lams]
        slope = np.polyfit(np.log(lams), np.log(peaks), 1)[0]
        ok = ok and abs(slope) <= 0.15
        details.append(f"a={alpha} slope {slope:+.3f}")
    tail = envelope_check(ExtremizerSpec(SMOOTHING, 64.0, DispersionParams(2.0, 1))).tail_ratio
    ok = ok and tail <= 1e-4
    details.append(f"tail {tail:.1e}")
    report(7, "stationary-phase peak flatness and tail decay", ok, "; ".join(details))


def test_criterion_08_focusing_lower_bound():
    params = DispersionParams(2.0, 1)
    ratios = []
    focus_ok = True
    for lam in (16.0, 32.0, 64.0):
        rep = focusing_check(ExtremizerSpec(SMOOTHING, lam, params))
        ratios.append(rep.min_modulus_ratio)
        focus_ok = focus_ok and (
            abs(rep.focus_value - rep.predicted_focus_value) / rep.predicted_focus_value <= 1e-8
        )
    ok = min(ratios) >= 0.1 and max(ratios) / min(ratios) <= 1.2 and focus_ok
    report(8, "refocusing lower bound and exact focus value", ok,
           f"ratios {[f'{r:.3f}' for r in ratios]}")


def test_criterion_09_maximal_necessary_condition():
    cfg = SweepConfig("maximal", 3.0, 1, 6.0, 0.25, (16.0, 32.0, 64.0, 128.0),
                      norm_kind="maximal")
    verdict = verify_maximal_necessary(cfg, 0.1)
    report(9, "maximal-function necessary condition at beta = alpha/(2p)", verdict.passed,
           f"boundary slope {verdict.slope:+.3f}, weakened slope {verdict.fit.slope:+.3f}")


def test_criterion_10_airy_endpoint():
    cfg = SweepConfig("airy", 3.0, 1, 6.0, airy_exponent(6.0), (16.0, 32.0, 64.0, 128.0))
    verdict = verify_airy(cfg, 0.1)
    report(10, "one-sided cubic flow sharpness at beta = 1/2", verdict.passed,
           f"slope {verdict.slope:+.3f}")


def test_criterion_11_bilinear_restriction_boundedness():
    grid = GridSpec(1, 512, 200.0)
    mesh = grid.frequency_mesh()[0]
    h1 = Field(grid, FREQUENCY,
               np.where((mesh > -1.0) & (mesh < -0.25), 1.0, 0.0) * np.exp(-(mesh**2)))
    h2 = Field(grid, FREQUENCY,
               np.where((mesh > 0.25) & (mesh < 1.0), 1.0 + 0.3 * np.sin(3 * mesh), 0.0))
    ep = quadratic_phase()
    lams = np.array([16.0, 32.0, 64.0, 128.0])
    ratios = np.array([bilinear_restriction_ratio(h1, h2, 6.0, lam, ep) for lam in lams])
    slope = float(np.polyfit(np.log(lams), np.log(ratios), 1)[0])
    report(11, "bilinear adjoint-restriction ratio stays bounded", slope <= 0.05,
           f"slope {slope:+.4f}")


def test_criterion_12_exponent_algebra(rng):
    alphas = rng.uniform(1.01, 8.0, 10**4)
    dims = rng.integers(1, 4, 10**4)
    ps = rng.uniform(2.0, 40.0, 10**4)
    worst = 0.0
    for alpha, dim, p in zip(alphas, dims, ps):
        lhs = smoothing_exponent(alpha, int(dim), p) + alpha / p
        worst = max(worst, abs(lhs - maximal_exponent(alpha, int(dim), p)))
    thresholds_ok = admissibility_threshold(1) == 4.0 and admissibility_threshold(2) == 10.0 / 3.0
    report(12, "exponent algebra identities", worst <= 1e-14 and thresholds_ok,
           f"max defect {worst:.1e}")
