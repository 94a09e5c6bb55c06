"""Dispersive evolution, the elliptic-phase operator and band-limited kernels.

The flow is the Fourier multiplier e^{i t phi(xi)} of a real phase phi:
|xi|^alpha (`DispersionParams`) or an elliptic phase (`EllipticPhase`).
`evolve` (one time), `evolve_trajectory` (whole frames, behind `displab
evolve`, the elliptic evolutions and the extension operator) and the power
sums `_power_sums` (sum_j |u_j|^p h of every 1-d frame in decimated
slices, behind the sweep harness's profile curve and direct record) form
it by one product, `_evolved_support`, only on the spectral support
(`_spectral_support`), the lattice points where the spectrum is nonzero:
band-limited data such as the unit annulus skip most of the lattice, and
off the support the evolved spectrum is the zero it is allocated as.
alpha = 2 is the classical free-particle flow; alpha = 3 on half-line
spectra is the one-sided cubic (Airy) flow, so the cubic flow needs no
operator of its own.  The time orientation follows the multiplier as
written: closed-form comparisons against the usual e^{i|x-y|^2/4t} kernel
must flip the sign of t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chirpquad import _bound_terms
from .cutoffs import make_cutoffs
from .errors import EllipticityError, SizingError
from .grid import FREQUENCY, PHYSICAL, Field, GridSpec, _run_blocks, sized_grid
from .spectral import SymbolFn, _inverse_signed_in_place, dft_inverse, to_frequency

# complex samples per block of frames in `evolve_trajectory` (8 frames at 2^15 points, 2 at
# 2^17), the longest slice transform of `_power_sums`, and the most complex samples of one
# `_power_sums` block's buffers: 18 times of the unit annulus at 2^15 points, 3 of the lam-32
# datum at 2^17.
_BLOCK_SAMPLES = 2**18
# entries of the fine twiddle table of `_twiddles`; the coarse one steps by as many
_TWIDDLE_ROW = 512


@dataclass(frozen=True)
class DispersionParams:
    """The phase |xi|^alpha in dimension dim, a `spectral.SymbolFn`.  alpha = 1 is excluded."""

    alpha: float
    dim: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.alpha == 1.0:
            raise ValueError("alpha = 1 (wave propagation) is not supported")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        """|xi|^alpha at stacked frequencies (dim, ...), the squares summed in axis order."""
        if len(xi) != self.dim:
            raise ValueError(f"grid dim {len(xi)} != params dim {self.dim}")
        r2 = xi[0] ** 2
        for xi_a in xi[1:]:
            r2 += xi_a**2
        return r2 ** (self.alpha / 2.0)


def ball_constant(alpha: float) -> float:
    """C(alpha): 1 for alpha in (0,1), alpha * 2^(alpha-1) for alpha > 1.

    4 C(alpha) 2^(k(alpha-1)) is the radius of the ball outside which the
    band-k kernel decays rapidly; C(alpha) also bounds the group speed over
    the unit annulus.
    """
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1")
    return 1.0 if alpha < 1.0 else alpha * 2.0 ** (alpha - 1.0)


def evolve(field: Field, t: float, phase: SymbolFn) -> Field:
    """Apply e^{i t phase(xi)}; representation matches the input.

    ``phase`` is a real `SymbolFn`, such as `DispersionParams` (|xi|^alpha).
    It is formed only on the spectral support; every entry there is bit
    for bit the full-lattice product, and the rest is zero.  A non-finite
    ``t`` raises ValueError.
    """
    ts = np.array([float(t)])
    spectrum, support, values = _spectral_support(field, ts, phase)
    evolved = np.zeros(field.grid.size, dtype=np.complex128)
    evolved[support] = _evolved_support(spectrum, values, ts)[0]
    evolved.setflags(write=False)  # fresh array: the Field takes it without a copy
    out = Field(field.grid, FREQUENCY, evolved)
    return out if field.is_frequency else dft_inverse(out)


def _spectral_support(field: Field, t: np.ndarray, phase: SymbolFn, signed: bool = False):
    """The nonzero spectrum of ``field``, its flat lattice indices and ``phase`` there.

    The one place where `evolve`, `evolve_trajectory` and `_power_sums`
    check their input (finite times ``t``, a phase finite on the support
    and at the lattice corner, index N/2 on every axis, so also on an empty
    support: ValueError otherwise) and find the support.  The phase is
    evaluated once, at the support's `GridSpec.axis_frequencies` plus the
    corner; each frequency is bit for bit the lattice-wide mesh entry.
    ``signed`` folds in the inverse transform's sign (-1)^(m_1 + ... + m_d).
    """
    grid = field.grid
    finite = np.isfinite(t)
    if not finite.all():
        raise ValueError(f"evolution times must be finite, got {t[~finite][0]}")
    spectrum = to_frequency(field).samples.reshape(-1)
    support = np.flatnonzero(spectrum)
    index = np.unravel_index(support, grid.shape)
    xi = np.stack([grid.axis_frequencies(np.append(j_a, grid.points // 2)) for j_a in index])
    values = np.asarray(phase(xi))
    finite = np.isfinite(values)
    if not finite.all():
        at = tuple(float(v) for v in xi[:, np.flatnonzero(~finite)[0]])
        raise ValueError(f"phase evaluated to a non-finite value at xi = {at}")
    spectrum = spectrum[support]
    if signed:
        np.negative(spectrum, out=spectrum, where=np.add.reduce(index) % 2 == 1)
    return spectrum, support, values[:-1]


def _evolved_support(spectrum: np.ndarray, values: np.ndarray, t: np.ndarray,
                     out=None) -> np.ndarray:
    """The flow's one product, e^{i t phase} * spectrum on the support, a row per time.

    Written into ``out`` when it is given, a (times, support) buffer.
    """
    phase = np.multiply((1j * t)[:, None], values, out=out)
    np.exp(phase, out=phase)
    # a complex product is not commutative bit for bit; `spectral.apply_symbol` has this order
    return np.multiply(phase, spectrum, out=phase)


def _power_sums(field: Field, t, phase: SymbolFn, p: float):
    """(powers, edges) of each frame u = e^{i t phase} field: sum_j |u_j|^p h, max edge / max |u_j|.

    ``field`` lies on a 1-d grid, ``t`` is a time or a sequence of them
    and ``p`` is finite and >= 1 (ValueError otherwise); d > 1 norms go
    through `evolve_trajectory` and `norms.lp_norm`.  The frames are summed
    in decimated slices, and no frame is formed.  With L =
    min(`_BLOCK_SAMPLES`, N / 8) and P = N / L, the samples j = P a + r of
    each r are (1/(P h)) ifft_L(F_r)[a], where F_r folds the signed support
    entries m (after the sign (-1)^m and the flow's one product
    `_evolved_support`) onto their residues mod L (`_fold`), twiddled by
    e^{2 pi i m r / N} (`_twiddles`).  A spectrum is
    even when its support is symmetric and its values and ``phase`` are
    bitwise equal at +-m: then every frame is even, only the m >= 0 half is
    evolved (m < 0 takes the conjugate twiddles) and only the slices
    r <= P / 2 run, the others having the sums of their mirror slices P - r.

    ``edges`` reads the first and last N / (64 P) samples of every slice
    that runs, the samples within N / 64 of the box edges (by evenness
    these cover the mirrored slices too).  Blocks of times run through
    `grid._run_blocks`, each with one buffer set per thread (taken
    with `list.pop`, given back with `list.append`) reused from block to
    block, so later blocks fault in no fresh pages.  A block's buffers hold
    at most `_BLOCK_SAMPLES` complex samples, so slices of 2^17 points or
    more go through the transform one time at a time.  The slice sums are
    added in slice order, so the results are bit for bit the same on one
    thread and two, and for any block of times.  It waits on the pool, so a
    pool job must not call it.
    """
    grid = field.grid
    if grid.dim != 1:
        raise ValueError(f"power sums are computed on 1-d grids, got dim = {grid.dim}")
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    t = np.asarray(t, dtype=float).reshape(-1)
    spectrum, support, values = _spectral_support(field, t, phase, signed=True)
    n = grid.points
    size = min(_BLOCK_SAMPLES, n // 8)
    m = (support + n // 2) % n - n // 2  # signed; sorted with its values below
    order = np.argsort(m)
    m, spectrum, values = m[order], spectrum[order], values[order]
    slices = n // size
    even = (np.array_equal(m, -m[::-1])
            and np.array_equal(spectrum, spectrum[::-1]) and np.array_equal(values, values[::-1]))
    if even:
        half = m >= 0
        m, spectrum, values = m[half], spectrum[half], values[half]
        runs = range(slices // 2 + 1)
    else:
        runs = range(slices)
    first = int(m[0]) if m.size else 0
    rows = -(-(int(m[-1]) - first + 1) // _TWIDDLE_ROW) if m.size else 0
    # the support laid out over its span from m = first, zero between and past its entries
    coefficients = np.zeros(rows * _TWIDDLE_ROW, dtype=np.complex128)
    phases = np.zeros(rows * _TWIDDLE_ROW)
    coefficients[m - first], phases[m - first] = spectrum, values
    last = first + coefficients.size - 1
    # the entries whose mirror -m an even spectrum folds too: all but m = 0, folded once
    mirrored = slice(1 if first == 0 else 0, None)
    # per slice: its twiddles, those of -m for an even spectrum, and its weight
    plan = []
    for r in runs:
        twiddle = _twiddles(first, rows, r, n).reshape(-1) if r else None
        mirror = None if twiddle is None or not even else twiddle.conj()
        plan.append((twiddle, mirror, 2.0 if even and 0 < 2 * r < slices else 1.0))
    edge = max(1, n // (64 * slices))
    # two rows of the span (evolved, twiddled) and 1.5 of the slice (folded, its modulus) per time
    block = max(1, _BLOCK_SAMPLES // (2 * (coefficients.size + size)))
    powers, edges = np.empty(t.size), np.empty(t.size)
    buffers = []  # buffer sets given back by finished blocks

    def run(start: int) -> None:
        ts = t[start : start + block]
        try:
            buffer = buffers.pop()
        except IndexError:
            count = min(block, t.size)
            buffer = (np.empty((count, coefficients.size), dtype=np.complex128),
                      np.empty((count, coefficients.size), dtype=np.complex128),
                      np.empty((count, size), dtype=np.complex128), np.empty((count, size)))
        try:
            evolved, product, folded, body = (array[: ts.size] for array in buffer)
            _evolved_support(coefficients, phases, ts, out=evolved)
            total, ends, peak = np.zeros(ts.size), np.zeros(ts.size), np.zeros(ts.size)

            def twiddled(table):  # r = 0 has no table: its twiddles are all 1
                return evolved if table is None else np.multiply(evolved, table, out=product)

            for twiddle, mirror, weight in plan:
                folded.fill(0.0)
                _fold(twiddled(twiddle), first, folded)
                if even:  # the m < 0 half, from m = -last up
                    _fold(twiddled(mirror)[:, mirrored][:, ::-1], -last, folded)
                np.fft.ifft(folded, out=folded)
                modulus = np.abs(folded, out=body)
                np.maximum(ends, modulus[:, :edge].max(axis=1), out=ends)
                np.maximum(ends, modulus[:, -edge:].max(axis=1), out=ends)
                np.maximum(peak, modulus.max(axis=1), out=peak)
                modulus **= p
                total += weight * modulus.sum(axis=1)
            powers[start : start + ts.size] = total
            edges[start : start + ts.size] = ends / np.maximum(peak, np.finfo(float).tiny)
        finally:
            buffers.append(buffer)

    _run_blocks(run, range(0, t.size, block))
    cell = grid.cell_volume
    return powers * (cell * (slices * cell) ** -p), edges


@dataclass(frozen=True)
class Trajectory:
    """Physical frames of an evolution sampled at increasing times."""

    grid: GridSpec
    t_samples: tuple
    frames: tuple

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_samples)
        frames = tuple(self.frames)
        if len(ts) != len(frames):
            raise ValueError("t_samples and frames must have equal length")
        if len(ts) == 0:
            raise ValueError("a trajectory needs at least one sample")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t_samples must be strictly increasing")
        for fr in frames:
            if fr.grid != self.grid:
                raise ValueError("all frames must share the trajectory grid")
            fr.require(PHYSICAL)
        object.__setattr__(self, "t_samples", ts)
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.t_samples)


def evolve_trajectory(field: Field, t_samples, phase: SymbolFn) -> Trajectory:
    """Frames of ``field`` under ``phase`` at each time: read-only rows of one zeroed array.

    Blocks of rows run through `grid._run_blocks`; each writes its support
    products (`_evolved_support`) into its rows and inverse-transforms them
    in place (`spectral._inverse_signed_in_place`).  The transform's sign is
    folded into the support values once; a negation commutes with the
    product, so every frame keeps the bits of `evolve` on one thread or two.
    Sums over frames go through `_power_sums`, which forms no frame.
    """
    t = np.asarray(t_samples, dtype=float).reshape(-1)
    grid = field.grid
    spectrum, support, values = _spectral_support(field, t, phase, signed=True)
    frames = np.zeros((t.size,) + grid.shape, dtype=np.complex128)
    block = max(1, _BLOCK_SAMPLES // grid.size)

    def run(start: int) -> None:
        rows = slice(start, start + block)
        frames.reshape(t.size, -1)[rows, support] = _evolved_support(spectrum, values, t[rows])
        _inverse_signed_in_place(grid, frames[rows])

    _run_blocks(run, range(0, t.size, block))
    frames.setflags(write=False)  # the Fields take its rows without a copy
    return Trajectory(grid, t, [Field(grid, PHYSICAL, frame) for frame in frames])


# -- elliptic-phase operator --------------------------------------------------


# make_elliptic_phase's Hessian probe: points where the amplitude lives, their seed, the step
_PROBE_SAMPLES, _PROBE_SEED, _PROBE_STEP = 100, 0, 1e-3
_QUADRATIC_BOX = (-1.8, 1.8)  # quadratic_phase's probe box per axis, holding its amplitude


@dataclass(frozen=True)
class EllipticPhase:
    """A smooth phase with positive-definite Hessian plus a compact amplitude.

    ``phase`` maps stacked frequencies (dim, ...) -> real array; ``amplitude``
    is a symbol with compact support inside the phase's domain.
    ``hessian_probe`` is the smallest sampled eigenvalue of the Hessian over
    the amplitude support (second differences at scattered points).
    """

    phase: SymbolFn
    amplitude: SymbolFn
    hessian_probe: float

    def require_elliptic(self) -> None:
        """EllipticityError unless the probed Hessian is positive: every elliptic route's check."""
        if not self.hessian_probe > 0:
            raise EllipticityError(
                "phase fails the sampled ellipticity probe "
                f"(min eigenvalue {self.hessian_probe:.3g})"
            )


def make_elliptic_phase(phase, amplitude, support_box, dim: int = 1) -> EllipticPhase:
    """Probe the Hessian at `_PROBE_SAMPLES` points of the box where the amplitude lives."""
    rng = np.random.default_rng(_PROBE_SEED)
    box = np.atleast_2d(np.asarray(support_box, dtype=float))
    if box.shape != (dim, 2):
        raise ValueError(f"support_box must be shape ({dim}, 2)")
    pts = rng.uniform(box[:, 0], box[:, 1], size=(max(_PROBE_SAMPLES * 4, 64), dim)).T
    amp = np.abs(np.asarray(amplitude(pts)))
    keep = amp > 1e-6 * max(amp.max(), 1e-300)
    pts = pts[:, keep][:, :_PROBE_SAMPLES]
    if pts.shape[1] == 0:
        raise ValueError("no probe points found inside the amplitude support")
    step = _PROBE_STEP

    def hessian_at(p):
        h = np.zeros((dim, dim))
        for a in range(dim):
            for b in range(a, dim):
                ea = np.zeros(dim); ea[a] = step
                eb = np.zeros(dim); eb[b] = step
                if a == b:
                    val = (_ph(phase, p + ea) - 2 * _ph(phase, p) + _ph(phase, p - ea)) / step**2
                else:
                    val = (
                        _ph(phase, p + ea + eb) - _ph(phase, p + ea - eb)
                        - _ph(phase, p - ea + eb) + _ph(phase, p - ea - eb)
                    ) / (4 * step**2)
                h[a, b] = h[b, a] = val
        return h

    min_eig = min(
        float(np.linalg.eigvalsh(hessian_at(pts[:, i])).min()) for i in range(pts.shape[1])
    )
    return EllipticPhase(phase=phase, amplitude=amplitude, hessian_probe=min_eig)


def _ph(phase, point: np.ndarray) -> float:
    return float(np.asarray(phase(point.reshape(-1, 1))).reshape(()))


def quadratic_phase(dim: int = 1) -> EllipticPhase:
    """|xi|^2 / 2 with the lowpass bump of |xi| as amplitude."""
    cut = make_cutoffs(dim=dim)

    def phase(xi):
        return 0.5 * (np.asarray(xi) ** 2).sum(axis=0)

    def amplitude(xi):
        return cut.lowpass(np.sqrt((np.asarray(xi) ** 2).sum(axis=0)))

    return make_elliptic_phase(phase, amplitude, [_QUADRATIC_BOX] * dim, dim=dim)


# -- band-limited kernels -------------------------------------------------------


# the band kernel's frequency support 1/2 < |xi| < 2, as single-signed intervals
_BAND_INTERVALS = ((0.5, 2.0), (-2.0, -0.5))


def band_kernel(
    k: int,
    t: float,
    params: DispersionParams,
    grid: GridSpec | None = None,
) -> Field:
    """Band-k kernel profile in the rescaled variable y = 2^k x.

    Returns kappa with kappa^(xi) = bandpass(|xi|) e^{i 2^(alpha k) t |xi|^alpha},
    so the physical kernel is K^t_k(x) = 2^(k d) kappa(2^k x).  The grid must
    carry the unit annulus with 4x headroom (nyquist >= 8, else SizingError)
    and contain the kernel spread C(alpha) 2^(alpha k) t; without one,
    `_kernel_grid` sizes it.  A non-finite t raises ValueError.
    """
    if k < 1:
        raise ValueError("band index k must be >= 1")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if params.dim != 1 and grid is None:
        raise ValueError("automatic kernel grids are one-dimensional; pass a grid")
    alpha = params.alpha
    scale = 2.0 ** (alpha * k) * t
    if grid is None:
        grid = _kernel_grid(alpha, scale)
    if grid.nyquist < 8.0:
        raise SizingError(f"kernel grid nyquist {grid.nyquist:.3g} < 8 (4x the unit-annulus radius)")
    spectrum = _chirped_spectrum(grid, 2.0, make_cutoffs(dim=grid.dim).bandpass, 1j * scale, alpha)
    return dft_inverse(Field(grid, FREQUENCY, spectrum))


def _kernel_grid(alpha: float, scale: float) -> GridSpec:
    """The grid of `band_kernel` without one: half width 1.2 (C(alpha) |scale| + 120), nyquist 8 to 16."""
    return sized_grid(1.2 * (ball_constant(alpha) * abs(scale) + 120.0), 8.0, "band kernel grid")


def _chirped_box(
    grid: GridSpec, radius: float, amplitude, chirp: complex, alpha: float, one_sided: bool = False
):
    """(index, box): the values of `_chirped_spectrum` on its index box.

    ``index`` holds each axis's signed lattice indices |m_i| <= ceil(radius / h) + 1,
    only m > 0 on the first axis if ``one_sided``, and ``box`` the values
    amplitude(|xi|) e^{chirp |xi|^alpha} on their product; ``amplitude``
    vanishes for |xi| >= radius, so the box holds every nonzero entry.
    The phase is formed only where the amplitude is nonzero.  The
    frequencies are `GridSpec.axis_frequencies` at the box's indices and
    the radii the square root of their summed squares in axis order, so
    every entry is bit for bit the lattice-wide formula, and no
    lattice-wide array is formed.
    """
    n = grid.points
    reach = min(int(np.ceil(radius / grid.frequency_spacing)) + 1, n // 2)
    m = np.arange(-reach, min(reach, n // 2 - 1) + 1)
    index = [m[m > 0] if one_sided else m] + [m] * (grid.dim - 1)
    r2 = grid.axis_frequencies(index[0]) ** 2
    for m_a in index[1:]:
        # ((x_1^2 + x_2^2) + x_3^2), the axis order
        r2 = np.add.outer(r2, grid.axis_frequencies(m_a) ** 2)
    r = np.sqrt(r2, out=r2)
    values = amplitude(r)
    nonzero = values != 0.0
    box = np.zeros(r.shape, dtype=np.complex128)
    box[nonzero] = values[nonzero] * np.exp(chirp * r[nonzero] ** alpha)
    return index, box


def _chirped_spectrum(
    grid: GridSpec, radius: float, amplitude, chirp: complex, alpha: float, one_sided: bool = False
):
    """amplitude(|xi|) e^{chirp |xi|^alpha} on the lattice, read-only.

    The one builder of radial spectra: the band kernels, the chirped
    annulus datum, and, with chirp 0 (e^0 is exactly 1), the unit annulus
    and the traveling-bump packet.  `_chirped_box` forms the values on the
    index box that holds every nonzero entry, and they are scattered into
    a lattice that is otherwise the zero it is allocated as.  The box
    arrays are freed on return, before an inverse transform allocates.
    """
    index, box = _chirped_box(grid, radius, amplitude, chirp, alpha, one_sided)
    spectrum = np.zeros(grid.shape, dtype=np.complex128)
    spectrum[np.ix_(*index)] = box
    spectrum.setflags(write=False)  # fresh array: the Field takes it without a copy
    return spectrum


def _twiddles(first: int, rows: int, r: int, n: int) -> np.ndarray:
    """e^{2 pi i m r / n} at m = first + i, i < rows * `_TWIDDLE_ROW`, as a (rows, `_TWIDDLE_ROW`) table.

    The outer product of a coarse and a fine exponential table, their
    angles reduced modulo n in integers: the twiddles of the decimated
    slices of `_power_sums`.
    """
    coarse = first + _TWIDDLE_ROW * np.arange(rows)
    fine = np.arange(_TWIDDLE_ROW)
    return np.multiply.outer(np.exp(2j * np.pi / n * (coarse * r % n)),
                             np.exp(2j * np.pi / n * (fine * r % n)))


def _fold(values: np.ndarray, first: int, out: np.ndarray) -> None:
    """out[..., (first + i) mod size] += values[..., i], one contiguous run of residues at a time."""
    size = out.shape[-1]
    q, i = first % size, 0
    while i < values.shape[-1]:
        run = min(size - q, values.shape[-1] - i)
        out[..., q : q + run] += values[..., i : i + run]
        q, i = 0, i + run


def kernel_tail_mass(k: int, t: float, params: DispersionParams) -> float:
    """Certified upper bound on the share of the band-k kernel's L1 mass outside its ball.

    The ball is |x| <= 4 C(alpha) 2^(k(alpha-1)), i.e. |y| <= b = 4 C(alpha) 2^(alpha k)
    in the rescaled kernel variable.  Requires k >= 1, t in [0, 1] and dim = 1
    (ValueError otherwise, as `band_kernel` raises for k < 1).

    The share is `_outside_mass_bound`, the exact integral over |y| > b of
    the integration-by-parts bound `chirpquad.nonstationary_bound` (h_n =
    sum_j P_{n,j} s^-j, P_{n,j} = S^{j-n} R_{n,j}): twice min_{n>=2} of
    sum_j |S|^{j-n} r_{n,j} (b - g)^{1-j} / (j - 1), summed over pieces with
    largest group position g, over the floor 1 of the kernel's L1 mass:
    |kappa^(xi)| <= ||kappa||_1, and kappa^ peaks at max bandpass = 1.  No
    tail and no mass is measured, so the value reads no round-off, and no
    grid is built.  The share is an upper bound, and a loose one where the
    kernel is barely spread: alpha 1.5, k = 1, t = 0 reads 8.7e-2 where a
    grid reaching past the ball measures 4.4e-3.  A bound that is not finite
    raises OverflowError.
    """
    if k < 1:
        raise ValueError("band index k must be >= 1")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if params.dim != 1:
        raise ValueError("kernel tail masses are computed in dimension 1")
    alpha = params.alpha
    try:
        spread = 2.0 ** (alpha * k)
    except OverflowError:
        raise OverflowError(
            f"the band spread 2^(alpha k) at k = {k}, alpha = {alpha:g} overflows the float range"
        ) from None
    ball = 4.0 * ball_constant(alpha) * spread
    # |S|^(j-n) overflows at large scales, and an overflow times a zero r_{n,j} is nan
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _outside_mass_bound(alpha, spread * t, ball)
    if not np.isfinite(bound):
        raise OverflowError(f"the tail bound of band k = {k} at t = {t}, alpha = {alpha} is not finite")
    return bound


def _outside_mass_bound(alpha: float, scale: float, ball: float) -> float:
    """Upper bound on int_{|y| > b} |kappa(y)| dy, b = ``ball``, in closed form.

    Twice (the kernel is even) the exact integral over y > b of the bound
    `chirpquad.nonstationary_bound` (P_{n,j} = S^{j-n} R_{n,j}): there each
    piece's dist(y) is y - g, g its largest group position, and j >= n >= 2, so
    int_b^inf <= min_{n>=2} sum_pieces sum_j |S|^{j-n} r_{n,j} (b - g)^{1-j} / (j - 1).
    """
    total = 0.0
    bandpass = make_cutoffs(dim=1).bandpass
    for coefficients, dist in _bound_terms(bandpass, _BAND_INTERVALS, alpha, scale, [ball]):
        j = np.arange(2, coefficients.shape[2])
        total += np.einsum("pnj,pj->n", coefficients[:, 1:, 2:], dist ** (1 - j) / (j - 1)).min()
    return 2.0 * float(total)
