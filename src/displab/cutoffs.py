"""Smooth cutoff constructions: annular bumps, dyadic pairs, cube partitions.

Everything is built from one C-infinity step.  With A(u) = exp(-1/u) for
u > 0 (and 0 otherwise), the step

    step(u) = A(u) / (A(u) + A(1 - u))

is exactly 0 for u <= 0, exactly 1 for u >= 1, and smooth; the rate in
the exponent is fixed at 1.  For every u, step(u) + step(1 - u) = 1, so
the step integrates to 1/2 over [0, 1] and a rise or fall of width w to
w / 2: the cutoff integrals the extremizers need have closed forms.  The
two exponentials are evaluated only inside (0, 1); everywhere else the
step is written as exact 0.0 or 1.0 (NaN stays NaN), bit for bit the
values the full formula gives there.  Because every partition identity
below is a telescoping sum of identical step evaluations, those
identities hold to roundoff, not just analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

_SQRT_HALF = 2.0**-0.5
_SQRT_TWO = 2.0**0.5


def smooth_step(u):
    """The canonical mollified step: 0 on u<=0, 1 on u>=1, C-infinity."""
    u = np.asarray(u, dtype=np.float64)
    out = np.asarray(u >= 1.0, dtype=np.float64)  # 0 below 1, else 1, and NaN from u
    np.copyto(out, u, where=np.isnan(u))
    inside = (u > 0.0) & (u < 1.0)
    v = u[inside]
    with np.errstate(over="ignore"):  # a subnormal v overflows 1 / v to inf
        rising = np.exp(-1.0 / v)
        falling = np.exp(-1.0 / (1.0 - v))
    out[inside] = rising / (rising + falling)
    return out[()]  # a numpy scalar for 0-d input


@dataclass(frozen=True)
class CutoffSpec:
    """The named smooth cutoffs every decomposition is built from.

    annulus(r)          radial bump: support {1/2 < r < 2}, == 1 on
                        [2^-1/2, 2^1/2]
    lowpass(r)          radial: == 1 for r <= 1, support r < 2
    bandpass(r)         lowpass(r) - lowpass(2r): support {1/2 < r < 2};
                        lowpass + sum_k bandpass(2^-k .) == 1
    cell(xi)            cube bump on stacked coordinates (dim, ...): support
                        [-3/5, 3/5]^d, == 1 on [-2/5, 2/5]^d, integer
                        translates sum to 1
    diagonal_lowpass(r) radial: == 1 for r <= 8 sqrt(d), support
                        r < 16 sqrt(d); used for pair-separation weights
    """

    dim: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")

    # -- radial pieces ------------------------------------------------------

    def lowpass(self, r):
        r = np.abs(np.asarray(r, dtype=np.float64))
        return 1.0 - smooth_step(r - 1.0)

    def bandpass(self, r):
        r = np.abs(np.asarray(r, dtype=np.float64))
        return smooth_step(2.0 * r - 1.0) - smooth_step(r - 1.0)

    def annulus(self, r):
        r = np.abs(np.asarray(r, dtype=np.float64))
        rise = smooth_step((r - 0.5) / (_SQRT_HALF - 0.5))
        fall = 1.0 - smooth_step((r - _SQRT_TWO) / (2.0 - _SQRT_TWO))
        return rise * fall

    def diagonal_lowpass(self, r):
        s = 8.0 * np.sqrt(self.dim)
        r = np.abs(np.asarray(r, dtype=np.float64))
        return 1.0 - smooth_step(r / s - 1.0)

    # -- cube partition ------------------------------------------------------

    def cell_1d(self, s):
        """One-dimensional profile whose integer translates sum to 1.

        It is edge(s + 1/2) - edge(s - 1/2), with edges rising over
        [-1/10, 1/10].  For |s| <= 0.39 the two edge steps are exactly 1
        and 0, and for |s| >= 0.61 exactly equal, so the steps run only on
        the two ramps in between (and on NaN); elsewhere the profile is
        written as exact 1.0 or 0.0, bit for bit the full formula.
        """
        s = np.asarray(s, dtype=np.float64)
        edge = lambda u: smooth_step((u + 0.1) / 0.2)  # noqa: E731 - local profile
        size = np.abs(s)
        out = np.asarray(size < 0.5, dtype=np.float64)
        ramps = ~((size <= 0.39) | (size >= 0.61))  # NaN included
        r = s[ramps]
        out[ramps] = edge(r + 0.5) - edge(r - 0.5)
        return out[()]  # a numpy scalar for 0-d input

    def cell(self, xi):
        xi = np.asarray(xi, dtype=np.float64)
        out = self.cell_1d(xi[0])
        for axis in range(1, xi.shape[0]):
            out = out * self.cell_1d(xi[axis])
        return out

    # -- derived symbols -----------------------------------------------------

    def lowpass_sum(self, r, bands: int):
        """lowpass(r) + sum_{k=1..bands} bandpass(2^-k r); telescopes to 1."""
        total = self.lowpass(r)
        for k in range(1, bands + 1):
            total = total + self.bandpass(np.asarray(r) * 2.0**-k)
        return total


def make_cutoffs(dim: int = 1) -> CutoffSpec:
    """The standard cutoff family in dimension ``dim``."""
    return _cutoff_spec(dim)


@cache  # one immutable spec per dim, however it is passed, so its bound methods key caches
def _cutoff_spec(dim: int) -> CutoffSpec:
    return CutoffSpec(dim)
