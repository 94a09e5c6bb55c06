"""displab: a pseudospectral laboratory for fractional dispersive flows.

Propagators e^{i t |xi|^alpha} on periodic grids, band-limited kernels and
their localization, bilinear near-diagonal splits, extremizer families, and
a sweep harness that verifies the critical smoothing/maximal exponents by
log-log regression.
"""

from .cutoffs import CutoffSpec, make_cutoffs
from .decomposition import (
    BilinearPiece,
    bilinear_piece,
    bilinear_reconstruction_residual,
    bilinear_restriction_ratio,
    separation_weight,
)
from .errors import (
    EllipticityError,
    EnvironmentSettingError,
    FieldDumpError,
    RepresentationError,
    SeparationError,
    SizingError,
    TractabilityError,
)
from .extremizers import (
    EnvelopeReport,
    ExtremizerSpec,
    FocusingReport,
    RidgeReport,
    envelope_check,
    focusing_check,
    maximal_spectrum,
    ridge_check,
    smoothing_spectrum,
)
from .grid import FREQUENCY, PHYSICAL, Field, GridSpec, load_field, save_field
from .harness import (
    FitResult,
    SweepConfig,
    SweepRecord,
    Verdict,
    critical_exponent,
    expected_slope,
    fit_loglog,
    run_sweep,
    slope_verdict,
    verify_airy,
    verify_maximal_necessary,
    verify_sharpness,
)
from .norms import (
    admissibility_threshold,
    airy_exponent,
    lp_norm,
    maximal_exponent,
    maximal_necessary_exponent,
    mixed_spacetime_norm,
    smoothing_exponent,
    sobolev_norm,
)
from .propagator import (
    DispersionParams,
    EllipticPhase,
    Trajectory,
    band_kernel,
    evolve,
    evolve_trajectory,
    kernel_tail_mass,
    make_elliptic_phase,
    quadratic_phase,
)
from .spectral import SymbolFn, apply_symbol, dft_forward, dft_inverse

__version__ = "0.1.0"
