"""Stochastic generalized sampling: weighted least-squares recovery from
randomly drawn frame samples, Bernstein-type concentration bounds, sample
complexity calculators, and the Fourier-Legendre analytic-function
application."""

from .bounds import (
    GRAM_MODES,
    BoundInputs,
    bernstein_matrix_tail,
    bernstein_operator_tail,
    bernstein_rectangular_tail,
    crossterm_sample_size,
    gram_sample_size,
    kfactor_sample_size,
)
from .errors import (
    BoundValidityError,
    DegenerateModelError,
    DegenerateVarianceError,
    InputValidationError,
    NumericalAccuracyError,
    SupportViolationError,
    TruncationError,
)
from .fourier_legendre import (
    AnalyticTarget,
    FLTruncation,
    adaptive_quadrature,
    build_fl_model,
    column_defects,
    exp_target,
    fl_leverage_distribution,
    frequencies,
    legendre_fourier_table,
    legendre_table,
    pole_target,
    spherical_bessel_table,
)
from .linalg import (
    effective_rank,
    hermitian_dilation,
    minimal_norm_lsq,
    operator_norm,
    projector_from_columns,
    pseudo_inverse,
    range_distance,
)
from .sampling import (
    SUPPORT_TOL,
    ChristoffelProfile,
    CoherenceProfile,
    FrameModel,
    LeverageProfile,
    RangeStability,
    ReconstructionReport,
    SampleDraw,
    build_frame_model,
    build_selection_model,
    christoffel_profile,
    coherence_profile,
    cross_term_deviation,
    cross_term_matrix,
    draw_samples,
    empirical_cross_term,
    empirical_gram,
    leverage_profile,
    range_stability_check,
    reconstruct,
)

__version__ = "0.1.0"
