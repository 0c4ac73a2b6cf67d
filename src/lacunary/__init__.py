"""Umbral-calculus toolkit for lacunary generating-function identities.

The package has three layers.  The base layer supplies exact/float scalar
helpers, guarded series summation, truncated formal power series, and a
two-symbol umbral engine whose reduction map is the independent oracle for
everything above it.  The polynomial layer evaluates the Laguerre-type and
multi-variable Hermite families both exactly and by recurrence.  The
identity layer registers every numbered generating-function identity and
verifies each one against the oracle in exact-coefficient, pointwise, or
quadrature mode; the command line entry point batch-runs that registry.
"""

from .errors import (
    DomainError,
    ExactnessViolation,
    ImaginaryResidue,
    LacunaryError,
    MissingDegreeMetadata,
    ModeMismatch,
    ModeUnsupported,
    NoSolution,
    NonConvergence,
    NumericError,
    QuadratureFailure,
    TermBudgetExceeded,
    UnknownIdentity,
)
from .fps import FormalPowerSeries, fps_exp, fps_geometric, fps_one, fps_x
from .identities import (
    AuxPolynomial,
    IdentityCase,
    VerificationReport,
    all_ids,
    check_coefficients,
    check_pointwise,
    check_quadrature,
    compare_with_printed,
    derive_aux_polynomial,
    get_case,
    registry,
    run_case,
)
from .polys import (
    assoc_laguerre,
    assoc_laguerre_sequence,
    assoc_laguerre_xpoly,
    hermite_coeff_sequence,
    hermite_h_sequence,
    lacunary_decomposition,
    laguerre,
    laguerre_sequence,
    laguerre_xpoly,
    lambda_poly,
)
from .scalars import as_real, binomial, is_exact, pochhammer, rgamma, rgamma_exact
from .specialfns import (
    bessel_i,
    bessel_j0,
    h_bessel_j,
    h_tricomi,
    h_tricomi_bilateral,
    h_wright,
    mittag_leffler,
    tricomi,
    wright,
)
from .summation import SumControl, sum_series, sum_shells
from .umbral import UmbralSeries, umb_exp

__version__ = "0.1.0"

__all__ = [
    "AuxPolynomial",
    "DomainError",
    "ExactnessViolation",
    "FormalPowerSeries",
    "IdentityCase",
    "ImaginaryResidue",
    "LacunaryError",
    "MissingDegreeMetadata",
    "ModeMismatch",
    "ModeUnsupported",
    "NoSolution",
    "NonConvergence",
    "NumericError",
    "QuadratureFailure",
    "SumControl",
    "TermBudgetExceeded",
    "UmbralSeries",
    "UnknownIdentity",
    "VerificationReport",
    "all_ids",
    "as_real",
    "assoc_laguerre",
    "assoc_laguerre_sequence",
    "assoc_laguerre_xpoly",
    "bessel_i",
    "bessel_j0",
    "binomial",
    "check_coefficients",
    "check_pointwise",
    "check_quadrature",
    "compare_with_printed",
    "derive_aux_polynomial",
    "fps_exp",
    "fps_geometric",
    "fps_one",
    "fps_x",
    "get_case",
    "h_bessel_j",
    "h_tricomi",
    "h_tricomi_bilateral",
    "h_wright",
    "hermite_coeff_sequence",
    "hermite_h_sequence",
    "is_exact",
    "lacunary_decomposition",
    "laguerre",
    "laguerre_sequence",
    "laguerre_xpoly",
    "lambda_poly",
    "mittag_leffler",
    "pochhammer",
    "registry",
    "rgamma",
    "rgamma_exact",
    "run_case",
    "sum_series",
    "sum_shells",
    "tricomi",
    "umb_exp",
    "wright",
]
