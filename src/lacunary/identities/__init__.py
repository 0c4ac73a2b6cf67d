"""Identity registry, check engines, and report types."""

from .auxpoly import (
    AuxPolynomial,
    compare_with_printed,
    derive_aux_polynomial,
    satisfies_template,
)
from .registry import (
    DEFAULT_TOL,
    EXACT,
    MODES,
    NUMERIC,
    QUADRATURE,
    IdentityCase,
    all_ids,
    check_coefficients,
    check_pointwise,
    check_quadrature,
    get_case,
    registry,
    run_case,
)
from .report import VerificationReport

__all__ = [
    "AuxPolynomial",
    "DEFAULT_TOL",
    "EXACT",
    "IdentityCase",
    "MODES",
    "NUMERIC",
    "QUADRATURE",
    "VerificationReport",
    "all_ids",
    "check_coefficients",
    "check_pointwise",
    "check_quadrature",
    "compare_with_printed",
    "derive_aux_polynomial",
    "get_case",
    "registry",
    "run_case",
    "satisfies_template",
]
