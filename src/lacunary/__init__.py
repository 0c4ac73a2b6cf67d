"""Umbral-calculus toolkit for lacunary generating-function identities.

The package has three layers.  The base layer supplies exact/float scalar
helpers, guarded series summation, truncated formal power series, and a
two-symbol umbral engine whose reduction map is the independent oracle for
everything above it.  The polynomial layer evaluates the Laguerre-type and
multi-variable Hermite families both exactly and by recurrence.  The
identity layer registers every numbered generating-function identity and
verifies each one against the oracle in exact-coefficient, pointwise, or
quadrature mode; the command line entry point batch-runs that registry.

`import lacunary` loads only the errors, scalars and polys modules; every
other public name imports its submodule on first access.
"""

import importlib
import types

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
from .polys import (
    assoc_laguerre,
    assoc_laguerre_sequence,
    assoc_laguerre_xpoly,
    hermite_coeff_sequence,
    hermite_coeffs,
    hermite_h_sequence,
    hermite_h_values,
    laguerre,
    laguerre_sequence,
    laguerre_xpoly,
    lambda_poly,
)
from .scalars import as_real, is_exact, rgamma, rgamma_exact

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, lazy: dict) -> tuple:
    """(__getattr__, __dir__, __all__) for the package whose globals are
    `namespace` and whose `lazy` names, each mapped to the submodule that
    defines it, load on first access (PEP 562).

    __all__ is the public non-module names bound so far plus the lazy ones.
    A resolved name is cached in `namespace`, so it resolves once.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in lazy:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f".{lazy[name]}", package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list:
        return sorted({*namespace, *lazy})

    eager = [
        k for k, v in namespace.items() if k[0] != "_" and not isinstance(v, types.ModuleType)
    ]
    return __getattr__, __dir__, sorted([*eager, *lazy])


#: Every other public name, by the submodule that defines it.
_LAZY = {
    "FormalPowerSeries": "fps",
    "fps_binomial": "fps",
    "fps_exp": "fps",
    "fps_x": "fps",
    "AuxPolynomial": "identities.bridges",
    "IdentityCase": "identities.registry",
    "VerificationReport": "identities.report",
    "all_ids": "identities.registry",
    "check_coefficients": "identities.registry",
    "check_pointwise": "identities.registry",
    "check_quadrature": "identities.registry",
    "compare_with_printed": "identities.auxpoly",
    "derive_aux_polynomial": "identities.auxpoly",
    "get_case": "identities.registry",
    "registry": "identities.registry",
    "run_case": "identities.registry",
    "bessel_i": "specialfns",
    "bessel_j0": "specialfns",
    "h_bessel_j": "specialfns",
    "h_tricomi": "specialfns",
    "h_tricomi_bilateral": "specialfns",
    "h_wright": "specialfns",
    "mittag_leffler": "specialfns",
    "tricomi": "specialfns",
    "wright": "specialfns",
    "SumControl": "summation",
    "sum_series": "summation",
    "UmbralSeries": "umbral",
    "reduce_exp": "umbral",
    "umb_exp": "umbral",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _LAZY)
