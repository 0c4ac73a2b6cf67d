"""Identity registry, check engines, and report types.

The registry names load with the package: every command reads the
registry, and its `registry` function must replace the submodule of that
name, which the import system binds on the package when the submodule
loads.  The bridge-polynomial names load `bridges` or `auxpoly` on first
access.
"""

from .. import _lazy_exports
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

_LAZY = {
    "AuxPolynomial": "bridges",
    "compare_with_printed": "auxpoly",
    "derive_aux_polynomial": "auxpoly",
    "satisfies_template": "auxpoly",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _LAZY)
