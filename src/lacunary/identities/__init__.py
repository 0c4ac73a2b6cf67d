"""Identity registry, check engines, and report types.

Only the report names (the record, the modes, the default tolerance) load
with the package; every other name loads its submodule on first access, so
`derive-aux` never compiles the registry that only `list` and `verify` read.
When the `registry` submodule loads, the import system binds it on the
package; a data descriptor on the package's class outranks that binding
(Python data model, "Customizing module attribute access"), so the
package's `registry` stays the function.
"""

import sys
import types

from .. import _lazy_exports
from .report import DEFAULT_TOL, EXACT, MODES, NUMERIC, QUADRATURE, VerificationReport

_LAZY = {
    "IdentityCase": "registry",
    "all_ids": "registry",
    "check_coefficients": "registry",
    "check_pointwise": "registry",
    "check_quadrature": "registry",
    "get_case": "registry",
    "registry": "registry",
    "run_case": "registry",
    "AuxPolynomial": "bridges",
    "compare_with_printed": "auxpoly",
    "derive_aux_polynomial": "auxpoly",
    "satisfies_template": "auxpoly",
}


class _Package(types.ModuleType):
    registry = property(lambda self: __getattr__("registry"), lambda self, module: None)


__getattr__, __dir__, __all__ = _lazy_exports(globals(), _LAZY)
sys.modules[__name__].__class__ = _Package
