"""Case registry: one entry per numbered identity, with engine bindings.

Each case binds one runner per verification mode it has, and its modes are
exactly the runners it sets.  Exact mode streams (label, lhs, rhs) Fraction
pairs from the coefficient engines and demands literal equality.  Numeric
mode walks a registered grid of PointOutcomes and applies the
relative-error, tail, and truncation-stability rules.  Quadrature mode
covers the single transform identity.

The tuple-driven exact runners check the case's base rational tuples plus
two tuples drawn from a seeded generator, so a fixed seed reproduces the
report exactly; the tuples and draw specs sit beside each engine in
`exact`.  The other exact runners take the order alone (`_ordered`).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional

from ..errors import DomainError, ModeUnsupported, NumericError, UnknownIdentity
from ..scalars import check_order
from ..summation import SumControl
from . import exact
from .report import DEFAULT_TOL, EXACT, MODES, NUMERIC, QUADRATURE, VerificationReport

if TYPE_CHECKING:
    import random

    from .pointwise import Engine, PointOutcome

DEFAULT_EXACT_ORDER = 10
DEFAULT_TERMS = 60
STABILITY_FRACTION = 0.1
MAX_NOTED_FAILURES = 5

_CTRL = SumControl(max_terms=400, rel_tol=1e-16)

QuadratureRunner = Callable[[float], Iterator["PointOutcome"]]


class IdentityCase(NamedTuple):
    case_id: str
    paper_ref: str
    description: str
    exact_runner: Optional[exact.Runner] = None
    numeric_runner: Optional[Engine] = None
    quadrature_runner: Optional[QuadratureRunner] = None
    exact_order: int = DEFAULT_EXACT_ORDER
    notes: tuple = ()

    @property
    def modes(self) -> tuple:
        """The modes whose runner is set, in MODES order."""
        return tuple(m for m in MODES if getattr(self, f"{m}_runner") is not None)


def _ordered(engine) -> exact.Runner:
    def run(order: int, rng: random.Random) -> Iterator[exact.Check]:
        return engine(order)

    return run


def _pointwise():
    """The float engines' module, imported by the first numeric or quadrature
    run, so an exact-only run never compiles the float stack."""
    from . import pointwise

    return pointwise


_CASES = (
    IdentityCase(
        "EQ1.7", "Eq. 1.7",
        "exponential generating function of the two-index family, "
        "Wright-type closed form",
        exact_runner=exact.eq1_7,
        numeric_runner=lambda *a: _pointwise().eq1_7(*a),
    ),
    IdentityCase(
        "EQ1.9", "Eq. 1.9",
        "ordinary generating function of the two-index family, "
        "Mittag-Leffler closed form",
        exact_runner=exact.eq1_9,
        numeric_runner=lambda *a: _pointwise().eq1_9(*a),
    ),
    IdentityCase(
        "EQ1.11", "Eq. 1.11",
        "classical associated generating function via composed power series",
        exact_runner=exact.eq1_11,
    ),
    IdentityCase(
        "EQ1.12", "Eq. 1.12",
        "integer-order associated family, exponential weight, reduced to "
        "Wright blocks",
        numeric_runner=lambda *a: _pointwise().eq1_12(*a),
    ),
    IdentityCase(
        "EQ2.7", "Eq. 2.6/2.7",
        "even-index exponential generating function via a Hermite-weighted "
        "double sum",
        exact_runner=exact.eq2_7,
        numeric_runner=lambda *a: _pointwise().eq2_7(*a),
    ),
    IdentityCase(
        "EQ2.8", "Eq. 2.8",
        "even-index associated generating function with derived even-degree "
        "weight polynomial",
        numeric_runner=lambda *a: _pointwise().eq2_8(*a),
        notes=(
            "the printed p2 and p4 displays are verified; p4 differs from the "
            "fitted representative by a null direction of the weight "
            "recurrences and induces the same sums",
        ),
    ),
    IdentityCase(
        "EQ2.9", "Eq. 2.9",
        "even-index two-index family against a two-variable Wright series",
        numeric_runner=lambda *a: _pointwise().eq2_9(*a),
    ),
    IdentityCase(
        "EQ2.10", "Eq. 2.10",
        "even-index ordinary generating function resummed over diagonal "
        "associated polynomials",
        numeric_runner=lambda *a: _pointwise().eq2_10(*a),
    ),
    IdentityCase(
        "EQ2.11", "Eq. 2.11",
        "triple-index ordinary generating function resummed over a nested "
        "diagonal sum",
        numeric_runner=lambda *a: _pointwise().eq2_11(*a),
    ),
    IdentityCase(
        "EQ2.13", "Eq. 2.13",
        "negative-offset associated family, binomial-exponential closed form",
        exact_runner=exact.eq2_13,
        numeric_runner=lambda *a: _pointwise().eq2_13(*a),
        notes=(
            "second line of the printed display repeats an equals sign; the "
            "exponential-decay reading is the one verified",
        ),
    ),
    IdentityCase(
        "EQ2.14", "Eq. 2.14",
        "even negative-offset family, trigonometric closed form evaluated "
        "through complex branches",
        numeric_runner=lambda *a: _pointwise().eq2_14(*a),
    ),
    IdentityCase(
        "EQ3.1", "Eq. 3.1",
        "shifted double-lacunary exponential generating function",
        numeric_runner=lambda *a: _pointwise().eq3_1(*a),
    ),
    IdentityCase(
        "EQ3.3", "Eq. 3.3",
        "shifted triple-lacunary exponential generating function",
        numeric_runner=lambda *a: _pointwise().eq3_3(*a),
    ),
    IdentityCase(
        "EQ3.4", "Eq. 3.4",
        "triple-lacunary associated generating function with derived cubic "
        "weight",
        numeric_runner=lambda *a: _pointwise().eq3_4(*a),
        notes=(
            "inner summation index in the printed display shadows the outer "
            "one; the independent-index reading is verified with the q3 table, "
            "the r-reading of the printed display",
        ),
    ),
    IdentityCase(
        "EQ3.5", "Eq. 3.5",
        "m-fold lacunary exponential generating function via multi-variable "
        "Hermite blocks",
        numeric_runner=lambda *a: _pointwise().eq3_5(*a),
    ),
    IdentityCase(
        "EQ3.8", "Eq. 3.8",
        "bilateral product generating function via two commuting symbols",
        exact_runner=exact.eq3_8,
        numeric_runner=lambda *a: _pointwise().eq3_8(*a),
    ),
    IdentityCase(
        "EQ3.9", "Eq. 3.9",
        "Pochhammer-weighted even-index generating function resummed over "
        "diagonals",
        numeric_runner=lambda *a: _pointwise().eq3_9(*a),
    ),
    IdentityCase(
        "EQ3.10", "Eq. 3.10",
        "Pochhammer-weighted even-index generating function, modified-Bessel "
        "closed form",
        numeric_runner=lambda *a: _pointwise().eq3_10(*a),
        notes=(
            "printed closed form omits a factorial normalization (small-t "
            "limit: left side 1, right side 1/m!); verified with the factor "
            "restored",
        ),
    ),
    IdentityCase(
        "EQ3.11", "Eq. 3.11",
        "Pochhammer-weighted triple-index generating function, nested closed "
        "form",
        numeric_runner=lambda *a: _pointwise().eq3_11(*a),
    ),
    IdentityCase(
        "EQ3.14", "Eq. 3.14",
        "exponential of the lowering derivative acting on the exponential "
        "kernel",
        exact_runner=_ordered(exact.eq3_14),
        exact_order=12,
    ),
    IdentityCase(
        "EQ3.15", "Eq. 3.15",
        "eigenfunction property of the zeroth Bessel-type kernel under the "
        "lowering-derivative flow",
        exact_runner=_ordered(exact.eq3_15),
        exact_order=20,
    ),
    IdentityCase(
        "EQ3.17", "Eq. 3.17",
        "zeroth Bessel function as a pseudo-Gaussian umbral exponential",
        exact_runner=_ordered(exact.eq3_17),
        exact_order=20,
    ),
    IdentityCase(
        "EQ3.18", "Eq. 3.18/3.19",
        "dilation of the pseudo-Gaussian to a Gaussian, with a transform "
        "quadrature cross-check",
        exact_runner=_ordered(exact.eq3_18_exact),
        quadrature_runner=lambda *a: _pointwise().borel_points(*a),
        exact_order=20,
    ),
    IdentityCase(
        "EQ3.20", "Eq. 3.20",
        "Gaussian as a geometric umbral series",
        exact_runner=_ordered(exact.eq3_20),
        exact_order=20,
    ),
    IdentityCase(
        "EQ3.21", "Eq. 3.21",
        "error-function integral as an umbral arctangent",
        exact_runner=_ordered(exact.eq3_21),
        exact_order=20,
    ),
)

_BY_ID = {c.case_id: c for c in _CASES}


def registry() -> list:
    return list(_CASES)


def all_ids() -> list:
    return [c.case_id for c in _CASES]


def get_case(case_id: str) -> IdentityCase:
    try:
        return _BY_ID[case_id]
    except KeyError:
        raise UnknownIdentity(
            f"unknown identity id {case_id!r}; valid ids: {', '.join(all_ids())}"
        ) from None


def _safe_float(v: Fraction) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf


Rule = Callable[[object], tuple[float, float, Optional[str]]]


def _worse(worst, err):
    """The larger error; a NaN wins and then stays, where max() would drop it."""
    if worst != worst or err <= worst:
        return worst
    return err


def _tally(
    case: IdentityCase, mode: str, truncation: int, rows: Iterable, rule: Rule
) -> VerificationReport:
    """Apply `rule` to every streamed row and condense the verdicts.

    rule(row) gives (abs_err, rel_err, failure label or None).  A
    NumericError mid-stream (a QuadratureFailure, or a float kernel's
    overflow) fails the report but keeps the rows tallied so far; any other
    error propagates.
    """
    count = 0
    failures = []
    max_abs = 0.0
    max_rel = 0.0
    try:
        for row in rows:
            count += 1
            abs_err, rel_err, failure = rule(row)
            max_abs = _worse(max_abs, abs_err)
            max_rel = _worse(max_rel, rel_err)
            if failure is not None:
                failures.append(failure)
    except NumericError as exc:
        failures.append(str(exc))
    notes = list(case.notes)
    if failures:
        shown = failures[:MAX_NOTED_FAILURES]
        if mode == EXACT:
            notes.append(f"{len(failures)} coefficient mismatches (first: {', '.join(shown)})")
        else:
            notes.append("failed points: " + "; ".join(shown))
    return VerificationReport(
        case_id=case.case_id,
        paper_ref=case.paper_ref,
        mode=mode,
        grid_size=count,
        truncation=truncation,
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        passed=not failures,
        notes=notes,
    )


def _case_with(case_id: str, mode: str) -> IdentityCase:
    case = get_case(case_id)
    if mode not in case.modes:
        raise ModeUnsupported(f"{case_id} has no {mode} mode")
    return case


def _exact_rule(row: exact.Check) -> tuple[float, float, Optional[str]]:
    label, lhs, rhs = row
    if lhs == rhs:
        return 0.0, 0.0, None
    err = abs(_safe_float(lhs - rhs))
    scale = max(1.0, abs(_safe_float(lhs)), abs(_safe_float(rhs)))
    return err, err / scale if math.isfinite(err) else math.inf, label


def _point_rule(tol: float, budgeted: bool) -> Rule:
    """Relative error against tol; with budgets, tail and drift first.

    A point whose sum is truncated is named by its tail or drift, even when
    its relative error is over tol too.  Each test is written
    `not value <= bound`, so a NaN fails it.
    """

    def rule(o: PointOutcome) -> tuple[float, float, Optional[str]]:
        err = abs(o.lhs - o.rhs)
        rel = err / max(1.0, abs(o.lhs), abs(o.rhs))
        if budgeted:
            budget = STABILITY_FRACTION * tol * max(1.0, abs(o.lhs))
            if not o.tail <= budget:
                return err, rel, f"{o.label} tail={o.tail:.3e}"
            if not o.drift <= budget:
                return err, rel, f"{o.label} drift={o.drift:.3e}"
        if not rel <= tol:
            return err, rel, f"{o.label} rel={rel:.3e}"
        return err, rel, None

    return rule


def check_coefficients(
    case_id: str, nmax: Optional[int] = None, seed: int = 0
) -> VerificationReport:
    """Exact mode: every streamed coefficient pair must be literally equal."""
    case = _case_with(case_id, EXACT)
    order = case.exact_order if nmax is None else nmax
    check_order(order, 1)
    import random  # only the exact runners draw

    rows = case.exact_runner(order, random.Random(seed))
    return _tally(case, EXACT, order, rows, _exact_rule)


def _check_tol(tol) -> None:
    """Raise DomainError unless tol is a finite real > 0; a bool is none, and
    an int past the float range is not finite."""
    real = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    if not (real and 0 < tol <= sys.float_info.max):
        raise DomainError(f"tolerance must be a finite real > 0, got {tol!r}")


def check_pointwise(
    case_id: str,
    tol: float = DEFAULT_TOL,
    n_terms: Optional[int] = None,
    grid_scale: float = 1.0,
) -> VerificationReport:
    """Numeric mode: relative error, tail, and stability rules per point.

    grid_scale shrinks every t of the registered grid; outside (0, 1], NaN
    included, it raises DomainError, as do a term count that is not an
    int >= 1 and a tol that is not a finite real > 0.
    """
    case = _case_with(case_id, NUMERIC)
    terms = DEFAULT_TERMS if n_terms is None else n_terms
    check_order(terms, 1)
    _check_tol(tol)
    if not 0.0 < grid_scale <= 1.0:
        raise DomainError(f"grid scale must lie in (0, 1], got {grid_scale!r}")
    rows = case.numeric_runner(terms, grid_scale, _CTRL)
    return _tally(case, NUMERIC, terms, rows, _point_rule(tol, budgeted=True))


def check_quadrature(case_id: str, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Quadrature mode: transform integral against its closed form; a tol
    that is not a finite real > 0 raises DomainError."""
    case = _case_with(case_id, QUADRATURE)
    _check_tol(tol)
    rows = case.quadrature_runner(tol)
    return _tally(case, QUADRATURE, 0, rows, _point_rule(tol, budgeted=False))


def run_case(
    case_id: str,
    mode: str = "all",
    nmax: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    grid_scale: float = 1.0,
    seed: int = 0,
) -> list:
    """All reports for one case, restricted to a mode filter.

    The filter accepts a name from MODES or "all"; a mode the case does not
    register is skipped silently under "all" and raises ModeUnsupported
    when requested explicitly.  nmax sets both the exact order and the
    numeric term count.  The checks are looked up as module globals at
    call time, so a wrapper installed on them sees every report.
    """
    case = get_case(case_id)
    if mode != "all" and mode not in MODES:
        raise ModeUnsupported(f"unknown mode {mode!r}")
    checks = {
        EXACT: lambda: check_coefficients(case_id, nmax=nmax, seed=seed),
        NUMERIC: lambda: check_pointwise(
            case_id, tol=tol, n_terms=nmax, grid_scale=grid_scale
        ),
        QUADRATURE: lambda: check_quadrature(case_id, tol=tol),
    }
    wanted = case.modes if mode == "all" else (mode,)
    return [checks[m]() for m in wanted]
