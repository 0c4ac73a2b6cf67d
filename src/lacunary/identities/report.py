"""Result records produced by the verification engines, with the mode
names and the default tolerance that the registry and the command line share."""

from __future__ import annotations

from typing import NamedTuple, Sequence

EXACT = "exact"
NUMERIC = "numeric"
QUADRATURE = "quadrature"
#: Every mode, in the order a case's reports are produced.
MODES = (EXACT, NUMERIC, QUADRATURE)

DEFAULT_TOL = 1e-8


class VerificationReport(NamedTuple):
    """Outcome of checking one identity in one mode.

    max_abs_err and max_rel_err are exact zeros for coefficient checks that
    passed; pointwise checks store the worst errors seen over the grid.
    """

    case_id: str
    paper_ref: str
    mode: str
    grid_size: int
    truncation: int
    max_abs_err: float
    max_rel_err: float
    passed: bool
    notes: Sequence[str] = ()

    def to_dict(self) -> dict:
        """Field order here is the serialization order."""
        return {
            "id": self.case_id,
            "paper_ref": self.paper_ref,
            "mode": self.mode,
            "grid_size": self.grid_size,
            "truncation": self.truncation,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
            "notes": list(self.notes),
        }

    def summary_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.case_id:8s} {self.mode:10s} {status}  "
            f"grid={self.grid_size} N={self.truncation} "
            f"abs={self.max_abs_err:.3e} rel={self.max_rel_err:.3e}"
        )

