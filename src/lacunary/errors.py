"""Exception types shared across the package."""


class LacunaryError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LacunaryError):
    """Input outside the documented domain of an operation."""


class NumericError(LacunaryError):
    """A floating-point computation produced a non-finite or unusable value."""


class ImaginaryResidue(NumericError):
    """A nominally real quantity came back with a non-negligible imaginary part."""


class NonConvergence(NumericError):
    """A series summation hit its term budget before meeting the stop rule."""


class ExactnessViolation(LacunaryError):
    """An exact-mode computation would require a non-exact step."""


class ModeMismatch(LacunaryError):
    """Exact and floating operands were combined where a single mode is required."""


class MissingDegreeMetadata(LacunaryError):
    """Operation needs per-term x-degree metadata the series does not carry."""


class TermBudgetExceeded(LacunaryError):
    """An expansion produced more terms than the configured cap allows."""


class NoSolution(LacunaryError):
    """A fitted linear system is inconsistent."""


class QuadratureFailure(NumericError):
    """A quadrature rule failed its internal consistency check."""


class UnknownIdentity(LacunaryError):
    """Identity id not present in the registry."""


class ModeUnsupported(LacunaryError):
    """Requested verification mode is not registered for the identity."""
