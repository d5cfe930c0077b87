"""Exception types shared across the package.

The command line maps these onto distinct exit codes, so the hierarchy is
kept flat and specific rather than deep.
"""


class ParameterError(ValueError):
    """Problem parameters outside their admissible range."""


class CoefficientError(ValueError):
    """Coefficient model is invalid (non-positive, malformed table, ...)."""


class TableError(CoefficientError):
    """A tabulated profile breaks ``rule`` first at sample ``index`` (from 0)."""

    def __init__(self, rule, index):
        super().__init__(f"{rule} (sample {index})")
        self.rule, self.index = rule, index


class ProfileRangeError(CoefficientError):
    """Tabulated profile queried outside its range with no declared tail."""


class IntegrationError(RuntimeError):
    """Adaptive integration failed before reaching the end of the grid.

    Carries the last accepted state so callers can report how far the
    solve got.
    """

    def __init__(self, message, r=None, u=None):
        super().__init__(message)
        self.r = r
        self.u = u


class BlowupGuardError(IntegrationError):
    """Solution exceeded the overflow guard (1e300).

    Entire solutions of the Cauchy problem treated here cannot blow up at
    a finite radius, so hitting the guard always indicates invalid input
    (e.g. a coefficient growing super-polynomially) or a solver defect.
    """


class DomainTooLargeError(RuntimeError):
    """Break-line construction left its containment box; retry with a
    smaller right endpoint."""


class OscillationError(RuntimeError):
    """Oscillation-smallness integral is infinite, so no admissible
    starting height can be derived automatically."""


class OrderingError(RuntimeError):
    """Sub/supersolution ordering failed at some radius; the caller may
    retry with a larger margin."""

    def __init__(self, message, radius=None, suggested_margin=None):
        super().__init__(message)
        self.radius = radius
        self.suggested_margin = suggested_margin
