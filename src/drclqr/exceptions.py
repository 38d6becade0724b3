"""Exception hierarchy for drclqr.

Everything raised on a domain-level failure derives from :class:`DrclqrError`,
so callers (and the CLI) can distinguish "the math said no" from programming
errors, which stay ordinary Python exceptions.
"""


class DrclqrError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(DrclqrError):
    """Matrix shapes are mutually inconsistent for the requested operation."""


class AsymmetricMatrix(DrclqrError):
    """A weight matrix that must be symmetric has asymmetry above tolerance."""


class NotPositiveDefinite(DrclqrError):
    """A matrix required to be positive definite is not.

    Carries ``lambda_min`` (smallest eigenvalue, when cheaply available) so
    callers can report how badly the assumption failed.
    """

    def __init__(self, message, lambda_min=None):
        super().__init__(message)
        self.lambda_min = lambda_min


class Unstable(DrclqrError):
    """Spectral radius >= 1 where asymptotic stability is required."""


class NotStabilizing(DrclqrError):
    """A candidate pre-stabilizing gain fails to stabilize the plant."""


class NoConvergence(DrclqrError):
    """An iterative solver hit its iteration cap before meeting tolerance."""


class SingularPencil(DrclqrError):
    """The Stein series of A'XB + C = X diverges: rho(A) rho(B) >= 1."""


class InvalidHorizon(DrclqrError):
    """Horizon or time-index argument outside its admissible range."""


class NonFinite(DrclqrError):
    """Simulated state overflowed or became non-finite.

    ``step`` records the first offending time index.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ParseError(DrclqrError):
    """A system file could not be parsed into a valid system description."""
