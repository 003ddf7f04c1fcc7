"""Exception hierarchy shared across the package."""


class DrgError(Exception):
    """Base class for all drgcert errors."""


class ParameterError(DrgError, ValueError):
    """Invalid input: construction parameters, or a subset or certificate
    that the requested check cannot judge (exit 1, not a failed check)."""


class UnsupportedField(ParameterError):
    """Field order is not a prime (prime powers are not implemented)."""


class UnsupportedFamily(ParameterError):
    """Closed-form bound requested for an unknown graph family."""


class SingularSystem(DrgError, ArithmeticError):
    """An exact linear system has no unique solution."""


class IrrationalEigenvalue(DrgError):
    """The tridiagonal characteristic polynomial does not split over Q."""


class NotQPolynomial(DrgError):
    """No ordering of the idempotents makes the Krein tensor tridiagonal."""


class NotDistanceRegular(DrgError):
    """Pair-dependent intersection numbers; carries a witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DisconnectedGraph(DrgError):
    """BFS did not reach every vertex."""


class TierLimitExceeded(DrgError):
    """Requested object is larger than the configured desk-scale cap."""


class FundamentalInequalityViolated(DrgError):
    """w + w* < d computed for some subset; signals a bug, never valid data."""


class WidthTooLarge(ParameterError):
    """Subset width exceeds d - t, so the certificate does not apply."""


class InfeasibleCertificate(ParameterError):
    """A subset was certified against a certificate that is not feasible."""


class DistanceUndetermined(DrgError):
    """Pair distance cannot be settled without materializing the full graph."""
