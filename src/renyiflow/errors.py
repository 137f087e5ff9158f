"""Exception taxonomy shared across the package."""


class RenyiflowError(Exception):
    """Base class for all package errors."""


class StructuralError(RenyiflowError):
    """Input violates a structural contract (shape, Hermiticity, trace)."""


class SingularityError(RenyiflowError):
    """A spectral operation hit a (near-)singular matrix."""


class ValidationError(RenyiflowError):
    """A generator or state failed its validity conditions."""


class DomainError(RenyiflowError):
    """A scalar parameter lies outside its admissible range."""


class IntegrationError(RenyiflowError):
    """The propagated flow left the state space (positivity breach)."""
