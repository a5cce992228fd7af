"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes or vector lengths are inconsistent with the operation."""


class ValidationError(ValueError):
    """A matrix failed a numerical validity check.

    ``reason`` is one of ``"not-finite"``, ``"not-hermitian"``, ``"not-psd"``,
    ``"trace-not-one"``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class DomainError(ValueError):
    """A scalar argument lies outside the mathematical domain of the operation."""


class InfeasibleError(ValueError):
    """The requested object provably does not exist (rank range, spectra compatibility)."""


class PreconditionError(ValueError):
    """A mathematical precondition (e.g. a majorization relation) is violated."""


class UnsupportedRegimeError(ValueError):
    """The inputs fall in a parameter regime the constructive theory does not cover."""


class InvalidCertificateError(ValueError):
    """A dependency certificate does not annihilate the factor products it claims to."""


class InternalInvariantError(RuntimeError):
    """A construction the theory guarantees to succeed failed its own validation."""
