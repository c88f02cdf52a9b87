"""Exception types shared across the library."""


class EllexError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EllexError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NonConvergentBase(DomainError):
    """A product base has modulus >= 1, so the expansion diverges, or lies
    so close to 1 that no product at it could be formed."""


class TruncationExceeded(EllexError):
    """The certified tail bound was not reached within max_terms."""


class NearSingularity(EllexError):
    """Evaluation point too close to a pole or a theta zero."""


class SingularMatrix(EllexError):
    """Matrix inversion failed or is numerically meaningless."""


class AnnulusContainsPole(EllexError):
    """Requested contour radius sits too close to a pole circle."""


class QuadratureUnresolved(EllexError):
    """Doubling the node count moved a Laurent coefficient too much."""


class SamplingExhausted(EllexError):
    """A verification grid ran out of tries before finding enough valid points."""
