"""Exception types raised by the estimation pipeline."""


class FactorEMError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FactorEMError):
    """Invalid or inconsistent input data (shapes, values, files)."""


class NotPositiveDefiniteError(FactorEMError):
    """A covariance matrix that must be positive definite is not."""


class SingularSystemError(FactorEMError):
    """A linear system in the closed-form update is singular
    (collinear covariates or a degenerate structural system)."""


class DegeneratePosteriorError(FactorEMError):
    """Posterior moments leave a loading update ill-defined
    (non-positive denominator)."""


class NonFiniteParameterError(FactorEMError):
    """An EM update produced a non-finite parameter."""
