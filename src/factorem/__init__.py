"""EM maximum-likelihood estimation of a latent-factor structural
equation model: one dependent factor driven by p explanatory factors,
each measured by its own block of observed variables, with per-unit
factor scores alongside the parameter estimates."""

from .em import EMConfig, FitResult, canonicalize, fit
from .errors import (
    DataError,
    DegeneratePosteriorError,
    FactorEMError,
    NonFiniteParameterError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from .estep import ConditionalLaw, observed_loglik
from .evaluate import abs_rel_deviation, factor_sq_correlation
from .model import Dataset, Dimensions, Theta, flatten_theta
from .simulate import SimConfig, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "Dimensions", "Dataset", "Theta", "flatten_theta", "SimConfig", "simulate_dataset",
    "EMConfig", "FitResult", "fit", "canonicalize", "ConditionalLaw", "observed_loglik",
    "abs_rel_deviation", "factor_sq_correlation",
    "FactorEMError", "DataError", "NotPositiveDefiniteError",
    "SingularSystemError", "DegeneratePosteriorError", "NonFiniteParameterError",
]
