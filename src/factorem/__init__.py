"""EM maximum-likelihood estimation of a latent-factor structural
equation model: one dependent factor driven by p explanatory factors,
each measured by its own block of observed variables, with per-unit
factor scores alongside the parameter estimates."""

from .em import EMConfig, FitResult, canonicalize, em_step, fit, initialize, relative_change
from .errors import (
    DataError,
    DegeneratePosteriorError,
    FactorEMError,
    NonFiniteParameterError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from .estep import ConditionalLaw, LogLik, conditional_law, observed_loglik
from .evaluate import (
    ResampleSummary,
    StudySummary,
    abs_rel_deviation,
    factor_sq_correlation,
    kfold_resample,
    replicate_study,
    sensitivity_sweep,
)
from .model import (
    Dataset,
    Dimensions,
    Theta,
    count_parameters,
    flatten_theta,
    subset_units,
    theta_names,
    unflatten_theta,
)
from .mstep import expected_score, project_covariates, update_theta
from .simulate import SimConfig, reference_theta, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "EMConfig", "FitResult", "canonicalize", "em_step", "fit", "initialize",
    "relative_change",
    "FactorEMError", "DataError", "NotPositiveDefiniteError",
    "SingularSystemError", "DegeneratePosteriorError", "NonFiniteParameterError",
    "ConditionalLaw", "conditional_law",
    "StudySummary", "ResampleSummary", "abs_rel_deviation",
    "factor_sq_correlation", "replicate_study", "sensitivity_sweep",
    "kfold_resample",
    "LogLik", "observed_loglik",
    "Dimensions", "Dataset", "Theta", "count_parameters",
    "flatten_theta", "unflatten_theta", "theta_names", "subset_units",
    "project_covariates", "update_theta", "expected_score",
    "SimConfig", "reference_theta", "simulate_dataset",
]
