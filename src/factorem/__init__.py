"""EM maximum-likelihood estimation of a latent-factor structural
equation model: one dependent factor driven by p explanatory factors,
each measured by its own block of observed variables, with per-unit
factor scores alongside the parameter estimates."""

from .em import EMConfig, FitResult, canonicalize, em_step, fit, initialize, relative_change
from .errors import (
    DataError,
    DegeneratePosteriorError,
    FactorEMError,
    NotPositiveDefiniteError,
    SingularSystemError,
)
from .estep import ConditionalLaw, PosteriorMoments, conditional_law, posterior_moments
from .evaluate import (
    ResampleSummary,
    StudySummary,
    abs_rel_deviation,
    factor_sq_correlation,
    kfold_resample,
    replicate_study,
    sensitivity_sweep,
)
from .likelihood import LogLik, Score, complete_loglik, complete_score, observed_loglik
from .model import (
    Dataset,
    Dimensions,
    Latents,
    Theta,
    count_parameters,
    flatten_theta,
    subset_units,
    theta_names,
    unflatten_theta,
)
from .mstep import (
    SufficientStats,
    expected_complete_loglik,
    expected_score,
    sufficient_stats,
    update_theta,
)
from .simulate import SimConfig, reference_theta, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "EMConfig", "FitResult", "canonicalize", "em_step", "fit", "initialize",
    "relative_change",
    "FactorEMError", "DataError", "NotPositiveDefiniteError",
    "SingularSystemError", "DegeneratePosteriorError",
    "ConditionalLaw", "PosteriorMoments", "conditional_law", "posterior_moments",
    "StudySummary", "ResampleSummary", "abs_rel_deviation",
    "factor_sq_correlation", "replicate_study", "sensitivity_sweep",
    "kfold_resample",
    "LogLik", "Score", "complete_loglik", "observed_loglik", "complete_score",
    "Dimensions", "Dataset", "Theta", "Latents", "count_parameters",
    "flatten_theta", "unflatten_theta", "theta_names", "subset_units",
    "SufficientStats", "sufficient_stats", "update_theta", "expected_score",
    "expected_complete_loglik",
    "SimConfig", "reference_theta", "simulate_dataset",
]
