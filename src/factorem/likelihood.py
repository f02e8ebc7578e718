"""Complete and observed log-likelihoods and the analytic score.

These are the numerical ground truth for the EM tests: the observed
log-likelihood must never decrease along the iteration, the complete
log-likelihood factorizes over the model's conditional densities, and
the analytic score must match finite differences.

Sign convention: everything here is a log-likelihood (to maximize),
never a deviance, and includes the exact Gaussian normalizers so that
log p(z, h) = log p(z) + log p(h | z) holds numerically.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .estep import LOG_2PI, block_residuals, conditional_law, positive_variances
from .model import Dataset, Latents, Theta, flatten_parts

__all__ = ["LogLik", "Score", "complete_loglik", "observed_loglik", "complete_score"]


@dataclass
class LogLik:
    """Total log-likelihood and the per-unit contributions summing to it."""

    value: float
    per_unit: np.ndarray


@dataclass
class Score:
    """Gradient of the complete log-likelihood, one field per parameter."""

    d: np.ndarray
    d_m: tuple[np.ndarray, ...]
    b: np.ndarray
    a_m: tuple[np.ndarray, ...]
    c: np.ndarray
    sigma2_y: float
    sigma2_m: tuple[float, ...]

    def flatten(self) -> np.ndarray:
        """K-vector in the canonical parameter ordering."""
        return flatten_parts(
            self.d, self.d_m, self.b, self.a_m, self.c,
            self.sigma2_y, self.sigma2_m,
        )


def _block_residuals(theta: Theta, data: Dataset, latents: Latents):
    """Measurement residuals with the factor contribution removed:
    Y, then X^1..X^p, each with its noise variance."""
    variances = positive_variances(theta, "log-likelihood")
    if latents.f.shape[0] != data.p:
        raise DataError(
            f"latents carry {latents.f.shape[0]} explanatory factors but "
            f"the data has {data.p} blocks"
        )
    factors = (latents.g, *latents.f)
    loadings = (theta.b, *theta.a_m)
    resid = [
        r - np.outer(h, lam)
        for r, h, lam in zip(block_residuals(theta, data), factors, loadings)
    ]
    return zip(resid, factors, variances)


def complete_loglik(theta: Theta, data: Dataset, latents: Latents) -> LogLik:
    """Joint log-density of the observations and the latent factors."""
    dims = data.dimensions()
    blocks = _block_residuals(theta, data, latents)
    quad = (latents.g - theta.c @ latents.f) ** 2 + np.sum(latents.f**2, axis=0)
    for resid, _, var in blocks:
        quad += np.sum(resid**2, axis=1) / var + resid.shape[1] * np.log(var)

    per_unit = -0.5 * (quad + (dims.q_total + dims.p + 1) * LOG_2PI)
    return LogLik(value=float(per_unit.sum()), per_unit=per_unit)


def observed_loglik(theta: Theta, data: Dataset) -> LogLik:
    """Log-density of the observations with the latents marginalized out.

    The E-step computes it alongside the conditional law from
    (p+1)-dimensional algebra; see ``estep``.
    """
    per_unit = conditional_law(theta, data).loglik
    return LogLik(value=float(per_unit.sum()), per_unit=per_unit)


def complete_score(theta: Theta, data: Dataset, latents: Latents) -> Score:
    """Analytic gradient of ``complete_loglik`` with respect to theta.

    Matches central finite differences of the complete log-likelihood;
    the variance components include the -1/2 log-term contribution, so
    at zero residuals d/d(sigma2_y) equals -n q_y / (2 sigma2_y).
    """
    grads = []
    for t, (resid, factor, var) in zip(
        (data.t, *data.t_m), _block_residuals(theta, data, latents)
    ):
        inv = 1.0 / var
        grads.append((
            inv * t.T @ resid,                   # layout of d: (r, q)
            inv * resid.T @ factor,
            -0.5 * resid.size * inv + 0.5 * float(np.sum(resid**2)) * inv**2,
        ))
    (grad_d, grad_b, grad_s2y), *blocks = grads
    grad_dm, grad_am, grad_s2m = zip(*blocks)

    disturbance = latents.g - theta.c @ latents.f
    grad_c = latents.f @ disturbance

    return Score(
        d=grad_d,
        d_m=grad_dm,
        b=grad_b,
        a_m=grad_am,
        c=grad_c,
        sigma2_y=float(grad_s2y),
        sigma2_m=tuple(float(gs) for gs in grad_s2m),
    )
