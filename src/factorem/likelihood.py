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
from .estep import LOG_2PI, conditional_law
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


def _require_positive_variances(theta: Theta):
    if theta.sigma2_y <= 0 or any(s <= 0 for s in theta.sigma2_m):
        raise DataError(
            "log-likelihood needs strictly positive noise variances, got "
            f"sigma2_y={theta.sigma2_y}, sigma2_m={theta.sigma2_m}"
        )


def _block_residuals(theta: Theta, data: Dataset, latents: Latents):
    """Measurement residuals with the factor contribution removed."""
    resid_y = data.y - data.t @ theta.d - np.outer(latents.g, theta.b)
    resid_m = [
        xm - tm @ dm - np.outer(latents.f[m], am)
        for m, (xm, tm, dm, am) in enumerate(
            zip(data.x, data.t_m, theta.d_m, theta.a_m)
        )
    ]
    return resid_y, resid_m


def complete_loglik(theta: Theta, data: Dataset, latents: Latents) -> LogLik:
    """Joint log-density of the observations and the latent factors."""
    _require_positive_variances(theta)
    dims = data.dimensions()

    resid_y, resid_m = _block_residuals(theta, data, latents)
    quad = np.sum(resid_y**2, axis=1) / theta.sigma2_y
    quad += dims.q_y * np.log(theta.sigma2_y)
    for m in range(dims.p):
        quad += np.sum(resid_m[m] ** 2, axis=1) / theta.sigma2_m[m]
        quad += dims.q_m[m] * np.log(theta.sigma2_m[m])
    quad += (latents.g - theta.c @ latents.f) ** 2
    quad += np.sum(latents.f**2, axis=0)

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
    _require_positive_variances(theta)
    dims = data.dimensions()
    n = data.n

    resid_y, resid_m = _block_residuals(theta, data, latents)
    inv_y = 1.0 / theta.sigma2_y
    grad_d = inv_y * data.t.T @ resid_y            # layout of d: (r_t, q_y)
    grad_b = inv_y * resid_y.T @ latents.g
    grad_s2y = -0.5 * n * dims.q_y * inv_y + 0.5 * float(np.sum(resid_y**2)) * inv_y**2

    grad_dm, grad_am, grad_s2m = [], [], []
    for m in range(dims.p):
        inv_m = 1.0 / theta.sigma2_m[m]
        grad_dm.append(inv_m * data.t_m[m].T @ resid_m[m])
        grad_am.append(inv_m * resid_m[m].T @ latents.f[m])
        grad_s2m.append(
            -0.5 * n * dims.q_m[m] * inv_m
            + 0.5 * float(np.sum(resid_m[m] ** 2)) * inv_m**2
        )

    disturbance = latents.g - theta.c @ latents.f
    grad_c = latents.f @ disturbance

    return Score(
        d=grad_d,
        d_m=tuple(grad_dm),
        b=grad_b,
        a_m=tuple(grad_am),
        c=grad_c,
        sigma2_y=float(grad_s2y),
        sigma2_m=tuple(float(gs) for gs in grad_s2m),
    )
