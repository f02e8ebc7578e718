"""Complete-data log-likelihood, its analytic score and the EM surrogate.

These are numerical ground truth for the tests, never used by the
package: the complete log-likelihood factorizes over the model's
conditional densities, its analytic score must match finite differences,
and the expected complete log-likelihood Q is the surrogate the M-step
maximizes. ``expected_score`` is Q's exact gradient by one pass over the
n rows of every block, the reference for the package's
``mstep.expected_score``, which reads the same gradient off the fit's
Gram.

Sign convention: everything here is a log-likelihood (to maximize),
never a deviance, and includes the exact Gaussian normalizers so that
log p(z, h) = log p(z) + log p(h | z) holds numerically.
"""

from dataclasses import dataclass

import numpy as np

from factorem.errors import DataError
from factorem.estep import LOG_2PI, LogLik
from factorem.model import Dataset, Dimensions, Theta, check_theta_shapes, theta_names


def count_parameters(dims: Dimensions) -> int:
    """Number of scalar parameters K: covariate coefficients, loadings,
    structural coefficients and one noise variance per block."""
    return len(theta_names(dims))


def second_moment_sum(law) -> np.ndarray:
    """(p+1, p+1) sum over units of E[h_i h_i' | z_i] = n Sigma + M'M."""
    return law.m.shape[0] * law.sigma + law.m.T @ law.m


def flatten_parts(coef, loading, c, sigma2) -> np.ndarray:
    """Concatenate parameter-shaped components in the canonical order,
    the order of ``flatten_theta``."""
    parts = [*coef, *loading, c, sigma2]
    return np.concatenate([np.asarray(part, dtype=float).ravel() for part in parts])


def positive_variances(sigma2, needed_for: str) -> np.ndarray:
    """The noise variances ``sigma2`` (Y first) as an array; DataError
    naming ``needed_for`` and every variance if one is not strictly positive."""
    variances = np.array(sigma2, dtype=float)
    if variances.min() <= 0:
        raise DataError(
            f"{needed_for} needs strictly positive noise variances, got "
            f"sigma2_y={variances[0]}, sigma2_m={tuple(variances[1:].tolist())}"
        )
    return variances


def block_residuals(theta: Theta, data: Dataset) -> list[np.ndarray]:
    """Each observed block minus its covariate mean: Y, then X^1..X^p.

    Raises DataError naming the block count, or the block and shape,
    where ``theta`` disagrees with the data.
    """
    check_theta_shapes(theta, data.dimensions(), "the data")
    return [z - t @ coef for z, t, coef in zip(data.z, data.t, theta.coef)]


@dataclass
class Score:
    """Gradient of the complete log-likelihood, one field per parameter."""

    coef: tuple[np.ndarray, ...]
    loading: tuple[np.ndarray, ...]
    c: np.ndarray
    sigma2: tuple[float, ...]

    def flatten(self) -> np.ndarray:
        """K-vector in the canonical parameter ordering."""
        return flatten_parts(self.coef, self.loading, self.c, self.sigma2)


def _block_residuals(theta: Theta, data: Dataset, h: np.ndarray):
    """Measurement residuals with the factor contribution removed:
    Y, then X^1..X^p, each with its factor column of the (n, p+1)
    latents ``h`` and its noise variance."""
    variances = positive_variances(theta.sigma2, "log-likelihood")
    if h.shape != (data.n, data.p + 1):
        raise DataError(
            f"latents have shape {h.shape} but the data needs {(data.n, data.p + 1)}"
        )
    resid = [
        r - np.outer(factor, lam)
        for r, factor, lam in zip(block_residuals(theta, data), h.T, theta.loading)
    ]
    return zip(resid, h.T, variances)


def expected_sq_residual(resid, loading, factor, second_moment_sum) -> float:
    """Sum over units of E||resid_i - factor_i loading||^2, where
    ``factor`` holds E[factor_i] and ``second_moment_sum`` the sum of
    E[factor_i^2]: the squared residual at the conditional mean plus the
    conditional variance of the factor times ||loading||^2."""
    at_mean = resid - np.outer(factor, loading)
    spread = second_moment_sum - float(factor @ factor)
    return float(np.sum(at_mean**2) + spread * float(loading @ loading))


def _disturbance(theta: Theta, h: np.ndarray) -> np.ndarray:
    """Structural disturbance g - c'f of every unit."""
    return h[:, 0] - h[:, 1:] @ theta.c


def complete_loglik(theta: Theta, data: Dataset, h: np.ndarray) -> LogLik:
    """Joint log-density of the observations and the (n, p+1) latents h."""
    dims = data.dimensions()
    blocks = _block_residuals(theta, data, h)
    quad = _disturbance(theta, h) ** 2 + np.sum(h[:, 1:] ** 2, axis=1)
    for resid, _, var in blocks:
        quad += np.sum(resid**2, axis=1) / var + resid.shape[1] * np.log(var)

    per_unit = -0.5 * (quad + (dims.q_total + dims.p + 1) * LOG_2PI)
    return LogLik(value=float(per_unit.sum()), per_unit=per_unit)


def complete_score(theta: Theta, data: Dataset, h: np.ndarray) -> Score:
    """Analytic gradient of ``complete_loglik`` with respect to theta.

    The variance components include the -1/2 log-term contribution, so
    at zero residuals d/d(sigma2_y) equals -n q_y / (2 sigma2_y).
    """
    grads = []
    for t, (resid, factor, var) in zip(
        data.t, _block_residuals(theta, data, h)
    ):
        inv = 1.0 / var
        grads.append((
            inv * t.T @ resid,                   # layout of d: (r, q)
            inv * resid.T @ factor,
            -0.5 * resid.size * inv + 0.5 * float(np.sum(resid**2)) * inv**2,
        ))
    grad_coef, grad_loading, grad_sigma2 = zip(*grads)

    grad_c = h[:, 1:].T @ _disturbance(theta, h)

    return Score(
        coef=grad_coef,
        loading=grad_loading,
        c=grad_c,
        sigma2=tuple(float(gs) for gs in grad_sigma2),
    )


def expected_score(theta: Theta, law, data: Dataset) -> np.ndarray:
    """Exact gradient of ``expected_complete_loglik`` under ``law``, as a
    K-vector in the canonical ordering, by one pass over the n rows of
    every block: the n-row reference for ``mstep.expected_score``, which
    reads the same gradient off the fit's Gram. Raises as
    ``block_residuals`` does where ``theta`` disagrees with the data."""
    s = second_moment_sum(law)
    grads = []
    blocks = zip(data.t, block_residuals(theta, data), theta.loading, law.m.T, np.diag(s),
                 theta.sigma2)
    for t, resid, loading, score, sq, var in blocks:
        inv = 1.0 / var
        sq_resid = float(np.sum(resid**2) - 2.0 * np.sum((resid @ loading) * score)
                         + float(loading @ loading) * sq)
        grads.append((inv * t.T @ (resid - np.outer(score, loading)),
                      inv * (resid.T @ score - sq * loading),
                      -0.5 * resid.size * inv + 0.5 * sq_resid * inv**2))
    grad_coef, grad_loading, grad_sigma2 = zip(*grads)
    return flatten_parts(grad_coef, grad_loading, s[1:, 0] - s[1:, 1:] @ theta.c, grad_sigma2)


def expected_complete_loglik(theta: Theta, data: Dataset, law) -> float:
    """Expected complete log-likelihood Q(theta) under a fixed law.

    This is the surrogate the M-step maximizes; ``expected_score`` is
    its exact gradient. Includes the full Gaussian normalizing constant
    so that a point-mass law reproduces the complete log-likelihood.
    """
    positive_variances(theta.sigma2, "expected log-likelihood")
    dims = data.dimensions()
    s = second_moment_sum(law)
    total = 0.0
    blocks = zip(block_residuals(theta, data), theta.loading, law.m.T, np.diag(s),
                 theta.sigma2)
    for resid, loading, factor, sq, var in blocks:
        total += resid.size * np.log(var)
        total += expected_sq_residual(resid, loading, factor, sq) / var

    # E(g - c'f)^2 + E f'f, summed over units
    w = np.concatenate([[1.0], -theta.c])
    total += float(w @ s @ w) + float(np.trace(s[1:, 1:]))

    norm_const = -0.5 * data.n * (dims.q_total + dims.p + 1) * np.log(2.0 * np.pi)
    return -0.5 * total + norm_const
