"""E-step: the conditional law of the latents and the observed log-likelihood.

With latents h_i = (g_i, f_i^1, .., f_i^p) and covariate-centered
observations r_i = Lambda h_i + noise, where column k of Lambda holds
``theta.loading[k]`` on the rows of block k (b on Y, a^m on X^m), and
the noise covariance Psi is block-isotropic, two facts keep every computation
(p+1)-dimensional (the factor-analysis EM identity of Rubin & Thayer,
1982): Lambda' Psi^{-1} Lambda = diag(b'b/sigma2_y, a^m'a^m/sigma2_m),
and S1 = Cov(h) has S1^{-1} = [[1, -c'], [-c, I + c c']] and det S1 = 1.
With u_i = Lambda' Psi^{-1} r_i and P = S1^{-1} + Lambda' Psi^{-1} Lambda,

    h_i | r_i ~ N(M_i, Sigma),   Sigma = P^{-1},   M_i = Sigma u_i,

and the Woodbury identity and the determinant lemma give the observed
log-density of unit i from the same pass:

    -1/2 [ r_i' Psi^{-1} r_i - u_i' Sigma u_i
           + sum_k q_k log sigma2_k + log det P + q_total log 2 pi ].

The quadratic form is evaluated as the equal sum of two nonnegative
terms, ||r_i - Lambda M_i||^2_{Psi^{-1}} + M_i' S1^{-1} M_i, which does
not cancel when a noise variance sits at its 1e-12 floor.

The law (M, Sigma) is the whole E-step state. The M-step reads the
scores M and the (p+1, p+1) second-moment sum

    S = sum_i E[h_i h_i' | r_i] = n Sigma + M'M,

so no per-unit second moment is ever stored.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NotPositiveDefiniteError
from .model import Dataset, Theta

__all__ = [
    "ConditionalLaw",
    "LogLik",
    "block_residuals",
    "conditional_law",
    "observed_loglik",
]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ConditionalLaw:
    """Gaussian law of the latents given the observations.

    m : (n, p+1) conditional means, one row per unit
    sigma : (p+1, p+1) conditional covariance, identical for every unit
    loglik : (n,) observed log-likelihood of each unit at the parameters
        the law was computed at; None for a law assembled by hand
    """

    m: np.ndarray
    sigma: np.ndarray
    loglik: np.ndarray | None = None

    @property
    def g_tilde(self) -> np.ndarray:
        """(n,) E[g_i | z_i], the dependent factor scores."""
        return self.m[:, 0]

    @property
    def f_tilde(self) -> np.ndarray:
        """(p, n) E[f_i^m | z_i], one row of scores per explanatory block."""
        return self.m[:, 1:].T

    def second_moment_sum(self) -> np.ndarray:
        """(p+1, p+1) sum over units of E[h_i h_i' | z_i] = n Sigma + M'M."""
        return self.m.shape[0] * self.sigma + self.m.T @ self.m


@dataclass
class LogLik:
    """Total log-likelihood and the per-unit contributions summing to it."""

    value: float
    per_unit: np.ndarray


def positive_variances(theta: Theta, needed_for: str) -> np.ndarray:
    """``theta.sigma2`` as an array; DataError naming them all if one is
    not strictly positive."""
    variances = np.array(theta.sigma2)
    if variances.min() <= 0:
        raise DataError(
            f"{needed_for} needs strictly positive noise variances, got "
            f"sigma2_y={theta.sigma2[0]}, sigma2_m={theta.sigma2[1:]}"
        )
    return variances


def block_residuals(theta: Theta, data: Dataset) -> list[np.ndarray]:
    """Each observed block minus its covariate mean: Y, then X^1..X^p.

    Raises DataError naming the block count, or the block and shape,
    where ``theta`` disagrees with the data.
    """
    if theta.p != data.p:
        raise DataError(
            f"theta has {theta.p} explanatory blocks but the data has {data.p}"
        )
    resid = []
    blocks = zip((data.y, *data.x), (data.t, *data.t_m), theta.coef)
    for k, (z, t, coef) in enumerate(blocks):
        if coef.shape != (t.shape[1], z.shape[1]):
            raise DataError(
                f"theta block D{k or ''} has shape {coef.shape} but the data "
                f"needs {(t.shape[1], z.shape[1])}"
            )
        resid.append(z - t @ coef)
    return resid


def conditional_law(theta: Theta, data: Dataset) -> ConditionalLaw:
    """Exact conditional law of the latents for every unit, with each
    unit's observed log-likelihood at the same parameters.

    Raises DataError for a nonpositive noise variance and
    NotPositiveDefiniteError (annotated with the parameter state) if the
    (p+1, p+1) posterior precision cannot be factorized.
    """
    variances = positive_variances(theta, "conditional law")
    resid = block_residuals(theta, data)
    inv_var = 1.0 / variances
    u = np.column_stack([r @ lam for r, lam in zip(resid, theta.loading)]) * inv_var

    c = theta.c
    prior_prec = np.eye(c.shape[0] + 1)
    prior_prec[0, 1:] = prior_prec[1:, 0] = -c
    prior_prec[1:, 1:] += np.outer(c, c)
    prec = prior_prec + np.diag([lam @ lam for lam in theta.loading] * inv_var)
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "posterior precision of the latents not positive definite "
            f"(sigma2_y={theta.sigma2[0]:.3e}, "
            f"sigma2_m={tuple(float(f'{s:.3e}') for s in theta.sigma2[1:])}, "
            f"c={np.array2string(c, precision=3)})"
        ) from exc
    chol_inv = np.linalg.inv(chol)
    sigma = chol_inv.T @ chol_inv
    sigma = 0.5 * (sigma + sigma.T)
    m = u @ sigma                                # (n, p+1)

    quad = np.sum((m @ prior_prec) * m, axis=1)
    for k, (r, lam) in enumerate(zip(resid, theta.loading)):
        quad += np.sum((r - np.outer(m[:, k], lam)) ** 2, axis=1) * inv_var[k]
    widths = np.array([r.shape[1] for r in resid])
    logdet = float(widths @ np.log(variances)) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    loglik = -0.5 * (quad + logdet + widths.sum() * LOG_2PI)
    return ConditionalLaw(m=m, sigma=sigma, loglik=loglik)


def observed_loglik(theta: Theta, data: Dataset) -> LogLik:
    """Log-density of the observations with the latents marginalized
    out: the by-product of ``conditional_law``, summed."""
    per_unit = conditional_law(theta, data).loglik
    return LogLik(value=float(per_unit.sum()), per_unit=per_unit)
