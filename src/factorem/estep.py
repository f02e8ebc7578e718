"""E-step: the conditional law of the latents and the observed log-likelihood.

With latents h_i = (g_i, f_i^1, .., f_i^p) and covariate-centered
observations r_i = Lambda h_i + noise, where column 0 of Lambda holds b
on the Y rows, column m holds a^m on the X^m rows, and the noise
covariance Psi is block-isotropic, two facts keep every computation
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
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NotPositiveDefiniteError
from .model import Dataset, Theta

__all__ = [
    "ConditionalLaw",
    "PosteriorMoments",
    "block_residuals",
    "stacked_residuals",
    "conditional_law",
    "posterior_moments",
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


@dataclass
class PosteriorMoments:
    """First and second conditional moments of the latents.

    g_tilde : (n,)       E[g_i | z_i]
    f_tilde : (p, n)     E[f_i^m | z_i]
    gamma_tilde : (n,)   E[g_i^2 | z_i]
    phi_tilde : (p, n)   E[(f_i^m)^2 | z_i]
    cross_fg : (p, n)    E[f_i^m g_i | z_i]
    cross_ff : (p, p, n) E[f_i^m f_i^l | z_i]
    """

    g_tilde: np.ndarray
    f_tilde: np.ndarray
    gamma_tilde: np.ndarray
    phi_tilde: np.ndarray
    cross_fg: np.ndarray
    cross_ff: np.ndarray


def block_residuals(theta: Theta, data: Dataset) -> list[np.ndarray]:
    """Each observed block minus its covariate mean: Y, then X^1..X^p."""
    return [data.y - data.t @ theta.d] + [
        xm - tm @ dm for xm, tm, dm in zip(data.x, data.t_m, theta.d_m)
    ]


def stacked_residuals(theta: Theta, data: Dataset) -> np.ndarray:
    """(n, q_total) matrix of observations minus their covariate means."""
    return np.concatenate(block_residuals(theta, data), axis=1)


def conditional_law(theta: Theta, data: Dataset) -> ConditionalLaw:
    """Exact conditional law of the latents for every unit, with each
    unit's observed log-likelihood at the same parameters.

    Raises DataError for a nonpositive noise variance and
    NotPositiveDefiniteError (annotated with the parameter state) if the
    (p+1, p+1) posterior precision cannot be factorized.
    """
    variances = np.array([theta.sigma2_y, *theta.sigma2_m])
    if variances.min() <= 0:
        raise DataError(
            "conditional law needs strictly positive noise variances, got "
            f"sigma2_y={theta.sigma2_y}, sigma2_m={theta.sigma2_m}"
        )
    loadings = (theta.b, *theta.a_m)
    resid = block_residuals(theta, data)
    inv_var = 1.0 / variances
    u = np.column_stack([r @ lam for r, lam in zip(resid, loadings)]) * inv_var

    c = theta.c
    prior_prec = np.eye(c.shape[0] + 1)
    prior_prec[0, 1:] = prior_prec[1:, 0] = -c
    prior_prec[1:, 1:] += np.outer(c, c)
    prec = prior_prec + np.diag([lam @ lam for lam in loadings] * inv_var)
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "posterior precision of the latents not positive definite "
            f"(sigma2_y={theta.sigma2_y:.3e}, "
            f"sigma2_m={tuple(float(f'{s:.3e}') for s in theta.sigma2_m)}, "
            f"c={np.array2string(c, precision=3)})"
        ) from exc
    chol_inv = np.linalg.inv(chol)
    sigma = chol_inv.T @ chol_inv
    sigma = 0.5 * (sigma + sigma.T)
    m = u @ sigma                                # (n, p+1)

    quad = np.sum((m @ prior_prec) * m, axis=1)
    for k, (r, lam) in enumerate(zip(resid, loadings)):
        quad += np.sum((r - np.outer(m[:, k], lam)) ** 2, axis=1) * inv_var[k]
    widths = np.array([r.shape[1] for r in resid])
    logdet = float(widths @ np.log(variances)) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    loglik = -0.5 * (quad + logdet + widths.sum() * LOG_2PI)
    return ConditionalLaw(m=m, sigma=sigma, loglik=loglik)


def posterior_moments(law: ConditionalLaw) -> PosteriorMoments:
    """All conditional moments needed by the closed-form updates."""
    m, sigma = law.m, law.sigma
    g_tilde = m[:, 0]
    f_tilde = m[:, 1:].T
    gamma_tilde = g_tilde**2 + sigma[0, 0]
    phi_tilde = f_tilde**2 + np.diag(sigma)[1:, None]
    cross_fg = sigma[1:, 0][:, None] + f_tilde * g_tilde
    cross_ff = sigma[1:, 1:][:, :, None] + f_tilde[:, None, :] * f_tilde[None, :, :]
    return PosteriorMoments(
        g_tilde=g_tilde,
        f_tilde=f_tilde,
        gamma_tilde=gamma_tilde,
        phi_tilde=phi_tilde,
        cross_fg=cross_fg,
        cross_ff=cross_ff,
    )
