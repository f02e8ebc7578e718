"""Dense and per-unit references for the E-step.

The dense route builds the full joint covariance of the latents and the
observations and conditions it by a q_total x q_total Cholesky
factorization. ``posterior_moments`` spells out every per-unit first
and second conditional moment of a law, the quantities the package only
ever uses summed over units.

The package conditions with (p+1)-dimensional algebra; this module is
the slow, direct route it is tested against. Stacking the latents
h_i = (g_i, f_i^1, .., f_i^p) and the centered observations, the joint
covariance splits into three blocks:

    s1 : (p+1, p+1)          Cov(h)
    s2 : (p+1, q_total)      Cov(h, z)
    s3 : (q_total, q_total)  Cov(z)

so that h_i | z_i ~ N(s2 s3^{-1} mu_i, s1 - s2 s3^{-1} s2') and
z_i ~ N(covariate mean, s3).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from factorem.errors import DataError
from factorem.estep import block_residuals


def stacked_residuals(theta, data):
    """(n, q_total) matrix of observations minus their covariate means."""
    return np.concatenate(block_residuals(theta, data), axis=1)


@dataclass
class PosteriorMoments:
    """First and second conditional moments of the latents, per unit.

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


def posterior_moments(law) -> PosteriorMoments:
    """Every per-unit conditional moment of a ``ConditionalLaw``."""
    m, sigma = law.m, law.sigma
    g_tilde = m[:, 0]
    f_tilde = m[:, 1:].T
    return PosteriorMoments(
        g_tilde=g_tilde,
        f_tilde=f_tilde,
        gamma_tilde=g_tilde**2 + sigma[0, 0],
        phi_tilde=f_tilde**2 + np.diag(sigma)[1:, None],
        cross_fg=sigma[1:, 0][:, None] + f_tilde * g_tilde,
        cross_ff=sigma[1:, 1:][:, :, None] + f_tilde[:, None, :] * f_tilde[None, :, :],
    )


@dataclass
class JointBlocks:
    """Covariance blocks of the joint (latent, observed) distribution."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray


def build_joint_blocks(theta, dims) -> JointBlocks:
    """Assemble s1, s2, s3 from the model parameters.

    Cross-covariances between distinct explanatory blocks are exactly
    zero; the only couplings run through g.
    """
    if theta.sigma2_y <= 0 or any(s <= 0 for s in theta.sigma2_m):
        raise DataError(
            "joint covariance needs strictly positive noise variances, got "
            f"sigma2_y={theta.sigma2_y}, sigma2_m={theta.sigma2_m}"
        )
    p, q_y = dims.p, dims.q_y
    c, b = theta.c, theta.b
    g_var = float(c @ c) + 1.0

    s1 = np.eye(p + 1)
    s1[0, 0] = g_var
    s1[0, 1:] = c
    s1[1:, 0] = c

    offsets = np.cumsum([0, q_y, *dims.q_m])
    q_total = offsets[-1]

    s2 = np.zeros((p + 1, q_total))
    s2[0, :q_y] = g_var * b
    for m, am in enumerate(theta.a_m):
        lo, hi = offsets[m + 1], offsets[m + 2]
        s2[0, lo:hi] = c[m] * am
        s2[m + 1, :q_y] = c[m] * b
        s2[m + 1, lo:hi] = am

    s3 = np.zeros((q_total, q_total))
    s3[:q_y, :q_y] = g_var * np.outer(b, b) + theta.sigma2_y * np.eye(q_y)
    for m, am in enumerate(theta.a_m):
        lo, hi = offsets[m + 1], offsets[m + 2]
        s3[lo:hi, lo:hi] = np.outer(am, am) + theta.sigma2_m[m] * np.eye(hi - lo)
        cross = c[m] * np.outer(b, am)
        s3[:q_y, lo:hi] = cross
        s3[lo:hi, :q_y] = cross.T
    return JointBlocks(s1=s1, s2=s2, s3=s3)


def dense_conditioning(theta, data):
    """(m, sigma, per-unit observed loglik) from one Cholesky of s3."""
    dims = data.dimensions()
    blocks = build_joint_blocks(theta, dims)
    chol = scipy.linalg.cholesky(blocks.s3, lower=True)
    w = scipy.linalg.cho_solve((chol, True), blocks.s2.T)    # (q_total, p+1)
    sigma = blocks.s1 - blocks.s2 @ w
    resid = stacked_residuals(theta, data)
    half = scipy.linalg.solve_triangular(chol, resid.T, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    loglik = -0.5 * (np.sum(half**2, axis=0) + logdet + dims.q_total * np.log(2 * np.pi))
    return resid @ w, 0.5 * (sigma + sigma.T), loglik
