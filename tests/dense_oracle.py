"""Dense and per-unit references for the E-step.

The dense route builds the full joint covariance of the latents and the
observations and conditions it by a q_total x q_total Cholesky
factorization. ``posterior_moments`` spells out every per-unit first
and second conditional moment of a law, the quantities the package only
ever uses summed over units.

The package conditions with (p+1)-dimensional algebra; this module is
the slow, direct route it is tested against. ``update_theta`` here is
the M-step as it reads before the covariate projection was hoisted out
of the loop: it re-averages every cross product of the data and solves
each covariate Gram on every call. Stacking the latents
h_i = (g_i, f_i^1, .., f_i^p) and the centered observations, the joint
covariance splits into three blocks:

    s1 : (p+1, p+1)          Cov(h)
    s2 : (p+1, q_total)      Cov(h, z)
    s3 : (q_total, q_total)  Cov(z)

so that h_i | z_i ~ N(s2 s3^{-1} mu_i, s1 - s2 s3^{-1} s2') and
z_i ~ N(covariate mean, s3).

``plain_fit`` is the unaccelerated EM loop, one ``em_step`` after
another from the package's start, that the SqS3-accelerated ``fit`` is
tested against.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from factorem.em import (
    FitResult, em_step, initialize, relative_change,
)
from factorem.errors import DataError, DegeneratePosteriorError, SingularSystemError
from factorem.estep import block_residuals, conditional_law
from factorem.model import Theta
from factorem.mstep import (
    VARIANCE_FLOOR, _gram_solve, expected_sq_residual_sum, project_covariates,
)


def stacked_residuals(theta, data):
    """(n, q_total) matrix of observations minus their covariate means."""
    return np.concatenate(block_residuals(theta, data), axis=1)


@dataclass
class PosteriorMoments:
    """First and second conditional moments of the latents, per unit.

    m : (n, p+1)         E[h_i | z_i], g first, as in ``ConditionalLaw``
    gamma_tilde : (n,)   E[g_i^2 | z_i]
    phi_tilde : (p, n)   E[(f_i^m)^2 | z_i]
    cross_fg : (p, n)    E[f_i^m g_i | z_i]
    cross_ff : (p, p, n) E[f_i^m f_i^l | z_i]
    """

    m: np.ndarray
    gamma_tilde: np.ndarray
    phi_tilde: np.ndarray
    cross_fg: np.ndarray
    cross_ff: np.ndarray


def posterior_moments(law) -> PosteriorMoments:
    """Every per-unit conditional moment of a ``ConditionalLaw``."""
    m, sigma = law.m, law.sigma
    g, f = m[:, 0], m[:, 1:].T      # (n,), (p, n): the per-unit layout below
    return PosteriorMoments(
        m=m,
        gamma_tilde=g**2 + sigma[0, 0],
        phi_tilde=f**2 + np.diag(sigma)[1:, None],
        cross_fg=sigma[1:, 0][:, None] + f * g,
        cross_ff=sigma[1:, 1:][:, :, None] + f[:, None, :] * f[None, :, :],
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
    if min(theta.sigma2) <= 0:
        raise DataError(
            "joint covariance needs strictly positive noise variances, got "
            f"sigma2_y={theta.sigma2[0]}, sigma2_m={theta.sigma2[1:]}"
        )
    p, q_y = dims.p, dims.q_y
    c, b = theta.c, theta.loading[0]
    g_var = float(c @ c) + 1.0

    s1 = np.eye(p + 1)
    s1[0, 0] = g_var
    s1[0, 1:] = c
    s1[1:, 0] = c

    offsets = np.cumsum([0, *dims.q])
    q_total = offsets[-1]

    s2 = np.zeros((p + 1, q_total))
    s2[0, :q_y] = g_var * b
    for m, am in enumerate(theta.loading[1:]):
        lo, hi = offsets[m + 1], offsets[m + 2]
        s2[0, lo:hi] = c[m] * am
        s2[m + 1, :q_y] = c[m] * b
        s2[m + 1, lo:hi] = am

    s3 = np.zeros((q_total, q_total))
    s3[:q_y, :q_y] = g_var * np.outer(b, b) + theta.sigma2[0] * np.eye(q_y)
    for m, am in enumerate(theta.loading[1:]):
        lo, hi = offsets[m + 1], offsets[m + 2]
        s3[lo:hi, lo:hi] = np.outer(am, am) + theta.sigma2[m + 1] * np.eye(hi - lo)
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


@dataclass
class SufficientStats:
    """Unit-averaged cross products entering the closed-form updates.

    Every field is the arithmetic mean over units of the per-unit
    product named by it; ``mean_hh`` is the conditional second moment
    E[h h' | z] of the latents (g first, then f^1..f^p).
    """

    mean_tt: np.ndarray                  # (r_t, r_t)
    mean_yt: np.ndarray                  # (q_y, r_t)
    mean_gt: np.ndarray                  # (r_t,)
    mean_gy: np.ndarray                  # (q_y,)
    mean_tmtm: tuple[np.ndarray, ...]    # (r_m, r_m) per block
    mean_xmtm: tuple[np.ndarray, ...]    # (q_m, r_m) per block
    mean_fmtm: tuple[np.ndarray, ...]    # (r_m,) per block
    mean_fmxm: tuple[np.ndarray, ...]    # (q_m,) per block
    mean_hh: np.ndarray                  # (p+1, p+1)


def sufficient_stats(data, law) -> SufficientStats:
    """Average the per-unit products needed by ``update_theta``."""
    n, h = data.n, law.m
    return SufficientStats(
        mean_tt=data.t[0].T @ data.t[0] / n,
        mean_yt=data.z[0].T @ data.t[0] / n,
        mean_gt=data.t[0].T @ h[:, 0] / n,
        mean_gy=data.z[0].T @ h[:, 0] / n,
        mean_tmtm=tuple(tm.T @ tm / n for tm in data.t[1:]),
        mean_xmtm=tuple(xm.T @ tm / n for xm, tm in zip(data.z[1:], data.t[1:])),
        mean_fmtm=tuple(tm.T @ h[:, m] / n for m, tm in enumerate(data.t[1:], start=1)),
        mean_fmxm=tuple(xm.T @ h[:, m] / n for m, xm in enumerate(data.z[1:], start=1)),
        mean_hh=law.second_moment_sum() / n,
    )


def _block_update(mean_xt, mean_tt, mean_ft, mean_fx, mean_sq, name):
    """Loading and covariate coefficients for one measurement block,
    from one solve with the covariate Gram."""
    solved = _gram_solve(mean_tt, np.column_stack([mean_ft, mean_xt.T]), name)
    tt_ft, tt_xt = solved[:, 0], solved[:, 1:]
    denom = mean_sq - mean_ft @ tt_ft
    if denom <= 0:
        raise DegeneratePosteriorError(
            f"loading denominator for block {name} is {denom:.3e}; "
            "posterior second moment is degenerate given the covariates"
        )
    loading = (mean_fx - mean_xt @ tt_ft) / denom
    return loading, tt_xt - np.outer(tt_ft, loading)  # coef_t: layout of D (r, q)


def update_theta(stats: SufficientStats, law, data) -> Theta:
    """Exact maximizer of the expected complete log-likelihood, from the
    unit-averaged cross products.

    Noise variances are floored at VARIANCE_FLOOR (with a warning) so a
    perfect fit cannot hand the next E-step a singular covariance.
    """
    dims = data.dimensions()
    hh = stats.mean_hh
    updates = [_block_update(
        stats.mean_yt, stats.mean_tt, stats.mean_gt, stats.mean_gy, hh[0, 0], "T",
    )]
    updates += [
        _block_update(
            stats.mean_xmtm[m], stats.mean_tmtm[m], stats.mean_fmtm[m],
            stats.mean_fmxm[m], hh[m + 1, m + 1], f"T{m + 1}",
        )
        for m in range(dims.p)
    ]

    try:
        c = scipy.linalg.solve(hh[1:, 1:], hh[1:, 0], assume_a="sym")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystemError(
            "structural moment system is singular; explanatory factor "
            "posteriors are linearly dependent"
        ) from exc

    variances = []
    names = ["sigma2_Y"] + [f"sigma2_{m + 1}" for m in range(dims.p)]
    blocks = zip(updates, data.z, data.t, names)
    for k, ((loading, coef), obs, cov, name) in enumerate(blocks):
        resid = obs - cov @ coef
        value = expected_sq_residual_sum(
            resid, loading, law.m[:, k], data.n * hh[k, k]
        ) / resid.size
        if value < VARIANCE_FLOOR:
            warnings.warn(
                f"{name} update {value:.3e} floored at {VARIANCE_FLOOR:.0e}",
                RuntimeWarning,
                stacklevel=2,
            )
            value = VARIANCE_FLOOR
        variances.append(value)

    loadings, coefs = zip(*updates)
    return Theta(coef=coefs, loading=loadings, c=c, sigma2=variances)


def plain_fit(data, dims, config) -> FitResult:
    """EM without extrapolation: map steps until the relative change of
    one drops below epsilon or max_iter steps are spent."""
    projection = project_covariates(data)
    theta = initialize(projection)
    law = conditional_law(theta, data)
    trace = []
    converged = False
    for _ in range(config.max_iter):
        theta_new, law = em_step(law, data, projection)
        change = relative_change(theta, theta_new)
        trace.append((change, float(law.loglik.sum())))
        theta = theta_new
        if change < config.epsilon:
            converged = True
            break
    return FitResult(
        theta=theta, moments=law, iterations=len(trace), converged=converged,
        trace=np.array(trace), dims=dims,
    )
