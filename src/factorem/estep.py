"""E-step: the conditional law of the latents and the observed log-likelihood.

With latents h_i = (g_i, f_i^1, .., f_i^p) and covariate-centered
observations r_i = Lambda h_i + noise, where column k of Lambda holds
``theta.loading[k]`` on the rows of block k (b on Y, a^m on X^m), and
the noise covariance Psi is block-isotropic, two facts keep every computation
(p+1)-dimensional (the factor-analysis EM identity of Rubin & Thayer,
1982): Lambda' Psi^{-1} Lambda = diag(b'b/sigma2_y, a^m'a^m/sigma2_m),
and S1 = Cov(h) has S1^{-1} = [[1, -c'], [-c, I + c c']] and det S1 = 1.
With u_i = Lambda' Psi^{-1} r_i and P = S1^{-1} + Lambda' Psi^{-1} Lambda,

    h_i | r_i ~ N(M_i, Sigma),   Sigma = P^{-1},   M_i = Sigma u_i.

``conditional_law`` forms u from one product per block, with no n x q
temporary (r_k = Z_k - T_k D_k). The Woodbury identity and the determinant
lemma give the observed log-density of unit i, which ``observed_loglik``
evaluates by a pass over the residuals r_k:

    -1/2 [ r_i' Psi^{-1} r_i - u_i' Sigma u_i
           + sum_k q_k log sigma2_k + log det P + q_total log 2 pi ].

The quadratic form is evaluated as the equal sum of two nonnegative
terms, ||r_i - Lambda M_i||^2_{Psi^{-1}} + M_i' S1^{-1} M_i, which does
not cancel when a noise variance sits at its floor.

An M-step needs only S = sum_i E[h_i h_i' | r_i] = n Sigma + M'M and the
data against M. ``mstep.project_covariates`` stacks the covariate
residuals Z~_k = Z_k - T_k B_k and the covariates, centers them and
appends the constant: W~ = W~_c + 1 mean' with W~_c'1 = n on the constant
and 0 elsewhere, so large column means do not cancel in G = W~_c'W~_c.
With E_k = D_k - B_k, r_k = Z~_k - T_k E_k and T_k'Z~_k = 0 give
||r_k||^2 = ||Z~_k||^2 + ||T_k E_k||^2 (``residual_sq``). As U = W~_c A,
with lambda_k / sigma2_k on the Z~_k rows of column k of A,
-E_k lambda_k / sigma2_k on its T_k rows and mean'A on the constant row,
``gram_summary`` takes S = n Sigma + Sigma A'GA Sigma, W~_c'M = G A Sigma
and the summed log-density from G alone. Its summed quadratic form
sum_k ||r_k||^2 / sigma2_k - tr(Sigma A'GA) cancels when a noise
variance is small against its block's residual (``GRAM_LIMIT``): past it
only the loglik takes the exact pass (``observed_loglik``), as S and W~_c'M
round there like Sigma = P^{-1}, on either route.

``gram_summary`` reads the parameters as the canonical vector x
(``model.flatten_theta`` order) with no loop over blocks: x scatters into
the stacked E at ``d_at`` and into A at ``own``, maps of ``mstep.Projection``,
and the per-block sums are ``reduceat`` over the Z rows. Small designs cost
calls, not arithmetic: each step makes few, in the per-block loops' arithmetic.
"""

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, NotPositiveDefiniteError
from .model import Dataset, Theta, check_theta_shapes, unflatten_theta

__all__ = [
    "ConditionalLaw",
    "LogLik",
    "EStepSummary",
    "conditional_law",
    "gram_summary",
    "residual_sq",
    "observed_loglik",
]

LOG_2PI = float(np.log(2.0 * np.pi))
_identity = functools.cache(np.eye)     # one array per size, never written: dgesv copies b

# Block k's Gram-form quadratic is a difference of terms of size
# ||r_k||^2 / sigma2_k (see ``gram_summary``) against an exact value of about n q_k;
# past a ratio of 1e-10 / eps (4.5e5) its rounding can pass 1e-10 of the
# value. Benchmark designs sit below 1e5, a variance at its floor near 1e12.
GRAM_LIMIT = 1e-10 / np.finfo(float).eps


@dataclass
class ConditionalLaw:
    """Gaussian law of the latents given the observations.

    m : (n, p+1) conditional means, one row per unit, E[g_i | z_i] in
        column 0 and E[f_i^m | z_i] in column m (the factor scores)
    sigma : (p+1, p+1) conditional covariance, identical for every unit
    (each unit's observed loglik is ``observed_loglik(theta, data).per_unit``)
    """

    m: np.ndarray
    sigma: np.ndarray


@dataclass
class EStepSummary:
    """The law at one theta summed over units: s = n Sigma + M'M, wm =
    W~_c'M (rows as in ``mstep.Projection.g``, 1'M last) and the summed observed
    loglik, given as a number or as the function that computes it when
    ``loglik`` is first read (``observed_loglik``'s pass past ``GRAM_LIMIT``)."""

    s: np.ndarray
    wm: np.ndarray
    _loglik: float | Callable[[], float]

    @functools.cached_property
    def loglik(self) -> float:
        return self._loglik() if callable(self._loglik) else self._loglik


@dataclass
class LogLik:
    """Total log-likelihood and the per-unit contributions summing to it."""

    value: float
    per_unit: np.ndarray


def positive_variances(sigma2) -> np.ndarray:
    """The noise variances ``sigma2`` (Y first) as an array, not copied if
    it is one; DataError naming them all if one is not strictly positive."""
    variances = np.asarray(sigma2, dtype=float)
    if np.minimum.reduce(variances) <= 0:
        raise DataError(
            "conditional law needs strictly positive noise variances, got "
            f"sigma2_y={variances[0]}, sigma2_m={tuple(variances[1:].tolist())}"
        )
    return variances


def _posterior(c: np.ndarray, fisher: np.ndarray, variances: np.ndarray):
    """(S1^{-1}, Cholesky factor of P, Sigma = P^{-1}) for structural
    coefficients c and Lambda' Psi^{-1} Lambda = diag(``fisher``), by LAPACK
    directly (``dgesv`` against I is the solve ``np.linalg.inv`` makes)."""
    w = np.empty(c.size + 1)
    w[0], w[1:] = 1.0, -c
    prior_prec = w[:, None] * w                  # S1^{-1} = w w' + diag(0, 1, .., 1)
    prior_prec.reshape(-1)[w.size + 1::w.size + 1] += 1.0
    prec = prior_prec.copy()                     # P = S1^{-1} + diag(fisher)
    prec.reshape(-1)[::w.size + 1] += fisher
    chol, info = lapack.dpotrf(prec, lower=1, clean=1)
    if info:
        raise NotPositiveDefiniteError(
            "posterior precision of the latents not positive definite "
            f"(sigma2_y={variances[0]:.3e}, "
            f"sigma2_m={tuple(float(f'{s:.3e}') for s in variances[1:])}, "
            f"c={np.array2string(c, precision=3)})"
        )
    chol_inv = lapack.dgesv(chol, _identity(w.size))[2]
    return prior_prec, chol, chol_inv.T @ chol_inv   # dsyrk: exactly symmetric


def _checked_posterior(theta: Theta, data: Dataset):
    """(sigma2, 1 / sigma2, ``_posterior``'s three) at ``theta``, once it is
    checked against ``data``; raises as ``conditional_law`` does."""
    variances = positive_variances(theta.sigma2)
    check_theta_shapes(theta, [(t.shape[1], z.shape[1]) for z, t in zip(data.z, data.t)],
                       "the data")
    inv_var = 1.0 / variances
    fisher = np.array([lam @ lam for lam in theta.loading]) * inv_var
    return variances, inv_var, *_posterior(theta.c, fisher, variances)


def conditional_law(theta: Theta, data: Dataset) -> ConditionalLaw:
    """Exact conditional law of the latents for every unit, from one product
    per block: u's column k is Z_k (lambda_k / sigma2_k) - T_k (D_k lambda_k / sigma2_k).

    Raises DataError for a nonpositive noise variance or a block of ``theta``
    that disagrees with the data (named), and NotPositiveDefiniteError (annotated
    with the parameter state) if the posterior precision cannot be factorized.
    """
    _, inv_var, _, _, sigma = _checked_posterior(theta, data)
    weights = [lam * w for lam, w in zip(theta.loading, inv_var)]
    u = np.column_stack([z @ w - t @ (coef @ w)
                         for z, t, coef, w in zip(data.z, data.t, theta.coef, weights)])
    return ConditionalLaw(m=u @ sigma, sigma=sigma)


def residual_sq(x: np.ndarray, projection) -> tuple[np.ndarray, ...]:
    """At the canonical vector ``x``, from the fit's ``mstep.Projection``: E = D - B stacked
    as B, mean(r_k), T'T E and ||r_k||^2 = ||Z~_k||^2 + ||T_k E_k||^2."""
    nz, mean = projection.spread.size, projection.mean
    e = np.zeros(projection.stacked_coef.shape)
    e[projection.d_at] = x[:projection.coef_at_d.size] - projection.coef_at_d
    mean_te = mean[nz:-1] @ e
    tte = projection.g[nz:-1, nz:-1] @ e
    tte += projection.data.n * np.multiply.outer(mean[nz:-1], mean_te)
    r_sq = projection.resid_sq + np.add.reduceat(np.add.reduce(e * tte), projection.starts[0])
    return e, mean[:nz] - mean_te, tte, r_sq


def gram_summary(x: np.ndarray, projection) -> EStepSummary:
    """The law at the canonical vector ``x`` summed over units, from the
    Gram of ``projection`` (the fit's ``mstep.Projection``) alone, but for
    the loglik of a block past ``GRAM_LIMIT``, which is ``observed_loglik``'s
    exact pass over ``projection.data``. Raises as ``conditional_law`` does."""
    g, n, starts = projection.g, projection.data.n, projection.starts[0]
    nz, nd, k = projection.spread.size, projection.coef_at_d.size, starts.size
    z_block = projection.block[:nz]
    variances = positive_variances(x[-k:])
    inv_var = 1.0 / variances
    e, mean_r, _, r_sq = residual_sq(x, projection)
    loading = x[nd:nd + nz]
    a = np.zeros((g.shape[0], k))               # U = W~_c A
    a_z = a[:nz]
    a.put(projection.own[:nz], loading * inv_var[z_block])  # lambda_k / sigma2_k on Z~_k
    a[nz:-1] = -(e @ a_z)                       # -E_k lambda_k / sigma2_k on T_k
    a[-1] = mean_r @ a_z                        # mean(r_k)' lambda_k / sigma2_k
    fisher = np.add.reduceat(loading * loading, starts) * inv_var
    _, chol, sigma = _posterior(x[nd + nz:-k], fisher, variances)
    ga = g @ a
    uu = a.T @ ga                                # U'U
    if np.count_nonzero(r_sq <= GRAM_LIMIT * projection.cells * variances) == k:
        quad = float(r_sq @ inv_var) - float(np.add.reduce(sigma * uu, None))
        logdet = float(np.log(variances) @ projection.widths + 2.0 * np.log(chol.diagonal()).sum())
        loglik = -0.5 * (quad + n * (logdet + nz * LOG_2PI))
    else:                                        # from a copy: the caller may write to x
        x, dims = x.copy(), projection.data.dimensions()
        loglik = lambda: observed_loglik(unflatten_theta(x, dims), projection.data).value
    return EStepSummary(n * sigma + sigma @ uu @ sigma, ga @ sigma, loglik)


def observed_loglik(theta: Theta, data: Dataset) -> LogLik:
    """Log-density of the observations with the latents marginalized
    out, by the exact pass over the residuals: ``per_unit`` holds each
    unit's and ``value`` their sum. A fit's trace records
    ``gram_summary``'s sum: ``value`` past ``GRAM_LIMIT``, and equal to it
    within the Gram form's rounding below. Raises as ``conditional_law`` does."""
    variances, inv_var, prior_prec, chol, sigma = _checked_posterior(theta, data)
    resid = [z - t @ coef for z, t, coef in zip(data.z, data.t, theta.coef)]
    u = np.column_stack([r @ lam for r, lam in zip(resid, theta.loading)]) * inv_var
    m = u @ sigma                                # (n, p+1)

    quad = np.sum((m @ prior_prec) * m, axis=1)
    for k, (r, lam) in enumerate(zip(resid, theta.loading)):
        r -= np.outer(m[:, k], lam)              # r is this call's own copy
        quad += np.einsum("ij,ij->i", r, r) * inv_var[k]
    widths = np.array([r.shape[1] for r in resid])
    logdet = float(widths @ np.log(variances)) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    per_unit = -0.5 * (quad + logdet + widths.sum() * LOG_2PI)
    return LogLik(value=float(per_unit.sum()), per_unit=per_unit)
