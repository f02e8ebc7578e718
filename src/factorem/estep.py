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
variance is small against its block's residual (``GRAM_LIMIT``).

``gram_summary`` reads the parameters as the canonical vector x
(``model.flatten_theta`` order) with no loop over blocks: x scatters into
the stacked E and into A by the index maps ``mstep.project_covariates``
builds once per fit, and the per-block sums are ``reduceat`` over the Z
rows.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, NotPositiveDefiniteError
from .model import Dataset, Theta, check_theta_shapes, unflatten_theta

__all__ = [
    "ConditionalLaw",
    "LogLik",
    "EStepSummary",
    "block_residuals",
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
    loglik : (n,) observed log-likelihood of each unit at the parameters
        the law was computed at; None for a law assembled by hand
    """

    m: np.ndarray
    sigma: np.ndarray
    loglik: np.ndarray | None = None

    def second_moment_sum(self) -> np.ndarray:
        """(p+1, p+1) sum over units of E[h_i h_i' | z_i] = n Sigma + M'M."""
        return self.m.shape[0] * self.sigma + self.m.T @ self.m


@dataclass
class EStepSummary:
    """The law at one theta summed over units: s = n Sigma + M'M, wm =
    W~_c'M (rows as in ``mstep.Projection.g``, 1'M last) and the summed observed
    loglik."""

    s: np.ndarray
    wm: np.ndarray
    loglik: float

    @classmethod
    def from_law(cls, law: ConditionalLaw, projection) -> "EStepSummary":
        """The summary of an n-row law, by one pass over ``projection.data``."""
        t = np.hstack(projection.data.t)
        resid = np.hstack(projection.data.z) - t @ projection.stacked_coef   # [Z~_0..Z~_p]
        centered = law.m - law.m.mean(axis=0)      # W~_c'M = W~'(M - 1 mean(M)')
        wm = np.vstack([resid.T @ centered, t.T @ centered, law.m.sum(axis=0)])
        return cls(s=law.second_moment_sum(), wm=wm, loglik=float(law.loglik.sum()))


@dataclass
class LogLik:
    """Total log-likelihood and the per-unit contributions summing to it."""

    value: float
    per_unit: np.ndarray


def positive_variances(sigma2, needed_for: str) -> np.ndarray:
    """The noise variances ``sigma2`` (Y first) as an array; DataError
    naming them all if one is not strictly positive."""
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
    check_theta_shapes(
        theta, [(t.shape[1], z.shape[1]) for z, t in zip(data.z, data.t)], "the data"
    )
    return [z - t @ coef for z, t, coef in zip(data.z, data.t, theta.coef)]


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


def conditional_law(theta: Theta, data: Dataset) -> ConditionalLaw:
    """Exact conditional law of the latents for every unit, with each
    unit's observed log-likelihood at the same parameters.

    Raises DataError for a nonpositive noise variance and
    NotPositiveDefiniteError (annotated with the parameter state) if the
    (p+1, p+1) posterior precision cannot be factorized.
    """
    variances = positive_variances(theta.sigma2, "conditional law")
    resid = block_residuals(theta, data)
    inv_var = 1.0 / variances
    u = np.column_stack([r @ lam for r, lam in zip(resid, theta.loading)]) * inv_var
    fisher = np.array([lam @ lam for lam in theta.loading]) * inv_var
    prior_prec, chol, sigma = _posterior(theta.c, fisher, variances)
    m = u @ sigma                                # (n, p+1)

    quad = np.sum((m @ prior_prec) * m, axis=1)
    for k, (r, lam) in enumerate(zip(resid, theta.loading)):
        r -= np.outer(m[:, k], lam)              # r is this call's own copy
        quad += np.einsum("ij,ij->i", r, r) * inv_var[k]
    widths = np.array([r.shape[1] for r in resid])
    logdet = float(widths @ np.log(variances)) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    loglik = -0.5 * (quad + logdet + widths.sum() * LOG_2PI)
    return ConditionalLaw(m=m, sigma=sigma, loglik=loglik)


def residual_sq(x: np.ndarray, projection) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At the canonical vector ``x``, from the fit's ``mstep.Projection``:
    E = D - B stacked as B, T'T E and ||r_k||^2 = ||Z~_k||^2 + ||T_k E_k||^2."""
    g, mean, nz = projection.g, projection.mean, projection.z_own[0].size
    e = np.zeros_like(projection.stacked_coef)
    e[projection.d_at] = x[:projection.coef_at_d.size] - projection.coef_at_d
    tte = g[nz:-1, nz:-1] @ e + projection.data.n * np.outer(mean[nz:-1], mean[nz:-1] @ e)
    return e, tte, projection.resid_sq + np.add.reduceat((e * tte).sum(0), projection.starts[0])


def gram_summary(x: np.ndarray, projection) -> EStepSummary:
    """The law at the canonical vector ``x`` summed over units, from the
    Gram of ``projection`` (the fit's ``mstep.Projection``) alone, or from
    ``conditional_law`` on ``projection.data`` when a block is past
    ``GRAM_LIMIT``. Raises as ``conditional_law`` does."""
    g, mean, n, starts = projection.g, projection.mean, projection.data.n, projection.starts[0]
    z_block = projection.z_own[1]
    nz, nd, k = z_block.size, projection.d_at[0].size, starts.size
    variances = x[-k:]
    if variances.min() <= 0:
        positive_variances(variances, "conditional law")
    inv_var = 1.0 / variances
    e, _, r_sq = residual_sq(x, projection)
    if not (r_sq <= projection.gram_bound * variances).all():
        law = conditional_law(unflatten_theta(x, projection.data.dimensions()), projection.data)
        return EStepSummary.from_law(law, projection)
    loading = x[nd:nd + nz]
    a = np.zeros((g.shape[0], k))               # U = W~_c A
    a[projection.z_own] = loading * inv_var[z_block]  # lambda_k / sigma2_k on Z~_k, column k
    a[nz:-1] = -e @ a[:nz]                      # -E_k lambda_k / sigma2_k on T_k
    a[-1] = (mean[:nz] - mean[nz:-1] @ e) @ a[:nz]    # mean(r_k)' lambda_k / sigma2_k
    fisher = np.add.reduceat(loading * loading, starts) * inv_var
    _, chol, sigma = _posterior(x[nd + nz:-k], fisher, variances)
    ga = g @ a
    uu = a.T @ ga                                # U'U
    quad = float(r_sq @ inv_var - (sigma * uu).sum())
    logdet = float(np.log(variances) @ projection.widths + 2.0 * np.log(chol.diagonal()).sum())
    return EStepSummary(
        s=n * sigma + sigma @ uu @ sigma,
        wm=ga @ sigma,
        loglik=-0.5 * (quad + n * (logdet + nz * LOG_2PI)),
    )


def observed_loglik(theta: Theta, data: Dataset) -> LogLik:
    """Log-density of the observations with the latents marginalized
    out, by the exact pass: ``per_unit`` is ``conditional_law``'s (which
    checks ``theta`` against the data) and ``value`` its sum. A fit's trace
    records ``gram_summary``'s sum, equal to ``value`` within the Gram
    form's rounding (``GRAM_LIMIT``)."""
    per_unit = conditional_law(theta, data).loglik
    return LogLik(value=float(per_unit.sum()), per_unit=per_unit)
