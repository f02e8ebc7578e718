"""M-step: closed-form parameter updates from the summed conditional law.

Each measurement block k (Y with covariates T, then X^m with T^m) is a
regression of Z_k on its fixed covariates T_k and on its factor f, whose
law is fixed by the E-step. The covariates and the observed blocks never
change within a fit, so ``project_covariates`` partials T_k out once
(Frisch-Waugh-Lovell), from blocks of the stacked Gram G = W_c'W_c of the
centered data W_c (``estep.stacked_gram``, the fit's one pass over the
data), with W'W = G + n mean mean' off the constant:

    B_k = (T_k'T_k)^-1 T_k'Z_k,   Z~_k = Z_k - T_k B_k,

and keeps B_k, (T_k'T_k)^-1, the centered Gram of Z~_k, its column means
and ||Z~_k||^2; no n x q array is kept. The expected complete log-likelihood
depends on the law only through the scores f (a column of M) and the
second-moment sum

    S = sum_i E[h_i h_i' | z_i] = n Sigma + M'M,

with index 0 for g and m for f^m, and the scores enter only through
W_c'M and 1'f (``estep.EStepSummary``): T_k'f = T_k,c'f + mean_T (1'f),
Z~_k'f = Z_k,c'f - B_k'T_k,c'f + mean(Z~_k) (1'f) and P_k f =
(T_k'T_k)^-1 T_k'f. With s = S_kk, each iteration then updates the
block with no pass over the data:

    denom   = s - (T_k'f) . (P_k f)
    lambda  = Z~_k'f / denom                     (loading[k]: b, or a^m)
    D_k     = B_k - (P_k f) lambda'              (coef[k])
    sigma2  = (||Z~_k||^2 - lambda . Z~_k'f) / (n q_k)   (sigma2[k])
    c       : solution of the p x p system  S[1:,1:] c = S[1:,0]

(the loading equation of the stationarity system after substituting the
covariate update; ``expected_score`` vanishing at the update is what the
tests pin down). For p = 2 the linear solve for c reduces to two
explicit ratios, kept as a test oracle only.

``update_theta`` makes this update for every block at once and returns
the canonical vector (``model.flatten_theta`` order): T_k'f, P_k f and
Z~_k'f come from W_c'M by the index maps of ``estep.StackedGram`` and one
product each with the block-diagonal (T'T)^-1 and B, and the per-block
sums by ``reduceat``.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import DataError, DegeneratePosteriorError, SingularSystemError
from .estep import ConditionalLaw, EStepSummary, StackedGram, block_residuals, stacked_gram
from .model import Dataset, Theta, block_label, flatten_parts

__all__ = [
    "Projection",
    "project_covariates",
    "update_theta",
    "expected_score",
    "VARIANCE_FLOOR",
]

VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class Projection:
    """The stacked Gram of the data (``estep.stacked_gram``); per block
    as in ``Theta``, Z~_k's centered Gram and ||Z~_k||^2; the column means
    of [Z~_0..Z~_p, T_0..T_p] (rows as in the Gram); and the
    block-diagonal B (T rows x Z columns, B_k on block k's) and (T'T)^-1
    (T rows x T rows) of the stacked data."""

    gram: StackedGram
    resid_gram: tuple[np.ndarray, ...]
    resid_sq: np.ndarray
    mean: np.ndarray
    stacked_coef: np.ndarray
    stacked_tt_inv: np.ndarray


def _gram_solve(gram: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    try:
        chol = scipy.linalg.cholesky(gram, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"covariate block {name} is singular (collinear covariates)"
        ) from exc
    pivots = np.diag(chol)
    # an exactly collinear column can slip past the factorization with a
    # pivot at sqrt(eps) relative scale; treat that as rank-deficient
    if pivots.min() <= 1e-7 * pivots.max():
        raise SingularSystemError(
            f"covariate block {name} is singular (collinear covariates)"
        )
    return scipy.linalg.cho_solve((chol, True), rhs)


def project_covariates(data: Dataset) -> Projection:
    """Partial each block's covariates out of it, once per fit: Y on T,
    then X^m on T^m, from the stacked Gram.

    Raises DataError when a covariate block has at least as many columns
    as there are units, and SingularSystemError for collinear covariates.
    """
    if data.n <= max(t.shape[1] for t in data.t):
        raise DataError(
            f"covariate projection needs more units than covariates, got n={data.n}"
        )
    gram = stacked_gram(data)
    g, mean, n = gram.g, gram.mean, data.n
    means = mean[:-1].copy()    # to become those of [Z~_0..Z~_p, T_0..T_p]
    parts = []
    for k, (z, t) in enumerate(zip(gram.z, gram.t)):
        r = t.stop - t.start
        tt, tz = (g[t, b] + n * np.outer(mean[t], mean[b]) for b in (t, z))
        solved = _gram_solve(tt, np.hstack([np.eye(r), tz]), block_label("T", k))
        coef = solved[:, r:]
        cross = coef.T @ g[t, z]
        resid_gram = g[z, z] - cross - cross.T + coef.T @ g[t, t] @ coef
        means[z] -= mean[t] @ coef     # mean(Z~_k) = mean(Z_k) - B_k' mean(T_k)
        parts.append((coef, solved[:, :r], resid_gram,
                      float(np.trace(resid_gram) + n * means[z] @ means[z])))
    coef, tt_inv, resid_gram, resid_sq = zip(*parts)
    return Projection(gram, resid_gram, np.array(resid_sq), means,
                      scipy.linalg.block_diag(*coef), scipy.linalg.block_diag(*tt_inv))


def update_theta(projection: Projection, summary: EStepSummary) -> np.ndarray:
    """Exact maximizer of the expected complete log-likelihood, as the
    canonical vector.

    Noise variances are floored at VARIANCE_FLOOR (with a warning) so a
    perfect fit cannot hand the next E-step a singular covariance.
    """
    s, wm, gram = summary.s, summary.wm, projection.gram
    c, info = lapack.dgesv(s[1:, 1:], s[1:, 0])[2:]
    if info:
        raise SingularSystemError(
            "structural moment system is singular; explanatory factor "
            "posteriors are linearly dependent"
        )
    z_block, t_block = gram.z_own[1], gram.t_own[1]
    z_starts, t_starts = gram.starts
    nz, ones = z_block.size, wm[-1]                  # ones: 1'f per block
    own_t = wm[gram.t_own]                           # T_k,c'f
    tf = own_t + projection.mean[nz:] * ones[t_block]                 # T_k'f
    pf = projection.stacked_tt_inv @ tf                               # P_k f
    zf = (wm[gram.z_own] + projection.mean[:nz] * ones[z_block]
          - projection.stacked_coef.T @ own_t)                        # Z~_k'f
    sq = np.diagonal(s)
    denom = sq - np.add.reduceat(tf * pf, t_starts)
    # a factor inside the covariate span with no posterior spread
    # leaves only rounding in denom, which can land on either side of 0
    degenerate = denom <= 1e-12 * sq
    if degenerate.any():
        k = int(np.argmax(degenerate))
        raise DegeneratePosteriorError(
            f"loading denominator for block {block_label('T', k)} is {denom[k]:.3e}; "
            "posterior second moment is degenerate given the covariates"
        )
    loading = zf / denom[z_block]
    sigma2 = ((projection.resid_sq - np.add.reduceat(loading * zf, z_starts))
              / (gram.data.n * gram.widths))
    rows, cols = gram.d_at
    coef = projection.stacked_coef[gram.d_at] - pf[rows] * loading[cols]
    return np.concatenate([coef, loading, c, floored(sigma2, "update")])


def floored(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` (one noise variance per block, Y first) raised to
    VARIANCE_FLOOR where below it, each with a RuntimeWarning naming it."""
    low = values < VARIANCE_FLOOR
    if not low.any():
        return values
    for k in np.flatnonzero(low):
        warnings.warn(f"{block_label('sigma2', k)} {what} {values[k]:.3e} floored at "
                      f"{VARIANCE_FLOOR:.0e}",
                      RuntimeWarning, stacklevel=3)
    return np.maximum(values, VARIANCE_FLOOR)


def expected_score(
    theta: Theta, law: ConditionalLaw, data: Dataset
) -> np.ndarray:
    """Gradient of the expected complete log-likelihood Q(theta) under
    ``law``, as a K-vector in the canonical ordering.

    Vanishes (to machine precision) at the ``update_theta`` output. At
    the parameters ``law`` was computed at it is, by Fisher's identity,
    the gradient of the observed log-likelihood.
    """
    s = law.second_moment_sum()
    grads = []
    blocks = zip(data.t, block_residuals(theta, data), theta.loading, law.m.T,
                 np.diag(s), theta.sigma2)
    for t, resid, loading, score, sq, var in blocks:
        inv = 1.0 / var
        # sum over units of E||resid_i - factor_i loading||^2
        sq_resid = float(np.sum(resid**2) - 2.0 * np.sum((resid @ loading) * score)
                         + float(loading @ loading) * sq)
        grad_loading = inv * (resid.T @ score - sq * loading)
        resid -= np.outer(score, loading)        # resid is this call's own copy
        grads.append((inv * t.T @ resid, grad_loading,
                      -0.5 * resid.size * inv + 0.5 * sq_resid * inv**2))
    grad_coef, grad_loading, grad_sigma2 = zip(*grads)
    grad_c = s[1:, 0] - s[1:, 1:] @ theta.c
    return flatten_parts(grad_coef, grad_loading, grad_c, grad_sigma2)
