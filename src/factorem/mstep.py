"""M-step: closed-form parameter updates from the conditional law.

Each measurement block k (Y with covariates T, then X^m with T^m) is a
regression of Z_k on its fixed covariates T_k and on its factor f, whose
law is fixed by the E-step. The covariates and the observed blocks never
change within a fit, so ``project_covariates`` partials T_k out once
(Frisch-Waugh-Lovell):

    P_k = (T_k'T_k)^-1 T_k',   B_k = P_k Z_k,   Z~_k = Z_k - T_k B_k,

and keeps T_k, P_k, B_k, Z~_k and ||Z~_k||^2. The expected complete
log-likelihood depends on the law only through the scores f (a column
of M) and the second-moment sum

    S = sum_i E[h_i h_i' | z_i] = n Sigma + M'M,

with index 0 for g and m for f^m. With s = S_kk, each iteration then
updates the block from three matrix-vector products with f (P_k f, T_k'f
and Z~_k'f) and builds no n x q array:

    denom   = s - (T_k'f) . (P_k f)
    lambda  = Z~_k'f / denom                     (loading[k]: b, or a^m)
    D_k     = B_k - (P_k f) lambda'              (coef[k])
    sigma2  = (||Z~_k||^2 - lambda . Z~_k'f) / (n q_k)   (sigma2[k])
    c       : solution of the p x p system  S[1:,1:] c = S[1:,0]

(the loading equation of the stationarity system after substituting the
covariate update; ``expected_score`` vanishing at the update is what the
tests pin down). For p = 2 the linear solve for c reduces to two
explicit ratios, kept as a test oracle only.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DataError, DegeneratePosteriorError, SingularSystemError
from .estep import ConditionalLaw, block_residuals
from .model import Dataset, Theta, block_label, flatten_parts

__all__ = [
    "BlockProjection",
    "project_covariates",
    "update_theta",
    "expected_score",
    "VARIANCE_FLOOR",
]

VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class BlockProjection:
    """One measurement block with its covariates partialled out.

    t : (n, r) covariates T_k
    proj : (r, n) P_k = (T_k'T_k)^-1 T_k'
    coef : (r, q) B_k = P_k Z_k, the covariate-only coefficients
    resid : (n, q) Z~_k = Z_k - T_k B_k
    resid_sq : ||Z~_k||^2
    """

    t: np.ndarray
    proj: np.ndarray
    coef: np.ndarray
    resid: np.ndarray
    resid_sq: float


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


def project_covariates(data: Dataset) -> tuple[BlockProjection, ...]:
    """Partial each block's covariates out of it, once per fit: Y on T,
    then X^m on T^m.

    Raises DataError when a covariate block has at least as many columns
    as there are units, and SingularSystemError for collinear covariates.
    """
    if data.n <= max(t.shape[1] for t in data.t):
        raise DataError(
            f"covariate projection needs more units than covariates, got n={data.n}"
        )
    blocks = []
    for k, (t, z) in enumerate(zip(data.t, data.z)):
        proj = _gram_solve(t.T @ t, t.T, block_label("T", k))
        coef = proj @ z
        resid = z - t @ coef
        blocks.append(BlockProjection(
            t=t, proj=proj, coef=coef, resid=resid,
            resid_sq=float(np.sum(resid**2)),
        ))
    return tuple(blocks)


def expected_sq_residual_sum(
    resid: np.ndarray, loading: np.ndarray,
    first_moment: np.ndarray, second_moment_sum: float,
) -> float:
    """Sum over units of E||resid_i - factor_i * loading||^2.

    ``resid`` is the (n, q) covariate-centered block, ``first_moment``
    the (n,) conditional E[factor] and ``second_moment_sum`` the sum
    over units of E[factor^2].
    """
    return float(
        np.sum(resid**2)
        - 2.0 * np.sum((resid @ loading) * first_moment)
        + float(loading @ loading) * second_moment_sum
    )


def update_theta(
    projection: tuple[BlockProjection, ...], law: ConditionalLaw
) -> Theta:
    """Exact maximizer of the expected complete log-likelihood.

    Noise variances are floored at VARIANCE_FLOOR (with a warning) so a
    perfect fit cannot hand the next E-step a singular covariance.
    """
    s = law.second_moment_sum()
    try:
        c = np.linalg.solve(s[1:, 1:], s[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "structural moment system is singular; explanatory factor "
            "posteriors are linearly dependent"
        ) from exc

    loadings, coefs, variances = [], [], []
    for k, block in enumerate(projection):
        f = law.m[:, k]
        pf = block.proj @ f
        zf = block.resid.T @ f
        denom = s[k, k] - (block.t.T @ f) @ pf
        # a factor inside the covariate span with no posterior spread
        # leaves only rounding in denom, which can land on either side of 0
        if denom <= 1e-12 * s[k, k]:
            raise DegeneratePosteriorError(
                f"loading denominator for block {block_label('T', k)} is {denom:.3e}; "
                "posterior second moment is degenerate given the covariates"
            )
        loading = zf / denom
        value = (block.resid_sq - loading @ zf) / block.resid.size
        if value < VARIANCE_FLOOR:
            warnings.warn(
                f"{block_label('sigma2', k)} update {value:.3e} floored at "
                f"{VARIANCE_FLOOR:.0e}",
                RuntimeWarning,
                stacklevel=2,
            )
            value = VARIANCE_FLOOR
        loadings.append(loading)
        coefs.append(block.coef - np.outer(pf, loading))
        variances.append(value)

    return Theta(coef=coefs, loading=loadings, c=c, sigma2=variances)


def _block_terms(theta: Theta, data: Dataset, law: ConditionalLaw):
    """Per measurement block (Y, then X^1..X^p): covariates, centered
    residuals, loading, scores, summed E[factor^2] and noise variance."""
    return zip(
        data.t, block_residuals(theta, data),
        theta.loading, law.m.T, np.diag(law.second_moment_sum()), theta.sigma2,
    )


def expected_score(
    theta: Theta, law: ConditionalLaw, data: Dataset
) -> np.ndarray:
    """Gradient of the expected complete log-likelihood Q(theta) under
    ``law``, as a K-vector in the canonical ordering.

    Vanishes (to machine precision) at the ``update_theta`` output. At
    the parameters ``law`` was computed at it is, by Fisher's identity,
    the gradient of the observed log-likelihood.
    """
    grads = []
    for t, resid, loading, score, sq, var in _block_terms(theta, data, law):
        inv = 1.0 / var
        sq_resid = expected_sq_residual_sum(resid, loading, score, sq)
        grads.append((
            inv * t.T @ (resid - np.outer(score, loading)),
            inv * (resid.T @ score - sq * loading),
            -0.5 * resid.size * inv + 0.5 * sq_resid * inv**2,
        ))
    grad_coef, grad_loading, grad_sigma2 = zip(*grads)
    s = law.second_moment_sum()
    grad_c = s[1:, 0] - s[1:, 1:] @ theta.c
    return flatten_parts(grad_coef, grad_loading, grad_c, grad_sigma2)
