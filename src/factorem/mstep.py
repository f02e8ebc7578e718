"""M-step: closed-form parameter updates from the conditional law.

With the law of the latents h_i = (g_i, f_i^1, .., f_i^p) fixed, the
expected complete log-likelihood is maximized exactly. It depends on the
law only through the scores M and the second-moment average

    mean_hh = S / n,   S = sum_i E[h_i h_i' | z_i] = n Sigma + M'M,

with index 0 for g and m for f^m. Writing ``mean_*`` for averages over
units, the updates are

    b   = (mean_gy - mean_yt tt^-1 mean_gt) / (mean_hh[0,0] - mean_gt' tt^-1 mean_gt)
    a^m = analogous with block-m statistics and mean_hh[m,m]
    c   : solution of the p x p system  mean_hh[1:,1:] c = mean_hh[1:,0]
    D'  = tt^-1 mean_yt' - (tt^-1 mean_gt) b'   (D^m' analogous)
    sigma2 : average expected squared residual of the block

derived by substituting the covariate update into the loading equation
of the stationarity system. (The b numerator above is the form that
actually solves that system; ``expected_score`` vanishing at the update
is what the tests pin down.) For p = 2 the linear solve for c reduces to
two explicit ratios, kept as a test oracle only.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegeneratePosteriorError, SingularSystemError
from .estep import ConditionalLaw, block_residuals, positive_variances
from .model import Dataset, Theta, flatten_parts

__all__ = [
    "SufficientStats",
    "sufficient_stats",
    "update_theta",
    "expected_score",
    "expected_complete_loglik",
    "VARIANCE_FLOOR",
]

VARIANCE_FLOOR = 1e-12


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


def sufficient_stats(data: Dataset, law: ConditionalLaw) -> SufficientStats:
    """Average the per-unit products needed by ``update_theta``."""
    n = data.n
    g = law.g_tilde
    f = law.f_tilde
    return SufficientStats(
        mean_tt=data.t.T @ data.t / n,
        mean_yt=data.y.T @ data.t / n,
        mean_gt=data.t.T @ g / n,
        mean_gy=data.y.T @ g / n,
        mean_tmtm=tuple(tm.T @ tm / n for tm in data.t_m),
        mean_xmtm=tuple(xm.T @ tm / n for xm, tm in zip(data.x, data.t_m)),
        mean_fmtm=tuple(tm.T @ f[m] / n for m, tm in enumerate(data.t_m)),
        mean_fmxm=tuple(xm.T @ f[m] / n for m, xm in enumerate(data.x)),
        mean_hh=law.second_moment_sum() / n,
    )


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


def update_theta(stats: SufficientStats, law: ConditionalLaw, data: Dataset) -> Theta:
    """Exact maximizer of the expected complete log-likelihood.

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
    blocks = zip(updates, (data.y, *data.x), (data.t, *data.t_m), names)
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

    (b, d), *explanatory = updates
    return Theta(
        d=d,
        d_m=tuple(dm for _, dm in explanatory),
        b=b,
        a_m=tuple(am for am, _ in explanatory),
        c=c,
        sigma2_y=variances[0],
        sigma2_m=tuple(variances[1:]),
    )


def _block_terms(theta: Theta, data: Dataset, law: ConditionalLaw):
    """Per measurement block (Y, then X^1..X^p): covariates, centered
    residuals, loading, scores, summed E[factor^2] and noise variance."""
    return zip(
        (data.t, *data.t_m), block_residuals(theta, data),
        (theta.b, *theta.a_m), law.m.T, np.diag(law.second_moment_sum()),
        (theta.sigma2_y, *theta.sigma2_m),
    )


def expected_complete_loglik(
    theta: Theta, data: Dataset, law: ConditionalLaw
) -> float:
    """Expected complete log-likelihood Q(theta) under a fixed law.

    This is the surrogate the M-step maximizes; ``expected_score`` is
    its exact gradient. Includes the full Gaussian normalizing constant
    so that a point-mass law reproduces the complete log-likelihood.
    """
    positive_variances(theta, "expected log-likelihood")
    dims = data.dimensions()
    total = 0.0
    for _, resid, loading, score, sq, var in _block_terms(theta, data, law):
        total += resid.size * np.log(var)
        total += expected_sq_residual_sum(resid, loading, score, sq) / var

    # E(g - c'f)^2 + E f'f, summed over units
    s = law.second_moment_sum()
    w = np.concatenate([[1.0], -theta.c])
    total += float(w @ s @ w) + float(np.trace(s[1:, 1:]))

    norm_const = -0.5 * data.n * (dims.q_total + dims.p + 1) * np.log(2.0 * np.pi)
    return -0.5 * total + norm_const


def expected_score(
    theta: Theta, law: ConditionalLaw, data: Dataset
) -> np.ndarray:
    """Gradient of Q(theta) as a K-vector in the canonical ordering.

    Vanishes (to machine precision) at the ``update_theta`` output.
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
    (grad_d, grad_b, grad_s2y), *blocks = grads
    grad_dm, grad_am, grad_s2m = zip(*blocks)
    s = law.second_moment_sum()
    grad_c = s[1:, 0] - s[1:, 1:] @ theta.c
    return flatten_parts(
        grad_d, grad_dm, grad_b, grad_am, grad_c, grad_s2y, grad_s2m
    )
