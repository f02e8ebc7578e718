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
data against M. ``stacked_gram`` centers the stacked data [Z_0..Z_p,
T_0..T_p] and appends the constant: W = W_c + 1 mean' with W_c'1 = n on
the constant and 0 elsewhere, so large column means do not cancel in G =
W_c'W_c. As U = W_c A, with lambda_k / sigma2_k on the Z_k rows of column
k of A, -D_k lambda_k / sigma2_k on its T_k rows and mean'A on the
constant row, ``gram_summary`` takes S = n Sigma + Sigma A'GA Sigma, W_c'M
= G A Sigma and the summed log-density from G alone. Its summed quadratic
form sum_k ||r_k||^2 / sigma2_k - tr(Sigma A'GA) cancels when a noise
variance is small against its block's data (``GRAM_LIMIT``).

``gram_summary`` reads the parameters as the canonical vector x
(``model.flatten_theta`` order) with no loop over blocks: x scatters into
the stacked D and into A by the index maps ``stacked_gram`` builds once
per fit, and the per-block sums are ``reduceat`` over the Z rows.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, NotPositiveDefiniteError
from .model import Dataset, Dimensions, Theta, check_theta_shapes, flatten_theta, unflatten_theta

__all__ = [
    "ConditionalLaw",
    "LogLik",
    "EStepSummary",
    "block_residuals",
    "conditional_law",
    "gram_summary",
    "observed_loglik",
]

LOG_2PI = float(np.log(2.0 * np.pi))

# Block k's Gram-form quadratic is a difference of terms of size ``size``
# / sigma2_k (see ``gram_summary``) against an exact value of about n q_k;
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
class StackedGram:
    """G = W_c'W_c and the column means of W = W_c + 1 mean' (the
    constant last, mean 0), the rows of G that belong to each Z_k and T_k,
    the data it summarizes and their dimensions; and, for the canonical
    vector, maps onto G's rows built once per fit: ``z_own``/``t_own``
    pair each Z row/T row of G with its block (the column of A or of
    W_c'M it fills); ``starts`` hold the first Z row and the first T row
    of each block; coordinate i of the stacked D sits at T row
    ``d_at[0][i]`` and Z column ``d_at[1][i]`` (T rows counted from the
    first, here and in ``starts``); ``widths`` are the q_k; and ``z_sq``
    is ||Z_k,c||^2 per block."""

    g: np.ndarray
    mean: np.ndarray
    z: tuple[slice, ...]
    t: tuple[slice, ...]
    data: Dataset
    dims: Dimensions
    z_own: tuple[np.ndarray, np.ndarray]
    t_own: tuple[np.ndarray, np.ndarray]
    starts: tuple[np.ndarray, np.ndarray]
    d_at: tuple[np.ndarray, np.ndarray]
    widths: np.ndarray
    z_sq: np.ndarray


@dataclass
class EStepSummary:
    """The law at one theta summed over units: s = n Sigma + M'M, wm =
    W_c'M (rows as in ``StackedGram.g``, 1'M last) and the summed observed
    loglik."""

    s: np.ndarray
    wm: np.ndarray
    loglik: float

    @classmethod
    def from_law(cls, law: ConditionalLaw, data: Dataset) -> "EStepSummary":
        """The summary of an n-row law, by one pass over the data."""
        centered = law.m - law.m.mean(axis=0)      # W_c'M = W'(M - 1 mean(M)')
        wm = np.vstack([*(b.T @ centered for b in (*data.z, *data.t)), law.m.sum(axis=0)])
        return cls(s=law.second_moment_sum(), wm=wm, loglik=float(law.loglik.sum()))


@dataclass
class LogLik:
    """Total log-likelihood and the per-unit contributions summing to it
    (up to the rounding of the Gram form, see ``observed_loglik``)."""

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
    coefficients c and Lambda' Psi^{-1} Lambda = diag(``fisher``)."""
    w = np.concatenate([[1.0], -c])
    prior_prec = np.outer(w, w)                  # S1^{-1} = w w' + diag(0, 1, .., 1)
    prior_prec.flat[w.size + 1::w.size + 1] += 1.0
    chol, info = lapack.dpotrf(prior_prec + np.diag(fisher), lower=1, clean=1)
    if info:
        raise NotPositiveDefiniteError(
            "posterior precision of the latents not positive definite "
            f"(sigma2_y={variances[0]:.3e}, "
            f"sigma2_m={tuple(float(f'{s:.3e}') for s in variances[1:])}, "
            f"c={np.array2string(c, precision=3)})"
        )
    chol_inv = np.linalg.inv(chol)
    sigma = chol_inv.T @ chol_inv
    return prior_prec, chol, 0.5 * (sigma + sigma.T)


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


def stacked_gram(data: Dataset) -> StackedGram:
    """G = W_c'W_c: the one pass over the units before a fit's estimate,
    with the maps of the canonical vector onto G's rows."""
    dims = data.dimensions()
    q, r = np.array(dims.q), np.array(dims.r)
    edges = np.cumsum([0, *q, *r]).tolist()
    rows = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    w = np.hstack([*data.z, *data.t])
    mean = w.mean(axis=0)
    w -= mean
    g = np.zeros((w.shape[1] + 1,) * 2)
    g[:-1, :-1] = w.T @ w
    g[-1, -1] = data.n
    k, nz = q.size, int(q.sum())
    z_block, t_block = np.repeat(np.arange(k), q), np.repeat(np.arange(k), r)
    starts = np.array(edges[:k]), np.array(edges[k:2 * k]) - nz
    return StackedGram(g=g, mean=np.append(mean, 0.0), z=tuple(rows[:k]),
                       t=tuple(rows[k:]), data=data, dims=dims,
                       z_own=(np.arange(nz), z_block),
                       t_own=(np.arange(nz, nz + r.sum()), t_block), starts=starts,
                       # row-major over the block-diagonal: D_0, then D_1, ..
                       d_at=np.nonzero(t_block[:, None] == z_block), widths=q,
                       z_sq=np.add.reduceat(np.diagonal(g)[:nz], starts[0]))


def gram_summary(x: np.ndarray, gram: StackedGram) -> EStepSummary:
    """The law at the canonical vector ``x`` summed over units, from
    ``gram`` alone, or from ``conditional_law`` on ``gram.data`` when a
    block is past ``GRAM_LIMIT``. Raises as ``conditional_law`` does."""
    g, mean, n, starts = gram.g, gram.mean, gram.data.n, gram.starts[0]
    z_block = gram.z_own[1]
    nz, nd, k = z_block.size, gram.d_at[0].size, starts.size
    variances = positive_variances(x[-k:], "conditional law")
    inv_var = 1.0 / variances
    # ||r_k||^2 = ||Z_k,c - T_k,c D_k||^2 + n ||rbar_k||^2 (,c: centered)
    # is size - 2 cross; ||Z_k,c||^2, the first part of size, settles a
    # variance near its floor before any work on D
    limit = GRAM_LIMIT * n * gram.widths * variances
    size = gram.z_sq
    if (size <= limit).all():
        d = np.zeros((g.shape[0] - nz - 1, nz))  # D_k on the T_k rows, Z_k columns
        d[gram.d_at] = x[:nd]
        rbar = mean[:nz] - mean[nz:-1] @ d       # column means of r = Z - T D
        size = size + np.add.reduceat((d * (g[nz:-1, nz:-1] @ d)).sum(0) + n * rbar**2, starts)
    if not (size <= limit).all():
        law = conditional_law(unflatten_theta(x, gram.dims), gram.data)
        return EStepSummary.from_law(law, gram.data)
    cross = np.add.reduceat((d * g[nz:-1, :nz]).sum(0), starts)
    loading = x[nd:nd + nz]
    a = np.zeros((g.shape[0], k))               # U = W_c A
    a[gram.z_own] = loading * inv_var[z_block]  # lambda_k / sigma2_k on Z_k, column k
    a[nz:-1] = -d @ a[:nz]                      # -D_k lambda_k / sigma2_k on T_k
    a[-1] = rbar @ a[:nz]                       # rbar' lambda_k / sigma2_k on the constant
    fisher = np.add.reduceat(loading * loading, starts) * inv_var
    _, chol, sigma = _posterior(x[nd + nz:-k], fisher, variances)
    ga = g @ a
    uu = a.T @ ga                                # U'U
    quad = float((size - 2.0 * cross) @ inv_var - (sigma * uu).sum())
    logdet = float(np.log(variances) @ gram.widths + 2.0 * np.log(np.diagonal(chol)).sum())
    return EStepSummary(
        s=n * sigma + sigma @ uu @ sigma,
        wm=ga @ sigma,
        loglik=-0.5 * (quad + n * (logdet + nz * LOG_2PI)),
    )


def observed_loglik(theta: Theta, data: Dataset) -> LogLik:
    """Log-density of the observations with the latents marginalized
    out. ``value`` is ``gram_summary``'s sum, the number a fit's trace
    records; ``per_unit`` is ``conditional_law``'s (which checks ``theta``
    against the data) and sums to it up to the Gram form's rounding."""
    per_unit = conditional_law(theta, data).loglik
    return LogLik(value=gram_summary(flatten_theta(theta), stacked_gram(data)).loglik,
                  per_unit=per_unit)
