"""M-step: closed-form parameter updates from the summed conditional law.

Each measurement block k (Y with covariates T, then X^m with T^m) is a
regression of Z_k on its fixed covariates T_k and on its factor f, whose
law is fixed by the E-step. The covariates and the observed blocks never
change within a fit, so ``project_covariates`` partials T_k out once
(Frisch-Waugh-Lovell), in the fit's one pass over the data: from
T_k,c'[T_k,c, Z_k,c] of the centered data and the column means it solves

    B_k = (T_k'T_k)^-1 T_k'Z_k,   Z~_k = Z_k - T_k B_k,

forms the residuals in place and keeps the Gram G = W~_c'W~_c of the
centered W~ = [Z~_0..Z~_p, T_0..T_p] (see ``estep``), with W~'W~ = G +
n mean mean' off the constant, B_k and (T_k'T_k)^-1; no n x q array is
kept. The expected complete log-likelihood depends on the law only
through the scores f (a column of M) and the second-moment sum

    S = sum_i E[h_i h_i' | z_i] = n Sigma + M'M,

with index 0 for g and m for f^m, and the scores enter only through
W~_c'M and 1'f (``estep.EStepSummary``): T_k'f = T_k,c'f + mean_T (1'f),
Z~_k'f = Z~_k,c'f + mean(Z~_k) (1'f) and P_k f = (T_k'T_k)^-1 T_k'f.
With s = S_kk, each iteration then updates the block with no pass over
the data:

    denom   = s - (T_k'f) . (P_k f)
    lambda  = Z~_k'f / denom                     (loading[k]: b, or a^m)
    D_k     = B_k - (P_k f) lambda'              (coef[k])
    sigma2  = (||Z~_k||^2 - lambda . Z~_k'f) / (n q_k)   (sigma2[k])
    c       : solution of the p x p system  S[1:,1:] c = S[1:,0]

(the loading equation of the stationarity system after substituting the
covariate update). For p = 2 the linear solve for c reduces to two
explicit ratios, kept as a test oracle only.

``update_theta`` makes this update for every block at once and returns
the canonical vector (``model.flatten_theta`` order): T_k'f and Z~_k'f are
one ``take`` of W~'M at ``Projection.own``, P_k f one product with the
block-diagonal (T'T)^-1, the per-block sums ``reduceat``. ``expected_score``,
the certificate of ``FitResult.account``, reads the gradient off the same
maps and ``estep.residual_sq``.

``floored`` keeps each noise variance on the data's own scale: it raises
sigma2_k to ``Projection.floor``, VARIANCE_FLOOR sum_j ||Z~_j,c||^2 / (n q_k),
with a warning at the start and at every M-step (silently at SqS3 points).
"""

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DataError, DegeneratePosteriorError, SingularSystemError
from .estep import EStepSummary, residual_sq
from .model import Dataset, block_label

__all__ = [
    "Projection",
    "project_covariates",
    "update_theta",
    "expected_score",
    "VARIANCE_FLOOR",
]

# a noise variance's floor relative to its block's residual variance per cell
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class Projection:
    """A fit's one pass over ``data``: G = W~_c'W~_c and the column means
    ``mean`` of W~ = W~_c + 1 mean' (W~ the stacked [Z~_0..Z~_p, T_0..T_p],
    Z~_k = Z_k - T_k B_k, the constant last with mean 0), read by block:
    ``block`` is the block of each Z row, then of each T row, of G (the
    column of A or of W~_c'M it fills), and ``own`` that entry's position
    in a flat array with a column per block; ``starts`` hold the first Z
    row and the first T row of each block, ``widths`` the q_k and ``cells``
    n q_k. Coordinate i of the stacked D sits at T row ``d_at[0][i]`` and
    Z column ``d_at[1][i]`` (T rows counted from the first, here and in
    ``starts``) and at ``d_flat`` of a flat T rows x Z columns array.
    ``floor`` is each block's noise-variance floor, VARIANCE_FLOOR
    sum_j ||Z~_j,c||^2 / (n q_k); ``spread`` is ||Z_j,c||^2 per observed
    column and ``resid_sq`` ||Z~_k||^2 per block; and the block-diagonal
    B (T rows x Z columns, B_k on block k's), its entries ``coef_at_d`` at
    the coordinates of D, and (T'T)^-1 (T rows x T rows)."""

    data: Dataset
    g: np.ndarray
    mean: np.ndarray
    block: np.ndarray
    own: np.ndarray
    starts: tuple[np.ndarray, np.ndarray]
    widths: np.ndarray
    cells: np.ndarray
    d_at: tuple[np.ndarray, np.ndarray]
    d_flat: np.ndarray
    floor: np.ndarray
    spread: np.ndarray
    resid_sq: np.ndarray
    stacked_coef: np.ndarray
    coef_at_d: np.ndarray
    stacked_tt_inv: np.ndarray


def _gram_solve(gram: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """gram^-1 rhs by LAPACK's ``dpotrf``/``dpotrs``, or SingularSystemError."""
    singular = f"covariate block {name} is singular (collinear covariates)"
    chol, info = lapack.dpotrf(gram, lower=1, clean=1)
    if info:
        raise SingularSystemError(f"{singular}: the factorization fails at column {info}")
    pivots = chol.diagonal()
    # an exactly collinear column can slip past the factorization with a
    # pivot at sqrt(eps) relative scale; treat that as rank-deficient
    if pivots.min() <= 1e-7 * pivots.max():
        raise SingularSystemError(
            f"{singular}: pivot ratio {pivots.min() / pivots.max():.1e} <= 1e-07")
    return lapack.dpotrs(chol, rhs, lower=1)[0]


@functools.cache
def _layout_maps(q: tuple[int, ...], r: tuple[int, ...]) -> tuple[list, dict]:
    """Each block's columns of W~_c and the index maps of ``Projection`` for block
    widths q and r: built once per layout and shared, read-only, by its fits."""
    k, nz = len(q), sum(q)
    edges = list(itertools.accumulate(q + r, initial=0))
    block = np.repeat([*range(k), *range(k)], q + r)
    d_mask = block[nz:, None] == block[:nz]
    maps = dict(block=block, own=np.arange(edges[-1]) * k + block, widths=np.array(q),
                starts=(np.array(edges[:k]), np.array(edges[k:2 * k]) - nz),
                d_at=np.nonzero(d_mask), d_flat=np.flatnonzero(d_mask))  # d row-major
    for array in (block, maps["own"], maps["widths"], *maps["starts"], *maps["d_at"],
                  maps["d_flat"]):
        array.flags.writeable = False
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])], maps


def project_covariates(data: Dataset) -> Projection:
    """Partial each block's covariates out of the centered data, then
    build G, once per fit: Y on T, then X^m on T^m. The index maps, which
    the block widths fix, are built once per layout (``_layout_maps``).

    Raises DataError when a covariate block has at least as many columns
    as there are units or an observed column is constant or explained by
    its covariates, and SingularSystemError for collinear covariates.
    """
    n = data.n
    q, r = (tuple(b.shape[1] for b in blocks) for blocks in (data.z, data.t))
    if n <= max(r):
        raise DataError(
            f"covariate projection needs more units than covariates, got n={n}"
        )
    rows, maps = _layout_maps(q, r)
    k, nz, nt = len(q), sum(q), sum(r)
    w = np.empty((n, nz + nt), order="F")      # each block's columns contiguous, for dgemm
    for cols, b in zip(rows, (*data.z, *data.t)):
        w[:, cols] = b
    mean = np.append(w.mean(axis=0), 0.0)   # to become those of [Z~_0..Z~_p, T_0..T_p]
    w -= mean[:-1]
    spread = np.einsum("ij,ij->j", w[:, :nz], w[:, :nz])
    # each column on its own scale: constant when ||z_c|| <= 1e-12 ||z||
    zero = spread <= 1e-24 * (spread + n * mean[:nz]**2)
    stacked_coef, stacked_tt_inv = np.zeros((nt, nz)), np.zeros((nt, nt))  # B, (T'T)^-1
    for j, (z, t) in enumerate(zip(rows[:k], rows[k:])):
        own, r_j = slice(t.start - nz, t.stop - nz), t.stop - t.start
        tt = w[:, t].T @ w[:, t] + n * (mean[t, None] * mean[t])
        rhs = np.eye(r_j, r_j + z.stop - z.start)   # [I, T_k'Z_k]
        np.add(w[:, t].T @ w[:, z], n * (mean[t, None] * mean[z]), out=rhs[:, r_j:])
        solved = _gram_solve(tt, rhs, block_label("T", j))
        coef = solved[:, r_j:]
        stacked_coef[own, z], stacked_tt_inv[own, own] = coef, solved[:, :r_j]
        blas.dgemm(-1.0, w[:, t], coef, beta=1.0, c=w[:, z], overwrite_c=True)  # Z~_k,c in place
        mean[z] -= mean[t] @ coef       # mean(Z~_k) = mean(Z_k) - B_k' mean(T_k)
    g = np.zeros((nz + nt + 1,) * 2)
    np.matmul(w.T, w, out=g[:-1, :-1])
    g[-1, -1] = n
    resid = g.diagonal()[:nz]
    zero |= resid <= 1e-12 * spread     # explained by T_k
    z_starts, block = maps["starts"][0], maps["block"]
    if zero.any():
        j = int(np.argmax(zero))
        raise DataError(f"column {j - z_starts[block[j]] + 1} of {block_label('Z', block[j])}"
                        " has zero variance, alone or given its covariates")
    cells = maps["widths"] * float(n)
    return Projection(
        data=data, g=g, mean=mean, cells=cells, spread=spread, stacked_coef=stacked_coef,
        stacked_tt_inv=stacked_tt_inv, coef_at_d=stacked_coef[maps["d_at"]], **maps,
        floor=VARIANCE_FLOOR * np.add.reduceat(resid, z_starts) / cells,
        resid_sq=np.add.reduceat(resid + n * mean[:nz]**2, z_starts))


def _factor_cross(projection: Projection, wm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T_k'f on the T rows, Z~_k'f on the Z rows) from W~'M = W~_c'M + mean 1'M."""
    nz = projection.spread.size
    own = (wm + projection.mean[:, None] * wm[-1]).take(projection.own)
    return own[nz:], own[:nz]


def update_theta(projection: Projection, summary: EStepSummary) -> np.ndarray:
    """Exact maximizer of the expected complete log-likelihood, as the
    canonical vector.

    Noise variances are floored at ``projection.floor`` (with a warning)
    so a perfect fit cannot hand the next E-step a singular covariance.
    """
    s = summary.s
    c, info = lapack.dgesv(s[1:, 1:], s[1:, 0])[2:]
    if info:
        raise SingularSystemError(
            "structural moment system is singular; explanatory factor "
            "posteriors are linearly dependent"
        )
    z_starts, t_starts = projection.starts
    tf, zf = _factor_cross(projection, summary.wm)
    pf = projection.stacked_tt_inv @ tf              # P_k f
    sq = s.diagonal()
    denom = sq - np.add.reduceat(tf * pf, t_starts)
    # a factor inside the covariate span with no posterior spread
    # leaves only rounding in denom, which can land on either side of 0
    degenerate = denom <= 1e-12 * sq
    if np.count_nonzero(degenerate):
        k = int(np.argmax(degenerate))
        raise DegeneratePosteriorError(
            f"loading denominator for block {block_label('T', k)} is {denom[k]:.3e}; "
            "posterior second moment is degenerate given the covariates"
        )
    loading = zf / denom[projection.block[:zf.size]]
    sigma2 = (projection.resid_sq - np.add.reduceat(loading * zf, z_starts)) / projection.cells
    rows, cols = projection.d_at
    coef = projection.coef_at_d - pf[rows] * loading[cols]
    return np.concatenate([coef, loading, c, floored(sigma2, projection.floor, "update")])


def floored(values: np.ndarray, floor: np.ndarray, what: str) -> np.ndarray:
    """``values`` (one noise variance per block, Y first) raised to ``floor``
    (``Projection.floor``) where below it, each with a RuntimeWarning naming
    it as ``what``."""
    for k in (values < floor).nonzero()[0]:
        warnings.warn(f"{block_label('sigma2', k)} {what} {values[k]:.3e} floored at "
                      f"{floor[k]:.3e}", RuntimeWarning, stacklevel=3)
    return np.maximum(values, floor)


def expected_score(x: np.ndarray, summary: EStepSummary, projection: Projection) -> np.ndarray:
    """Gradient of the expected complete log-likelihood at the canonical
    vector ``x`` under the law ``summary`` sums, read off ``projection``:
    with E_k = D_k - B_k, r_k = Z_k - T_k D_k = Z~_k - T_k E_k has
    T_k'r_k = -T_k'T_k E_k and ||r_k||^2 from ``estep.residual_sq``.
    Vanishes (to rounding) at the ``update_theta`` output; at the ``x``
    the law was computed at it is the observed-loglik gradient (Fisher).
    """
    nz, starts, (rows, cols) = projection.spread.size, projection.starts[0], projection.d_at
    z_block, nd, k = projection.block[:nz], rows.size, starts.size
    loading, inv_var, sq = x[nd:nd + nz], 1.0 / x[-k:], summary.s.diagonal()[z_block]
    tf, zf = _factor_cross(projection, summary.wm)
    e, _, tte, r_sq = residual_sq(x, projection)
    rf = zf - e.T @ tf                                                  # r_k'f
    # sum over units of E||r_k,i - f_i lambda_k||^2
    sq_resid = r_sq + np.add.reduceat(-2.0 * loading * rf + loading**2 * sq, starts)
    return np.concatenate([
        -(tte[rows, cols] + tf[rows] * loading[cols]) * inv_var[z_block[cols]],
        (rf - sq * loading) * inv_var[z_block],
        summary.s[1:, 0] - summary.s[1:, 1:] @ x[nd + nz:-k],
        0.5 * inv_var * (sq_resid * inv_var - projection.cells)])
