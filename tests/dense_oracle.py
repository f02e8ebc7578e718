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

``variance_floor`` is each block's noise-variance floor from its n rows,
and ``summary_from_law`` the summed law of an n-row ``ConditionalLaw``, the
E-step's exact pass before it took only the loglik from it.
``residual_law`` is ``conditional_law`` as it read when it also returned
each unit's loglik: the law from the n x q residuals, the form
``observed_loglik`` still evaluates.

``loop_fit`` is the RRE-accelerated fit as it read before the EM loop
carried the canonical vector: a ``Theta`` per evaluation, and Gram-form
E- and M-steps (``loop_gram_estep``, ``loop_update_theta``) that loop
over the blocks in Python, reading each block's B_k and (T_k'T_k)^-1 off
the projection's block-diagonal copies (``block_projection``) and each
block's residual as r_k = Z~_k - T_k E_k, E_k = D_k - B_k.
``px_reduced`` is the map's PX-EM reduction on a ``Theta``, which
``loop_em_step``, ``plain_fit`` and ``npass_em_step`` make after their
M-step.
``plain_fit`` is the unaccelerated EM loop, one map step after another
from the package's start, on those per-block steps by default. The
package's ``fit`` and its block-vectorized steps are tested against
both. ``fresh_account`` is ``FitResult.account`` as ``io.write_fit``
computed it before the result kept its projection: from a second
``project_covariates`` of the data.

The ``npass_*`` functions are the fit as it read before it ran on the
stacked Gram of the centered data: a covariate projection that keeps
each block's n x q residual, a start from the per-unit
principal-component scores, and a map evaluation that conditions every
unit afresh (``conditional_law``) and updates from the n-row scores. The
package's Gram path is tested against them.

``uncached_projection`` is ``project_covariates`` as it read when every
fit rebuilt the maps its block widths fix (its edges, ``block``, ``own``,
``starts``, ``widths``, ``d_at``) and each block's
right-hand side by ``np.hstack``/``np.eye``; ``lstsq_initialize`` is
``initialize`` as it read when it solved the structural start with
``np.linalg.lstsq`` (and reclaimed on T-row masks). The package's
layout cache and its direct ``dgelsd`` start are tested against them.
"""

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from factorem.em import (
    DENOMINATOR_FLOOR, ORDER, RANK_CUTOFF, FitResult, _first_component, canonicalize, initialize,
)
from factorem.errors import (
    DataError, DegeneratePosteriorError, FactorEMError, NonFiniteParameterError,
    NotPositiveDefiniteError, SingularSystemError,
)
from factorem.estep import (
    LOG_2PI, GRAM_LIMIT, ConditionalLaw, EStepSummary, _posterior, conditional_law,
    gram_summary, observed_loglik,
)
from factorem.model import (
    Theta, block_label, check_dimensions, flatten_theta, theta_names, unflatten_theta,
)
from factorem import mstep
from factorem.mstep import (
    VARIANCE_FLOOR, Projection, _gram_solve, expected_score, floored, project_covariates,
)
from likelihood_oracle import (
    block_residuals, expected_sq_residual, flatten_parts, positive_variances, second_moment_sum,
)


def variance_floor(data) -> np.ndarray:
    """Each block's noise-variance floor from its rows: VARIANCE_FLOOR times
    the variance per cell of its centered covariate residual, the least-squares
    residual Z_k - T_k B_k less its column means."""
    floors = []
    for z, t in zip(data.z, data.t):
        resid = z - t @ np.linalg.lstsq(t, z, rcond=None)[0]
        floors.append(VARIANCE_FLOOR * np.sum((resid - resid.mean(axis=0))**2) / resid.size)
    return np.array(floors)


def summary_from_law(law, projection, theta=None) -> EStepSummary:
    """The summed law of an n-row ``law``, by one pass over ``projection.data``,
    with the loglik ``observed_loglik`` gives at ``theta``, the parameters the
    law was computed at (NaN for a law assembled by hand)."""
    t = np.hstack(projection.data.t)
    resid = np.hstack(projection.data.z) - t @ projection.stacked_coef   # [Z~_0..Z~_p]
    centered = law.m - law.m.mean(axis=0)      # W~_c'M = W~'(M - 1 mean(M)')
    wm = np.vstack([resid.T @ centered, t.T @ centered, law.m.sum(axis=0)])
    loglik = np.nan if theta is None else observed_loglik(theta, projection.data).value
    return EStepSummary(second_moment_sum(law), wm, loglik)


@dataclass
class ResidualLaw(ConditionalLaw):
    """A ``ConditionalLaw`` with each unit's observed loglik at its parameters."""

    loglik: np.ndarray


def residual_law(theta, data) -> ResidualLaw:
    """``conditional_law`` as it read before it formed U from one product per
    block: u from the n x q residuals r_k = Z_k - T_k D_k, and in the same
    pass each unit's loglik, by the arithmetic ``observed_loglik`` keeps."""
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
    return ResidualLaw(m=m, sigma=sigma, loglik=loglik)


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
        mean_hh=second_moment_sum(law) / n,
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

    Noise variances are floored at ``variance_floor`` (with a warning) so a
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
    blocks = zip(updates, data.z, data.t, names, variance_floor(data))
    for k, ((loading, coef), obs, cov, name, floor) in enumerate(blocks):
        resid = obs - cov @ coef
        value = expected_sq_residual(
            resid, loading, law.m[:, k], data.n * hh[k, k]
        ) / resid.size
        if value < floor:
            warnings.warn(
                f"{name} update {value:.3e} floored at {floor:.3e}",
                RuntimeWarning,
                stacklevel=2,
            )
            value = floor
        variances.append(value)

    loadings, coefs = zip(*updates)
    return Theta(coef=coefs, loading=loadings, c=c, sigma2=variances)


def loop_floored(value, floor, k, what):
    if value < floor:
        warnings.warn(f"{block_label('sigma2', k)} {what} {value:.3e} floored at "
                      f"{floor:.3e}", RuntimeWarning, stacklevel=3)
        return floor
    return value


def loop_posterior(theta, inv_var):
    """(S1^{-1}, Cholesky factor of P, Sigma = P^{-1}) at ``theta``.

    lambda_k'lambda_k is summed as the package sums it (``np.add.reduceat``):
    at a floored variance the small entries of Sigma carry rounding of about
    eps |Sigma|, and a last-bit change in P moves S and W~_c'M by up to 3e-4
    relative past ``GRAM_LIMIT``; with the same sums they agree to 3e-15."""
    c = theta.c
    prior_prec = np.eye(c.shape[0] + 1)
    prior_prec[0, 1:] = prior_prec[1:, 0] = -c
    prior_prec[1:, 1:] += np.outer(c, c)
    loading, widths = np.concatenate(theta.loading), [lam.size for lam in theta.loading]
    sums = np.add.reduceat(loading * loading, np.cumsum([0] + widths[:-1]))
    prec = prior_prec + np.diag(sums * inv_var)
    try:
        chol = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("posterior precision not positive definite") from exc
    chol_inv = np.linalg.inv(chol)
    sigma = chol_inv.T @ chol_inv
    return prior_prec, chol, 0.5 * (sigma + sigma.T)


def block_rows(projection):
    """(Z~_k rows, T_k rows) of the projection's G per block, as slices laid
    out from the data's block widths: Z~_0..Z~_p, then T_0..T_p."""
    dims = projection.data.dimensions()
    edges = np.cumsum([0, *dims.q, *dims.r]).tolist()
    rows = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    return rows[:dims.p + 1], rows[dims.p + 1:]


def block_projection(projection):
    """Per block, B_k and (T_k'T_k)^-1: the diagonal blocks of the
    projection's block-diagonal B and (T'T)^-1, copied in the column-major
    order of the per-block solves they came from, so that the loops'
    products round as they did on those arrays."""
    z_rows, t_rows = block_rows(projection)
    first = t_rows[0].start                # the block-diagonal rows count T rows only
    blocks = []
    for z, t in zip(z_rows, t_rows):
        rows = slice(t.start - first, t.stop - first)
        blocks.append((np.asfortranarray(projection.stacked_coef[rows, z]),
                       np.asfortranarray(projection.stacked_tt_inv[rows, rows])))
    return blocks


def loop_gram_estep(theta, gram, data):
    """The Gram-form E-step at ``theta``, one block at a time, with the
    loglik of the exact pass when a block is past ``GRAM_LIMIT``."""
    variances = np.array(theta.sigma2)
    if variances.min() <= 0:
        raise DataError("conditional law needs strictly positive noise variances")
    g, mean, n = gram.g, gram.mean, data.n
    z_rows, t_rows = block_rows(gram)
    zs, ts = slice(0, t_rows[0].start), slice(t_rows[0].start, -1)
    widths = np.array([z.stop - z.start for z in z_rows])
    inv_var = 1.0 / variances
    e = np.zeros((g.shape[0], zs.stop))
    lam = np.zeros((zs.stop, widths.size))
    resid_sq = np.empty(widths.size)
    blocks = zip(*block_rows(gram), theta.coef, theta.loading, block_projection(gram),
                 gram.resid_sq)
    for k, (z, t, coef, loading, (b, _), tilde_sq) in enumerate(blocks):
        e_k = coef - b                      # r_k = Z~_k - T_k E_k
        e[t, z] = e_k
        lam[z, k] = loading * inv_var[k]
        mean_te = mean[t] @ e_k
        resid_sq[k] = tilde_sq + np.sum(e_k * (g[t, t] @ e_k)) + n * mean_te @ mean_te
    e = e[ts]
    a = np.vstack([lam, -e @ lam, (mean[zs] - mean[ts] @ e) @ lam])
    _, chol, sigma = loop_posterior(theta, inv_var)
    ga = g @ a
    uu = a.T @ ga
    if np.max(resid_sq * inv_var / (n * widths)) <= GRAM_LIMIT:
        quad = float(resid_sq @ inv_var - np.sum(sigma * uu))
        logdet = float(widths @ np.log(variances)) + 2.0 * float(np.sum(np.log(np.diag(chol))))
        loglik = -0.5 * (quad + n * (logdet + widths.sum() * LOG_2PI))
    else:
        loglik = observed_loglik(theta, data).value
    return EStepSummary(n * sigma + sigma @ uu @ sigma, ga @ sigma, loglik)


def loop_update_theta(projection, summary) -> Theta:
    """The M-step from the summed law, one block at a time."""
    s = summary.s
    try:
        c = np.linalg.solve(s[1:, 1:], s[1:, 0])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("structural moment system is singular") from exc
    loadings, coefs, variances = [], [], []
    wm = summary.wm
    shifted = wm[:-1] + np.outer(projection.mean[:-1], wm[-1])
    blocks = zip(*block_rows(projection), block_projection(projection), projection.resid_sq,
                 variance_floor(projection.data))
    for k, (z, t, (coef, tt_inv), resid_sq, floor) in enumerate(blocks):
        tf = shifted[t, k]
        pf = tt_inv @ tf
        zf = shifted[z, k]
        denom = s[k, k] - tf @ pf
        if denom <= 1e-12 * s[k, k]:
            raise DegeneratePosteriorError(f"loading denominator for block {k} is {denom}")
        loading = zf / denom
        value = (resid_sq - loading @ zf) / (projection.data.n * zf.size)
        loadings.append(loading)
        coefs.append(coef - np.outer(pf, loading))
        variances.append(loop_floored(value, floor, k, "update"))
    return Theta(coef=coefs, loading=loadings, c=c, sigma2=variances)


def px_reduced(theta, s, n) -> Theta:
    """The M-step's ``theta``, from the second-moment sum ``s`` of n units,
    mapped back from the model expanded by a free var(zeta) = v: the
    expanded M-step's v is the structural residual's mean square,
    (s00 - c's[1:,0]) / n since S11 c = s[1:,0], and v = 1 again takes
    b sqrt(v) and c / sqrt(v)."""
    v = float(s[0, 0] - theta.c @ s[1:, 0]) / n
    if not v > 0:
        raise NonFiniteParameterError(f"M-step produced var(zeta) = {v}")
    return replace(theta, loading=(theta.loading[0] * np.sqrt(v), *theta.loading[1:]),
                   c=theta.c / np.sqrt(v))


def loop_em_step(summary, data, projection):
    theta_new = loop_update_theta(projection, summary)
    values = flatten_theta(theta_new)
    if not np.isfinite(values).all():
        k = int(np.flatnonzero(~np.isfinite(values))[0])
        name = theta_names(data.dimensions())[k]
        raise NonFiniteParameterError(f"M-step produced {name} = {values[k]}")
    theta_new = px_reduced(theta_new, summary.s, data.n)
    return theta_new, loop_gram_estep(theta_new, projection, data)


def loop_relative_change(theta_old, theta_new):
    old = flatten_theta(theta_old)
    new = flatten_theta(theta_new)
    return float(np.sum(np.abs(new - old) / np.maximum(np.abs(new), DENOMINATOR_FLOOR)))


def loop_extrapolate(thetas, dims, floor):
    """The RRE point of consecutive map outputs, the ``Theta``s y_0..y_K+1,
    on their flattened parts with log variances: gamma_K = 1 - sum_{j<K}
    gamma_j eliminates the constraint, ``np.linalg.lstsq`` (SVD) finds
    the rest, and the point is sum_j gamma_j y_{j+1}."""
    y = np.array([flatten_parts(t.coef, t.loading, t.c, np.log(t.sigma2)) for t in thetas])
    u = y[1:] - y[:-1]
    # sum_j gamma_j u_j = u_K + sum_{j<K} gamma_j (u_j - u_K)
    gamma, _, rank, _ = np.linalg.lstsq((u[:-1] - u[-1]).T, -u[-1], rcond=RANK_CUTOFF)
    if rank < len(u) - 1:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.append(gamma, 1.0 - gamma.sum()) @ y[1:]
        k = dims.p + 1
        sigma2 = np.maximum(np.exp(x[-k:]), floor)
    if not (np.isfinite(x).all() and np.isfinite(sigma2).all()):
        return None
    return unflatten_theta(np.concatenate([x[:-k], sigma2]), dims)


def loop_fit(data, dims, config) -> FitResult:
    """The RRE-accelerated fit on ``Theta``s and the per-block steps,
    returned canonical as ``fit``'s."""
    actual = check_dimensions(dims, data)
    floor = variance_floor(data)
    projection = project_covariates(data)
    theta = unflatten_theta(initialize(projection), actual)
    try:
        summary = loop_gram_estep(theta, projection, data)
    except FactorEMError as exc:
        raise type(exc)(f"EM start: {exc}") from exc
    trace = []
    converged = False
    accepted = rejected = 0
    cycle = []
    while len(trace) < config.max_iter:
        try:
            theta_new, summary = loop_em_step(summary, data, projection)
        except FactorEMError as exc:
            raise type(exc)(f"EM iteration {len(trace) + 1}: {exc}") from exc
        change = loop_relative_change(theta, theta_new)
        trace.append((change, summary.loglik))
        theta = theta_new
        if change < config.epsilon:
            converged = True
            break
        cycle.append(theta)
        if len(cycle) < ORDER + 2 or len(trace) == config.max_iter:
            continue
        extrapolated = loop_extrapolate(cycle, actual, floor)
        cycle = [theta]
        if extrapolated is None:
            continue
        try:
            summary_x = loop_gram_estep(extrapolated, projection, data)
        except FactorEMError:
            summary_x = None
        if summary_x is not None and summary_x.loglik >= trace[-1][1]:
            theta, summary = extrapolated, summary_x
            cycle = []
            accepted += 1
        else:
            rejected += 1
    return canonicalize(FitResult(
        theta=theta, moments=conditional_law(theta, data), converged=converged,
        trace=np.array(trace), projection=projection, config=config,
        accepted=accepted, rejected=rejected,
    ))


def package_gram_estep(theta, gram, data):
    """``factorem.estep.gram_summary`` at ``theta``."""
    return gram_summary(flatten_theta(theta), gram)


def package_update_theta(projection, summary) -> Theta:
    """``factorem.mstep.update_theta`` as a ``Theta``."""
    return unflatten_theta(mstep.update_theta(projection, summary), projection.data.dimensions())


def plain_fit(data, dims, config, gram_estep=loop_gram_estep,
              update_theta=loop_update_theta) -> FitResult:
    """EM without extrapolation: map steps (``update_theta``, its
    ``px_reduced`` reduction, then ``gram_estep``) until the relative
    change of one drops below epsilon or max_iter steps are spent. The
    default steps are the per-block loops, which share no arithmetic with
    the package's kernels; passing ``package_gram_estep`` and
    ``package_update_theta`` makes it the package's own map, step for
    step. The result is returned canonical."""
    projection = project_covariates(data)
    theta = unflatten_theta(initialize(projection), dims)
    summary = gram_estep(theta, projection, data)
    trace = []
    converged = False
    for _ in range(config.max_iter):
        theta_new = px_reduced(update_theta(projection, summary), summary.s, data.n)
        summary = gram_estep(theta_new, projection, data)
        change = loop_relative_change(theta, theta_new)
        trace.append((change, summary.loglik))
        theta = theta_new
        if change < config.epsilon:
            converged = True
            break
    return canonicalize(FitResult(
        theta=theta, moments=conditional_law(theta, data), converged=converged,
        trace=np.array(trace), projection=projection, config=config,
    ))


def fresh_account(theta, moments, data):
    """The score and the correlations at ``theta`` from a new pass over
    ``data``: ``project_covariates``, ``gram_summary`` and
    ``expected_score``, then corr(Z_j, f_k) = (Z_c'M)_jk /
    sqrt(||Z_j,c||^2 ||f_k,c||^2) with Z_c'M = Z~_c'M + B'T_c'M."""
    projection = project_covariates(data)
    x = flatten_theta(theta)
    summary = gram_summary(x, projection)
    score = expected_score(x, summary, projection)
    q = data.dimensions().q
    rows, block = np.arange(sum(q)), np.repeat(np.arange(len(q)), q)
    zm = summary.wm[rows] + projection.stacked_coef.T @ summary.wm[rows.size:-1]
    f_sq = ((moments.m - moments.m.mean(axis=0))**2).sum(axis=0)
    return score, zm[rows, block] / np.sqrt(projection.spread * f_sq[block])


@dataclass(frozen=True)
class NpassBlock:
    """One measurement block with its covariates partialled out.

    t : (n, r) covariates T_k
    proj : (r, n) P_k = (T_k'T_k)^-1 T_k'
    coef : (r, q) B_k = P_k Z_k
    resid : (n, q) Z~_k = Z_k - T_k B_k
    resid_sq : ||Z~_k||^2
    """

    t: np.ndarray
    proj: np.ndarray
    coef: np.ndarray
    resid: np.ndarray
    resid_sq: float


def npass_projection(data) -> tuple[NpassBlock, ...]:
    """Each block's covariates partialled out by passes over its rows."""
    blocks = []
    for k, (t, z) in enumerate(zip(data.t, data.z)):
        proj = _gram_solve(t.T @ t, t.T, block_label("T", k))
        coef = proj @ z
        resid = z - t @ coef
        blocks.append(NpassBlock(t=t, proj=proj, coef=coef, resid=resid,
                                 resid_sq=float(np.sum(resid**2))))
    return tuple(blocks)


def first_pc_scores(resid, name):
    """First principal component scores (q x q Gram eigh), unit variance."""
    centered = resid - resid.mean(axis=0)
    eigval, eigvec = np.linalg.eigh(centered.T @ centered)
    if eigval[-1] <= (1e-12 * max(1.0, float(np.abs(resid).max()))) ** 2:
        raise DataError(f"residual block {name} has zero variance; PCA undefined")
    scores = centered @ eigvec[:, -1]
    return scores / scores.std()


def npass_initialize(projection) -> Theta:
    """The package's starting point, from per-unit PC scores of each
    block's residual (the start variances are not floored)."""

    def block_start(block, name):
        resid = block.resid - block.resid.mean(axis=0)
        scores = first_pc_scores(resid, name)
        loading = resid.T @ scores / (scores @ scores)
        if loading[0] < 0:
            loading, scores = -loading, -scores
        # the residual sum of squares over n (q - 1): the other eigenvalues' mean
        n, q = resid.shape
        sigma2 = float(np.sum((resid - np.outer(scores, loading)) ** 2)) / (n * max(q - 1, 1))
        return block.coef, loading, scores, sigma2

    starts = [block_start(b, block_label("Z", k)) for k, b in enumerate(projection)]
    coef, loading, scores, sigma2 = (list(part) for part in zip(*starts))
    g_scores, f_mat = scores[0], np.array(scores[1:])   # (n,), (p, n)
    c = np.linalg.lstsq(f_mat.T, g_scores, rcond=None)[0]

    resid_var = float(np.mean((g_scores - c @ f_mat) ** 2))
    scale = 1.0 / np.sqrt(max(resid_var, 1e-12))
    loading[0] = loading[0] / scale
    c = c * scale
    g_scores = g_scores * scale

    g_cross = c @ f_mat
    coef[0] = coef[0] - np.outer(projection[0].proj @ g_cross, loading[0])
    for m, (c_m, f_m) in enumerate(zip(c, f_mat), start=1):
        if abs(c_m) < 1e-8:
            continue
        backed_out = (g_scores - g_cross + c_m * f_m) / c_m
        kappa_m = projection[m].proj @ backed_out
        weight = c_m ** 2 / (c_m ** 2 + 1.0)
        coef[m] = coef[m] - weight * np.outer(kappa_m, loading[m])

    return Theta(coef=coef, loading=loading, c=c, sigma2=sigma2)


def eigh_first_component(resid_gram, n, name):
    """``em._first_component`` from the full spectrum (``np.linalg.eigh``),
    as the start read before it asked for the top eigenpair only: the
    start variance is the sum of the other eigenvalues over n (q - 1)."""
    eigval, eigvec = np.linalg.eigh(resid_gram)
    e = eigvec[:, -1] if eigvec[0, -1] >= 0 else -eigvec[:, -1]
    return e, np.sqrt(eigval[-1] / n), eigval[:-1].sum() / (n * max(e.size - 1, 1))


def npass_update(projection, law) -> Theta:
    """``update_theta`` from the n-row scores of ``law``."""
    s = second_moment_sum(law)
    c = np.linalg.solve(s[1:, 1:], s[1:, 0])
    loadings, coefs, variances = [], [], []
    for k, block in enumerate(projection):
        f = law.m[:, k]
        pf = block.proj @ f
        zf = block.resid.T @ f
        denom = s[k, k] - (block.t.T @ f) @ pf
        if denom <= 1e-12 * s[k, k]:
            raise DegeneratePosteriorError(f"loading denominator for block {k} is {denom}")
        loading = zf / denom
        value = (block.resid_sq - loading @ zf) / block.resid.size
        loadings.append(loading)
        coefs.append(block.coef - np.outer(pf, loading))
        centered = block.resid - block.resid.mean(axis=0)
        variances.append(max(value, VARIANCE_FLOOR * np.sum(centered**2) / block.resid.size))
    return Theta(coef=coefs, loading=loadings, c=c, sigma2=variances)


def npass_em_step(law, data, projection):
    """One map evaluation by passes over the data: the update from the
    n-row law, its ``px_reduced`` reduction, then the exact law there."""
    theta = px_reduced(npass_update(projection, law), second_moment_sum(law), data.n)
    return theta, conditional_law(theta, data)


def uncached_projection(data) -> Projection:
    """``project_covariates`` with every map built afresh from the data's
    block widths and each right-hand side stacked by ``np.hstack``."""
    n = data.n
    q = [z.shape[1] for z in data.z]
    r = [t.shape[1] for t in data.t]
    if n <= max(r):
        raise DataError(
            f"covariate projection needs more units than covariates, got n={n}"
        )
    k, nz, nt = len(q), sum(q), sum(r)
    edges = list(itertools.accumulate(q + r, initial=0))
    rows = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    w = np.empty((n, edges[-1]), order="F")
    for cols, b in zip(rows, (*data.z, *data.t)):
        w[:, cols] = b
    mean = np.append(w.mean(axis=0), 0.0)
    w -= mean[:-1]
    spread = np.einsum("ij,ij->j", w[:, :nz], w[:, :nz])
    zero = spread <= 1e-24 * (spread + n * mean[:nz]**2)
    stacked_coef, stacked_tt_inv = np.zeros((nt, nz)), np.zeros((nt, nt))
    for j, (z, t) in enumerate(zip(rows[:k], rows[k:])):
        own = slice(t.start - nz, t.stop - nz)
        tt, tz = (w[:, t].T @ w[:, b] + n * (mean[t, None] * mean[b]) for b in (t, z))
        solved = _gram_solve(tt, np.hstack([np.eye(r[j]), tz]), block_label("T", j))
        coef = solved[:, r[j]:]
        stacked_coef[own, z], stacked_tt_inv[own, own] = coef, solved[:, :r[j]]
        scipy.linalg.blas.dgemm(-1.0, w[:, t], coef, beta=1.0, c=w[:, z], overwrite_c=True)
        mean[z] -= mean[t] @ coef
    g = np.zeros((edges[-1] + 1,) * 2)
    g[:-1, :-1] = w.T @ w
    g[-1, -1] = n
    resid = np.diagonal(g)[:nz]
    zero |= resid <= 1e-12 * spread
    block = np.repeat([*range(k), *range(k)], q + r)
    if zero.any():
        j = int(np.argmax(zero))
        raise DataError(f"column {j - edges[block[j]] + 1} of {block_label('Z', block[j])}"
                        " has zero variance, alone or given its covariates")
    starts = np.array(edges[:k]), np.array(edges[k:2 * k]) - nz
    widths, cells = np.array(q), n * np.array(q, dtype=float)
    d_at = np.nonzero(block[nz:, None] == block[:nz])
    return Projection(
        data=data, g=g, mean=mean, block=block, own=np.arange(edges[-1]) * k + block,
        starts=starts, widths=widths, cells=cells, d_at=d_at,
        floor=VARIANCE_FLOOR * np.add.reduceat(resid, starts[0]) / cells, spread=spread,
        resid_sq=np.add.reduceat(resid + n * mean[:nz]**2, starts[0]),
        stacked_coef=stacked_coef, coef_at_d=stacked_coef[d_at], stacked_tt_inv=stacked_tt_inv)


def lstsq_initialize(projection) -> np.ndarray:
    """``initialize`` with the structural start by ``np.linalg.lstsq``."""
    g, n, nz = projection.g, projection.data.n, projection.spread.size
    blocks = projection.widths.size
    v = np.zeros((g.shape[0], blocks))
    loading, std, sigma2 = np.zeros(nz), np.zeros(blocks), np.zeros(blocks)
    for k, (lo, q) in enumerate(zip(projection.starts[0].tolist(), projection.widths.tolist())):
        z = slice(lo, lo + q)
        e, std[k], sigma2[k] = _first_component(g[z, z], n, block_label("Z", k))
        v[z, k] = e
        loading[z] = e * std[k]
    v /= std
    cross = g @ v
    scores = v.T @ cross
    c = np.linalg.lstsq(scores[1:, 1:], scores[1:, 0], rcond=None)[0]
    resid_var = float(scores[0, 0] - c @ scores[1:, 0]) / n
    scale = 1.0 / np.sqrt(max(resid_var, 1e-12))
    loading[:projection.widths[0]] /= scale
    c = c * scale
    cross[:, 0] *= scale
    t_block = projection.block[nz:]
    g_cross = cross[nz:-1, 1:] @ c
    c_t = np.append(1.0, c)[t_block]
    skip = np.abs(c_t) < 1e-8
    c_t[skip] = 1.0
    backed_out = (cross[nz:-1, 0] - g_cross + c_t * cross.take(projection.own[nz:])) / c_t
    weight = np.where(skip, 0.0, c_t**2 / (c_t**2 + 1.0))
    dependent = t_block == 0
    backed_out[dependent], weight[dependent] = g_cross[dependent], 1.0
    kappa = projection.stacked_tt_inv @ backed_out
    rows, cols = projection.d_at
    coef = projection.coef_at_d - weight[rows] * (kappa[rows] * loading[cols])
    return np.concatenate([coef, loading, c, floored(sigma2, projection.floor, "start")])
