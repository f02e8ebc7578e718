"""EM driver: initialization, the E->M loop, stopping rule, reporting.

The covariates and observed blocks are fixed within a fit, so ``fit``
partials each block's covariates out once (``mstep.project_covariates``)
and hands that projection to the initialization and to every M-step.
Initialization reads each block's covariate regression off the
projection, takes the first principal component of the residuals as a
starting factor (sign fixed so the first variable loads nonnegatively),
backs out starting loadings, variances and structural coefficients by
least squares, then applies two corrections the likelihood itself
cannot make later (see the inline notes): the dependent score is moved
to the scale implied by the unit-variance structural disturbance, and
each block's in-sample factor/covariate overlap is reclaimed from the
other blocks.

The loop carries the conditional law of the latents, its only E-step
state: one E-step at the starting point, then per iteration an M-step
from the law's scores and second-moment sum followed by the E-step at
the updated parameters, whose by-product observed log-likelihood fills
that iteration's trace row. That is one pass over the data per
iteration, and the reported law (factor scores included) is the one at
the returned parameters.

The stopping statistic is the sum over the canonical parameter vector of
|new - old| / max(|new|, floor); iteration ends when it drops below
epsilon or the iteration cap is hit (non-convergence is flagged, not
raised).
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DataError, FactorEMError, NonFiniteParameterError
from .estep import ConditionalLaw, conditional_law
from .model import Dataset, Dimensions, Theta, flatten_theta, theta_names
from .mstep import BlockProjection, project_covariates, update_theta

__all__ = [
    "EMConfig",
    "FitResult",
    "initialize",
    "em_step",
    "relative_change",
    "fit",
    "canonicalize",
]


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM iteration.

    epsilon : stopping threshold on the relative-change statistic
    max_iter : iteration cap
    denominator_floor : floor on |theta| in the stopping denominator
    """

    epsilon: float = 1e-2
    max_iter: int = 500
    denominator_floor: float = 1e-8

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DataError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.denominator_floor <= 0:
            raise DataError("denominator_floor must be positive")


@dataclass
class FitResult:
    """Converged parameters, factor scores and the iteration history.

    moments is the conditional law of the latents at the returned theta;
    its g_tilde and f_tilde are the reported factor scores. trace is an
    (iterations, 2) array of (relative change, observed log-likelihood
    at that iteration's updated theta), one row per EM iteration. dims
    are the dimensions of the fitted data.
    """

    theta: Theta
    moments: ConditionalLaw
    iterations: int
    converged: bool
    trace: np.ndarray
    dims: Dimensions


def _first_pc_scores(resid: np.ndarray, name: str) -> np.ndarray:
    """First principal component scores of a residual block, unit variance."""
    centered = resid - resid.mean(axis=0)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    if s[0] <= 1e-12 * max(1.0, float(np.abs(resid).max())):
        raise DataError(f"residual block {name} has zero variance; PCA undefined")
    scores = u[:, 0] * s[0]
    return scores / scores.std()


def initialize(projection: tuple[BlockProjection, ...]) -> Theta:
    """Least-squares / principal-component starting point, read off the
    covariate projection of each block."""

    def block_start(block, name):
        # center the residuals so the loading regression carries an
        # implicit intercept (residual means are not the factor's job)
        resid = block.resid - block.resid.mean(axis=0)
        scores = _first_pc_scores(resid, name)
        loading = resid.T @ scores / (scores @ scores)
        if loading[0] < 0:
            loading, scores = -loading, -scores
        sigma2 = float(np.mean((resid - np.outer(scores, loading)) ** 2))
        return block.coef, loading, scores, sigma2

    (d, b, g_scores, sigma2_y), *starts = [
        block_start(block, f"X{k}" if k else "Y") for k, block in enumerate(projection)
    ]
    d_m, a_m, f_scores, sigma2_m = (list(part) for part in zip(*starts))

    f_mat = np.array(f_scores)                    # (p, n)
    c = np.linalg.lstsq(f_mat.T, g_scores, rcond=None)[0]

    # The structural disturbance has unit variance by identification, so
    # the dependent score is not free to have unit variance itself.
    # Rescale (g-score, b, c) jointly to put the starting point on the
    # identified scale; starting off-scale drops EM into a nearly flat
    # valley that takes thousands of iterations to cross.
    resid_var = float(np.mean((g_scores - c @ f_mat) ** 2))
    scale = 1.0 / np.sqrt(max(resid_var, 1e-12))
    b = b / scale
    c = c * scale
    g_scores = g_scores * scale

    # Plain least squares hands each covariate block the in-sample
    # projection of its factor (the likelihood is exactly flat in that
    # split, and EM preserves whatever the start chose). The projection
    # is partly visible through the *other* blocks, whose scores are not
    # orthogonal to this block's covariates, so reclaim it here: for the
    # dependent block through the structural prediction, for each
    # explanatory block through the structural residual, shrunk by its
    # signal fraction c^2/(c^2+1).
    g_cross = c @ f_mat
    d = d - np.outer(projection[0].proj @ g_cross, b)
    for m, block in enumerate(projection[1:]):
        if abs(c[m]) < 1e-8:
            continue
        backed_out = (g_scores - g_cross + c[m] * f_mat[m]) / c[m]
        kappa_m = block.proj @ backed_out
        weight = c[m] ** 2 / (c[m] ** 2 + 1.0)
        d_m[m] = d_m[m] - weight * np.outer(kappa_m, a_m[m])

    return Theta(
        d=d, d_m=tuple(d_m), b=b, a_m=tuple(a_m), c=c,
        sigma2_y=sigma2_y, sigma2_m=tuple(sigma2_m),
    )


def em_step(
    law: ConditionalLaw, data: Dataset, projection: tuple[BlockProjection, ...]
) -> tuple[Theta, ConditionalLaw]:
    """One closed-form M-step from the law at the current parameters,
    then the E-step at the updated parameters.

    ``projection`` is ``project_covariates(data)``. Raises
    NonFiniteParameterError naming the first non-finite coordinate of
    the update, before the E-step can turn it into another error.
    """
    theta_new = update_theta(projection, law)
    values = flatten_theta(theta_new)
    if not np.isfinite(values).all():
        k = int(np.flatnonzero(~np.isfinite(values))[0])
        name = theta_names(data.dimensions())[k]
        raise NonFiniteParameterError(f"M-step produced {name} = {values[k]}")
    return theta_new, conditional_law(theta_new, data)


def relative_change(theta_old: Theta, theta_new: Theta, floor: float) -> float:
    """Sum over coordinates of |new - old| / max(|new|, floor)."""
    old = flatten_theta(theta_old)
    new = flatten_theta(theta_new)
    return float(np.sum(np.abs(new - old) / np.maximum(np.abs(new), floor)))


def fit(data: Dataset, dims: Dimensions, config: EMConfig) -> FitResult:
    """Run EM from the deterministic initialization until the stopping
    rule fires or max_iter is reached.

    ``dims`` must equal ``data.dimensions()``; a DataError names the
    first field that differs.
    """
    actual = data.dimensions()
    for field in fields(Dimensions):
        given, found = getattr(dims, field.name), getattr(actual, field.name)
        if given != found:
            raise DataError(
                f"dims.{field.name}={given} disagrees with the data ({found})"
            )
    projection = project_covariates(data)
    theta = initialize(projection)
    try:
        law = conditional_law(theta, data)
    except FactorEMError as exc:
        raise type(exc)(f"EM start: {exc}") from exc
    trace = []
    converged = False
    for iteration in range(1, config.max_iter + 1):
        try:
            theta_new, law = em_step(law, data, projection)
        except FactorEMError as exc:
            raise type(exc)(f"EM iteration {iteration}: {exc}") from exc
        change = relative_change(theta, theta_new, config.denominator_floor)
        trace.append((change, float(law.loglik.sum())))
        theta = theta_new
        if change < config.epsilon:
            converged = True
            break
    return FitResult(
        theta=theta,
        moments=law,
        iterations=len(trace),
        converged=converged,
        trace=np.array(trace),
        dims=actual,
    )


def canonicalize(result: FitResult) -> FitResult:
    """Resolve the factor sign symmetries for reporting.

    Jointly flipping a factor with its loadings (and the structural
    coefficients tied to it) leaves the observed likelihood unchanged;
    the reported solution fixes the first coordinate of b and of every
    a^m to be nonnegative. With s = (s_g, s_f) the signs applied, the
    law becomes (m s, Sigma o s s'); its per-unit log-likelihood and the
    iteration trace are left untouched.
    """
    theta = result.theta
    s_g = -1.0 if theta.b[0] < 0 else 1.0
    s_f = np.array([-1.0 if am[0] < 0 else 1.0 for am in theta.a_m])
    if s_g == 1.0 and np.all(s_f == 1.0):
        return result

    new_theta = Theta(
        d=theta.d,
        d_m=theta.d_m,
        b=s_g * theta.b,
        a_m=tuple(s * am for s, am in zip(s_f, theta.a_m)),
        c=s_g * s_f * theta.c,
        sigma2_y=theta.sigma2_y,
        sigma2_m=theta.sigma2_m,
    )
    s = np.concatenate([[s_g], s_f])
    law = result.moments
    new_law = replace(law, m=law.m * s, sigma=law.sigma * np.outer(s, s))
    return replace(result, theta=new_theta, moments=new_law)
