"""EM fitting: initialization, the accelerated E->M loop, stopping rule,
reporting.

The covariates and observed blocks are fixed within a fit, so ``fit``
partials each block's covariates out once (``mstep.project_covariates``)
and hands that projection to the initialization and to every M-step.
Initialization reads each block's covariate regression off the
projection, takes the first principal component of the residuals (top
eigenvector of their q x q Gram) as a starting factor (sign fixed so the
first variable loads nonnegatively), backs out starting loadings,
variances and structural coefficients by least squares, then applies two
corrections the likelihood itself cannot make later (see the inline
notes): the dependent score is moved to the scale implied by the
unit-variance structural disturbance, and each block's in-sample
factor/covariate overlap is reclaimed from the other blocks.

The loop carries the conditional law of the latents, its only E-step
state. One EM-map evaluation (``em_step``) is an M-step from the law's
scores and second-moment sum followed by the E-step at the updated
parameters, whose by-product observed log-likelihood fills that
evaluation's trace row: one pass over the data, and the reported law
(factor scores included) is the one at the returned parameters.

The map is accelerated by SqS3 (Varadhan & Roland, 2008, "Simple and
globally convergent methods for accelerating the convergence of any EM
algorithm"). With x = ``flatten_theta`` and the p+1 noise variances on
the log scale, each cycle takes two map steps x0 -> x1 -> x2, sets
r = x1 - x0, v = x2 - 2 x1 + x0 and alpha = min(-||r|| / ||v||, -1), and
extrapolates to x' = x0 - 2 alpha r + alpha^2 v, with every variance
clamped at the M-step's floor. x' is kept only when the E-step at x'
succeeds and its observed log-likelihood is at least that of x2; one
more map step from x' then starts the next cycle. Otherwise (and when
alpha = -1, where x' is x2) the next cycle starts from x2. Every
accepted iterate is thus a map output or a point at least as likely as
the last one, so the trace never decreases.

The stopping statistic is read on every map step, as the sum over the
canonical parameter vector of |F(x) - x| / max(|F(x)|, floor); iteration
ends at the first step where it drops below epsilon, or when max_iter
map evaluations are spent (non-convergence is flagged, not raised).
Epsilon therefore means what it means for plain EM, and a fit that
plain EM finishes within two map steps is the plain EM fit.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, FactorEMError, NonFiniteParameterError
from .estep import ConditionalLaw, conditional_law
from .model import (
    Dataset, Dimensions, Theta, block_label, check_dimensions, flatten_parts, flatten_theta,
    theta_names, unflatten_parts,
)
from .mstep import VARIANCE_FLOOR, BlockProjection, project_covariates, update_theta

__all__ = [
    "EMConfig",
    "FitResult",
    "initialize",
    "em_step",
    "relative_change",
    "fit",
    "canonicalize",
]


# floor on |theta| in the stopping statistic's denominator
DENOMINATOR_FLOOR = 1e-8


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM iteration.

    epsilon : stopping threshold on the relative-change statistic
    max_iter : iteration cap
    """

    epsilon: float = 1e-2
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise DataError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
            raise DataError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class FitResult:
    """Converged parameters, factor scores and the iteration history.

    moments is the conditional law of the latents at the returned theta;
    its (n, p+1) mean m holds the reported factor scores, g in column 0
    and f^m in column m, the layout of ``simulate_dataset``'s true
    latents. iterations counts EM-map evaluations (``em_step`` calls),
    and trace is an (iterations, 2) array with one row per evaluation:
    the relative change from its input to its output, which the stopping
    rule reads, and the observed log-likelihood at its output. The rows
    are in the order of the accepted iterates, so the log-likelihood
    column never decreases. accepted and rejected count the SqS3
    extrapolations kept and discarded by the log-likelihood test (a
    cycle whose steplength is -1 attempts none). dims are the dimensions
    of the fitted data.
    """

    theta: Theta
    moments: ConditionalLaw
    iterations: int
    converged: bool
    trace: np.ndarray
    dims: Dimensions
    accepted: int = 0
    rejected: int = 0


def _first_pc_scores(resid: np.ndarray, name: str) -> np.ndarray:
    """First principal component scores (q x q Gram eigh), unit variance."""
    centered = resid - resid.mean(axis=0)
    eigval, eigvec = np.linalg.eigh(centered.T @ centered)
    if eigval[-1] <= (1e-12 * max(1.0, float(np.abs(resid).max()))) ** 2:
        raise DataError(f"residual block {name} has zero variance; PCA undefined")
    scores = centered @ eigvec[:, -1]
    return scores / scores.std()


def initialize(projection: tuple[BlockProjection, ...]) -> Theta:
    """Least-squares / principal-component starting point, read off the
    covariate projection of each block (Y first, as in ``Theta``)."""

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

    starts = [block_start(b, block_label("Z", k)) for k, b in enumerate(projection)]
    coef, loading, scores, sigma2 = (list(part) for part in zip(*starts))
    g_scores, f_mat = scores[0], np.array(scores[1:])   # (n,), (p, n)
    c = np.linalg.lstsq(f_mat.T, g_scores, rcond=None)[0]

    # The structural disturbance has unit variance by identification, so
    # the dependent score is not free to have unit variance itself.
    # Rescale (g-score, b, c) jointly to put the starting point on the
    # identified scale; starting off-scale drops EM into a nearly flat
    # valley that takes thousands of iterations to cross.
    resid_var = float(np.mean((g_scores - c @ f_mat) ** 2))
    scale = 1.0 / np.sqrt(max(resid_var, 1e-12))
    loading[0] = loading[0] / scale
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
    coef[0] = coef[0] - np.outer(projection[0].proj @ g_cross, loading[0])
    for m, (c_m, f_m) in enumerate(zip(c, f_mat), start=1):
        if abs(c_m) < 1e-8:
            continue
        backed_out = (g_scores - g_cross + c_m * f_m) / c_m
        kappa_m = projection[m].proj @ backed_out
        weight = c_m ** 2 / (c_m ** 2 + 1.0)
        coef[m] = coef[m] - weight * np.outer(kappa_m, loading[m])

    return Theta(coef=coef, loading=loading, c=c, sigma2=sigma2)


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


def relative_change(theta_old: Theta, theta_new: Theta) -> float:
    """Sum over coordinates of |new - old| / max(|new|, DENOMINATOR_FLOOR)."""
    old = flatten_theta(theta_old)
    new = flatten_theta(theta_new)
    return float(np.sum(np.abs(new - old)
                        / np.maximum(np.abs(new), DENOMINATOR_FLOOR)))


def _extrapolate(theta0: Theta, theta1: Theta, theta2: Theta, dims: Dimensions):
    """SqS3 point from two map steps theta0 -> theta1 -> theta2, with the
    p+1 noise variances on the log scale, or None when the steplength is
    -1 (the point is theta2) or the point is not finite."""
    x0, x1, x2 = (flatten_parts(t.coef, t.loading, t.c, np.log(t.sigma2))
                  for t in (theta0, theta1, theta2))
    r = x1 - x0
    v = x2 - 2.0 * x1 + x0
    norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
    if not norm_r > norm_v > 0:
        return None
    alpha = -norm_r / norm_v
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0 - 2.0 * alpha * r + alpha**2 * v
        coef, loading, c, log_sigma2 = unflatten_parts(x, dims)
        sigma2 = np.maximum(np.exp(log_sigma2), VARIANCE_FLOOR)
    if not (np.isfinite(x).all() and np.isfinite(sigma2).all()):
        return None
    return Theta(coef, loading, c, sigma2)


def fit(data: Dataset, dims: Dimensions, config: EMConfig) -> FitResult:
    """Run SqS3-accelerated EM from the deterministic initialization
    until the stopping rule fires on a map step or max_iter map
    evaluations are spent.

    ``dims`` must equal ``data.dimensions()``; a DataError names the
    first field that differs.
    """
    actual = check_dimensions(dims, data)
    projection = project_covariates(data)
    theta = initialize(projection)
    try:
        law = conditional_law(theta, data)
    except FactorEMError as exc:
        raise type(exc)(f"EM start: {exc}") from exc
    trace = []
    converged = False
    accepted = rejected = 0
    cycle = [theta]                 # map iterates since the cycle began
    while len(trace) < config.max_iter:
        try:
            theta_new, law = em_step(law, data, projection)
        except FactorEMError as exc:
            raise type(exc)(f"EM iteration {len(trace) + 1}: {exc}") from exc
        change = relative_change(theta, theta_new)
        trace.append((change, float(law.loglik.sum())))
        theta = theta_new
        if change < config.epsilon:
            converged = True
            break
        cycle.append(theta)
        if len(cycle) < 3 or len(trace) == config.max_iter:
            continue
        extrapolated = _extrapolate(*cycle, actual)
        cycle = [theta]
        if extrapolated is None:
            continue
        try:
            law_x = conditional_law(extrapolated, data)
        except FactorEMError:
            law_x = None
        # NaN compares False: a non-finite log-likelihood is rejected too
        if law_x is not None and float(law_x.loglik.sum()) >= trace[-1][1]:
            theta, law = extrapolated, law_x
            cycle = []              # the stabilizing step's output begins the next
            accepted += 1
        else:
            rejected += 1
    return FitResult(
        theta=theta,
        moments=law,
        iterations=len(trace),
        converged=converged,
        trace=np.array(trace),
        dims=actual,
        accepted=accepted,
        rejected=rejected,
    )


def canonicalize(result: FitResult) -> FitResult:
    """Resolve the factor sign symmetries for reporting.

    Jointly flipping a factor with its loadings (and the structural
    coefficients tied to it) leaves the observed likelihood unchanged;
    the reported solution fixes the first coordinate of every loading
    vector (b and each a^m) to be nonnegative. With s = (s_g, s_f) the
    signs applied, one per block, the law becomes (m s, Sigma o s s');
    its per-unit log-likelihood and the iteration trace are left
    untouched.
    """
    theta = result.theta
    s = np.array([-1.0 if lam[0] < 0 else 1.0 for lam in theta.loading])
    if np.all(s == 1.0):
        return result

    new_theta = replace(
        theta, loading=[sk * lam for sk, lam in zip(s, theta.loading)],
        c=s[0] * s[1:] * theta.c,
    )
    law = result.moments
    new_law = replace(law, m=law.m * s, sigma=law.sigma * np.outer(s, s))
    return replace(result, theta=new_theta, moments=new_law)
