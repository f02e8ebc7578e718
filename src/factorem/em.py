"""EM fitting: initialization, the accelerated E->M loop, stopping rule,
reporting.

A fit reads the data twice: ``project_covariates`` partials each block's
covariates out of the centered data and builds the stacked Gram G of the
residuals and the covariates (``mstep.Projection``, the fit's one per-fit
object, which the result keeps; its index maps are built once per layout),
and ``conditional_law`` gives the reported law at the estimate from one
product per block. Everything else is algebra on blocks of G, but the loglik
of a block past ``estep.GRAM_LIMIT``, ``observed_loglik``'s n-row pass, which an
E-step takes only when its loglik is read (never the start's or ``account``'s).

Initialization takes the first principal component of each block's
centered covariate residuals as a starting factor (its first variable
loading nonnegatively): LAPACK ``dsyevr`` computes only the top eigenpair
(lambda, e) of their q x q Gram, a diagonal block of G, and the start
variance is (trace - lambda) / (n (q - 1)), with rounding at most 9e-13
relative at n 400, q 40. Loadings and, by least squares on the scores,
structural coefficients follow; each centered score is W~_c v_k, so the
scores' Grams are v'Gv. Two corrections follow, along directions in which
EM moves slowly: the dependent score moves to the scale of the
unit-variance structural disturbance, and each block's in-sample
factor/covariate overlap is reclaimed from the other blocks.

The start and the loop are the canonical parameter vector x
(``flatten_theta`` order) and the summed law (``estep.EStepSummary``),
the loop's only E-step state; a ``Theta`` is built only at the estimate
and for the exact loglik of an E-step past the Gram form's limit. One
EM-map evaluation (``em_step``) is the M-step from the summed law
(``mstep.update_theta``), its PX-EM reduction (Liu, Rubin & Wu, 1998),
then the Gram-form E-step at the reduced x (``estep.gram_summary``),
whose summed observed log-likelihood fills that evaluation's trace row.
With var(zeta) free, the M-step also gives var(zeta) = v =
(s00 - c's[1:,0]) / n, as S11 c = s[1:,0]; b <- b sqrt(v), c <- c / sqrt(v)
map back to v = 1, one step along the joint scale of (b, c), which EM
crawls along. v is not a setting, and it is 1 at EM's fixed points.

The map is accelerated by restarted reduced-rank extrapolation (RRE) of
order K = ``ORDER`` = 4 (Smith, Ford & Sidi, 1987; Sidi, 2017), which
removes up to K geometric modes of the map per cycle where SqS3-type
steplengths remove one. With the p+1 noise variances, the last coordinates
of x, on the log scale, each cycle takes K + 2 consecutive map outputs
y0 -> .. -> y5 (on the map's path: the start, whose step is far the longest,
is not one, so the first cycle is the first six), sets u_j = y_{j+1} - y_j
and picks the weights gamma, summing to 1, that minimize ||sum_j gamma_j u_j||:
a least-squares problem on the second differences u_{j+1} - u_j, solved by
pivoted QR (LAPACK ``dgelsy``). The point is x' = sum_j gamma_j y_{j+1}, with
every variance floored as the M-step's are (silently); there is none when
it is not finite or the second differences are rank-deficient. x' is kept
only when the E-step at x' succeeds and its observed log-likelihood is at
least that of y5; the map step from x' then begins the next cycle.
Otherwise the next cycle begins at y5. Every accepted iterate is thus a map
output or a point at least as likely as the last one, so the trace never
decreases.

The stopping statistic is read on every map step, as the sum over the
canonical parameter vector of |F(x) - x| / max(|F(x)|, floor); iteration
ends at the first step where it drops below epsilon, or when max_iter
map evaluations are spent (non-convergence is flagged, not raised).
Epsilon therefore means what it means for unaccelerated PX-EM, and a fit
that it finishes within six map steps is the plain PX-EM fit.
"""

import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, FactorEMError, NonFiniteParameterError
from .estep import ConditionalLaw, EStepSummary, conditional_law, gram_summary
from .model import (
    Dataset, Dimensions, Theta, as_count, block_label, check_dimensions, flatten_theta,
    theta_names, unflatten_theta,
)
from .mstep import Projection, expected_score, floored, project_covariates, update_theta

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
# the extrapolation's order K (modes removed per cycle) and the relative
# condition below which its second differences count as rank-deficient
ORDER = 4
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class EMConfig:
    """Knobs of the EM iteration.

    epsilon : stopping threshold on the relative-change statistic
    max_iter : iteration cap
    """

    epsilon: float = 1e-2
    max_iter: int = 500

    def __post_init__(self):
        real = isinstance(self.epsilon, numbers.Real) and not isinstance(self.epsilon, bool)
        if not (real and 0 < self.epsilon < np.inf):
            raise DataError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        # numpy scalars pass both checks; JSON takes only Python numbers
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "max_iter", as_count(self.max_iter, "max_iter", 1))


@dataclass
class FitResult:
    """Converged parameters, factor scores and the iteration history.

    moments is the conditional law of the latents at the returned theta;
    its (n, p+1) mean m holds the reported factor scores, g in column 0
    and f^m in column m, the layout of ``simulate_dataset``'s true
    latents (each unit's loglik is ``observed_loglik(theta, data).per_unit``,
    a pass the fit makes only past ``estep.GRAM_LIMIT``). trace has one row per EM-map evaluation
    (``em_step`` call), which iterations counts: the relative change from
    its input to its output, which the stopping rule reads, and the loglik
    at its output. The rows are in the order of the accepted iterates, so
    the log-likelihood column never decreases. accepted and rejected count
    the RRE extrapolations kept and discarded by the log-likelihood test (a
    cycle without a point attempts none). projection is the fit's
    ``mstep.Projection`` (left out of the repr), whose ``data`` is
    the fitted ``Dataset`` (held by reference, never copied), and config
    the ``EMConfig`` the fit ran on, so ``io.write_fit`` needs nothing
    else; dims are the data's dimensions.
    """

    theta: Theta
    moments: ConditionalLaw
    converged: bool
    trace: np.ndarray
    projection: Projection = field(repr=False)
    config: EMConfig
    accepted: int = 0
    rejected: int = 0

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def dims(self) -> Dimensions:
        return self.projection.data.dimensions()

    def account(self) -> tuple[np.ndarray, np.ndarray]:
        """The observed-loglik gradient at theta (``mstep.expected_score``, by
        Fisher's identity) and each observed variable's correlation with its
        block's factor score, read off the projection with no pass over the data."""
        projection, x = self.projection, flatten_theta(self.theta)
        summary = gram_summary(x, projection)
        score = expected_score(x, summary, projection)
        # corr(Z_j, f_k) = (Z_c'M)_jk / sqrt(||Z_j,c||^2 ||f_k,c||^2), Z_c'M = Z~_c'M + B'T_c'M
        nz, block = projection.spread.size, projection.block
        zm = summary.wm[:nz] + projection.stacked_coef.T @ summary.wm[nz:-1]
        f_sq = ((self.moments.m - self.moments.m.mean(axis=0))**2).sum(axis=0)
        return score, zm.take(projection.own[:nz]) / np.sqrt(projection.spread * f_sq[block[:nz]])


def _first_component(gram: np.ndarray, n: int, name: str) -> tuple[np.ndarray, float, float]:
    """Top eigenpair (lambda, e) as e (e[0] >= 0), sqrt(lambda / n) and the start variance."""
    q = len(gram)
    top, vec, _, _, info = lapack.dsyevr(gram, range="I", lower=1, il=q, iu=q)
    if info:
        raise FactorEMError(f"the top eigenpair of {name}'s residual Gram failed (info {info})")
    e = vec[:, 0] if vec[0, 0] >= 0 else -vec[:, 0]
    # the mean of the other eigenvalues, the one-factor ML noise variance; 0 for q = 1
    return e, np.sqrt(top[0] / n), (gram.trace() - top[0]) / (n * max(q - 1, 1))


def initialize(projection: Projection) -> np.ndarray:
    """Least-squares / principal-component starting point, as the
    canonical vector, read off the stacked Gram of the covariate residuals
    and the covariates."""
    g, n, nz = projection.g, projection.data.n, projection.spread.size
    blocks = projection.widths.size
    # column k: block k's centered first-PC score as a combination of W~_c's columns
    v = np.zeros((g.shape[0], blocks))
    loading, std, sigma2 = np.zeros(nz), np.zeros(blocks), np.zeros(blocks)
    for k, (lo, q) in enumerate(zip(projection.starts[0].tolist(), projection.widths.tolist())):
        z = slice(lo, lo + q)
        # the PC of the centered residuals, so the loading regression carries
        # an implicit intercept (residual means are not the factor's job)
        e, std[k], sigma2[k] = _first_component(g[z, z], n, block_label("Z", k))
        v[z, k] = e
        loading[z] = e * std[k]
    v /= std
    cross = g @ v                                 # rows T_j: T_j' (centered score k)
    scores = v.T @ cross                          # centered score Gram, g first
    work, iwork, _ = lapack.dgelsd_lwork(blocks - 1, blocks - 1, 1)   # np.linalg.lstsq's call
    c, _, _, info = lapack.dgelsd(scores[1:, 1:], scores[1:, 0], int(work), iwork,
                                  np.finfo(float).eps * (blocks - 1))
    if info:
        raise FactorEMError(f"the least-squares structural start failed (info {info})")

    # The structural disturbance has unit variance by identification, so
    # the dependent score is not free to have unit variance itself.
    # Rescale (g-score, b, c) jointly to put the starting point on the
    # identified scale; starting off-scale drops EM into a nearly flat
    # valley that takes thousands of iterations to cross.
    resid_var = float(scores[0, 0] - c @ scores[1:, 0]) / n
    scale = 1.0 / np.sqrt(max(resid_var, 1e-12))
    loading[:projection.widths[0]] /= scale      # block 0's rows come first
    c = c * scale
    cross[:, 0] *= scale

    # Plain least squares hands each covariate block the in-sample
    # projection of its factor. EM corrects that split only slowly: from
    # D = B a tight fit reaches the same estimate in more evaluations, but a
    # loose fit can stop nats away from the reclaimed start's. The projection is
    # partly visible through the *other* blocks, whose scores are not
    # orthogonal to this block's covariates, so reclaim it here: for the
    # dependent block through the structural prediction, for each
    # explanatory block through the structural residual, shrunk by its
    # signal fraction c^2/(c^2+1). A block with |c_m| < 1e-8 reclaims nothing.
    c_block, weight = [1.0], [1.0]                # per block, the dependent one first
    for c_m in c.tolist():
        c_block.append(1.0 if abs(c_m) < 1e-8 else c_m)
        weight.append(0.0 if abs(c_m) < 1e-8 else c_m * c_m / (c_m * c_m + 1.0))
    t_block, dependent = projection.block[nz:], projection.starts[1][1]
    c_t, weight = np.array(c_block)[t_block], np.array(weight)[t_block]
    g_cross = cross[nz:-1, 1:] @ c                # rows T_j: T_j' (c . f-scores)
    backed_out = (cross[nz:-1, 0] - g_cross + c_t * cross.take(projection.own[nz:])) / c_t
    backed_out[:dependent] = g_cross[:dependent]
    kappa = projection.stacked_tt_inv @ backed_out
    rows, cols = projection.d_at
    coef = projection.coef_at_d - weight[rows] * (kappa[rows] * loading[cols])
    return np.concatenate([coef, loading, c, floored(sigma2, projection.floor, "start")])


def em_step(summary: EStepSummary, projection: Projection) -> tuple[np.ndarray, EStepSummary]:
    """One closed-form M-step from the summed law at the current
    parameters, its PX reduction, then the Gram-form E-step at the
    reduced canonical vector, which is returned with it.

    Raises NonFiniteParameterError naming the first non-finite coordinate
    of the update, or var(zeta) when its update is not positive, before
    the E-step can turn it into another error.
    """
    x = update_theta(projection, summary)
    if np.count_nonzero(np.isfinite(x)) < x.size:
        k = int(np.flatnonzero(~np.isfinite(x))[0])
        raise NonFiniteParameterError(
            f"M-step produced {theta_names(projection.data.dimensions())[k]} = {x[k]}")
    nd, nz, k = projection.coef_at_d.size, projection.spread.size, projection.widths.size
    b, c = x[nd:nd + projection.widths[0]], x[nd + nz:-k]      # views into x
    v = float(summary.s[0, 0] - c @ summary.s[1:, 0]) / projection.data.n
    if not v > 0:       # c / sqrt(v) would not be finite
        raise NonFiniteParameterError(f"M-step produced var(zeta) = {v}")
    b *= np.sqrt(v)
    c /= np.sqrt(v)
    return x, gram_summary(x, projection)


def relative_change(old: np.ndarray, new: np.ndarray) -> float:
    """Sum over the coordinates of two canonical vectors of
    |new - old| / max(|new|, DENOMINATOR_FLOOR)."""
    return float(np.add.reduce(np.abs(new - old) / np.maximum(np.abs(new), DENOMINATOR_FLOOR)))


def _extrapolate(points: list, floor: np.ndarray):
    """RRE point of order K = ORDER from K + 2 consecutive map outputs y0..y_{K+1}
    of the canonical vector, with its last ``floor.size`` coordinates (the noise
    variances) on the log scale and raised to ``floor``; None when the point
    is not finite or the second differences are rank-deficient."""
    blocks = floor.size
    y = np.array(points)
    y[:, -blocks:] = np.log(y[:, -blocks:])
    u = np.diff(y, axis=0)
    # sum_j gamma_j u_j = u_K - sum_{j<K} xi_j (u_{j+1} - u_j), xi the partial sums of gamma
    second = np.diff(u, axis=0).T
    work, _ = lapack.dgelsy_lwork(*second.shape, 1, RANK_CUTOFF)
    _, xi, _, rank, _ = lapack.dgelsy(second, u[-1:].T, np.zeros(ORDER, np.int32),
                                      RANK_CUTOFF, int(work))
    if rank < ORDER:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        x = y[-1] - xi[:ORDER, 0] @ u[1:]   # sum_j gamma_j y_{j+1}
        finite = np.count_nonzero(np.isfinite(x)) == x.size
        x[-blocks:] = np.maximum(np.exp(x[-blocks:]), floor)
    return x if finite and np.count_nonzero(np.isfinite(x[-blocks:])) == blocks else None


def fit(data: Dataset, dims: Dimensions, config: EMConfig) -> FitResult:
    """Run RRE-accelerated EM from the deterministic initialization, each cycle
    on ORDER + 2 consecutive map outputs, the first six first (a fit that stops
    within six map steps is the plain PX-EM fit), until the stopping rule fires
    on a map step or max_iter map evaluations are spent; return it ``canonicalize``d.

    ``dims`` must equal ``data.dimensions()``; a DataError names the
    first field that differs.
    """
    actual = check_dimensions(dims, data)
    projection = project_covariates(data)
    x = initialize(projection)
    try:
        summary = gram_summary(x, projection)
    except FactorEMError as exc:
        raise type(exc)(f"EM start: {exc}") from exc
    trace = []
    converged = False
    accepted = rejected = 0
    cycle = []                      # map outputs since the cycle began
    while len(trace) < config.max_iter:
        try:
            x_new, summary = em_step(summary, projection)
        except FactorEMError as exc:
            raise type(exc)(f"EM iteration {len(trace) + 1}: {exc}") from exc
        change = relative_change(x, x_new)
        trace.append((change, summary.loglik))
        x = x_new
        if change < config.epsilon:
            converged = True
            break
        cycle.append(x)
        if len(cycle) < ORDER + 2 or len(trace) == config.max_iter:
            continue
        extrapolated = _extrapolate(cycle, projection.floor)
        cycle = [x]
        if extrapolated is None:
            continue
        try:
            summary_x = gram_summary(extrapolated, projection)
        except FactorEMError:
            summary_x = None
        # NaN compares False: a non-finite log-likelihood is rejected too
        if summary_x is not None and summary_x.loglik >= trace[-1][1]:
            x, summary = extrapolated, summary_x
            cycle = []              # the stabilizing step's output begins the next
            accepted += 1
        else:
            rejected += 1
    theta = unflatten_theta(x, actual)
    return canonicalize(FitResult(
        theta=theta, moments=conditional_law(theta, data), converged=converged,
        trace=np.array(trace), projection=projection, config=config,
        accepted=accepted, rejected=rejected))


def canonicalize(result: FitResult) -> FitResult:
    """Resolve the factor sign symmetries for reporting.

    Jointly flipping a factor with its loadings (and the structural
    coefficients tied to it) leaves the observed likelihood unchanged;
    the reported solution fixes the first coordinate of every loading
    vector (b and each a^m) to be nonnegative. With s = (s_g, s_f) the
    signs applied, one per block, the law becomes (m s, Sigma o s s');
    the iteration trace and the projection are left untouched, and
    ``account`` follows the flipped theta. A canonical result, as ``fit``
    returns, comes back as is.
    """
    theta = result.theta
    if not any(lam[0] < 0 for lam in theta.loading):
        return result
    s = np.array([-1.0 if lam[0] < 0 else 1.0 for lam in theta.loading])

    new_theta = replace(
        theta, loading=[sk * lam for sk, lam in zip(s, theta.loading)],
        c=s[0] * s[1:] * theta.c,
    )
    law = result.moments
    new_law = replace(law, m=law.m * s, sigma=law.sigma * np.outer(s, s))
    return replace(result, theta=new_theta, moments=new_law)
