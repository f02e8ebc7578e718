"""Quality metrics and study harnesses.

Three studies are provided: a replication study (simulate, fit, score
against the known truth), a sensitivity sweep over the unit count and
block width, and a re-sampling stability check comparing subsample fits
against the full-data fit. Each study checks its inputs, every cell's
design included, before its first simulation or fit, and holds one row
per fit: a fit or a scoring that raises a FactorEMError leaves a row of
NaN metrics and its message in ``failures``, and the study goes on.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .em import EMConfig, fit
from .errors import DataError, FactorEMError
from .estep import ConditionalLaw
from .model import Dataset, Dimensions, Theta, as_count, flatten_theta, subset_units
from .simulate import SimConfig, simulate_dataset

__all__ = [
    "StudySummary",
    "ResampleSummary",
    "abs_rel_deviation",
    "factor_sq_correlation",
    "replicate_study",
    "sensitivity_sweep",
    "kfold_resample",
]


def abs_rel_deviation(theta_true: Theta, theta_hat: Theta) -> tuple[np.ndarray, float]:
    """Per-coordinate |hat - true| / |true| and its average.

    Coordinates with a zero true value are undefined (NaN) and excluded
    from the average with a warning.
    """
    true = flatten_theta(theta_true)
    hat = flatten_theta(theta_hat)
    if true.shape != hat.shape:
        raise DataError(
            f"parameter vectors disagree: {true.shape} vs {hat.shape}"
        )
    zero = true == 0.0
    deviations = np.full(true.shape, np.nan)
    deviations[~zero] = np.abs(hat[~zero] - true[~zero]) / np.abs(true[~zero])
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} true parameters are zero; their relative "
            "deviations are undefined and excluded from the average",
            RuntimeWarning,
            stacklevel=2,
        )
    return deviations, float(np.nanmean(deviations))


def _pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlation of each column of ``x`` with the same column of
    ``y``, from centered sums; NaN where either column is constant."""
    x, y = x - x.mean(axis=0), y - y.mean(axis=0)
    x_sq, y_sq = (x * x).sum(axis=0), (y * y).sum(axis=0)
    scale = np.where((x_sq == 0) | (y_sq == 0), np.nan, np.sqrt(x_sq * y_sq))
    return np.clip((x * y).sum(axis=0) / scale, -1.0, 1.0)


def factor_sq_correlation(h_true: np.ndarray, moments: ConditionalLaw) -> np.ndarray:
    """Squared Pearson correlation of each true factor with its score.

    ``h_true`` is laid out like ``moments.m``, (n, p+1) with g in column
    0; a DataError names both shapes when they differ, and names the
    input holding a NaN or an infinity. Squaring makes the metric
    invariant to the factor sign symmetry. Returns p+1 values: the
    dependent factor first, then each explanatory factor.
    """
    h_true = np.asarray(h_true, dtype=float)
    if h_true.shape != moments.m.shape:
        raise DataError(f"true latents have shape {h_true.shape} but the factor "
                        f"scores have shape {moments.m.shape}")
    if h_true.shape[0] < 3:
        raise DataError("correlation needs at least 3 units")
    for name, values in (("true latents", h_true), ("factor scores", moments.m)):
        if not np.isfinite(values).all():
            raise DataError(f"the {name} hold a non-finite value")
    corr = _pearson(h_true, moments.m)
    if np.isnan(corr).any():
        raise DataError("zero-variance input to factor correlation")
    return corr * corr


def _quartiles(values: np.ndarray) -> np.ndarray:
    """(Q1, median, Q3) of the values that are not NaN; NaN when none is."""
    if np.isnan(values).all():
        return np.full(3, np.nan)
    return np.nanpercentile(values, [25, 50, 75])


@dataclass
class StudySummary:
    """Per-replicate metrics of one design cell plus summary helpers.

    Arrays have one row per replicate; failed replicates carry NaN and
    are listed in ``failures``.
    """

    dims: Dimensions
    deviation_avg: np.ndarray
    sq_corr: np.ndarray
    c_hat: np.ndarray
    sigma2_y_hat: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    cell: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def replicates(self) -> int:
        return len(self.deviation_avg)

    def deviation_quartiles(self) -> np.ndarray:
        """(Q1, median, Q3) of the per-replicate average deviations."""
        return _quartiles(self.deviation_avg)

    def sq_corr_quartiles(self) -> np.ndarray:
        """(Q1, median, Q3) of the squared correlations pooled over
        replicates and factors."""
        return _quartiles(self.sq_corr)

    @staticmethod
    def mean_and_band(values: np.ndarray) -> tuple[float, float, float]:
        """Mean with a 95% normal-approximation band; NaN when every value is."""
        values = values[~np.isnan(values)]
        mean = float(values.mean()) if values.size else np.nan
        if values.size < 2:
            return mean, mean, mean
        half = 1.96 * float(values.std(ddof=1)) / np.sqrt(values.size)
        return mean, mean - half, mean + half


def _derived_seeds(seed: int, count: int) -> list[int]:
    # uint32 child seeds, reproducible and order-stable
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def replicate_study(sim: SimConfig, em: EMConfig, replicates: int) -> StudySummary:
    """Simulate, fit and score ``replicates`` independent datasets.

    Each replicate is one row. A replicate whose fit or scoring raises a
    FactorEMError is a failure, named in ``failures``: its row holds NaN
    metrics, 0 iterations and converged False.
    """
    replicates = as_count(replicates, "replicates", 1)
    p = sim.dims.p
    rows, failures = [], []
    for rep, seed in enumerate(_derived_seeds(sim.seed, replicates)):
        data, h, theta_true = simulate_dataset(replace(sim, seed=seed))
        try:
            result = fit(data, sim.dims, em)
            rows.append([abs_rel_deviation(theta_true, result.theta)[1],
                         *factor_sq_correlation(h, result.moments), *result.theta.c,
                         result.theta.sigma2[0], result.iterations, result.converged])
        except FactorEMError as exc:
            failures.append(f"replicate {rep}: {exc}")
            rows.append([np.nan] * (2 * p + 3) + [0, False])
    table = np.array(rows)
    return StudySummary(sim.dims, table[:, 0], table[:, 1:p + 2], table[:, p + 2:-3],
                        table[:, -3], table[:, -2].astype(int), table[:, -1].astype(bool),
                        failures=failures)


def sensitivity_sweep(
    n_values,
    q_values,
    base: SimConfig,
    em: EMConfig,
    replicates: int,
) -> list[StudySummary]:
    """One replicate study per design cell.

    Cells vary the unit count at the base block widths, then the common
    block width at the base unit count; a cell appearing in both sweeps
    is run in both (the design counts it twice). A vary_n cell is
    labelled with the width of Y. Every cell's design, ``base.theta``
    included, is checked before the first simulation.
    """
    replicates = as_count(replicates, "replicates", 1)
    n_values, q_values = list(n_values), list(q_values)
    if not n_values and not q_values:
        raise DataError("at least one of n_values, q_values must be nonempty")
    dims = base.dims
    cells = [(f"vary_n:n={n},q={dims.q_y}", replace(dims, n=n)) for n in n_values]
    cells += [(f"vary_q:n={dims.n},q={q}", replace(dims, q_y=q, q_m=(q,) * dims.p))
              for q in q_values]
    sims = [(label, replace(base, dims=cell_dims, seed=seed))
            for seed, (label, cell_dims) in zip(_derived_seeds(base.seed, len(cells)), cells)]
    return [replace(replicate_study(sim, em, replicates), cell=label) for label, sim in sims]


@dataclass
class ResampleSummary:
    """Subsample-versus-full-fit agreement, one row per subsample."""

    sample_size: int
    param_mse: np.ndarray
    param_corr: np.ndarray
    factor_mse: np.ndarray
    factor_corr: np.ndarray
    failures: list[str] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.param_mse)

    def medians(self) -> dict[str, float]:
        """Median of each metric over the subsamples whose fit did not fail;
        NaN when every fit failed."""
        columns = {name: getattr(self, name)
                   for name in ("param_mse", "param_corr", "factor_mse", "factor_corr")}
        return {name: np.nan if np.isnan(values).all() else float(np.nanmedian(values))
                for name, values in columns.items()}


def kfold_resample(
    data: Dataset,
    em: EMConfig,
    k: int,
    sample_size: int,
    seed: int = 0,
) -> ResampleSummary:
    """Fit on k random subsamples and compare each against the full fit.

    Parameters are compared coordinate-wise on the canonical vector
    (after sign canonicalization on both sides); factor scores are
    compared only on the units present in the subsample. ``seed`` draws
    the subsamples and must be >= 0. A failed full-data fit leaves every
    row NaN, with its message in ``failures``, and no subsample is fitted.
    """
    dims, k, seed = data.dimensions(), as_count(k, "k", 2), as_count(seed, "seed", 0)
    sample_size = as_count(sample_size, "sample_size")
    if not 2 <= sample_size <= dims.n:
        raise DataError(f"sample_size must be in [2, {dims.n}], got {sample_size}")
    try:
        full = fit(data, dims, em)
    except FactorEMError as exc:
        failures = [f"sample {s}: full-data fit failed: {exc}" for s in range(k)]
        return ResampleSummary(sample_size, *np.full((4, k), np.nan), failures=failures)
    full_params = flatten_theta(full.theta)
    full_scores = full.moments.m

    rows, failures = [], []
    rng = np.random.default_rng(seed)
    sub_dims = replace(dims, n=sample_size)
    for s in range(k):
        idx = np.sort(rng.choice(dims.n, size=sample_size, replace=False))
        try:
            sub = fit(subset_units(data, idx), sub_dims, em)
        except FactorEMError as exc:
            failures.append(f"sample {s}: {exc}")
            rows.append((np.nan,) * 4)
            continue
        sub_params = flatten_theta(sub.theta)
        sub_scores, ref_scores = sub.moments.m, full_scores[idx]
        rows.append((np.mean((sub_params - full_params) ** 2),
                     _pearson(sub_params[:, None], full_params[:, None])[0],
                     np.mean((sub_scores - ref_scores) ** 2),
                     np.mean(_pearson(sub_scores, ref_scores))))
    return ResampleSummary(sample_size, *np.array(rows).T, failures=failures)
