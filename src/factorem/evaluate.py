"""Quality metrics and study harnesses.

Three studies are provided: a replication study (simulate, fit, score
against the known truth), a sensitivity sweep over the unit count and
block width, and a re-sampling stability check comparing subsample fits
against the full-data fit.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .em import EMConfig, fit
from .errors import DataError, FactorEMError
from .estep import ConditionalLaw
from .model import Dataset, Dimensions, Theta, flatten_theta, subset_units
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


def factor_sq_correlation(h_true: np.ndarray, moments: ConditionalLaw) -> np.ndarray:
    """Squared Pearson correlation of each true factor with its score.

    ``h_true`` is laid out like ``moments.m``, (n, p+1) with g in column
    0; a DataError names both shapes when they differ. Squaring makes
    the metric invariant to the factor sign symmetry. Returns p+1
    values: the dependent factor first, then each explanatory factor.
    """
    h_true = np.asarray(h_true, dtype=float)
    if h_true.shape != moments.m.shape:
        raise DataError(f"true latents have shape {h_true.shape} but the factor "
                        f"scores have shape {moments.m.shape}")
    if h_true.shape[0] < 3:
        raise DataError("correlation needs at least 3 units")
    factor, score = h_true - h_true.mean(axis=0), moments.m - moments.m.mean(axis=0)
    factor_sq, score_sq = (factor * factor).sum(axis=0), (score * score).sum(axis=0)
    if (factor_sq == 0).any() or (score_sq == 0).any():
        raise DataError("zero-variance input to factor correlation")
    corr = np.clip((factor * score).sum(axis=0) / np.sqrt(factor_sq * score_sq), -1.0, 1.0)
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
    replicates: int
    cell: str = ""
    deviation_avg: np.ndarray = field(default_factory=lambda: np.empty(0))
    sq_corr: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    c_hat: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    sigma2_y_hat: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    converged: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    failures: list[str] = field(default_factory=list)

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
    """Simulate, fit and score ``replicates`` independent datasets."""
    if replicates < 1:
        raise DataError(f"replicates must be >= 1, got {replicates}")
    dims = sim.dims
    p = dims.p
    summary = StudySummary(
        dims=dims,
        replicates=replicates,
        deviation_avg=np.full(replicates, np.nan),
        sq_corr=np.full((replicates, p + 1), np.nan),
        c_hat=np.full((replicates, p), np.nan),
        sigma2_y_hat=np.full(replicates, np.nan),
        iterations=np.zeros(replicates, dtype=int),
        converged=np.zeros(replicates, dtype=bool),
    )
    for rep, seed in enumerate(_derived_seeds(sim.seed, replicates)):
        data, h, theta_true = simulate_dataset(replace(sim, seed=seed))
        try:
            result = fit(data, dims, em)
        except FactorEMError as exc:
            summary.failures.append(f"replicate {rep}: {exc}")
            continue
        _, avg_dev = abs_rel_deviation(theta_true, result.theta)
        summary.deviation_avg[rep] = avg_dev
        summary.sq_corr[rep] = factor_sq_correlation(h, result.moments)
        summary.c_hat[rep] = result.theta.c
        summary.sigma2_y_hat[rep] = result.theta.sigma2[0]
        summary.iterations[rep] = result.iterations
        summary.converged[rep] = result.converged
    return summary


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
    labelled with the width of Y.
    """
    n_values = list(n_values)
    q_values = list(q_values)
    if not n_values and not q_values:
        raise DataError("at least one of n_values, q_values must be nonempty")
    base_dims = base.dims
    cells = [("vary_n", n, base_dims.q_y, replace(base_dims, n=n)) for n in n_values]
    cells += [("vary_q", base_dims.n, q,
               replace(base_dims, q_y=q, q_m=(q,) * base_dims.p)) for q in q_values]

    summaries = []
    seeds = _derived_seeds(base.seed, len(cells))
    for seed, (kind, n, q, cell_dims) in zip(seeds, cells):
        cell_sim = replace(base, dims=cell_dims, seed=seed)
        summary = replicate_study(cell_sim, em, replicates)
        summary.cell = f"{kind}:n={n},q={q}"
        summaries.append(summary)
    return summaries


@dataclass
class ResampleSummary:
    """Subsample-versus-full-fit agreement, one row per subsample."""

    k: int
    sample_size: int
    param_mse: np.ndarray
    param_corr: np.ndarray
    factor_mse: np.ndarray
    factor_corr: np.ndarray
    failures: list[str] = field(default_factory=list)

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
    the subsamples and must be >= 0.
    """
    dims = data.dimensions()
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    if sample_size > dims.n or sample_size < 2:
        raise DataError(
            f"sample_size must be in [2, {dims.n}], got {sample_size}"
        )
    full = fit(data, dims, em)
    full_params = flatten_theta(full.theta)
    full_scores = full.moments.m

    summary = ResampleSummary(
        k=k,
        sample_size=sample_size,
        param_mse=np.full(k, np.nan),
        param_corr=np.full(k, np.nan),
        factor_mse=np.full(k, np.nan),
        factor_corr=np.full(k, np.nan),
    )
    rng = np.random.default_rng(seed)
    sub_dims = replace(dims, n=sample_size)
    for s in range(k):
        idx = np.sort(rng.choice(dims.n, size=sample_size, replace=False))
        try:
            sub = fit(subset_units(data, idx), sub_dims, em)
        except FactorEMError as exc:
            summary.failures.append(f"sample {s}: {exc}")
            continue
        sub_params = flatten_theta(sub.theta)
        summary.param_mse[s] = float(np.mean((sub_params - full_params) ** 2))
        summary.param_corr[s] = float(np.corrcoef(sub_params, full_params)[0, 1])

        sub_scores = sub.moments.m
        ref_scores = full_scores[idx]
        summary.factor_mse[s] = float(np.mean((sub_scores - ref_scores) ** 2))
        summary.factor_corr[s] = float(
            np.mean(
                [
                    np.corrcoef(sub_scores[:, j], ref_scores[:, j])[0, 1]
                    for j in range(sub_scores.shape[1])
                ]
            )
        )
    return summary
