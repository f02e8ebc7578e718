import re
from dataclasses import replace

import numpy as np
import pytest

from factorem import (
    Dimensions,
    EMConfig,
    SimConfig,
    abs_rel_deviation,
    factor_sq_correlation,
    flatten_theta,
    simulate_dataset,
)
from factorem.evaluate import kfold_resample, replicate_study, sensitivity_sweep
from factorem.model import subset_units, unflatten_theta
from factorem.errors import DataError
from factorem.estep import ConditionalLaw

from conftest import reference_dims, random_instance, random_theta


def moments_from_latents(h):
    """Point-mass law at the given (n, p+1) latents."""
    return ConditionalLaw(m=h, sigma=np.zeros((h.shape[1],) * 2))


class TestAbsRelDeviation:
    def test_exact_recovery(self):
        _, _, theta, _ = random_instance(0)
        per_k, average = abs_rel_deviation(theta, theta)
        np.testing.assert_array_equal(per_k, np.zeros(per_k.size))
        assert average == 0.0

    def test_single_coordinate_arithmetic(self):
        _, _, theta, dims = random_instance(1)
        vec = flatten_theta(theta)
        vec[0] = 2.0
        hat = vec.copy()
        hat[0] = 1.9
        per_k, _ = abs_rel_deviation(
            unflatten_theta(vec, dims), unflatten_theta(hat, dims)
        )
        assert per_k[0] == pytest.approx(0.05)

    def test_zero_true_parameter_excluded_with_warning(self):
        _, _, theta, dims = random_instance(2)
        vec = flatten_theta(theta)
        vec[3] = 0.0
        true = unflatten_theta(vec, dims)
        hat = unflatten_theta(vec + 0.5, dims)
        with pytest.warns(RuntimeWarning, match="zero"):
            per_k, average = abs_rel_deviation(true, hat)
        assert np.isnan(per_k[3])
        assert np.isfinite(average)

    def test_matches_naive_loop(self):
        _, _, theta, dims = random_instance(3)
        rng = np.random.default_rng(33)
        hat = unflatten_theta(
            flatten_theta(theta) + 0.1 * rng.normal(size=flatten_theta(theta).size),
            dims,
        )
        per_k, average = abs_rel_deviation(theta, hat)
        t, h = flatten_theta(theta), flatten_theta(hat)
        manual = np.array([abs(h[k] - t[k]) / abs(t[k]) for k in range(t.size)])
        np.testing.assert_allclose(per_k, manual, atol=1e-12)
        assert average == pytest.approx(manual.mean(), abs=1e-12)


class TestFactorSqCorrelation:
    def test_self_correlation_is_one(self):
        _, h, _, _ = random_instance(4)
        values = factor_sq_correlation(h, moments_from_latents(h))
        np.testing.assert_allclose(values, np.ones(values.size), atol=1e-12)

    def test_sign_invariance(self):
        _, h, _, _ = random_instance(5)
        values = factor_sq_correlation(h, moments_from_latents(-h))
        np.testing.assert_allclose(values, np.ones(values.size), atol=1e-12)

    def test_matches_manual_pearson(self):
        _, h, theta, dims = random_instance(6)
        rng = np.random.default_rng(7)
        noisy = h + 0.3 * rng.normal(size=h.shape)
        values = factor_sq_correlation(h, moments_from_latents(noisy))

        def pearson2(a, b):
            am, bm = a - a.mean(), b - b.mean()
            return float((am @ bm) ** 2 / ((am @ am) * (bm @ bm)))

        for k in range(dims.p + 1):
            assert values[k] == pytest.approx(pearson2(h[:, k], noisy[:, k]), abs=1e-12)

    @pytest.mark.parametrize("rows, cols", [(slice(None), slice(0, -1)),
                                            (slice(1, None), slice(None))])
    def test_shape_mismatch_names_both_shapes(self, rows, cols):
        _, h, _, _ = random_instance(4)
        law = moments_from_latents(h)
        truth = h[rows, cols]
        message = (f"true latents have shape {truth.shape} but the factor scores "
                   f"have shape {h.shape}")
        with pytest.raises(DataError, match=re.escape(message)):
            factor_sq_correlation(truth, law)

    def test_zero_variance_rejected(self):
        _, h, _, dims = random_instance(8)
        frozen = h.copy()
        frozen[:, 0] = 0.0
        with pytest.raises(DataError, match="zero-variance"):
            factor_sq_correlation(h, moments_from_latents(frozen))


class TestReplicateStudy:
    def test_determinism_and_orderings(self):
        sim = SimConfig(dims=reference_dims(n=60, q=5), seed=3)
        em = EMConfig(epsilon=1e-2)
        a = replicate_study(sim, em, 4)
        b = replicate_study(sim, em, 4)
        np.testing.assert_array_equal(a.deviation_avg, b.deviation_avg)
        np.testing.assert_array_equal(a.sq_corr, b.sq_corr)
        assert not a.failures

        q1, med, q3 = a.deviation_quartiles()
        assert q1 <= med <= q3
        assert np.all(a.sq_corr >= 0) and np.all(a.sq_corr <= 1)

    def test_summary_is_order_independent(self):
        sim = SimConfig(dims=reference_dims(n=60, q=5), seed=4)
        summary = replicate_study(sim, EMConfig(epsilon=1e-2), 5)
        perm = np.random.default_rng(0).permutation(5)
        shuffled_quartiles = np.nanpercentile(summary.deviation_avg[perm], [25, 50, 75])
        np.testing.assert_array_equal(
            summary.deviation_quartiles(), shuffled_quartiles
        )

    def test_failed_fits_are_recorded_with_nan_metrics(self):
        # two units cannot carry two covariates: every fit fails
        summary = replicate_study(SimConfig(dims=reference_dims(n=2, q=3), seed=0),
                                  EMConfig(), 2)
        assert [f.split(":")[0] for f in summary.failures] == ["replicate 0", "replicate 1"]
        assert "more units than covariates" in summary.failures[0]
        assert np.isnan(summary.deviation_avg).all() and np.isnan(summary.sq_corr).all()
        assert not summary.converged.any()

    def test_replicate_count_validated(self):
        with pytest.raises(DataError):
            replicate_study(SimConfig(dims=reference_dims(), seed=0), EMConfig(), 0)


class TestSensitivitySweep:
    def test_reference_grid_has_eight_cells(self):
        base = SimConfig(dims=reference_dims(), seed=0)
        cells = [("vary_n", n, 40) for n in (50, 100, 200, 400)]
        cells += [("vary_q", 400, q) for q in (5, 10, 20, 40)]
        summaries = sensitivity_sweep(
            (50, 100, 200, 400), (5, 10, 20, 40), base, EMConfig(), replicates=1
        )
        assert len(summaries) == 8
        got = [tuple(s.cell.split(":")) for s in summaries]
        expected = [(k, f"n={n},q={q}") for k, n, q in cells]
        assert got == expected

    def test_single_cell_grid(self):
        base = SimConfig(dims=reference_dims(n=60, q=5), seed=1)
        summaries = sensitivity_sweep((60,), (), base, EMConfig(), replicates=1)
        assert len(summaries) == 1
        assert summaries[0].replicates == 1

    def test_band_shrinks_with_n(self):
        base = SimConfig(dims=reference_dims(n=400, q=8), seed=2)
        summaries = sensitivity_sweep((50, 400), (), base, EMConfig(), replicates=8)
        halfwidth = []
        for summary in summaries:
            mean, lo, hi = summary.mean_and_band(summary.c_hat[:, 0])
            halfwidth.append(hi - lo)
        assert halfwidth[0] > halfwidth[1]

    def test_vary_n_cells_keep_a_non_square_base(self):
        dims = Dimensions(n=60, p=2, q_y=2, q_m=(3, 6), r_t=1, r_m=(2, 1))
        summaries = sensitivity_sweep((40, 60), (5,), SimConfig(dims=dims, seed=4),
                                      EMConfig(), replicates=1)
        assert [s.dims for s in summaries] == [
            replace(dims, n=40), dims, replace(dims, q_y=5, q_m=(5, 5)),
        ]
        assert [s.cell for s in summaries] == [
            "vary_n:n=40,q=2", "vary_n:n=60,q=2", "vary_q:n=60,q=5",
        ]

    def test_empty_grids_rejected(self):
        with pytest.raises(DataError):
            sensitivity_sweep((), (), SimConfig(dims=reference_dims(), seed=0),
                              EMConfig(), 2)


class TestKfoldResample:
    def test_full_size_samples_are_exact(self):
        dims = reference_dims(n=60, q=5)
        data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=5))
        summary = kfold_resample(data, EMConfig(epsilon=1e-3),
                                 k=3, sample_size=60, seed=2)
        np.testing.assert_array_equal(summary.param_mse, np.zeros(3))
        np.testing.assert_array_equal(summary.factor_mse, np.zeros(3))
        assert np.all(summary.param_corr >= 1 - 1e-12)
        assert np.all(summary.factor_corr >= 1 - 1e-12)

    def test_half_size_samples_track_full_fit(self):
        dims = reference_dims(n=120, q=6)
        data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=6))
        summary = kfold_resample(data, EMConfig(epsilon=1e-2),
                                 k=4, sample_size=60, seed=3)
        assert not summary.failures
        assert np.nanmedian(summary.param_corr) > 0.9
        assert np.all(summary.param_mse >= 0)

    def test_failed_subsample_fits_are_recorded_with_nan_metrics(self):
        # two-unit subsamples cannot carry two covariates
        data, _, _ = simulate_dataset(SimConfig(dims=reference_dims(n=20, q=3), seed=7))
        summary = kfold_resample(data, EMConfig(), k=2, sample_size=2)
        assert [f.split(":")[0] for f in summary.failures] == ["sample 0", "sample 1"]
        assert "more units than covariates" in summary.failures[0]
        for metric in (summary.param_mse, summary.param_corr, summary.factor_mse,
                       summary.factor_corr):
            assert np.isnan(metric).all()

    def test_validation(self):
        dims = reference_dims(n=20, q=3)
        data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=7))
        with pytest.raises(DataError):
            kfold_resample(data, EMConfig(), k=1, sample_size=10)
        with pytest.raises(DataError):
            kfold_resample(data, EMConfig(), k=3, sample_size=21)
        # two units would fail the full fit first (n <= r)
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            kfold_resample(subset_units(data, [0, 1]), EMConfig(), k=3, sample_size=2,
                           seed=-1)
