import re
from dataclasses import replace

import numpy as np
import pytest

from factorem import DataError, Dimensions, EMConfig, SimConfig, Theta, simulate_dataset
from factorem.evaluate import replicate_study
from factorem.simulate import reference_theta

from conftest import reference_dims


class TestReferenceTheta:
    def test_reference_design_rows(self):
        theta = reference_theta(reference_dims())
        np.testing.assert_array_equal(theta.coef[0][0], np.arange(1.0, 41.0))
        np.testing.assert_array_equal(theta.coef[0][1], np.arange(41.0, 81.0))
        assert theta.loading[0][0] == 1.0 and theta.loading[0][39] == 40.0
        np.testing.assert_array_equal(theta.loading[1], np.arange(1.0, 41.0))
        np.testing.assert_array_equal(theta.c, [1.0, 1.0])
        assert theta.sigma2[0] == 1.0 and theta.sigma2[1:] == (1.0, 1.0)

    def test_smallest_case(self):
        dims = Dimensions(n=1, p=1, q_y=1, q_m=(1,), r_t=1, r_m=(1,))
        theta = reference_theta(dims)
        assert theta.coef[0][0, 0] == 1.0
        assert theta.loading[0][0] == 1.0
        assert theta.c[0] == 1.0
        assert theta.sigma2[0] == 1.0


class TestSimulateDataset:
    def test_noiseless_degenerate_case(self):
        dims = Dimensions(n=25, p=1, q_y=2, q_m=(2,), r_t=2, r_m=(1,))
        theta = Theta(
            coef=([[1.0, 2.0], [3.0, 4.0]], [[1.0, -1.0]]),
            loading=(np.zeros(2), np.zeros(2)), c=np.zeros(1),
            sigma2=(0.0, 0.0),
        )
        data, h, _ = simulate_dataset(SimConfig(dims=dims, seed=0, theta=theta))
        np.testing.assert_array_equal(data.z[0], data.t[0] @ theta.coef[0])
        np.testing.assert_array_equal(data.z[1], data.t[1] @ theta.coef[1])
        # with c = 0 the dependent factor is the pure disturbance
        assert h[:, 0].std() > 0.5

    def test_seed_determinism(self):
        config = SimConfig(dims=reference_dims(n=30, q=4), seed=9)
        a, ha, _ = simulate_dataset(config)
        b, hb, _ = simulate_dataset(config)
        assert all(np.array_equal(x1, x2) for x1, x2 in zip(a.z + a.t, b.z + b.t))
        assert np.array_equal(ha, hb)

    def test_seed_must_be_a_nonnegative_integer(self):
        # 1.5 used to fail inside SeedSequence and True to run seed 1
        dims = reference_dims(n=5, q=2)
        for seed, message in ((-1, "seed must be >= 0, got -1"),
                              (1.5, "seed must be an integer, got 1.5"),
                              (True, "seed must be an integer, got True")):
            with pytest.raises(DataError, match=message):
                SimConfig(dims=dims, seed=seed)
        assert type(SimConfig(dims=dims, seed=np.int64(3)).seed) is int

    def test_reference_design_size(self):
        data, _, _ = simulate_dataset(SimConfig(dims=reference_dims(), seed=0))
        total = sum(z.size for z in data.z)
        assert total == 48000
        assert data.dimensions().q_total == 120

    def test_factor_sample_moments(self):
        dims = Dimensions(n=100_000, p=2, q_y=2, q_m=(2, 2), r_t=1, r_m=(1, 1))
        _, h, _ = simulate_dataset(SimConfig(dims=dims, seed=11))
        var = h[:, 1:].var(axis=0)
        assert np.all(var > 0.98) and np.all(var < 1.02)
        cov = float(np.mean(h[:, 1] * h[:, 2]))
        assert -0.02 < cov < 0.02

    def test_observed_column_regression_recovers_coefficients(self):
        dims = Dimensions(n=2000, p=1, q_y=3, q_m=(3,), r_t=2, r_m=(2,))
        data, h, theta = simulate_dataset(SimConfig(dims=dims, seed=13))
        j = 1
        design = np.column_stack([data.t[0], h[:, 0]])
        coef, *_ = np.linalg.lstsq(design, data.z[0][:, j], rcond=None)
        truth = np.array([theta.coef[0][0, j], theta.coef[0][1, j], theta.loading[0][j]])
        gram_inv = np.linalg.inv(design.T @ design)
        se = np.sqrt(np.diag(gram_inv) * theta.sigma2[0])
        assert np.all(np.abs(coef - truth) < 3 * se)

    def test_intercept_mode(self):
        config = SimConfig(dims=reference_dims(n=20, q=3), seed=5, intercept=True)
        data, _, _ = simulate_dataset(config)
        assert data.intercept
        np.testing.assert_array_equal(data.t[0][:, 0], np.ones(20))
        np.testing.assert_array_equal(data.t[2][:, 0], np.ones(20))


class TestSimConfigTheta:
    """A generating theta that does not fit the design is rejected when
    the configuration is built, naming the block, instead of failing
    inside the simulation."""

    def test_block_count_mismatch_rejected(self):
        theta = reference_theta(Dimensions(n=5, p=3, q_y=2, q_m=(2, 2, 2),
                                           r_t=1, r_m=(1, 1, 1)))
        message = "theta has 3 explanatory blocks but dims has 2"
        with pytest.raises(DataError, match=message):
            SimConfig(dims=reference_dims(n=5, q=2), theta=theta)

    @pytest.mark.parametrize("k, shape, label", [(0, (3, 2), "D"), (2, (2, 3), "D2")])
    def test_width_mismatch_names_the_block(self, k, shape, label):
        dims = reference_dims(n=5, q=2)
        theta = reference_theta(dims)
        theta = replace(
            theta,
            coef=[np.zeros(shape) if j == k else d for j, d in enumerate(theta.coef)],
            loading=[np.zeros(shape[1]) if j == k else b for j, b in enumerate(theta.loading)],
        )
        message = f"theta block {label} has shape {shape} but dims needs (2, 2)"
        with pytest.raises(DataError, match=re.escape(message)):
            SimConfig(dims=dims, theta=theta)

    def test_replicate_study_runs_a_fitting_theta(self):
        dims = Dimensions(n=60, p=2, q_y=3, q_m=(4, 2), r_t=2, r_m=(1, 2))
        theta = reference_theta(dims)
        summary = replicate_study(SimConfig(dims=dims, seed=1, theta=theta),
                                  EMConfig(), replicates=2)
        assert summary.failures == [] and np.isfinite(summary.deviation_avg).all()
