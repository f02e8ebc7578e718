import numpy as np
import pytest

from factorem import Dimensions, SimConfig, Theta, reference_theta, simulate_dataset

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
        data, latents, _ = simulate_dataset(
            SimConfig(dims=dims, seed=0, theta=theta)
        )
        np.testing.assert_array_equal(data.y, data.t @ theta.coef[0])
        np.testing.assert_array_equal(data.x[0], data.t_m[0] @ theta.coef[1])
        # with c = 0 the dependent factor is the pure disturbance
        assert latents.g.std() > 0.5

    def test_seed_determinism(self):
        config = SimConfig(dims=reference_dims(n=30, q=4), seed=9)
        a, la, _ = simulate_dataset(config)
        b, lb, _ = simulate_dataset(config)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.t, b.t)
        assert all(np.array_equal(x1, x2) for x1, x2 in zip(a.x, b.x))
        assert np.array_equal(la.g, lb.g)

    def test_reference_design_size(self):
        data, _, _ = simulate_dataset(SimConfig(dims=reference_dims(), seed=0))
        total = data.y.size + sum(x.size for x in data.x)
        assert total == 48000
        assert data.dimensions().q_total == 120

    def test_factor_sample_moments(self):
        dims = Dimensions(n=100_000, p=2, q_y=2, q_m=(2, 2), r_t=1, r_m=(1, 1))
        _, latents, _ = simulate_dataset(SimConfig(dims=dims, seed=11))
        var = latents.f.var(axis=1)
        assert np.all(var > 0.98) and np.all(var < 1.02)
        cov = float(np.mean(latents.f[0] * latents.f[1]))
        assert -0.02 < cov < 0.02

    def test_observed_column_regression_recovers_coefficients(self):
        dims = Dimensions(n=2000, p=1, q_y=3, q_m=(3,), r_t=2, r_m=(2,))
        data, latents, theta = simulate_dataset(SimConfig(dims=dims, seed=13))
        j = 1
        design = np.column_stack([data.t, latents.g])
        coef, *_ = np.linalg.lstsq(design, data.y[:, j], rcond=None)
        truth = np.array([theta.coef[0][0, j], theta.coef[0][1, j], theta.loading[0][j]])
        gram_inv = np.linalg.inv(design.T @ design)
        se = np.sqrt(np.diag(gram_inv) * theta.sigma2[0])
        assert np.all(np.abs(coef - truth) < 3 * se)

    def test_intercept_mode(self):
        config = SimConfig(dims=reference_dims(n=20, q=3), seed=5,
                           t_mode="intercept_plus_gaussian")
        data, _, _ = simulate_dataset(config)
        assert data.intercept
        np.testing.assert_array_equal(data.t[:, 0], np.ones(20))
        np.testing.assert_array_equal(data.t_m[1][:, 0], np.ones(20))

    def test_unknown_t_mode_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(dims=reference_dims(), seed=0, t_mode="bogus")
