import numpy as np
import pytest
import scipy.stats

from factorem import Dataset, EMConfig, Theta, fit, flatten_theta, observed_loglik
from factorem.estep import conditional_law
from factorem.model import unflatten_theta
from factorem.errors import DataError

from conftest import random_instance, random_theta
from likelihood_oracle import complete_loglik, complete_score


def structural_covariance(theta, dims):
    """Observation covariance assembled from the generative equations;
    independent of the package's block formulas."""
    p, q_y, q_total = dims.p, dims.q_y, dims.q_total
    width = p + 1 + q_total          # sources: f_1..f_p, e_g, block noise
    load = np.zeros((q_total, width))
    offsets = np.cumsum([0, *dims.q])
    for j in range(q_y):
        load[j, :p] = theta.loading[0][j] * theta.c
        load[j, p] = theta.loading[0][j]
        load[j, p + 1 + j] = np.sqrt(theta.sigma2[0])
    for m in range(p):
        lo = offsets[m + 1]
        for j in range(dims.q_m[m]):
            load[lo + j, m] = theta.loading[m + 1][j]
            load[lo + j, p + 1 + lo + j] = np.sqrt(theta.sigma2[m + 1])
    return load @ load.T


def block_means(theta, data):
    return np.concatenate([t @ d for t, d in zip(data.t, theta.coef)], axis=1)


class TestCompleteLoglik:
    def test_zero_residuals_give_normalizer_only(self):
        theta = Theta(
            coef=(np.zeros((1, 2)), np.zeros((1, 1))), loading=(np.ones(2), np.ones(1)),
            c=np.ones(1), sigma2=(1.0, 1.0),
        )
        data = Dataset(z=(np.zeros((1, 2)), np.zeros((1, 1))),
                       t=(np.zeros((1, 1)), np.zeros((1, 1))))
        result = complete_loglik(theta, data, np.zeros((1, 2)))
        q_total, p = 3, 1
        assert result.value == pytest.approx(
            -0.5 * (q_total + p + 1) * np.log(2 * np.pi), rel=1e-14
        )

    def test_doubling_variance_with_zero_residual(self):
        rng = np.random.default_rng(0)
        data, h, theta, dims = random_instance(0)
        exact_y = data.t[0] @ theta.coef[0] + np.outer(h[:, 0], theta.loading[0])
        data = Dataset(z=(exact_y, *data.z[1:]), t=data.t)
        doubled = Theta(coef=theta.coef, loading=theta.loading,
                        c=theta.c, sigma2=(2 * theta.sigma2[0], *theta.sigma2[1:]))
        base = complete_loglik(theta, data, h).value
        after = complete_loglik(doubled, data, h).value
        assert after - base == pytest.approx(
            -0.5 * dims.n * dims.q_y * np.log(2.0), rel=1e-10
        )

    def test_matches_density_factorization(self):
        data, h, theta, dims = random_instance(1)
        expected = 0.0
        for i in range(dims.n):
            mean_y = data.t[0][i] @ theta.coef[0] + h[i, 0] * theta.loading[0]
            expected += scipy.stats.norm.logpdf(
                data.z[0][i], mean_y, np.sqrt(theta.sigma2[0])
            ).sum()
            for m in range(dims.p):
                mean_x = (data.t[m + 1][i] @ theta.coef[m + 1]
                          + h[i, m + 1] * theta.loading[m + 1])
                expected += scipy.stats.norm.logpdf(
                    data.z[m + 1][i], mean_x, np.sqrt(theta.sigma2[m + 1])
                ).sum()
            expected += scipy.stats.norm.logpdf(
                h[i, 0], theta.c @ h[i, 1:], 1.0
            )
            expected += scipy.stats.norm.logpdf(h[i, 1:], 0.0, 1.0).sum()
        result = complete_loglik(theta, data, h)
        assert result.value == pytest.approx(expected, rel=1e-10)
        assert result.value == pytest.approx(result.per_unit.sum(), rel=1e-12)

    def test_nonpositive_variance_rejected(self):
        data, h, theta, _ = random_instance(2)
        bad = Theta(coef=theta.coef, loading=theta.loading,
                    c=theta.c, sigma2=(0.0, *theta.sigma2[1:]))
        with pytest.raises(DataError):
            complete_loglik(bad, data, h)


class TestObservedLoglik:
    def test_block_diagonal_decomposition(self):
        data, _, theta, dims = random_instance(3)
        decoupled = Theta(
            coef=theta.coef,
            loading=[np.zeros(q) for q in dims.q],
            c=theta.c, sigma2=theta.sigma2,
        )
        expected = scipy.stats.norm.logpdf(
            data.z[0], data.t[0] @ theta.coef[0], np.sqrt(theta.sigma2[0])
        ).sum()
        for m in range(dims.p):
            expected += scipy.stats.norm.logpdf(
                data.z[m + 1], data.t[m + 1] @ theta.coef[m + 1],
                np.sqrt(theta.sigma2[m + 1]),
            ).sum()
        assert observed_loglik(decoupled, data).value == pytest.approx(
            expected, rel=1e-12
        )

    def test_matches_structural_mvn_oracle(self):
        data, _, theta, dims = random_instance(4)
        cov = structural_covariance(theta, dims)
        means = block_means(theta, data)
        z = np.concatenate(data.z, axis=1)
        result = observed_loglik(theta, data)
        for i in range(min(5, dims.n)):
            oracle = scipy.stats.multivariate_normal.logpdf(
                z[i], means[i], cov
            )
            assert result.per_unit[i] == pytest.approx(oracle, rel=1e-8)

    def test_unit_permutation_invariance(self):
        data, _, theta, _ = random_instance(5)
        perm = np.random.default_rng(0).permutation(data.n)
        shuffled = Dataset(
            z=tuple(z[perm] for z in data.z), t=tuple(t[perm] for t in data.t),
        )
        assert observed_loglik(theta, data).value == pytest.approx(
            observed_loglik(theta, shuffled).value, rel=1e-12
        )


class TestCompleteScore:
    def test_zero_residual_gradients(self):
        rng = np.random.default_rng(6)
        n, q_y = 12, 3
        t = rng.normal(size=(n, 2))
        d = rng.normal(size=(2, q_y))
        g = rng.normal(size=n)
        f1 = rng.normal(size=n)
        b = rng.normal(size=q_y)
        a = rng.normal(size=2)
        t1 = rng.normal(size=(n, 1))
        d1 = rng.normal(size=(1, 2))
        theta = Theta(coef=(d, d1), loading=(b, a), c=np.ones(1),
                      sigma2=(1.5, 1.0))
        data = Dataset(
            z=(t @ d + np.outer(g, b), t1 @ d1 + np.outer(f1, a)),
            t=(t, t1),
        )
        score = complete_score(theta, data, np.column_stack([g, f1]))
        np.testing.assert_allclose(score.loading[0], np.zeros(q_y), atol=1e-10)
        assert score.sigma2[0] == pytest.approx(
            -n * q_y / (2 * theta.sigma2[0]), rel=1e-12
        )

    def test_matches_finite_differences(self):
        data, h, _, dims = random_instance(7)
        rng = np.random.default_rng(70)
        for _ in range(3):
            theta = random_theta(dims, rng)
            analytic = complete_score(theta, data, h).flatten()
            vec = flatten_theta(theta)
            numeric = np.empty_like(vec)
            step = 1e-5
            for k in range(vec.size):
                plus, minus = vec.copy(), vec.copy()
                plus[k] += step
                minus[k] -= step
                numeric[k] = (
                    complete_loglik(unflatten_theta(plus, dims), data, h).value
                    - complete_loglik(unflatten_theta(minus, dims), data, h).value
                ) / (2 * step)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-5)

    def test_complete_vs_expected_score_differ_at_fit(self):
        from factorem import Dimensions

        dims = Dimensions(n=40, p=2, q_y=4, q_m=(4, 3), r_t=2, r_m=(2, 1))
        data, _, _, dims = random_instance(8, dims=dims)
        result = fit(data, dims, EMConfig(epsilon=1e-6, max_iter=300))
        plug_in = complete_score(result.theta, data, result.moments.m)
        assert np.abs(plug_in.c).max() > 1e-8


def test_complete_equals_observed_plus_conditional():
    data, h, theta, dims = random_instance(9)
    law = conditional_law(theta, data)
    cond = sum(
        scipy.stats.multivariate_normal.logpdf(h[i], law.m[i], law.sigma, allow_singular=True)
        for i in range(dims.n)
    )
    complete = complete_loglik(theta, data, h).value
    observed = observed_loglik(theta, data).value
    assert complete == pytest.approx(observed + cond, rel=1e-8)
