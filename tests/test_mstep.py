import numpy as np
import pytest

from factorem import Dataset, Theta, flatten_theta, mstep
from factorem.errors import DegeneratePosteriorError, SingularSystemError
from factorem.estep import ConditionalLaw, conditional_law
from factorem.model import unflatten_theta
from factorem.mstep import project_covariates, update_theta

import dense_oracle
from conftest import random_instance, random_theta
from likelihood_oracle import (
    complete_loglik, expected_complete_loglik, expected_score, second_moment_sum,
)


def updated_theta(data, law):
    """The M-step from ``law`` as a ``Theta``."""
    projection = project_covariates(data)
    x = update_theta(projection, dense_oracle.summary_from_law(law, projection))
    return unflatten_theta(x, data.dimensions())


def scores(theta, law, data):
    """The n-row oracle score and the package's Gram score at ``theta``
    under ``law``."""
    projection = project_covariates(data)
    summary = dense_oracle.summary_from_law(law, projection)
    gram = mstep.expected_score(flatten_theta(theta), summary, projection)
    return expected_score(theta, law, data), gram


class TestCovariateProjection:
    def test_residual_orthogonal_to_covariates(self):
        for seed in range(20):
            data, _, _, _ = random_instance(seed)
            projection = project_covariates(data)
            for (coef, _), t, z in zip(dense_oracle.block_projection(projection), data.t, data.z):
                scale = np.linalg.norm(t) * np.linalg.norm(z)
                assert np.abs(t.T @ (z - t @ coef)).max() <= 1e-12 * scale

    def test_coefficients_and_residual_sum_match_lstsq(self):
        for seed in range(20):
            data, _, _, _ = random_instance(seed)
            projection = project_covariates(data)
            blocks = zip(dense_oracle.block_projection(projection), projection.resid_sq,
                         dense_oracle.block_rows(projection)[0], data.t, data.z)
            for (coef, tt_inv), resid_sq, rows, t, z in blocks:
                resid_gram = projection.g[rows, rows]
                expected, rss, _, _ = np.linalg.lstsq(t, z, rcond=None)
                np.testing.assert_allclose(coef, expected, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(tt_inv @ (t.T @ t), np.eye(t.shape[1]), atol=1e-12)
                resid = z - t @ expected
                centered = resid - resid.mean(axis=0)
                scale = np.abs(centered.T @ centered).max()
                assert np.abs(resid_gram - centered.T @ centered).max() <= 1e-10 * scale
                np.testing.assert_allclose(projection.mean[rows], resid.mean(axis=0),
                                           rtol=1e-10, atol=1e-12 * np.abs(z).max())
                assert resid_sq == pytest.approx(float(np.sum(rss)), rel=1e-10)


def two_block_c_ratios(s):
    """Explicit two-ratio solution of the 2x2 structural system (oracle only),
    from the second-moment sum ``s``."""
    v1, v2 = s[1:, 0]
    phi1, phi2 = s[1, 1], s[2, 2]
    cross = s[1, 2]
    det = phi1 * phi2 - cross**2
    return np.array([(v1 * phi2 - v2 * cross) / det,
                     (v2 * phi1 - v1 * cross) / det])


class TestUpdateTheta:
    def test_two_block_c_matches_explicit_ratios(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            from conftest import random_dims

            dims = random_dims(rng)
            if dims.p != 2:
                continue
            data, _, theta, dims = random_instance(seed)
            if dims.p != 2:
                continue
            law = conditional_law(theta, data)
            updated = updated_theta(data, law)
            np.testing.assert_allclose(
                updated.c, two_block_c_ratios(second_moment_sum(law)),
                rtol=1e-12, atol=1e-12,
            )

    def test_decoupled_case(self):
        rng = np.random.default_rng(3)
        n, q_y = 30, 4
        y = rng.normal(size=(n, q_y))
        data = Dataset(
            z=(y, rng.normal(size=(n, 2)), rng.normal(size=(n, 2))),
            t=(np.ones((n, 1)),) * 3,
            intercept=True,
        )
        m = np.column_stack([np.zeros(n), rng.normal(size=(n, 2))])
        law = ConditionalLaw(m=m, sigma=np.eye(3))
        updated = updated_theta(data, law)
        np.testing.assert_allclose(updated.loading[0], np.zeros(q_y), atol=1e-12)
        np.testing.assert_allclose(updated.coef[0][0], y.mean(axis=0), atol=1e-12)

    def test_exact_fit_recovers_generator(self):
        rng = np.random.default_rng(4)
        n, q_y, p = 50, 3, 2
        t = rng.normal(size=(n, 2))
        t_m = (rng.normal(size=(n, 2)), rng.normal(size=(n, 1)))
        d = rng.normal(size=(2, q_y))
        d_m = (rng.normal(size=(2, 2)), rng.normal(size=(1, 2)))
        b = rng.normal(size=q_y) + 1.0
        a_m = (rng.normal(size=2) + 1.0, rng.normal(size=2) + 1.0)
        g = rng.normal(size=n)
        f = rng.normal(size=(p, n))
        data = Dataset(
            z=(t @ d + np.outer(g, b),
               *(t_m[m] @ d_m[m] + np.outer(f[m], a_m[m]) for m in range(p))),
            t=(t, *t_m),
        )
        law = ConditionalLaw(
            m=np.column_stack([g, f.T]), sigma=np.zeros((p + 1, p + 1))
        )
        with pytest.warns(RuntimeWarning, match="floored"):
            updated = updated_theta(data, law)
        floor = dense_oracle.variance_floor(data)[0]
        assert updated.sigma2[0] == pytest.approx(floor, rel=1e-12, abs=0)
        np.testing.assert_allclose(updated.loading[0], b, atol=1e-10)
        np.testing.assert_allclose(updated.coef[0], d, atol=1e-10)
        np.testing.assert_allclose(updated.loading[1], a_m[0], atol=1e-10)

    def test_matches_the_stats_based_oracle(self):
        worst = 0.0
        for seed in range(100):
            data, _, theta, dims = random_instance(seed)
            law, projection = conditional_law(theta, data), project_covariates(data)
            updated = update_theta(projection, dense_oracle.summary_from_law(law, projection))
            stats = dense_oracle.sufficient_stats(data, law)
            expected = flatten_theta(dense_oracle.update_theta(stats, law, data))
            worst = max(worst, float(np.max(np.abs(updated - expected) / np.abs(expected))))
        assert worst < 1e-10

    def test_collinear_covariates_rejected(self):
        # an exact copy of a column fails the Cholesky factorization; a copy
        # 5e-8 off passes it and is caught by the pivot ratio
        data, _, theta, dims = random_instance(5)
        x = data.t[0][:, 0]
        noise = np.random.default_rng(0).normal(size=x.size)
        branches = {0.0: "the factorization fails at column 2", 5e-8: "pivot ratio .* <= 1e-07"}
        for offset, branch in branches.items():
            broken = Dataset(z=data.z, t=(np.column_stack([x, x + offset * noise]), *data.t[1:]))
            with pytest.raises(SingularSystemError,
                               match=rf"block T is singular \(collinear covariates\): {branch}"):
                project_covariates(broken)

    def test_singular_structural_system_rejected(self):
        # identical explanatory scores with no posterior spread make the
        # structural moment matrix rank one
        rng = np.random.default_rng(7)
        n = 15
        data = Dataset(
            z=(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), rng.normal(size=(n, 2))),
            t=(rng.normal(size=(n, 1)), rng.normal(size=(n, 1)), rng.normal(size=(n, 1))),
        )
        shared = rng.normal(size=n)
        m = np.column_stack([rng.normal(size=n), shared, shared])
        law = ConditionalLaw(m=m, sigma=np.zeros((3, 3)))
        projection = project_covariates(data)
        summary = dense_oracle.summary_from_law(law, projection)
        with pytest.raises(SingularSystemError, match="structural"):
            update_theta(projection, summary)

    def test_degenerate_posterior_rejected(self):
        # factor score collinear with the covariate and no posterior
        # variance leaves the loading denominator at zero
        rng = np.random.default_rng(6)
        n = 20
        t = np.ones((n, 1))
        data = Dataset(
            z=(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), rng.normal(size=(n, 2))),
            t=(t, t.copy(), t.copy()),
        )
        m = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        law = ConditionalLaw(m=m, sigma=np.zeros((3, 3)))
        projection = project_covariates(data)
        summary = dense_oracle.summary_from_law(law, projection)
        with pytest.raises(DegeneratePosteriorError):
            update_theta(projection, summary)


class TestExpectedScore:
    def test_vanishes_at_update(self):
        worst = 0.0
        for seed in range(100):
            data, _, theta, dims = random_instance(seed)
            law = conditional_law(theta, data)
            updated = updated_theta(data, law)
            for residual in scores(updated, law, data):
                worst = max(worst, float(np.abs(residual).max()))
        assert worst < 1e-8

    def test_perturbation_breaks_stationarity(self):
        data, _, theta, dims = random_instance(8)
        law = conditional_law(theta, data)
        updated = updated_theta(data, law)
        bumped = Theta(
            coef=updated.coef, loading=(updated.loading[0] + 0.1, *updated.loading[1:]),
            c=updated.c, sigma2=updated.sigma2,
        )
        lo = dims.r_t * dims.q_y + sum(r * q for q, r in zip(dims.q_m, dims.r_m))
        for residual in scores(bumped, law, data):
            assert np.abs(residual[lo:lo + dims.q_y]).max() > 1e-3

    def test_matches_finite_differences_of_q(self):
        for seed in (0, 1):
            data, _, theta_data, dims = random_instance(seed)
            rng = np.random.default_rng(100 + seed)
            theta = random_theta(dims, rng)
            law = conditional_law(theta_data, data)
            vec = flatten_theta(theta)
            step = 1e-5
            numeric = np.empty_like(vec)
            for k in range(vec.size):
                plus, minus = vec.copy(), vec.copy()
                plus[k] += step
                minus[k] -= step
                numeric[k] = (
                    expected_complete_loglik(unflatten_theta(plus, dims), data, law)
                    - expected_complete_loglik(unflatten_theta(minus, dims), data, law)
                ) / (2 * step)
            for analytic in scores(theta, law, data):
                np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-5)


class TestSurrogateObjective:
    def test_ascent_property(self):
        for seed in range(100):
            data, _, theta, dims = random_instance(seed)
            rng = np.random.default_rng(1000 + seed)
            start = random_theta(dims, rng)
            law = conditional_law(theta, data)
            updated = updated_theta(data, law)
            q_start = expected_complete_loglik(start, data, law)
            q_updated = expected_complete_loglik(updated, data, law)
            assert q_updated >= q_start - 1e-8 * abs(q_start)

    def test_point_mass_moments_reduce_to_complete_loglik(self):
        data, h, theta, dims = random_instance(42)
        law = ConditionalLaw(m=h, sigma=np.zeros((dims.p + 1, dims.p + 1)))
        q = expected_complete_loglik(theta, data, law)
        ll = complete_loglik(theta, data, h).value
        assert q == pytest.approx(ll, rel=1e-12)


def test_update_scale_consistency():
    data, _, theta, dims = random_instance(12)
    law = conditional_law(theta, data)
    base = updated_theta(data, law)

    alpha = 3.0
    scaled_data = Dataset(z=(alpha * data.z[0], *data.z[1:]), t=data.t)
    scaled = updated_theta(scaled_data, law)
    np.testing.assert_allclose(scaled.loading[0], alpha * base.loading[0], rtol=1e-10)
    np.testing.assert_allclose(scaled.coef[0], alpha * base.coef[0], rtol=1e-10)
    assert scaled.sigma2[0] == pytest.approx(alpha**2 * base.sigma2[0], rel=1e-10)
    np.testing.assert_allclose(scaled.c, base.c, rtol=1e-12)
    np.testing.assert_allclose(scaled.loading[1], base.loading[1], rtol=1e-12)
