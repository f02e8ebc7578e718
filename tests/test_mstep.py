import numpy as np
import pytest

from factorem import (
    Dataset,
    Theta,
    conditional_law,
    expected_complete_loglik,
    expected_score,
    flatten_theta,
    sufficient_stats,
    unflatten_theta,
    update_theta,
)
from factorem.errors import DegeneratePosteriorError, SingularSystemError
from factorem.estep import ConditionalLaw
from factorem.likelihood import complete_loglik
from factorem.model import Latents
from factorem import mstep
from factorem.mstep import VARIANCE_FLOOR

from conftest import random_instance, random_theta
from dense_oracle import posterior_moments


class TestSufficientStats:
    def test_single_unit_means_are_products(self):
        data, _, theta, dims = random_instance(0)
        single = Dataset(
            y=data.y[:1], x=tuple(xm[:1] for xm in data.x),
            t=data.t[:1], t_m=tuple(tm[:1] for tm in data.t_m),
        )
        law = conditional_law(theta, single)
        moments = posterior_moments(law)
        stats = sufficient_stats(single, law)
        np.testing.assert_allclose(
            stats.mean_tt, np.outer(single.t[0], single.t[0]), atol=1e-14
        )
        np.testing.assert_allclose(
            stats.mean_gy, moments.g_tilde[0] * single.y[0], atol=1e-14
        )
        assert stats.mean_hh[0, 0] == pytest.approx(moments.gamma_tilde[0])

    def test_zero_factor_zeroes_cross_stats(self):
        data, _, theta, dims = random_instance(1)
        law = conditional_law(theta, data)
        law.m[:, 0] = 0.0
        stats = sufficient_stats(data, law)
        np.testing.assert_array_equal(stats.mean_gy, np.zeros(dims.q_y))
        np.testing.assert_array_equal(stats.mean_gt, np.zeros(dims.r_t))

    def test_matches_naive_loop(self):
        data, _, theta, dims = random_instance(2)
        data = Dataset(
            y=data.y[:5], x=tuple(xm[:5] for xm in data.x),
            t=data.t[:5], t_m=tuple(tm[:5] for tm in data.t_m),
        )
        law = conditional_law(theta, data)
        moments = posterior_moments(law)
        stats = sufficient_stats(data, law)

        n = 5
        tt = sum(np.outer(data.t[i], data.t[i]) for i in range(n)) / n
        np.testing.assert_allclose(stats.mean_tt, tt, atol=1e-12)
        gy = sum(moments.g_tilde[i] * data.y[i] for i in range(n)) / n
        np.testing.assert_allclose(stats.mean_gy, gy, atol=1e-12)
        for m in range(dims.p):
            fx = sum(moments.f_tilde[m, i] * data.x[m][i] for i in range(n)) / n
            np.testing.assert_allclose(stats.mean_fmxm[m], fx, atol=1e-12)
            v = law.sigma[0, m + 1] + np.mean(moments.f_tilde[m] * moments.g_tilde)
            assert stats.mean_hh[m + 1, 0] == pytest.approx(v, abs=1e-12)


def two_block_c_ratios(stats):
    """Explicit two-ratio solution of the 2x2 structural system (oracle only)."""
    v1, v2 = stats.mean_hh[1:, 0]
    phi1, phi2 = stats.mean_hh[1, 1], stats.mean_hh[2, 2]
    cross = stats.mean_hh[1, 2]
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
            stats = sufficient_stats(data, law)
            updated = update_theta(stats, law, data)
            np.testing.assert_allclose(
                updated.c, two_block_c_ratios(stats), rtol=1e-12, atol=1e-12
            )

    def test_decoupled_case(self):
        rng = np.random.default_rng(3)
        n, q_y = 30, 4
        y = rng.normal(size=(n, q_y))
        data = Dataset(
            y=y, x=(rng.normal(size=(n, 2)), rng.normal(size=(n, 2))),
            t=np.ones((n, 1)), t_m=(np.ones((n, 1)), np.ones((n, 1))),
            intercept=True,
        )
        m = np.column_stack([np.zeros(n), rng.normal(size=(n, 2))])
        law = ConditionalLaw(m=m, sigma=np.eye(3))
        stats = sufficient_stats(data, law)
        updated = update_theta(stats, law, data)
        np.testing.assert_allclose(updated.b, np.zeros(q_y), atol=1e-12)
        np.testing.assert_allclose(updated.d[0], y.mean(axis=0), atol=1e-12)

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
            y=t @ d + np.outer(g, b),
            x=tuple(t_m[m] @ d_m[m] + np.outer(f[m], a_m[m]) for m in range(p)),
            t=t, t_m=t_m,
        )
        law = ConditionalLaw(
            m=np.column_stack([g, f.T]), sigma=np.zeros((p + 1, p + 1))
        )
        stats = sufficient_stats(data, law)
        with pytest.warns(RuntimeWarning, match="floored"):
            updated = update_theta(stats, law, data)
        assert updated.sigma2_y == VARIANCE_FLOOR
        np.testing.assert_allclose(updated.b, b, atol=1e-10)
        np.testing.assert_allclose(updated.d, d, atol=1e-10)
        np.testing.assert_allclose(updated.a_m[0], a_m[0], atol=1e-10)

    def test_one_gram_solve_per_block(self, monkeypatch):
        data, _, theta, dims = random_instance(3)
        calls = []

        def counting(gram, rhs, name):
            calls.append(name)
            return solve(gram, rhs, name)

        solve = mstep._gram_solve
        monkeypatch.setattr(mstep, "_gram_solve", counting)
        law = conditional_law(theta, data)
        update_theta(sufficient_stats(data, law), law, data)
        assert calls == ["T"] + [f"T{m + 1}" for m in range(dims.p)]

    def test_collinear_covariates_rejected(self):
        data, _, theta, dims = random_instance(5)
        broken = Dataset(
            y=data.y, x=data.x,
            t=np.column_stack([data.t[:, 0], data.t[:, 0]]),
            t_m=data.t_m,
        )
        law = conditional_law(theta, broken)
        stats = sufficient_stats(broken, law)
        with pytest.raises(SingularSystemError, match="collinear"):
            update_theta(stats, law, broken)

    def test_singular_structural_system_rejected(self):
        # identical explanatory scores with no posterior spread make the
        # structural moment matrix rank one
        rng = np.random.default_rng(7)
        n = 15
        data = Dataset(
            y=rng.normal(size=(n, 2)),
            x=(rng.normal(size=(n, 2)), rng.normal(size=(n, 2))),
            t=rng.normal(size=(n, 1)),
            t_m=(rng.normal(size=(n, 1)), rng.normal(size=(n, 1))),
        )
        shared = rng.normal(size=n)
        m = np.column_stack([rng.normal(size=n), shared, shared])
        law = ConditionalLaw(m=m, sigma=np.zeros((3, 3)))
        stats = sufficient_stats(data, law)
        with pytest.raises(SingularSystemError, match="structural"):
            update_theta(stats, law, data)

    def test_degenerate_posterior_rejected(self):
        # factor score collinear with the covariate and no posterior
        # variance leaves the loading denominator at zero
        rng = np.random.default_rng(6)
        n = 20
        t = np.ones((n, 1))
        data = Dataset(
            y=rng.normal(size=(n, 2)),
            x=(rng.normal(size=(n, 2)), rng.normal(size=(n, 2))),
            t=t, t_m=(t.copy(), t.copy()),
        )
        m = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        law = ConditionalLaw(m=m, sigma=np.zeros((3, 3)))
        stats = sufficient_stats(data, law)
        with pytest.raises(DegeneratePosteriorError):
            update_theta(stats, law, data)


class TestExpectedScore:
    def test_vanishes_at_update(self):
        worst = 0.0
        for seed in range(100):
            data, _, theta, dims = random_instance(seed)
            law = conditional_law(theta, data)
            updated = update_theta(sufficient_stats(data, law), law, data)
            residual = expected_score(updated, law, data)
            worst = max(worst, float(np.abs(residual).max()))
        assert worst < 1e-8

    def test_perturbation_breaks_stationarity(self):
        data, _, theta, dims = random_instance(8)
        law = conditional_law(theta, data)
        updated = update_theta(sufficient_stats(data, law), law, data)
        bumped = Theta(
            d=updated.d, d_m=updated.d_m, b=updated.b + 0.1,
            a_m=updated.a_m, c=updated.c,
            sigma2_y=updated.sigma2_y, sigma2_m=updated.sigma2_m,
        )
        residual = expected_score(bumped, law, data)
        lo = dims.r_t * dims.q_y + sum(r * q for q, r in zip(dims.q_m, dims.r_m))
        assert np.abs(residual[lo:lo + dims.q_y]).max() > 1e-3

    def test_matches_finite_differences_of_q(self):
        for seed in (0, 1):
            data, _, theta_data, dims = random_instance(seed)
            rng = np.random.default_rng(100 + seed)
            theta = random_theta(dims, rng)
            law = conditional_law(theta_data, data)
            analytic = expected_score(theta, law, data)
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
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-5)


class TestSurrogateObjective:
    def test_ascent_property(self):
        for seed in range(100):
            data, _, theta, dims = random_instance(seed)
            rng = np.random.default_rng(1000 + seed)
            start = random_theta(dims, rng)
            law = conditional_law(theta, data)
            updated = update_theta(sufficient_stats(data, law), law, data)
            q_start = expected_complete_loglik(start, data, law)
            q_updated = expected_complete_loglik(updated, data, law)
            assert q_updated >= q_start - 1e-8 * abs(q_start)

    def test_point_mass_moments_reduce_to_complete_loglik(self):
        data, latents, theta, dims = random_instance(42)
        law = ConditionalLaw(
            m=np.column_stack([latents.g, latents.f.T]),
            sigma=np.zeros((dims.p + 1, dims.p + 1)),
        )
        q = expected_complete_loglik(theta, data, law)
        ll = complete_loglik(theta, data, latents).value
        assert q == pytest.approx(ll, rel=1e-12)


def test_update_scale_consistency():
    data, _, theta, dims = random_instance(12)
    law = conditional_law(theta, data)
    base = update_theta(sufficient_stats(data, law), law, data)

    alpha = 3.0
    scaled_data = Dataset(
        y=alpha * data.y, x=data.x, t=data.t, t_m=data.t_m,
    )
    scaled = update_theta(sufficient_stats(scaled_data, law), law, scaled_data)
    np.testing.assert_allclose(scaled.b, alpha * base.b, rtol=1e-10)
    np.testing.assert_allclose(scaled.d, alpha * base.d, rtol=1e-10)
    assert scaled.sigma2_y == pytest.approx(alpha**2 * base.sigma2_y, rel=1e-10)
    np.testing.assert_allclose(scaled.c, base.c, rtol=1e-12)
    np.testing.assert_allclose(scaled.a_m[0], base.a_m[0], rtol=1e-12)
