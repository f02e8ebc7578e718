import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factorem import Dataset, EMConfig, SimConfig, Theta, estep, fit, simulate_dataset
from factorem.errors import DataError, NotPositiveDefiniteError
from factorem.estep import LOG_2PI, conditional_law, observed_loglik
from factorem.mstep import VARIANCE_FLOOR
from factorem.simulate import reference_theta

from conftest import reference_dims, random_instance, scalar_toy_theta
from dense_oracle import (
    build_joint_blocks, dense_conditioning, posterior_moments, residual_law,
    stacked_residuals, variance_floor,
)
from likelihood_oracle import second_moment_sum

# frozen by the direct 3x3 inverse oracle below (det(S3) = 12)
TOY_S3 = np.array([[4.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 2.0]])
TOY_S1 = np.array([[3.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
TOY_M = np.array([1.0, 0.5, 0.5])
TOY_SIGMA = np.array([[8.0, 2.0, 2.0], [2.0, 5.0, -1.0], [2.0, -1.0, 5.0]]) / 12.0


def scalar_toy_data():
    # covariates zero, so the centered observation is the raw (1, 1, 1)
    return Dataset(z=([[1.0]],) * 3, t=([[0.0]],) * 3)


class TestJointBlocks:
    def test_zero_loadings_decouple(self):
        theta = scalar_toy_theta()
        theta = Theta(
            coef=theta.coef, loading=(np.zeros(1),) * 3, c=theta.c,
            sigma2=(2.0, 3.0, 4.0),
        )
        dims = scalar_toy_data().dimensions()
        blocks = build_joint_blocks(theta, dims)
        np.testing.assert_array_equal(blocks.s2, np.zeros((3, 3)))
        np.testing.assert_array_equal(blocks.s3, np.diag([2.0, 3.0, 4.0]))

    def test_scalar_toy_matches_hand_evaluation(self):
        blocks = build_joint_blocks(scalar_toy_theta(), scalar_toy_data().dimensions())
        np.testing.assert_array_equal(blocks.s3, TOY_S3)
        np.testing.assert_array_equal(blocks.s1, TOY_S1)
        np.testing.assert_array_equal(blocks.s2, TOY_S1)

    def test_reference_shapes_and_block_sparsity(self):
        rng = np.random.default_rng(2)
        dims = reference_dims()
        from conftest import random_theta

        blocks = build_joint_blocks(random_theta(dims, rng), dims)
        assert blocks.s3.shape == (120, 120)
        np.testing.assert_array_equal(blocks.s3[40:80, 80:], np.zeros((40, 40)))
        np.testing.assert_array_equal(blocks.s3[80:, 40:80], np.zeros((40, 40)))
        assert np.array_equal(blocks.s3, blocks.s3.T)
        assert np.array_equal(blocks.s1, blocks.s1.T)

    def test_zero_variance_rejected(self):
        theta = scalar_toy_theta()
        bad = Theta(coef=theta.coef, loading=theta.loading,
                    c=theta.c, sigma2=(0.0, *theta.sigma2[1:]))
        with pytest.raises(DataError, match="positive"):
            build_joint_blocks(bad, scalar_toy_data().dimensions())


class TestConditionalLaw:
    def test_zero_loadings_give_prior(self):
        theta = scalar_toy_theta()
        theta = Theta(coef=theta.coef, loading=(np.zeros(1),) * 3, c=theta.c,
                      sigma2=(1.0, 1.0, 1.0))
        law = conditional_law(theta, scalar_toy_data())
        np.testing.assert_allclose(law.m, np.zeros((1, 3)), atol=1e-14)
        np.testing.assert_allclose(law.sigma, TOY_S1, atol=1e-14)

    def test_scalar_toy_frozen_values(self):
        law = conditional_law(scalar_toy_theta(), scalar_toy_data())
        np.testing.assert_allclose(law.m[0], TOY_M, atol=1e-12)
        np.testing.assert_allclose(law.sigma, TOY_SIGMA, atol=1e-12)

    def test_scalar_toy_against_inverse_oracle(self):
        blocks = build_joint_blocks(scalar_toy_theta(), scalar_toy_data().dimensions())
        mu = np.ones(3)
        m_oracle = blocks.s2 @ np.linalg.inv(blocks.s3) @ mu
        sigma_oracle = blocks.s1 - blocks.s2 @ np.linalg.inv(blocks.s3) @ blocks.s2.T
        law = conditional_law(scalar_toy_theta(), scalar_toy_data())
        np.testing.assert_allclose(law.m[0], m_oracle, atol=1e-12)
        np.testing.assert_allclose(law.sigma, sigma_oracle, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_joint_consistency_with_generic_conditioning(self, seed):
        data, _, theta, dims = random_instance(seed)
        blocks = build_joint_blocks(theta, dims)
        law = conditional_law(theta, data)

        solve = np.linalg.inv(blocks.s3)
        sigma_oracle = blocks.s1 - blocks.s2 @ solve @ blocks.s2.T
        np.testing.assert_allclose(law.sigma, sigma_oracle, atol=1e-8)
        resid = stacked_residuals(theta, data)
        for i in range(min(3, dims.n)):
            np.testing.assert_allclose(
                law.m[i], blocks.s2 @ solve @ resid[i], atol=1e-8
            )

    def test_sigma_psd(self):
        for seed in range(10):
            data, _, theta, _ = random_instance(seed)
            law = conditional_law(theta, data)
            assert np.linalg.eigvalsh(law.sigma).min() >= -1e-10

    def test_sigma_never_touches_data(self):
        data_a, _, theta, dims = random_instance(11)
        data_b, _, _, _ = random_instance(85, dims=dims)
        sigma_a = conditional_law(theta, data_a).sigma
        sigma_b = conditional_law(theta, data_b).sigma
        assert np.array_equal(sigma_a, sigma_b)

    def test_zero_variance_rejected(self):
        bad = replace(scalar_toy_theta(), sigma2=(1.0, 1.0, 0.0))
        with pytest.raises(DataError, match="positive"):
            conditional_law(bad, scalar_toy_data())

    def test_unfactorizable_precision_names_the_parameters(self):
        # zero loadings leave the precision at S1^{-1}, whose f-block
        # 1 + c^2 rounds to c^2 at |c| = 1e8: singular in floating point
        theta = replace(
            scalar_toy_theta(), loading=(np.zeros(1),) * 3,
            c=np.array([1e8, 0.5]),
        )
        with pytest.raises(NotPositiveDefiniteError, match=r"sigma2_y=1\.000e\+00.*c="):
            conditional_law(theta, scalar_toy_data())


def noise_free_copy(data, h, theta):
    """The same units with every noise draw removed."""
    return Dataset(
        z=tuple(
            t @ d + np.outer(factor, lam)
            for t, d, factor, lam in zip(data.t, theta.coef, h.T, theta.loading)
        ),
        t=data.t,
    )


class TestLowRankAgainstDense:
    """The (p+1)-dimensional E-step against the dense q_total x q_total
    conditioning it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_dense_conditioning_and_mvn(self, seed):
        data, _, theta, dims = random_instance(seed)
        law = conditional_law(theta, data)
        per_unit = observed_loglik(theta, data).per_unit
        m, sigma, loglik = dense_conditioning(theta, data)
        np.testing.assert_allclose(law.m, m, rtol=0, atol=1e-10 * np.abs(m).max())
        np.testing.assert_allclose(law.sigma, sigma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(per_unit, loglik, rtol=1e-12)
        mvn = scipy.stats.multivariate_normal.logpdf(
            stacked_residuals(theta, data), np.zeros(dims.q_total),
            build_joint_blocks(theta, dims).s3,
        )
        np.testing.assert_allclose(per_unit, mvn, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    # near-zero drawn loadings: the limit is off by up to 4e-6 nats here
    @example(seed=1434)
    @example(seed=1971)
    @example(seed=3097)
    @example(seed=100461)
    def test_noise_free_data_at_the_variance_floor(self, seed):
        data, h, theta, dims = random_instance(seed)
        clean = noise_free_copy(data, h, theta)
        floor = replace(theta, sigma2=(VARIANCE_FLOOR,) * (dims.p + 1))
        law = conditional_law(floor, clean)
        per_unit = observed_loglik(floor, clean).per_unit
        m, sigma, loglik = dense_conditioning(floor, clean)
        blocks = build_joint_blocks(floor, dims)
        eps = np.finfo(float).eps

        np.testing.assert_allclose(law.m, m, rtol=0, atol=1e-10 * np.abs(m).max())
        # the dense s1 - s2 s3^{-1} s2' cancels O(1) entries down to an
        # O(1e-12) Sigma, so it is exact only to a few eps |s1|
        np.testing.assert_allclose(
            law.sigma, sigma, rtol=0, atol=64 * eps * np.abs(blocks.s1).max()
        )
        # the quadratic forms agree unit by unit; the log det shared by all
        # units is exact in the dense oracle only up to the rounding of the
        # s3 entries relative to the floor variance
        gap = per_unit - loglik
        assert np.ptp(gap) <= 1e-12 * np.abs(loglik).max()
        assert np.abs(gap).max() <= (
            dims.q_total**2 * eps * np.abs(blocks.s3).max() / VARIANCE_FLOOR
        )

        # vanishing-noise limit: each block pins its factor to a line, so
        # log p(z) -> limit = log N(h; 0, S1)
        #     - sum_k [(q_k - 1) log(2 pi sigma2_k) + log |lambda_k|^2] / 2,
        # with h the generating latents. The clean residuals are Lambda h,
        # so with E = diag(sigma2_k / |lambda_k|^2) = (Lambda' Psi^{-1} Lambda)^{-1}
        # the Woodbury identity and the determinant lemma give exactly
        #     log p(z) - limit = [h'S1^{-1}h - h'(S1 + E)^{-1}h] / 2
        #                        - log det(I + E S1^{-1}) / 2.
        # (S1 + E)^{-1} lies between S1^{-1} - S1^{-1} E S1^{-1} and S1^{-1},
        # and log det(I + E S1^{-1}) between 0 and tr(E S1^{-1}), so
        #     -tr(E S1^{-1}) / 2 <= log p(z) - limit <= |S1^{-1}h|^2_E / 2.
        # Likewise Sigma = E - E (S1 + E)^{-1} E puts diag Sigma in
        # [E_kk - E_kk^2 (S1^{-1})_kk, E_kk]. Both widths are first order in
        # sigma2_k / |lambda_k|^2: about 1e-12 for a unit loading, but 3e-6
        # when a drawn loading has |lambda_k|^2 = 3.6e-7. The slack on top
        # covers rounding only.
        loadings = theta.loading
        widths = np.array(dims.q)
        prior_quad = np.sum(h[:, 1:] ** 2, axis=1) + (h[:, 0] - h[:, 1:] @ theta.c) ** 2
        limit = -0.5 * (
            prior_quad
            + float((widths - 1).sum()) * np.log(VARIANCE_FLOOR)
            + sum(np.log(lam @ lam) for lam in loadings)
            + dims.q_total * LOG_2PI
        )
        e = np.array([VARIANCE_FLOOR / (lam @ lam) for lam in loadings])
        s1_inv = np.linalg.inv(blocks.s1)
        slack = 1e-12
        gap = per_unit - limit
        assert np.all(gap >= -0.5 * e @ np.diag(s1_inv) - slack * np.abs(limit))
        assert np.all(
            gap <= 0.5 * e @ (s1_inv @ h.T) ** 2 + slack * np.abs(limit)
        )
        diag = np.diag(law.sigma)
        assert np.all(diag >= (e - e**2 * np.diag(s1_inv)) * (1 - slack))
        assert np.all(diag <= e * (1 + slack))


class TestPosteriorMoments:
    def test_scalar_toy_frozen_moments(self):
        law = conditional_law(scalar_toy_theta(), scalar_toy_data())
        moments = posterior_moments(law)
        np.testing.assert_allclose(moments.m[:, 0], [1.0], atol=1e-12)
        np.testing.assert_allclose(moments.gamma_tilde, [5.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(moments.m[0, 1:], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(moments.phi_tilde[:, 0], [2.0 / 3.0] * 2, atol=1e-12)
        np.testing.assert_allclose(moments.cross_fg[:, 0], [2.0 / 3.0] * 2, atol=1e-12)
        np.testing.assert_allclose(moments.cross_ff[0, 1, 0], 1.0 / 6.0, atol=1e-12)

    def test_zero_mean_case(self):
        data, _, theta, dims = random_instance(6)
        law = conditional_law(theta, data)
        law.m[:] = 0.0
        moments = posterior_moments(law)
        np.testing.assert_array_equal(moments.m[:, 0], np.zeros(dims.n))
        np.testing.assert_allclose(moments.gamma_tilde, law.sigma[0, 0])
        for m in range(dims.p):
            np.testing.assert_allclose(moments.cross_fg[m], law.sigma[0, m + 1])

    def test_variance_identity_exact(self):
        data, _, theta, _ = random_instance(7)
        law = conditional_law(theta, data)
        moments = posterior_moments(law)
        np.testing.assert_allclose(
            moments.gamma_tilde - moments.m[:, 0] ** 2,
            np.full(moments.gamma_tilde.shape, law.sigma[0, 0]),
            rtol=0.0, atol=1e-12,
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_moment_inequalities(self, seed):
        data, _, theta, _ = random_instance(seed)
        moments = posterior_moments(conditional_law(theta, data))
        assert np.all(moments.gamma_tilde - moments.m[:, 0] ** 2 >= -1e-10)
        assert np.all(moments.phi_tilde - moments.m[:, 1:].T ** 2 >= -1e-10)

    def test_second_moment_matrix_psd(self):
        data, _, theta, dims = random_instance(9)
        law = conditional_law(theta, data)
        moments = posterior_moments(law)
        for i in range(min(4, dims.n)):
            second = np.empty((dims.p + 1, dims.p + 1))
            second[0, 0] = moments.gamma_tilde[i]
            second[0, 1:] = second[1:, 0] = moments.cross_fg[:, i]
            second[1:, 1:] = moments.cross_ff[:, :, i]
            assert np.linalg.eigvalsh(second).min() >= -1e-10


class TestLawState:
    """The law's second-moment sum against the per-unit oracle."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_second_moment_sum_matches_per_unit_moments(self, seed):
        data, _, theta, dims = random_instance(seed)
        law = conditional_law(theta, data)
        moments = posterior_moments(law)
        summed = np.empty((dims.p + 1, dims.p + 1))
        summed[0, 0] = moments.gamma_tilde.sum()
        summed[0, 1:] = summed[1:, 0] = moments.cross_fg.sum(axis=1)
        summed[1:, 1:] = moments.cross_ff.sum(axis=2)
        np.testing.assert_allclose(
            second_moment_sum(law), summed, rtol=1e-12, atol=1e-12 * dims.n
        )
        np.testing.assert_allclose(
            np.diag(second_moment_sum(law))[1:], moments.phi_tilde.sum(axis=1),
            rtol=1e-12,
        )


def test_observed_loglik_value_is_the_sum_of_its_per_unit_terms():
    cases = [(scalar_toy_theta(), scalar_toy_data())]
    cases += [(theta, data) for data, _, theta, _ in map(random_instance, range(20))]
    for theta, data in cases:
        result = observed_loglik(theta, data)
        assert result.value == result.per_unit.sum()


def test_theta_and_data_block_mismatch_named():
    from factorem import observed_loglik
    from likelihood_oracle import complete_loglik, expected_score

    data, h, theta, dims = random_instance(0)
    assert dims.p == 3
    one_block = Theta(
        coef=theta.coef[:2], loading=theta.loading[:2],
        c=theta.c[:1], sigma2=theta.sigma2[:2],
    )
    law = conditional_law(theta, data)
    calls = {
        "conditional_law": lambda th: conditional_law(th, data),
        "observed_loglik": lambda th: observed_loglik(th, data),
        "complete_loglik": lambda th: complete_loglik(th, data, h),
        "expected_score": lambda th: expected_score(th, law, data),
    }
    d = theta.coef[0]
    wide = replace(theta, coef=(np.vstack([d, d[:1]]), *theta.coef[1:]))
    for name, call in calls.items():
        with pytest.raises(DataError, match="1 explanatory blocks but the data has 3"):
            call(one_block)
        with pytest.raises(DataError, match=r"block D has shape \((\d+), (\d+)\)"):
            call(wide)
    with pytest.raises(DataError, match=re.escape(f"latents have shape {(dims.n, 2)}")):
        complete_loglik(theta, data, h[:, :2])


def allocating_law(theta, data):
    """The residual-form law (``dense_oracle.residual_law``, the pass
    ``observed_loglik`` makes) with the n x q temporaries it used to
    allocate: a fresh residual, its square and its row sums per block."""
    variances = np.array(theta.sigma2)
    resid = [z - t @ d for z, t, d in zip(data.z, data.t, theta.coef)]
    inv_var = 1.0 / variances
    u = np.column_stack([r @ lam for r, lam in zip(resid, theta.loading)]) * inv_var
    c = theta.c
    prior_prec = np.eye(c.size + 1)
    prior_prec[0, 1:] = prior_prec[1:, 0] = -c
    prior_prec[1:, 1:] += np.outer(c, c)
    chol = np.linalg.cholesky(
        prior_prec + np.diag([lam @ lam for lam in theta.loading] * inv_var))
    chol_inv = np.linalg.inv(chol)
    sigma = chol_inv.T @ chol_inv
    m = u @ (0.5 * (sigma + sigma.T))
    quad = np.sum((m @ prior_prec) * m, axis=1)
    for k, (r, lam) in enumerate(zip(resid, theta.loading)):
        quad += np.sum((r - np.outer(m[:, k], lam)) ** 2, axis=1) * inv_var[k]
    widths = np.array([r.shape[1] for r in resid])
    logdet = float(widths @ np.log(variances)) + 2.0 * float(np.sum(np.log(np.diag(chol))))
    return m, -0.5 * (quad + logdet + widths.sum() * LOG_2PI)


def test_residual_sums_in_place_match_the_allocating_expressions():
    for seed in range(100):
        data, _, theta, _ = random_instance(seed)
        m, loglik = allocating_law(theta, data)
        np.testing.assert_array_equal(residual_law(theta, data).m, m, err_msg=f"seed {seed}")
        np.testing.assert_allclose(observed_loglik(theta, data).per_unit, loglik,
                                   rtol=1e-15, atol=0, err_msg=f"seed {seed}")


def column_error(m, reference):
    """Largest |m - reference| relative to each column's largest |reference|."""
    return float((np.abs(m - reference) / np.abs(reference).max(axis=0)).max())


class TestProductLaw:
    """``conditional_law``'s one product per block against the residual form
    it replaced (``dense_oracle.residual_law``)."""

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_scores_at_the_fitted_theta_match_the_residual_form(self):
        for seed in range(200):
            data, _, _, dims = random_instance(seed)
            theta = fit(data, dims, EMConfig(epsilon=1e-3)).theta
            law, reference = conditional_law(theta, data), residual_law(theta, data)
            np.testing.assert_array_equal(law.sigma, reference.sigma)
            assert column_error(law.m, reference.m) <= 1e-14, f"seed {seed}"

    def test_covariate_dominated_design_against_long_double(self):
        # D x 1e4 makes Z_k lambda_k and T_k D_k lambda_k cancel in the
        # product form, and Z_k - T_k D_k cancel in the residual form; the
        # measured errors are 4.5e-12 and 1.7e-12
        dims = reference_dims(q=5)
        truth = reference_theta(dims)
        truth = replace(truth, coef=tuple(1e4 * d for d in truth.coef))
        data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=3, theta=truth))
        theta = fit(data, dims, EMConfig(epsilon=1e-6)).theta
        law = conditional_law(theta, data)
        ld = np.longdouble
        u = np.column_stack([
            (z.astype(ld) - t.astype(ld) @ d.astype(ld)) @ (lam.astype(ld) / ld(s2))
            for z, t, d, lam, s2 in zip(data.z, data.t, theta.coef, theta.loading,
                                        theta.sigma2)])
        reference = u @ law.sigma.astype(ld)
        for m in (law.m, residual_law(theta, data).m):
            assert column_error(m, reference) <= 1e-11

    def test_no_temporary_with_a_row_per_unit_and_a_column_per_variable(self):
        # the traced peak stays below 8 n (p+1) doubles; one n x q block
        # copy alone is 50 / 24 of that at (2000, 3 x 50)
        dims = reference_dims(n=2000, q=50)
        data, _, theta = simulate_dataset(SimConfig(dims=dims, seed=1))
        conditional_law(theta, data)
        tracemalloc.start()
        try:
            conditional_law(theta, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dims.n * (dims.p + 1) * np.dtype(float).itemsize


class TestObservedLoglikUnchanged:
    """``observed_loglik`` is the residual-form pass ``conditional_law`` made
    before: bit for bit, also on the E-steps past ``GRAM_LIMIT``."""

    def test_per_unit_equals_the_residual_form(self):
        for seed in range(200):
            data, _, theta, _ = random_instance(seed)
            floor = replace(theta, sigma2=tuple(variance_floor(data)))
            for at in (theta, floor):
                result = observed_loglik(at, data)
                expected = residual_law(at, data).loglik
                np.testing.assert_array_equal(result.per_unit, expected, err_msg=f"seed {seed}")
                assert result.value == float(expected.sum())

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_every_exact_pass_of_a_floored_fit_equals_the_residual_form(self, monkeypatch):
        data, _, _, dims = random_instance(3)
        passes = []

        def checked(theta, data):
            result = exact(theta, data)
            np.testing.assert_array_equal(result.per_unit, residual_law(theta, data).loglik)
            passes.append(result.value)
            return result

        exact = estep.observed_loglik
        monkeypatch.setattr(estep, "observed_loglik", checked)
        result = fit(data, dims, EMConfig(epsilon=1e-3))
        assert passes
        assert result.trace[-1, 1] in passes
