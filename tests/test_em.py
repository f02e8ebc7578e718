import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace

from factorem import (
    Dataset,
    Dimensions,
    EMConfig,
    SimConfig,
    Theta,
    canonicalize,
    factor_sq_correlation,
    fit,
    flatten_theta,
    observed_loglik,
    simulate_dataset,
)
from factorem.em import em_step, initialize, relative_change
from factorem.errors import DataError, FactorEMError, NonFiniteParameterError
from factorem.estep import conditional_law, gram_summary
from factorem.model import theta_names, unflatten_theta
from factorem.mstep import project_covariates, update_theta

from conftest import reference_dims, random_instance
from dense_oracle import (
    fresh_account, lstsq_initialize, package_gram_estep, package_update_theta, plain_fit,
    residual_law, variance_floor,
)
from likelihood_oracle import second_moment_sum


def reference_instance(seed=0, n=400, q=40):
    return simulate_dataset(SimConfig(dims=reference_dims(n=n, q=q), seed=seed))


def start_scores(block, loading):
    """The factor scores a start implies for a block on an intercept alone:
    the least-squares scores of its centered columns on the loading."""
    return (block - block.mean(axis=0)) @ loading / (loading @ loading)


class TestInitialize:
    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_noise_free_single_factor_recovered_exactly(self):
        # a noise-free rank-1 residual block makes the starting factor
        # score an exact (up to sign) copy of the generating factor
        rng = np.random.default_rng(0)
        n, q = 40, 6
        t = np.ones((n, 1))
        d = rng.normal(size=(1, q))
        g = rng.normal(size=n)
        g -= g.mean()
        y = t @ d + np.outer(g, np.ones(q))
        data = Dataset(z=(y, rng.normal(size=(n, 3))), t=(t, t), intercept=True)
        start = unflatten_theta(initialize(project_covariates(data)), data.dimensions())
        scores = start_scores(y, start.loading[0])
        corr = np.corrcoef(scores, g)[0, 1]
        assert abs(corr) > 1 - 1e-10

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    @pytest.mark.parametrize("q", [1, 2, 5, 40])
    def test_gram_eigh_start_matches_the_svd_first_pc(self, q):
        # the start takes the first PC from the q x q Gram of the centered
        # residuals; the thin SVD of the n x q block is the reference
        rng = np.random.default_rng(q)
        for n in (q + 3, 60, 400):
            resid = rng.normal(size=(n, q)) * rng.uniform(0.1, 10.0, size=q)
            resid += np.outer(rng.normal(size=n), rng.normal(size=q))
            centered = resid - resid.mean(axis=0)
            u, s, _ = np.linalg.svd(centered, full_matrices=False)
            reference = u[:, 0] * s[0]
            # X^1 on an intercept alone, so its covariate residual is centered
            t = np.ones((n, 1))
            data = Dataset(z=(rng.normal(size=(n, 2)), resid), t=(t, t), intercept=True)
            start = unflatten_theta(initialize(project_covariates(data)), data.dimensions())
            scores = start_scores(resid, start.loading[1])
            assert abs(np.corrcoef(scores, reference)[0, 1]) >= 1 - 1e-10
            np.testing.assert_allclose(scores.std(), 1.0, rtol=1e-12)

    def test_start_variance_is_the_one_factor_ml_variance(self):
        # With one factor and isotropic noise, the ML noise variance is the
        # mean of the other q - 1 eigenvalues of the Gram over n (probabilistic
        # PCA, Tipping & Bishop 1999); over n q it reads (q - 1) / q too low.
        # Every reference block has true variance 1: measured 0.973-1.026,
        # against 0.778-0.821 over n q.
        for seed in (1, 2, 3):
            data, _, _ = reference_instance(seed=seed, n=5000, q=5)
            sigma2 = initialize(project_covariates(data))[-3:]
            np.testing.assert_allclose(sigma2, 1.0, rtol=0.05, err_msg=f"seed {seed}")

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_first_loading_nonnegative(self):
        for seed in range(5):
            data, _, _, dims = random_instance(seed)
            theta0 = unflatten_theta(initialize(project_covariates(data)), dims)
            assert theta0.loading[0][0] >= 0
            assert all(am[0] >= 0 for am in theta0.loading[1:])

    def test_reference_design_starts_close(self):
        data, h, _ = reference_instance(seed=5)
        theta0 = unflatten_theta(initialize(project_covariates(data)), reference_dims())
        law = conditional_law(theta0, data)
        assert factor_sq_correlation(h, law).min() > 0.9

    def test_the_covariate_reclaim_is_a_slow_direction_not_a_flat_one(self, monkeypatch):
        # a start with D = B, the reclaim skipped, reaches the same estimate
        # at a tight epsilon (measured within 8.4e-10 per coordinate); at
        # epsilon 1e-2 the two starts stop 0.03 nats apart here, and
        # 3.4-5.4 nats apart at (400, 40) (seeds 1 and 2)
        import factorem.em

        def unreclaimed(projection):
            x = start(projection)
            x[:projection.coef_at_d.size] = projection.coef_at_d
            return x

        data, _, _ = reference_instance(seed=1, q=5)
        config = EMConfig(epsilon=1e-9)
        reclaimed = fit(data, data.dimensions(), config)
        start = factorem.em.initialize
        monkeypatch.setattr(factorem.em, "initialize", unreclaimed)
        result = fit(data, data.dimensions(), config)
        assert reclaimed.converged and result.converged
        assert result.iterations > reclaimed.iterations     # 41 against 36
        np.testing.assert_allclose(flatten_theta(result.theta), flatten_theta(reclaimed.theta),
                                   rtol=1e-7, atol=0)

    def test_too_few_units_rejected(self):
        data, _, _, dims = random_instance(3)
        tiny = Dataset(z=tuple(z[:1] for z in data.z), t=tuple(t[:1] for t in data.t))
        with pytest.raises(DataError, match="more units than covariates"):
            fit(tiny, tiny.dimensions(), EMConfig())

    def test_zero_variance_block_rejected(self):
        rng = np.random.default_rng(4)
        n = 20
        t = rng.normal(size=(n, 1))
        d = rng.normal(size=(1, 3))
        data = Dataset(
            z=(t @ d, rng.normal(size=(n, 3))),     # Y: no factor, no noise
            t=(t, rng.normal(size=(n, 1))),
        )
        with pytest.raises(DataError, match="zero variance"):
            initialize(project_covariates(data))

    def test_a_failed_eigenpair_is_an_error(self, monkeypatch):
        import factorem.em

        def failing(*args, **kwargs):
            return (*lapack.dsyevr(*args, **kwargs)[:4], 1)

        lapack = factorem.em.lapack
        monkeypatch.setattr(factorem.em, "lapack", SimpleNamespace(dsyevr=failing))
        data, _, _, dims = random_instance(10)
        with pytest.raises(FactorEMError, match=re.escape(
                "the top eigenpair of Y's residual Gram failed (info 1)")):
            fit(data, dims, EMConfig())


    def test_a_failed_least_squares_start_is_an_error(self, monkeypatch):
        import factorem.em
        from factorem.evaluate import replicate_study

        def failing(*args, **kwargs):
            return (*lapack.dgelsd(*args, **kwargs)[:3], 2)

        lapack = factorem.em.lapack
        monkeypatch.setattr(factorem.em, "lapack", SimpleNamespace(
            dsyevr=lapack.dsyevr, dgelsd_lwork=lapack.dgelsd_lwork, dgelsd=failing))
        data, _, _, dims = random_instance(10)
        message = "the least-squares structural start failed (info 2)"
        with pytest.raises(FactorEMError, match=re.escape(message)):
            fit(data, dims, EMConfig())
        # a study records the failure and goes on
        study = replicate_study(SimConfig(dims=dims, seed=1), EMConfig(), 2)
        assert len(study.failures) == 2 and message in study.failures[0]

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_the_start_is_the_lstsq_start(self, monkeypatch):
        # dgelsd with lstsq's workspace and cutoff: the same bits on every
        # instance, and the same minimum-norm c where the scores system is
        # rank-deficient (two identical explanatory blocks: c_1 = c_2)
        import factorem.em

        def recording(a, b, lwork, iwork, cutoff):
            cutoffs.append(cutoff / max(a.shape))
            return lapack.dgelsd(a, b, lwork, iwork, cutoff)

        cutoffs, lapack = [], factorem.em.lapack
        monkeypatch.setattr(factorem.em, "lapack", SimpleNamespace(
            dsyevr=lapack.dsyevr, dgelsd_lwork=lapack.dgelsd_lwork, dgelsd=recording))
        for seed in range(200):
            projection = project_covariates(random_instance(seed)[0])
            np.testing.assert_array_equal(initialize(projection), lstsq_initialize(projection))
        data, _, _ = reference_instance(seed=2, n=60, q=3)
        twin = Dataset(z=(data.z[0], data.z[1], data.z[1]), t=(data.t[0], data.t[1], data.t[1]))
        projection = project_covariates(twin)
        x = initialize(projection)
        np.testing.assert_array_equal(x, lstsq_initialize(projection))
        c = unflatten_theta(x, twin.dimensions()).c
        assert c[0] == c[1] and np.isfinite(c).all()
        assert set(cutoffs) == {np.finfo(float).eps}       # lstsq's rcond=None: eps max(M, N)


class TestEmStep:
    def test_fixed_point_statistic_small(self):
        data, _, _, dims = random_instance(10, dims=Dimensions(
            n=50, p=2, q_y=4, q_m=(4, 4), r_t=2, r_m=(2, 2)))
        result = fit(data, dims, EMConfig(epsilon=1e-10, max_iter=500))
        projection = project_covariates(data)
        x_next, _ = em_step(gram_summary(flatten_theta(result.theta), projection),
                            projection)
        assert relative_change(flatten_theta(result.theta), x_next) < 1e-6

    def test_ascends_observed_loglik(self):
        data, _, _, dims = random_instance(11)
        projection = project_covariates(data)
        x = initialize(projection)
        summary = gram_summary(x, projection)
        previous = observed_loglik(unflatten_theta(x, dims), data).value
        for _ in range(8):
            x, summary = em_step(summary, projection)
            current = observed_loglik(unflatten_theta(x, dims), data).value
            assert current >= previous - 1e-8 * abs(previous)
            previous = current

    def test_reference_design_converges_fast(self):
        data, _, _ = reference_instance(seed=1)
        result = fit(data, reference_dims(), EMConfig(epsilon=1e-2))
        assert result.converged
        assert result.iterations <= 5


class TestParameterExpansion:
    """The map's PX-EM reduction (``em_step``): the M-step of the model with a
    free var(zeta) = v, mapped back to v = 1 by b sqrt(v) and c / sqrt(v)."""

    @staticmethod
    def step(summary, projection):
        """(the M-step's x, the map's x, and the v that maps the one onto the other)."""
        updated = update_theta(projection, summary)
        x, _ = em_step(summary, projection)
        b = projection.coef_at_d.size       # b's first coordinate
        return updated, x, (x[b] / updated[b])**2

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    @pytest.mark.parametrize("seed", range(5))
    def test_the_expanded_score_in_v_vanishes_at_the_maps_v(self, seed):
        data, _, _, _ = random_instance(seed)
        projection = project_covariates(data)
        summary = gram_summary(initialize(projection), projection)
        updated, x, v = self.step(summary, projection)
        nd, nz, k = projection.coef_at_d.size, projection.spread.size, projection.widths.size
        c, s, n = updated[nd + nz:-k], summary.s, data.n
        # the expected complete loglik of g = c'f + zeta, zeta ~ N(0, v), is
        # -n/2 log v - Q / (2v) in v, Q = E sum (g - c'f)^2 = s00 - 2c's[1:,0] + c'S11c;
        # its score is read relative to either term, n / (2v) (the measured
        # worst is 3.3e-16 on seeds 0-19, where v itself is 0.70-1.09)
        q = s[0, 0] - 2.0 * c @ s[1:, 0] + c @ s[1:, 1:] @ c
        assert abs(q / (n * v) - 1.0) <= 1e-12
        b = slice(nd, nd + projection.widths[0])
        np.testing.assert_allclose(x[b], updated[b] * np.sqrt(v), rtol=1e-15, atol=0)
        np.testing.assert_allclose(x[nd + nz:-k], c / np.sqrt(v), rtol=1e-15, atol=0)
        unchanged = np.r_[:nd, b.stop:nd + nz, x.size - k:x.size]   # D, the a^m, the sigma2
        np.testing.assert_array_equal(x[unchanged], updated[unchanged])

    def test_a_converged_fit_is_a_fixed_point_of_em(self):
        # seed 1's (400, 40) fit at eps 1e-8 converges in 31 evaluations, and
        # at its estimate the map's v is 1 to 1.5e-13 (1.8e-2 off at the
        # start, 4.4e-8 along the plain map steps after it): where v = 1 the
        # reduction is the identity, so PX-EM's fixed points are EM's
        data, _, _ = reference_instance(seed=1)
        result = fit(data, reference_dims(), EMConfig(epsilon=1e-8, max_iter=1000))
        assert result.converged
        projection = result.projection
        _, _, v = self.step(gram_summary(flatten_theta(result.theta), projection), projection)
        assert abs(v - 1.0) <= 1e-11

    def test_a_structural_residual_without_variance_names_var_zeta(self, monkeypatch):
        # g-f cross moments ten times their size leave the loadings finite
        # but make c's[1:,0] exceed s00: no v > 0 maps the update back, and
        # the E-step is not reached
        import factorem.em

        data, _, _, _ = random_instance(10, dims=Dimensions(
            n=50, p=2, q_y=4, q_m=(4, 4), r_t=2, r_m=(2, 2)))
        projection = project_covariates(data)
        summary = gram_summary(initialize(projection), projection)
        s = summary.s.copy()
        s[1:, 0] *= 10.0
        s[0, 1:] *= 10.0
        c = np.linalg.solve(s[1:, 1:], s[1:, 0])
        assert c @ s[1:, 0] > s[0, 0]
        reached = []
        monkeypatch.setattr(factorem.em, "gram_summary", lambda *args: reached.append(args))
        with pytest.raises(NonFiniteParameterError, match=r"M-step produced var\(zeta\) = -"):
            em_step(replace(summary, s=s), projection)
        assert reached == []


class TestRelativeChange:
    def test_identical_is_zero(self):
        _, _, theta, _ = random_instance(12)
        vec = flatten_theta(theta)
        assert relative_change(vec, vec) == 0.0

    def test_single_coordinate_ratio(self):
        _, _, theta, dims = random_instance(13)
        vec = flatten_theta(theta)
        bumped = vec.copy()
        bumped[0] = 2.0
        vec[0] = 1.0
        assert relative_change(vec, bumped) == pytest.approx(0.5)

    def test_zero_new_value_floored(self):
        _, _, theta, dims = random_instance(14)
        vec = flatten_theta(theta)
        zeroed = vec.copy()
        zeroed[0] = 0.0
        value = relative_change(vec, zeroed)
        assert np.isfinite(value)


class TestFit:
    def test_reference_design_converges(self):
        data, h, theta_true = reference_instance(seed=2)
        result = fit(data, reference_dims(), EMConfig(epsilon=1e-2))
        assert result.converged
        assert result.iterations <= 10
        assert result.trace.shape == (result.iterations, 2)
        assert result.trace[-1, 0] < 1e-2
        assert factor_sq_correlation(h, result.moments).min() > 0.98

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_huge_epsilon_stops_after_one_iteration(self):
        data, _, _, dims = random_instance(15)
        result = fit(data, dims, EMConfig(epsilon=1e12))
        assert result.converged
        assert result.iterations == 1

    def test_iteration_cap(self):
        data, _, _, dims = random_instance(16)
        result = fit(data, dims, EMConfig(epsilon=1e-14, max_iter=1))
        assert not result.converged
        assert result.iterations == 1

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_deterministic(self):
        data, _, _, dims = random_instance(17)
        config = EMConfig(epsilon=1e-4, max_iter=100)
        a = fit(data, dims, config)
        b = fit(data, dims, config)
        assert np.array_equal(flatten_theta(a.theta), flatten_theta(b.theta))
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.moments.m, b.moments.m)

    def test_factor_scores_are_at_the_returned_theta(self):
        data, _, _ = reference_instance(seed=3, n=60, q=5)
        result = fit(data, reference_dims(n=60, q=5), EMConfig(epsilon=1e-3))
        at_theta = conditional_law(result.theta, data)
        for name in ("m", "sigma"):
            np.testing.assert_allclose(
                getattr(result.moments, name), getattr(at_theta, name),
                rtol=0, atol=1e-12,
            )
        exact = observed_loglik(result.theta, data)
        np.testing.assert_allclose(exact.per_unit, residual_law(result.theta, data).loglik,
                                   rtol=0, atol=1e-12)
        assert result.trace[-1, 1] == gram_summary(flatten_theta(result.theta),
                                                   project_covariates(data)).loglik
        assert exact.value == exact.per_unit.sum()

    @pytest.mark.parametrize("scale", [1e-7, 1e7])
    def test_the_fit_does_not_depend_on_the_units_of_the_data(self, scale):
        # every noise variance is floored on its block's own scale, so data in
        # small units fit as at unit scale (a floor of 1e-12 pinned all three
        # variances of the x1e-7 fit, 100 times their size, for 3,000
        # evaluations); the loadings scale with the data, c does not
        data, _, _ = reference_instance(seed=1, n=400, q=5)
        config = EMConfig(epsilon=1e-6, max_iter=3000)
        base = fit(data, data.dimensions(), config)
        scaled = fit(replace(data, z=tuple(z * scale for z in data.z)), data.dimensions(),
                     config)
        assert base.converged and scaled.converged
        np.testing.assert_allclose(np.array(scaled.theta.sigma2) / scale**2,
                                   base.theta.sigma2, rtol=1e-5, atol=0)
        np.testing.assert_allclose(scaled.theta.c, base.theta.c, rtol=1e-5, atol=0)

    def test_dims_disagreeing_with_the_data_rejected(self):
        data, _, _ = reference_instance(seed=3, n=60, q=5)
        dims = reference_dims(n=60, q=5)
        with pytest.raises(DataError, match=r"dims\.n=999 .*\(60\)"):
            fit(data, replace(dims, n=999), EMConfig())
        with pytest.raises(DataError, match=r"dims\.q_m="):
            fit(data, replace(dims, q_m=(5, 6)), EMConfig())
        assert fit(data, dims, EMConfig()).dims == data.dimensions()

    def test_one_gram_solve_per_block_per_fit(self, monkeypatch):
        from factorem import mstep

        calls = []

        def counting(gram, rhs, name):
            calls.append(name)
            return solve(gram, rhs, name)

        solve = mstep._gram_solve
        monkeypatch.setattr(mstep, "_gram_solve", counting)
        data, _, _ = reference_instance(seed=2, n=60, q=5)
        # the accelerated PX-EM fit needs a tight epsilon and a small n to make
        # 50 M-steps here (64; 46 at the seed-1 (100, 5) design)
        result = fit(data, reference_dims(n=60, q=5), EMConfig(epsilon=1e-10))
        assert result.iterations > 50
        assert calls == ["T", "T1", "T2"]

    def test_non_finite_update_names_iteration_and_coordinate(self, monkeypatch):
        import factorem.em

        calls = []

        def poisoned(projection, law):
            x = update(projection, law)
            calls.append(None)
            if len(calls) >= 3:
                x[theta_names(dims).index("b[1]"):][:dims.q_y] = np.nan
            return x

        update = factorem.em.update_theta
        monkeypatch.setattr(factorem.em, "update_theta", poisoned)
        data, _, _, dims = random_instance(11)
        with pytest.raises(NonFiniteParameterError,
                           match=r"EM iteration 3: M-step produced b\[1\] = nan"):
            fit(data, dims, EMConfig(epsilon=1e-12, max_iter=50))

    def test_failure_at_the_start_is_prefixed(self, monkeypatch):
        import factorem.em

        def zero_variance_start(projection):
            x = start(projection)
            x[-(dims.p + 1)] = 0.0          # sigma2_Y
            return x

        start = factorem.em.initialize
        monkeypatch.setattr(factorem.em, "initialize", zero_variance_start)
        data, _, _, dims = random_instance(11)
        with pytest.raises(DataError, match=r"^EM start: .*strictly positive"):
            fit(data, dims, EMConfig())

    def test_non_finite_structural_solve_names_c(self):
        # a NaN in the structural block of the second-moment sum leaves the
        # loadings finite; the solve for c passes the NaN on to the guard
        data, _, _, _ = random_instance(10, dims=Dimensions(
            n=50, p=2, q_y=4, q_m=(4, 4), r_t=2, r_m=(2, 2)))
        projection = project_covariates(data)
        summary = gram_summary(initialize(projection), projection)
        s = summary.s.copy()
        s[1, 2] = s[2, 1] = np.nan
        with pytest.raises(NonFiniteParameterError, match=r"M-step produced c1 = nan"):
            em_step(replace(summary, s=s), projection)

    def test_config_validation(self):
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(DataError, match="epsilon must be positive and finite"):
                EMConfig(epsilon=epsilon)
        with pytest.raises(DataError, match="max_iter must be >= 1, got 0"):
            EMConfig(max_iter=0)
        assert type(EMConfig(max_iter=np.int64(5)).max_iter) is int

    def test_fractional_max_iter_rejected(self):
        # it used to run two map evaluations
        with pytest.raises(DataError, match=r"max_iter must be an integer, got 1\.5"):
            EMConfig(max_iter=1.5)

    def test_boolean_max_iter_rejected(self):
        # it used to be taken as 1
        with pytest.raises(DataError, match="max_iter must be an integer, got True"):
            EMConfig(max_iter=True)

    def test_string_epsilon_rejected(self):
        # it used to escape as a bare TypeError
        with pytest.raises(DataError, match="epsilon must be positive and finite, got '0.1'"):
            EMConfig(epsilon="0.1")


class TestAcceleration:
    """The SqS3-accelerated fit against plain EM (``dense_oracle.plain_fit``)."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_fixed_point_as_plain_em(self, seed):
        data, _, _ = reference_instance(seed=seed, n=400, q=5)
        dims = reference_dims(n=400, q=5)
        config = EMConfig(epsilon=1e-9, max_iter=5000)
        fast = canonicalize(fit(data, dims, config))
        plain = canonicalize(plain_fit(data, dims, config))
        assert fast.converged and plain.converged
        assert fast.iterations < plain.iterations
        assert fast.accepted > 0
        assert fast.trace[-1, 1] == pytest.approx(plain.trace[-1, 1], rel=1e-10, abs=0)
        np.testing.assert_allclose(
            flatten_theta(fast.theta), flatten_theta(plain.theta), rtol=1e-5, atol=0
        )

    @pytest.mark.parametrize("seed, epsilon",
                             [(1, 1e-2), (2, 1e-2), (3, 1e-2), (4, 1e12), (1, 1e-4)])
    def test_fits_within_two_map_steps_are_plain_em(self, seed, epsilon):
        # the first SqS3 cycle is the map outputs x1 -> x2 -> x3, so a fit
        # that stops within three map steps, as (1, 1e-4) does, tries none
        data, _, _ = reference_instance(seed=seed)
        config = EMConfig(epsilon=epsilon)
        fast = fit(data, reference_dims(), config)
        plain = plain_fit(data, reference_dims(), config, package_gram_estep,
                          package_update_theta)
        assert plain.iterations == 3 if epsilon == 1e-4 else plain.iterations <= 2
        assert fast.iterations == plain.iterations
        assert (fast.accepted, fast.rejected) == (0, 0)
        np.testing.assert_array_equal(flatten_theta(fast.theta), flatten_theta(plain.theta))
        np.testing.assert_array_equal(fast.trace, plain.trace)
        for name in ("m", "sigma"):
            np.testing.assert_array_equal(
                getattr(fast.moments, name), getattr(plain.moments, name)
            )
        np.testing.assert_array_equal(observed_loglik(fast.theta, data).per_unit,
                                      observed_loglik(plain.theta, data).per_unit)

    def test_the_first_extrapolation_is_built_from_the_first_three_map_outputs(
            self, monkeypatch):
        # the start is not a map output: a point built from it would
        # extrapolate across the start's large first step
        import factorem.em

        outputs, cycles = [], []

        def stepping(*args):
            outputs.append(step(*args))
            return outputs[-1]

        def recording(*args):
            cycles.append(args[:3])
            return extrapolate(*args)

        step, extrapolate = factorem.em.em_step, factorem.em._extrapolate
        monkeypatch.setattr(factorem.em, "em_step", stepping)
        monkeypatch.setattr(factorem.em, "_extrapolate", recording)
        data, _, _ = reference_instance(seed=1, n=400, q=5)
        fit(data, reference_dims(n=400, q=5), EMConfig(epsilon=1e-3))
        assert len(cycles) > 0 and len(outputs) > 3
        for point, (x, _) in zip(cycles[0], outputs[:3]):
            np.testing.assert_array_equal(point, x)

    def test_extrapolation_clamps_variances_and_skips_unit_steplength(self):
        from factorem.em import _extrapolate

        data, _, theta, dims = random_instance(0)
        floor = variance_floor(data)
        # log sigma2_y moves by -6.9, -4.6: alpha = -3 lands at about 1e-15
        def with_sigma2_y(s):
            return flatten_theta(replace(theta, sigma2=(s, *theta.sigma2[1:])))

        falling = [with_sigma2_y(s) for s in (1e-6, 1e-9, 1e-11)]
        assert floor[0] > 1e-14
        point = unflatten_theta(_extrapolate(*falling, floor), dims)
        assert point.sigma2[0] == floor[0]
        np.testing.assert_allclose(point.sigma2[1:], theta.sigma2[1:], rtol=1e-14)
        np.testing.assert_allclose(point.loading[0], theta.loading[0], rtol=0, atol=0)
        # |r| <= |v| gives alpha = -1, whose point is the second step
        turning = [with_sigma2_y(s) for s in (1.0, 2.0, 1.0)]
        assert _extrapolate(*turning, floor) is None
        # log sigma2_y at 100, 200, 290: alpha = -10 lands at exp(1100) = inf
        overflowing = [with_sigma2_y(np.exp(s)) for s in (100.0, 200.0, 290.0)]
        assert _extrapolate(*overflowing, floor) is None

    def test_extrapolation_whose_estep_fails_is_rejected(self, monkeypatch):
        # with every extrapolation rejected, each cycle goes on from its
        # second map step: the fit is plain EM, step for step
        import factorem.em
        from factorem.errors import NotPositiveDefiniteError

        points = []

        def recording(*args):
            points.append(extrapolate(*args))
            return points[-1]

        def failing_at_points(x, gram):
            if any(x is point for point in points):
                raise NotPositiveDefiniteError("forced failure")
            return summarize(x, gram)

        extrapolate, summarize = factorem.em._extrapolate, factorem.em.gram_summary
        monkeypatch.setattr(factorem.em, "_extrapolate", recording)
        monkeypatch.setattr(factorem.em, "gram_summary", failing_at_points)
        data, _, _ = reference_instance(seed=1, n=400, q=5)
        config = EMConfig(epsilon=1e-3)
        result = fit(data, reference_dims(n=400, q=5), config)
        monkeypatch.undo()
        plain = plain_fit(data, reference_dims(n=400, q=5), config,
                          package_gram_estep, package_update_theta)
        tried = sum(point is not None for point in points)
        assert tried > 0 and (result.accepted, result.rejected) == (0, tried)
        assert np.all(np.diff(result.trace[:, 1]) >= 0)
        np.testing.assert_array_equal(result.trace, plain.trace)
        np.testing.assert_array_equal(flatten_theta(result.theta), flatten_theta(plain.theta))

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_trace_monotone_and_stopping_rule_on_every_map_step(self):
        # floored fits (a variance at its block's floor) included; max_iter as
        # in criterion 04 keeps the crawling ones short
        worst, floored, extrapolated = np.inf, 0, 0
        for seed in range(200):
            data, _, _, dims = random_instance(seed)
            traces = {}
            for epsilon in (1e-3, 1e-8):
                result = fit(data, dims, EMConfig(epsilon=epsilon, max_iter=200))
                ll, change = result.trace[:, 1], result.trace[:, 0]
                if ll.size > 1:
                    worst = min(worst, float(np.min(np.diff(ll) / np.abs(ll[:-1]))))
                assert np.all(change[:-1] >= epsilon)
                assert result.converged == (change[-1] < epsilon)
                traces[epsilon] = result.trace
                extrapolated += result.accepted
            floored += np.any(np.asarray(result.theta.sigma2) <= variance_floor(data) * (1 + 1e-9))
            # a looser epsilon stops the same trajectory earlier
            loose = traces[1e-3]
            np.testing.assert_array_equal(loose, traces[1e-8][:loose.shape[0]])
        assert floored > 0 and extrapolated > 0
        assert worst >= -1e-8, worst


class TestEvaluationCounts:
    """Map evaluations summed over fixed designs, so that a slower map shows
    in these tests and not only in the benchmark."""

    def test_tight_fits_on_the_reference_design_converge(self):
        # (400, 40) at eps 1e-8, seeds 1-20: plain EM crawls along the joint
        # scale of (b, c) at a rate of about 0.99996, and without the PX-EM
        # reduction every fit spends the cap (20,000 evaluations). With it 19
        # converge, in 4,280 evaluations in all (one BLAS thread; 18 in 4,422
        # when the first SqS3 cycle began at the start). Seed 19 still spends
        # the cap: a fit of ROADMAP.md item 3, whose SqS3 points rounding breaks
        converged = evaluations = 0
        for seed in range(1, 21):
            data, _, _ = reference_instance(seed=seed)
            result = fit(data, reference_dims(), EMConfig(epsilon=1e-8, max_iter=1000))
            converged += result.converged
            evaluations += result.iterations
        assert converged >= 19
        assert evaluations <= 4500

    def test_the_narrow_tight_pass_stays_short(self):
        # the benchmark's narrow-tight design, (400, 5) at eps 1e-3, on the 40
        # dataset seeds its pass draws from seed 1: 645 evaluations without the
        # PX reduction, 424 with it from a start variance over n q, 355 over
        # n (q - 1), and 347 with every SqS3 cycle on map outputs, which
        # rejects none of its points (25 when the first cycle began at the start)
        dims, config = reference_dims(n=400, q=5), EMConfig(epsilon=1e-3, max_iter=5000)
        evaluations = rejected = 0
        for seed in np.random.SeedSequence(1).generate_state(40).tolist():
            result = fit(simulate_dataset(SimConfig(dims=dims, seed=seed))[0], dims, config)
            assert result.converged
            evaluations += result.iterations
            rejected += result.rejected
        assert evaluations <= 350
        assert rejected == 0


@pytest.mark.parametrize("p", [1, 3])
def test_fit_generalizes_beyond_two_blocks(p):
    dims = Dimensions(n=200, p=p, q_y=8, q_m=(8,) * p, r_t=2, r_m=(2,) * p)
    data, h, theta_true = simulate_dataset(SimConfig(dims=dims, seed=p))
    result = canonicalize(fit(data, dims, EMConfig(epsilon=1e-2)))
    assert result.converged
    assert factor_sq_correlation(h, result.moments).min() > 0.95
    from factorem import abs_rel_deviation

    _, average = abs_rel_deviation(theta_true, result.theta)
    assert average < 0.1


class TestCanonicalize:
    def flipped(self, result, s_g, s_f):
        theta, law = result.theta, result.moments
        s_f = np.asarray(s_f, dtype=float)
        s = np.concatenate([[s_g], s_f])
        theta2 = Theta(
            coef=theta.coef,
            loading=(s_g * theta.loading[0],
                     *(s * am for s, am in zip(s_f, theta.loading[1:]))),
            c=s_g * s_f * theta.c,
            sigma2=theta.sigma2,
        )
        law2 = replace(
            law,
            m=law.m * s,
            sigma=np.array([[s[i] * s[j] * law.sigma[i, j] for j in range(s.size)]
                            for i in range(s.size)]),
        )
        return replace(result, theta=theta2, moments=law2)

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_sign_flip_preserves_observed_loglik(self):
        data, _, _, dims = random_instance(18)
        result = fit(data, dims, EMConfig(epsilon=1e-4))
        flipped = self.flipped(result, -1.0, [-1.0] * dims.p)
        assert observed_loglik(flipped.theta, data).value == pytest.approx(
            observed_loglik(result.theta, data).value, rel=1e-12
        )

    def test_the_result_references_the_fitted_data_and_config(self):
        data, _, _, dims = random_instance(19)
        config = EMConfig(epsilon=1e-4)
        result = fit(data, dims, config)
        assert result.projection.data is data and result.config is config
        assert result.dims == data.dimensions()
        flipped = self.flipped(result, -1.0, [-1.0] * dims.p)
        canon = canonicalize(flipped)
        assert canon is not flipped and canon.config is config
        assert canon.projection is result.projection
        text = repr(result)
        assert "projection=" not in text and "Dataset" not in text and "Projection" not in text

    # seeds 7, 9, 40, 43 and 45 stop with a negative first loading at epsilon 1e-3;
    # 0 and 2 floor a noise variance on the way
    ACCOUNT_SEEDS = (7, 9, 40, 43, 45, 0, 2)

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_the_account_follows_every_sign_flip(self):
        for seed in self.ACCOUNT_SEEDS:
            data, _, _, dims = random_instance(seed)
            result = fit(data, dims, EMConfig(epsilon=1e-3, max_iter=300))
            score, corr = result.account()
            block = np.repeat(np.arange(dims.p + 1), dims.q)
            for signs in itertools.product((1.0, -1.0), repeat=dims.p + 1):
                flipped_score, flipped_corr = self.flipped(
                    result, signs[0], signs[1:]).account()
                np.testing.assert_array_equal(np.abs(flipped_score), np.abs(score))
                np.testing.assert_array_equal(flipped_corr, np.array(signs)[block] * corr)

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_the_account_is_the_fresh_pass_at_the_canonical_theta(self, monkeypatch):
        # fit returns the canonical result; count the fits it had to flip
        import factorem.em

        flips = []

        def recording(result):
            canon = canonicalize(result)
            flips.append(canon is not result)
            return canon

        monkeypatch.setattr(factorem.em, "canonicalize", recording)
        for seed in self.ACCOUNT_SEEDS:
            data, _, _, dims = random_instance(seed)
            canon = fit(data, dims, EMConfig(epsilon=1e-3, max_iter=300))
            assert canonicalize(canon) is canon
            expected = fresh_account(canon.theta, canon.moments, data)
            for got, want in zip(canon.account(), expected):
                np.testing.assert_array_equal(got, want)
        assert sum(flips) >= 5

    def test_canonical_signs_and_idempotence(self):
        data, _, _, dims = random_instance(19)
        result = fit(data, dims, EMConfig(epsilon=1e-4))
        scrambled = self.flipped(result, -1.0, [(-1.0) ** m for m in range(dims.p)])
        canon = canonicalize(scrambled)
        assert canon.theta.loading[0][0] >= 0
        assert all(am[0] >= 0 for am in canon.theta.loading[1:])
        again = canonicalize(canon)
        assert np.array_equal(flatten_theta(again.theta), flatten_theta(canon.theta))
        # trace and convergence metadata untouched
        assert np.array_equal(canon.trace, result.trace)
        assert canon.iterations == result.iterations
        # second moments are sign-invariant
        np.testing.assert_array_equal(
            np.diag(second_moment_sum(canon.moments)),
            np.diag(second_moment_sum(result.moments)),
        )

    def test_flips_the_law_like_an_explicit_sign_flip(self):
        data, _, _, dims = random_instance(19)
        base = canonicalize(fit(data, dims, EMConfig(epsilon=1e-4)))
        signs = [(-1.0) ** m for m in range(dims.p)]
        scrambled = self.flipped(base, -1.0, signs)
        canon = canonicalize(scrambled)
        explicit = self.flipped(scrambled, -1.0, signs)
        for name in ("m", "sigma"):
            np.testing.assert_array_equal(
                getattr(canon.moments, name), getattr(explicit.moments, name)
            )
        np.testing.assert_array_equal(observed_loglik(canon.theta, data).per_unit,
                                      observed_loglik(explicit.theta, data).per_unit)
        np.testing.assert_array_equal(canon.moments.m, base.moments.m)

    @pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
    def test_canonical_matches_original_basin(self):
        data, _, _, dims = random_instance(20)
        result = canonicalize(fit(data, dims, EMConfig(epsilon=1e-4)))
        scrambled = self.flipped(result, -1.0, [-1.0] * dims.p)
        round_trip = canonicalize(scrambled)
        np.testing.assert_array_equal(
            flatten_theta(round_trip.theta), flatten_theta(result.theta)
        )
