"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured value against its threshold. Run with -s to see the
lines as they pass."""

import numpy as np
import pytest

from factorem import Dimensions, EMConfig, SimConfig, fit, flatten_theta, simulate_dataset
from factorem.estep import conditional_law
from factorem.evaluate import kfold_resample, replicate_study
from factorem.model import unflatten_theta
from factorem.mstep import project_covariates, update_theta
from factorem.cli import main

from conftest import reference_dims, random_instance, random_theta, scalar_toy_theta
from dense_oracle import posterior_moments, summary_from_law
from likelihood_oracle import (
    complete_loglik, complete_score, count_parameters, expected_score, second_moment_sum,
)


def report(number, label, detail, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {label}: {detail} -> {status}")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def replication():
    sim = SimConfig(dims=reference_dims(), seed=0)
    return replicate_study(sim, EMConfig(epsilon=1e-2), replicates=20)


def test_criterion_01_replication_quality(replication):
    dev_median = float(np.nanmedian(replication.deviation_avg))
    corr_median = float(np.nanmedian(replication.sq_corr))
    report(
        1,
        "replication at reference design",
        f"median avg |rel dev| = {dev_median:.4f} (<= 0.03), "
        f"median sq factor corr = {corr_median:.4f} (>= 0.99)",
        dev_median <= 0.03 and corr_median >= 0.99,
    )


def test_criterion_02_convergence_speed(replication):
    fast = int(np.sum(replication.converged & (replication.iterations <= 10)))
    report(
        2,
        "convergence speed",
        f"{fast}/20 replicates converged within 10 iterations (need >= 18)",
        fast >= 18,
    )


def test_criterion_03_small_sample_sensitivity():
    sim = SimConfig(dims=reference_dims(n=50), seed=0)
    summary = replicate_study(sim, EMConfig(epsilon=1e-2), replicates=20)
    corr_median = float(np.nanmedian(summary.sq_corr))
    report(
        3,
        "sensitivity at n=50, q=40",
        f"median sq factor corr = {corr_median:.4f} (>= 0.90)",
        corr_median >= 0.90,
    )


def test_criterion_04_em_monotonicity():
    dims = Dimensions(n=30, p=2, q_y=3, q_m=(3, 3), r_t=2, r_m=(2, 2))
    worst = np.inf
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        theta = random_theta(dims, rng)
        data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=seed, theta=theta))
        result = fit(data, dims, EMConfig(epsilon=1e-8, max_iter=200))
        ll = result.trace[:, 1]
        if ll.size > 1:
            worst = min(worst, float(np.min(np.diff(ll) / np.abs(ll[:-1]))))
    report(
        4,
        "EM monotonicity on 20 random instances",
        f"worst relative log-likelihood step = {worst:.2e} (>= -1e-8)",
        worst >= -1e-8,
    )


def toy_setup():
    """p=2, one variable per block, one unit, centered observation (1,1,1)."""
    from factorem import Dataset

    theta = scalar_toy_theta()
    data = Dataset(z=([[1.0]],) * 3, t=([[0.0]],) * 3)
    return theta, data


def toy_joint_covariance(theta):
    """(latent, observed) covariance assembled from the generative
    equations, independent of the package's block formulas."""
    c1, c2 = theta.c
    b, a1, a2 = (lam[0] for lam in theta.loading)
    sy, s1, s2 = np.sqrt(theta.sigma2)
    # sources: f1, f2, e_g, e_y, e_1, e_2; rows: g, f1, f2, y, x1, x2
    load = np.array([
        [c1,      c2,      1.0, 0.0, 0.0, 0.0],
        [1.0,     0.0,     0.0, 0.0, 0.0, 0.0],
        [0.0,     1.0,     0.0, 0.0, 0.0, 0.0],
        [b * c1,  b * c2,  b,   sy,  0.0, 0.0],
        [a1,      0.0,     0.0, 0.0, s1,  0.0],
        [0.0,     a2,      0.0, 0.0, 0.0, s2],
    ])
    return load @ load.T


def test_criterion_05_estep_oracles():
    theta, data = toy_setup()
    law = conditional_law(theta, data)
    moments = posterior_moments(law)

    cov = toy_joint_covariance(theta)
    c_hh, c_hz, c_zz = cov[:3, :3], cov[:3, 3:], cov[3:, 3:]
    mu = np.ones(3)
    m_direct = c_hz @ np.linalg.inv(c_zz) @ mu
    sigma_direct = c_hh - c_hz @ np.linalg.inv(c_zz) @ c_hz.T
    direct_gap = max(
        float(np.abs(law.m[0] - m_direct).max()),
        float(np.abs(law.sigma - sigma_direct).max()),
    )

    rng = np.random.default_rng(123)
    draws = rng.multivariate_normal(m_direct, sigma_direct, size=10**6)
    checks = []

    def within(sample, target):
        se = sample.std(ddof=1) / np.sqrt(sample.shape[0])
        checks.append(abs(sample.mean() - target) <= 3 * se)

    within(draws[:, 0], moments.m[0, 0])
    within(draws[:, 1], moments.m[0, 1])
    within(draws[:, 2], moments.m[0, 2])
    within(draws[:, 0] ** 2, moments.gamma_tilde[0])
    within(draws[:, 1] ** 2, moments.phi_tilde[0, 0])
    within(draws[:, 2] ** 2, moments.phi_tilde[1, 0])
    within(draws[:, 0] * draws[:, 1], moments.cross_fg[0, 0])
    within(draws[:, 0] * draws[:, 2], moments.cross_fg[1, 0])
    within(draws[:, 1] * draws[:, 2], moments.cross_ff[0, 1, 0])

    report(
        5,
        "E-step toy oracles",
        f"direct-conditioning gap = {direct_gap:.2e} (<= 1e-8), "
        f"{sum(checks)}/{len(checks)} Monte Carlo moments within 3 SE",
        direct_gap <= 1e-8 and all(checks),
    )


def test_criterion_06_gradient_oracle():
    dims = Dimensions(n=15, p=2, q_y=3, q_m=(3, 2), r_t=2, r_m=(2, 1))
    data, h, _, dims = random_instance(500, dims=dims)
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(20):
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
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(rel.max()))
    report(
        6,
        "analytic score vs central differences (20 points)",
        f"worst relative error = {worst:.2e} (< 1e-6)",
        worst < 1e-6,
    )


def test_criterion_07_mstep_stationarity():
    worst = 0.0
    for seed in range(100):
        data, _, theta, dims = random_instance(seed)
        law = conditional_law(theta, data)
        projection = project_covariates(data)
        updated = unflatten_theta(
            update_theta(projection, summary_from_law(law, projection)), dims)
        residual = expected_score(updated, law, data)
        worst = max(worst, float(np.abs(residual).max()))

    ratio_gap = 0.0
    checked = 0
    for seed in range(40):
        data, _, theta, dims = random_instance(seed)
        if dims.p != 2:
            continue
        checked += 1
        law = conditional_law(theta, data)
        projection = project_covariates(data)
        updated = unflatten_theta(
            update_theta(projection, summary_from_law(law, projection)), dims)
        s = second_moment_sum(law)
        v1, v2 = s[1:, 0]
        phi1, phi2 = s[1, 1], s[2, 2]
        cross = s[1, 2]
        det = phi1 * phi2 - cross**2
        ratios = np.array([(v1 * phi2 - v2 * cross) / det,
                           (v2 * phi1 - v1 * cross) / det])
        ratio_gap = max(ratio_gap, float(np.abs(updated.c - ratios).max()))
    report(
        7,
        "M-step stationarity",
        f"max |expected score| at update = {worst:.2e} (< 1e-8); "
        f"two-block ratio gap = {ratio_gap:.2e} (< 1e-12) over {checked} cases",
        worst < 1e-8 and ratio_gap < 1e-12 and checked >= 5,
    )


def test_criterion_08_parameter_count():
    k = count_parameters(reference_dims())
    report(8, "parameter count at reference design", f"K = {k} (== 365)", k == 365)


def test_criterion_09_resampling_harness():
    dims = reference_dims()
    data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=17))
    em = EMConfig(epsilon=1e-2)

    exact = kfold_resample(data, em, k=5, sample_size=dims.n, seed=4)
    exact_ok = (
        np.all(exact.param_mse == 0.0)
        and np.all(exact.param_corr >= 1 - 1e-12)
        and np.all(exact.factor_mse == 0.0)
    )

    half = kfold_resample(data, em, k=5, sample_size=dims.n // 2, seed=4)
    half_median = float(np.nanmedian(half.param_corr))
    report(
        9,
        "re-sampling harness",
        f"full-size samples exact ({exact_ok}); half-size median parameter "
        f"correlation = {half_median:.4f} (>= 0.95)",
        exact_ok and half_median >= 0.95,
    )


def test_criterion_10_study_determinism(tmp_path):
    runs = {
        "simulate": ["simulate", "--n", "50", "--q", "4", "--seed", "3"],
        "fit": None,    # filled in below, needs simulated data
        "replicate": ["replicate", "--n", "50", "--q", "4",
                      "--replicates", "2", "--seed", "3"],
        "sensitivity": ["sensitivity", "--n", "50", "--q", "4",
                        "--n-values", "40,50", "--q-values", "",
                        "--replicates", "1", "--seed", "3"],
        "resample": None,
    }
    data_dir = tmp_path / "data"
    assert main(runs["simulate"] + ["--out", str(data_dir)]) == 0
    runs["fit"] = ["fit", "--data", str(data_dir), "--epsilon", "1e-2"]
    runs["resample"] = ["resample", "--data", str(data_dir), "--k", "2",
                        "--sample-size", "25", "--seed", "5"]

    identical = True
    for name, args in runs.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for file_a in sorted(out_a.iterdir()):
            file_b = out_b / file_a.name
            if file_a.read_bytes() != file_b.read_bytes():
                identical = False
    report(
        10,
        "study command determinism",
        f"all five commands byte-identical across repeat runs ({identical})",
        identical,
    )
