"""The fit's small-matrix kernels against the library forms they replace:
the LAPACK-direct posterior against ``np.linalg.inv`` of the Cholesky
factor, the slice-assembled block-diagonal B and (T'T)^-1 against
``scipy.linalg.block_diag`` of the per-block solves, and the lazy
variance check of ``gram_summary`` against the message it always gave."""

import numpy as np
import pytest
import scipy.linalg

from factorem import flatten_theta
from factorem.errors import DataError
from factorem.estep import _posterior, gram_summary
from factorem.mstep import _gram_solve, project_covariates

import dense_oracle
from conftest import random_instance


def test_posterior_matches_the_inverse_factor_form():
    rng = np.random.default_rng(0)
    for trial in range(2000):
        k = int(rng.integers(2, 6))
        c = rng.normal(size=k - 1) * 10.0 ** rng.uniform(-3, 2)
        fisher = 10.0 ** rng.uniform(-4, 6, size=k)
        variances = rng.uniform(0.5, 2.0, size=k)
        prior_prec, chol, sigma = _posterior(c, fisher, variances)

        w = np.concatenate([[1.0], -c])
        expected_prior = np.outer(w, w)
        expected_prior.flat[k + 1::k + 1] += 1.0
        np.testing.assert_array_equal(prior_prec, expected_prior)
        np.testing.assert_array_equal(
            chol, scipy.linalg.cholesky(expected_prior + np.diag(fisher), lower=True))
        chol_inv = np.linalg.inv(chol)
        expected = chol_inv.T @ chol_inv
        expected = 0.5 * (expected + expected.T)
        assert np.all(np.abs(sigma - expected) <= np.spacing(np.abs(expected))), trial
        np.testing.assert_array_equal(sigma, sigma.T)


def test_stacked_blocks_are_the_block_diagonal_of_the_per_block_solves():
    widths = set()
    for seed in range(30):
        data, _, _, _ = random_instance(seed)
        projection = project_covariates(data)
        n = data.n
        # T'T and T'Z from the centered data and its column means, formed as the pass forms them
        w = np.asfortranarray(np.hstack([*data.z, *data.t]))
        mean = w.mean(axis=0)
        w -= mean
        coef, tt_inv = [], []
        for z, t in zip(*dense_oracle.block_rows(projection)):
            r = t.stop - t.start
            tt, tz = (w[:, t].T @ w[:, b] + n * np.outer(mean[t], mean[b]) for b in (t, z))
            solved = _gram_solve(tt, np.hstack([np.eye(r), tz]), "T")
            coef.append(solved[:, r:])
            tt_inv.append(solved[:, :r])
        widths.add(tuple(b.shape[0] for b in tt_inv))
        np.testing.assert_array_equal(projection.stacked_coef, scipy.linalg.block_diag(*coef))
        np.testing.assert_array_equal(projection.stacked_tt_inv,
                                      scipy.linalg.block_diag(*tt_inv))
        np.testing.assert_array_equal(projection.coef_at_d,
                                      projection.stacked_coef[projection.d_at])
    assert any(len(set(r)) > 1 for r in widths)  # unequal r_k among the instances


@pytest.mark.parametrize("value", [0.0, -0.5])
def test_gram_summary_rejects_a_nonpositive_variance_as_before(value):
    data, _, theta, _ = random_instance(1)      # p = 2
    x = flatten_theta(theta)
    x[-3:] = 1.5, value, 2.0
    with pytest.raises(DataError) as raised:
        gram_summary(x, project_covariates(data))
    assert str(raised.value) == ("conditional law needs strictly positive noise variances, "
                                 f"got sigma2_y=1.5, sigma2_m=({value}, 2.0)")
