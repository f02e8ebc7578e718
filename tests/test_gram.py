"""The fit's Gram path (one pass over the data, then algebra on the Gram
of the centered data) against the n-pass routes it replaced
(``dense_oracle.npass_*``), against ``conditional_law``, and its
block-vectorized steps on the canonical vector against the per-block
loops they replaced (``dense_oracle.loop_*``)."""

import copy
import dataclasses
import importlib
import pkgutil
import warnings

import numpy as np
import pytest
from dataclasses import replace

from factorem import (
    Dataset, Dimensions, EMConfig, SimConfig, Theta, canonicalize, fit, flatten_theta,
    simulate_dataset,
)
import factorem
from factorem import cli, em, estep, io, mstep
from factorem.model import unflatten_theta
from factorem.em import em_step, initialize
from factorem.estep import GRAM_LIMIT, conditional_law, gram_summary, observed_loglik
from factorem.mstep import expected_score, project_covariates, update_theta

import dense_oracle
import likelihood_oracle
from conftest import random_instance, reference_dims

RTOL = 1e-10


def instances():
    """``random_instance`` seeds 0-99 and the reference design, each with
    the parameters its data were drawn from."""
    for seed in range(100):
        data, _, theta, _ = random_instance(seed)
        yield f"random {seed}", data, theta
    for seed in (1, 2):
        data, _, theta = simulate_dataset(SimConfig(dims=reference_dims(), seed=seed))
        yield f"reference {seed}", data, theta


def gram_only(monkeypatch):
    """Make ``gram_summary`` fail if it takes the exact pass."""
    def forbidden(theta, data):
        raise AssertionError("gram_summary took the exact pass")

    monkeypatch.setattr(estep, "observed_loglik", forbidden)


def assert_summaries_close(gram, exact, label, rtol=RTOL):
    for name in ("s", "wm"):
        a, b = getattr(gram, name), getattr(exact, name)
        assert np.abs(a - b).max() <= rtol * np.abs(b).max(), (label, name)
    assert gram.loglik == pytest.approx(exact.loglik, rel=rtol, abs=0), label


def test_gram_estep_matches_conditional_law(monkeypatch):
    cases = [(label, theta, gram := project_covariates(data),
              dense_oracle.summary_from_law(conditional_law(theta, data), gram, theta))
             for label, data, theta in instances()]
    gram_only(monkeypatch)
    for label, theta, gram, exact in cases:
        assert_summaries_close(gram_summary(flatten_theta(theta), gram), exact, label)


def test_gram_update_matches_the_npass_update():
    worst = 0.0
    for label, data, theta in instances():
        law, projection = conditional_law(theta, data), project_covariates(data)
        updated = update_theta(projection, dense_oracle.summary_from_law(law, projection))
        expected = flatten_theta(dense_oracle.npass_update(
            dense_oracle.npass_projection(data), law))
        worst = max(worst, float(np.max(np.abs(updated - expected) / np.abs(expected))))
    assert worst <= RTOL


@pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
def test_gram_initialize_matches_the_npass_initializer():
    worst = 0.0
    for label, data, _ in instances():
        start = initialize(project_covariates(data))
        oracle = dense_oracle.npass_initialize(dense_oracle.npass_projection(data))
        # the n-pass start leaves a PC that reproduces its column at rounding
        # residue; the package floors it
        oracle = replace(oracle, sigma2=np.maximum(oracle.sigma2,
                                                   dense_oracle.variance_floor(data)))
        expected = flatten_theta(oracle)
        worst = max(worst, float(np.max(np.abs(start - expected) / np.abs(expected))))
    assert worst <= RTOL


def test_gram_map_steps_match_the_npass_map_steps(monkeypatch):
    # ten plain EM steps on the narrow design, both routes from one start
    data, _, _ = simulate_dataset(SimConfig(dims=reference_dims(n=400, q=5), seed=3))
    projection = project_covariates(data)
    start = initialize(projection)
    npass = dense_oracle.npass_projection(data)
    law = conditional_law(unflatten_theta(start, data.dimensions()), data)
    summary = gram_summary(start, projection)
    gram_only(monkeypatch)
    for step in range(10):
        x, summary = em_step(summary, projection)
        theta_oracle, law = dense_oracle.npass_em_step(law, data, npass)
        np.testing.assert_allclose(x, flatten_theta(theta_oracle),
                                   rtol=RTOL, atol=0, err_msg=f"step {step + 1}")
        assert summary.loglik == pytest.approx(observed_loglik(theta_oracle, data).value,
                                               rel=RTOL, abs=0)


def test_a_variance_at_the_floor_takes_the_exact_pass(monkeypatch):
    # past GRAM_LIMIT one exact pass gives the loglik, taken when it is first
    # read; S and W~_c'M stay those of the Gram form, as with the limit check
    # switched off
    data, _, theta, _ = random_instance(0)
    floor = dense_oracle.variance_floor(data)
    floored = replace(theta, sigma2=(theta.sigma2[0], floor[1], *theta.sigma2[2:]))
    projection = project_covariates(data)
    exact = observed_loglik(floored, data).value
    calls = []

    def counting(theta, data):
        calls.append(theta)
        return loglik(theta, data)

    loglik = estep.observed_loglik
    monkeypatch.setattr(estep, "observed_loglik", counting)
    x = flatten_theta(floored)
    summary = gram_summary(x, projection)
    x[:] = np.nan                        # the pass reads x as it was given
    assert len(calls) == 0
    assert summary.loglik == summary.loglik == exact
    assert len(calls) == 1
    np.testing.assert_array_equal(flatten_theta(calls[0]), flatten_theta(floored))
    monkeypatch.setattr(estep, "GRAM_LIMIT", np.inf)
    gram_form = gram_summary(flatten_theta(floored), projection)
    assert len(calls) == 1
    for name in ("s", "wm"):
        np.testing.assert_array_equal(getattr(summary, name), getattr(gram_form, name))


@pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
def test_a_fit_past_the_limit_passes_over_the_data_only_for_a_loglik_it_reads(
        monkeypatch, tmp_path):
    # random_instance 3 is past GRAM_LIMIT at every E-step. Neither the
    # start's loglik nor account()'s is read, so neither takes the exact pass;
    # a fit that reads every E-step's loglik at once takes one pass more and
    # writes the same bytes
    data, _, _, dims = random_instance(3)
    passes = []

    def counting(theta, data):
        passes.append(None)
        return loglik(theta, data)

    def eager(x, projection):
        summary = summarize(x, projection)
        summary.loglik
        return summary

    loglik, summarize = estep.observed_loglik, em.gram_summary
    monkeypatch.setattr(estep, "observed_loglik", counting)
    config = EMConfig(epsilon=1e-3)
    result = fit(data, dims, config)
    lazy = len(passes)
    assert lazy == result.iterations + result.accepted + result.rejected
    passes.clear()
    io.write_fit(result, tmp_path / "lazy")
    assert passes == []
    monkeypatch.setattr(em, "gram_summary", eager)
    io.write_fit(fit(data, dims, config), tmp_path / "eager")
    assert len(passes) == lazy + 1 + 1                  # the start's, account()'s
    written = sorted(path.name for path in (tmp_path / "lazy").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "eager").iterdir())
    for name in written:
        assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "eager" / name).read_bytes()


def test_the_gram_limit_splits_the_two_routes(monkeypatch):
    # sigma2_Y set so that block Y's term ratio sits at half and at twice
    # the limit: just inside it the Gram form still holds 1e-10
    data, _, theta, _ = random_instance(3)
    gram = project_covariates(data)
    t, e = data.t[0], theta.coef[0] - dense_oracle.block_projection(gram)[0][0]   # E = D - B
    size = gram.resid_sq[0] + np.sum((t @ e)**2)       # ||r||^2 = ||Z~||^2 + ||T E||^2
    at_limit = size / (GRAM_LIMIT * data.n * data.z[0].shape[1])
    inside, outside = (replace(theta, sigma2=(s, *theta.sigma2[1:]))
                       for s in (2.0 * at_limit, 0.5 * at_limit))
    exact_inside = dense_oracle.summary_from_law(conditional_law(inside, data), gram, inside)
    exact_outside = dense_oracle.summary_from_law(conditional_law(outside, data), gram, outside)
    assert gram_summary(flatten_theta(outside), gram).loglik == exact_outside.loglik
    gram_only(monkeypatch)
    assert_summaries_close(gram_summary(flatten_theta(inside), gram), exact_inside, "inside")


def test_a_constant_added_to_the_data_moves_only_the_intercepts():
    # G is formed from centered columns, so a large common mean costs no
    # digits: the fit matches the unshifted one but for the intercepts
    rng = np.random.default_rng(0)
    n, q = 200, 4
    t = [np.column_stack([np.ones(n), rng.normal(size=n)]) for _ in range(3)]
    f = rng.normal(size=(2, n))
    h = (f.sum(axis=0) + rng.normal(size=n), *f)
    z = [np.outer(h_k, np.ones(q)) + rng.normal(size=(n, q)) for h_k in h]
    fits = []
    for offset in (0.0, 1e7):
        data = Dataset(z=tuple(b + offset for b in z), t=tuple(t), intercept=True)
        fits.append(fit(data, data.dimensions(), EMConfig(epsilon=1e-9, max_iter=3000)))
    base, shifted = fits
    assert shifted.trace[-1, 1] == pytest.approx(base.trace[-1, 1], rel=1e-10)
    np.testing.assert_allclose(shifted.theta.c, base.theta.c, rtol=1e-8)
    np.testing.assert_allclose(shifted.theta.sigma2, base.theta.sigma2, rtol=1e-8)
    for k in range(3):
        np.testing.assert_allclose(shifted.theta.loading[k], base.theta.loading[k], rtol=1e-8)
        np.testing.assert_allclose(shifted.theta.coef[k][1:], base.theta.coef[k][1:],
                                   rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(shifted.theta.coef[k][0] - 1e7, base.theta.coef[k][0],
                                   atol=1e-6)


def test_a_single_variable_block_starts_at_the_variance_floor():
    # the first PC of a one-column block reproduces it exactly, which
    # leaves no residual variance to start from
    data, _, _, dims = random_instance(0)
    single = [k for k, q in enumerate(dims.q) if q == 1]
    assert single
    with pytest.warns(RuntimeWarning, match=r"sigma2_\w+ start 0\.000e\+00 floored at "):
        start = unflatten_theta(initialize(project_covariates(data)), dims)
    floor = dense_oracle.variance_floor(data)
    for k in single:
        assert start.sigma2[k] == pytest.approx(floor[k], rel=1e-12, abs=0)


@pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
def test_the_top_eigenpair_start_matches_the_full_spectrum_start(monkeypatch):
    # The start asks for the top eigenpair (lambda, e) only and takes the
    # start variance as (trace - lambda) / (n (q - 1)); the full-spectrum
    # start sums the other eigenvalues. Each of those and the trace carry
    # about eps lambda of rounding, so the two numerators differ by at most
    # (q + 1) eps lambda, and over the same denominator the variances agree
    # within 4 (q + 1) eps lambda / (n (q - 1)), the two divisions' own
    # roundings (each at most eps lambda / 2n) inside the factor 4 (measured
    # worst 5.7 eps lambda / (n (q - 1)), at q 3). A one-column block gives
    # exactly 0 before the floor, over n.
    large = simulate_dataset(SimConfig(dims=reference_dims(n=5000, q=100), seed=1))[0]
    single = 0
    for label, data in [(label, data) for label, data, _ in instances()] + [("large", large)]:
        projection = project_covariates(data)
        z_rows, _ = dense_oracle.block_rows(projection)
        for k, z in enumerate(z_rows):
            resid_gram, n, q = projection.g[z, z], data.n, z.stop - z.start
            e, std, sigma2 = em._first_component(resid_gram, n, "Z")
            e_full, std_full, sigma2_full = dense_oracle.eigh_first_component(resid_gram, n, "Z")
            np.testing.assert_allclose(e, e_full, rtol=0, atol=1e-12, err_msg=label)
            assert std == pytest.approx(std_full, rel=1e-12, abs=0), label
            bound = 4 * (q + 1) * np.finfo(float).eps * std_full**2 / max(q - 1, 1)
            assert abs(sigma2 - sigma2_full) <= bound, (label, k)
            if q == 1:
                single += 1
                assert sigma2 == 0.0, label
        x = initialize(projection)
        with monkeypatch.context() as patched:
            patched.setattr(em, "_first_component", dense_oracle.eigh_first_component)
            x_full = initialize(projection)
        nd, nz = projection.coef_at_d.size, z_rows[-1].stop
        for part in (slice(0, nd), slice(nd, nd + nz), slice(nd + nz, -len(z_rows))):
            scale = np.abs(x_full[part]).max()
            assert np.abs(x[part] - x_full[part]).max() <= 1e-12 * scale, (label, part)
    assert single


def counting(monkeypatch, targets):
    """Wrap each (module, name) of ``targets`` to record its calls: the list
    of names called, with the covariate block in place of ``_gram_solve``."""
    calls = []
    for module, name in targets:
        def wrapper(*args, _original=getattr(module, name), _name=name):
            calls.append(_name if _name != "_gram_solve" else args[2])
            return _original(*args)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_pass_over_the_data_per_fit(monkeypatch):
    # a narrow fit of more than 20 map evaluations (68; the PX-EM map ends
    # (400, 5) at eps 1e-3 in 10) builds G once, solves each covariate Gram
    # once, and conditions every unit once, at the returned theta
    calls = counting(monkeypatch, ((em, "conditional_law"), (estep, "observed_loglik"),
                                   (em, "project_covariates"), (mstep, "_gram_solve")))
    data, _, _ = simulate_dataset(SimConfig(dims=reference_dims(n=100, q=5), seed=1))
    result = fit(data, reference_dims(n=100, q=5), EMConfig(epsilon=1e-10))
    assert result.iterations > 20
    assert sorted(calls) == sorted(["project_covariates", "T", "T1", "T2", "conditional_law"])


def test_a_wide_design_stays_on_the_gram_path(monkeypatch):
    # ||r_k||^2 = ||Z~_k||^2 + ||T_k E_k||^2 leaves the covariate-explained
    # part T_k B_k out of the size GRAM_LIMIT bounds: a (200, 300) fit
    # conditions every unit once, at the estimate, and the Gram form at the
    # true theta holds RTOL against the exact pass
    dims = reference_dims(n=200, q=300)
    data, _, theta = simulate_dataset(SimConfig(dims=dims, seed=1))
    seen = []

    def recording(original):
        def wrapper(theta, data):
            seen.append(flatten_theta(theta))
            return original(theta, data)
        return wrapper

    monkeypatch.setattr(estep, "observed_loglik", recording(estep.observed_loglik))
    monkeypatch.setattr(em, "conditional_law", recording(em.conditional_law))
    result = fit(data, dims, EMConfig(epsilon=1e-2))
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], flatten_theta(result.theta))
    monkeypatch.undo()
    projection = project_covariates(data)
    exact = dense_oracle.summary_from_law(conditional_law(theta, data), projection, theta)
    gram_only(monkeypatch)
    assert_summaries_close(gram_summary(flatten_theta(theta), projection), exact, "wide")


def test_the_projection_holds_no_array_with_n_rows():
    # the pass's column-major copy of the data is its own temporary: no
    # field but ``data`` keeps it, or a view of it, alive for the fit
    data, _, _ = simulate_dataset(SimConfig(dims=reference_dims(), seed=1))   # n 400, G 127 rows
    projection = project_covariates(data)
    for field in dataclasses.fields(projection):
        value = getattr(projection, field.name)
        for array in (value if isinstance(value, tuple) else (value,)):
            for a in (array, getattr(array, "base", None)):
                n_rows = isinstance(a, np.ndarray) and a.ndim > 0 and a.shape[0] == data.n
                assert field.name == "data" or not n_rows, field.name


@pytest.mark.parametrize("offset", [0.0, 1e7])
def test_the_flat_maps_are_the_block_scatters_and_read_the_data(offset):
    # ``block`` holds the block of each row of G, ``d_at`` the coordinates of the
    # block-diagonal D, and ``own`` addresses in a flat array what (row, ``block``)
    # addresses; read through them, the factor cross products and the residual
    # means are those of the data's n rows, also with 1e7 added to every observed
    # column of an intercept design
    dims = Dimensions(n=60, p=2, q_y=3, q_m=(4, 2), r_t=2, r_m=(3, 1))
    base, _, theta = simulate_dataset(SimConfig(dims=dims, seed=4, intercept=True))
    data = Dataset(z=tuple(z + offset for z in base.z), t=base.t, intercept=True)
    theta = replace(theta, coef=tuple(np.vstack([d[:1] + offset, d[1:]]) for d in theta.coef))
    projection = project_covariates(data)
    blocks, (z_rows, t_rows) = len(data.z), dense_oracle.block_rows(projection)
    nz = z_rows[-1].stop
    block_diagonal = np.zeros(projection.stacked_coef.shape, dtype=bool)
    own = np.zeros((projection.g.shape[0] - 1, blocks), dtype=bool)
    for k, (z, t) in enumerate(zip(z_rows, t_rows)):
        block_diagonal[t.start - nz:t.stop - nz, z] = True
        own[z, k] = own[t, k] = True
    assert np.array_equal(projection.block, own.nonzero()[1])
    assert np.array_equal(projection.cells, data.n * np.array(dims.q))
    assert np.array_equal(projection.d_at, np.nonzero(block_diagonal))
    assert np.array_equal(projection.own, np.flatnonzero(own))
    rows = np.arange(len(own))
    by_pairs, by_flat = np.zeros(own.shape), np.zeros(own.shape)
    by_pairs[rows, projection.block] = np.arange(1.0, rows.size + 1)
    by_flat.put(projection.own, by_pairs[rows, projection.block])
    assert np.array_equal(by_flat, by_pairs)

    law = conditional_law(theta, data)
    tf, zf = mstep._factor_cross(projection, dense_oracle.summary_from_law(law, projection).wm)
    _, mean_r, _, _ = estep.residual_sq(flatten_theta(theta), projection)
    # the n-row products carry the rounding of the shifted cells, 1e7 eps each
    cell = 64 * np.finfo(float).eps * (1.0 + offset)
    for k, (z, t) in enumerate(zip(z_rows, t_rows)):
        f = law.m[:, k]
        np.testing.assert_allclose(tf[t.start - nz:t.stop - nz], data.t[k].T @ f,
                                   rtol=1e-12, atol=1e-12 * np.abs(f).sum())
        tilde = data.z[k] - data.t[k] @ np.linalg.lstsq(data.t[k], data.z[k], rcond=None)[0]
        np.testing.assert_allclose(zf[z], tilde.T @ f, rtol=1e-12, atol=cell * np.abs(f).sum())
        r = data.z[k] - data.t[k] @ theta.coef[k]
        np.testing.assert_allclose(mean_r[z], r.mean(axis=0), rtol=1e-12, atol=cell)


def everywhere(names):
    """(module, name) for each of ``names`` in every ``factorem`` module that
    holds it, so ``counting`` sees a call whatever module it goes through."""
    modules = [importlib.import_module(f"factorem.{info.name}")
               for info in pkgutil.iter_modules(factorem.__path__)]
    return [(module, name) for module in modules for name in names if hasattr(module, name)]


def test_a_cli_fit_makes_one_pass_over_the_data(monkeypatch, tmp_path):
    # the fit builds G once and conditions every unit once, at the reported
    # theta; write_fit reads the certificate and the correlations off the
    # result's G (one Gram-form law), with no n-row law and no corrcoef
    dims = reference_dims(n=400, q=5)
    data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=1))
    io.write_dataset(data, tmp_path / "data")
    passes = ("project_covariates", "conditional_law")
    calls = counting(monkeypatch, everywhere((*passes, "observed_loglik")))
    assert cli.main(["fit", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "cli"),
                     "--epsilon", "1e-3"]) == 0
    assert sorted(calls) == sorted(passes)
    monkeypatch.undo()
    result = canonicalize(fit(data, dims, EMConfig(epsilon=1e-3)))
    calls = counting(monkeypatch, [*everywhere((*passes, "observed_loglik", "gram_summary")),
                                   (np, "corrcoef")])
    io.write_fit(result, tmp_path / "lib")
    assert calls == ["gram_summary"]
    monkeypatch.undo()
    for name in ("correlations.csv", "report.json", "parameters.csv", "factors.csv"):
        assert (tmp_path / "lib" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
    rows = (tmp_path / "lib" / "correlations.csv").read_text().splitlines()[1:]
    written = np.array([float(row.split(",")[2]) for row in rows])
    m = result.moments.m
    expected = [np.corrcoef(z[:, j], m[:, k])[0, 1]
                for k, z in enumerate(data.z) for j in range(z.shape[1])]
    np.testing.assert_allclose(written, expected, rtol=0, atol=1e-14)


@pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
def test_a_fit_builds_a_theta_only_at_the_estimate_and_on_exact_passes(monkeypatch):
    # the start and the loop carry the canonical vector: a Theta is built
    # at the returned theta and for each E-step that takes the exact pass
    narrow, _, _ = simulate_dataset(SimConfig(dims=reference_dims(n=400, q=5), seed=1))
    floored, _, _, dims = random_instance(3)
    built, exact = [], []

    def counting(theta):
        built.append(None)
        post_init(theta)

    def exact_pass(theta, data):
        exact.append(None)
        return loglik(theta, data)

    post_init, loglik = Theta.__post_init__, estep.observed_loglik
    monkeypatch.setattr(Theta, "__post_init__", counting)
    monkeypatch.setattr(estep, "observed_loglik", exact_pass)
    fit(narrow, reference_dims(n=400, q=5), EMConfig(epsilon=1e-3))
    assert (len(built), len(exact)) == (1, 0)
    built.clear()
    # the fit floors a variance (its warning fires) and so takes the exact pass
    with pytest.warns(RuntimeWarning, match=r"sigma2_\w+ .* floored at "):
        fit(floored, dims, EMConfig(epsilon=1e-3))
    assert len(exact) > 0
    assert len(built) == 1 + len(exact)


def loop_grid():
    """Narrow (400, 5) seeds 1-5 at eps 1e-3 and ``random_instance`` seeds
    0-19 at eps 1e-3 and 1e-8."""
    for seed in range(1, 6):
        dims = reference_dims(n=400, q=5)
        yield f"narrow {seed}", simulate_dataset(SimConfig(dims=dims, seed=seed))[0], dims, 1e-3
    for seed in range(20):
        data, _, _, dims = random_instance(seed)
        for epsilon in (1e-3, 1e-8):
            yield f"random {seed} at {epsilon}", data, dims, epsilon


@pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
def test_every_step_of_a_fit_matches_the_per_block_loops(monkeypatch):
    # every M-step and E-step a fit makes, floored and exact-pass ones
    # included, repeated by the per-block loops on the same input; each
    # output is compared on its own scale, since a variance near the floor
    # is the difference of two O(1) terms and keeps only a few digits
    steps = []

    def recording(name):
        def wrapper(*args):
            out = original(*args)
            # em_step reduces update_theta's output in place: keep it as returned
            steps.append((name, args, copy.copy(out)))
            return out

        original = getattr(em, name)
        monkeypatch.setattr(em, name, wrapper)

    recording("update_theta")
    recording("gram_summary")
    for label, data, dims, epsilon in loop_grid():
        steps.clear()
        fit(data, dims, EMConfig(epsilon=epsilon))
        for name, args, out in steps:
            if name == "update_theta":
                expected = flatten_theta(dense_oracle.loop_update_theta(*args))
                assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max(), label
            else:
                x, gram = args
                expected = dense_oracle.loop_gram_estep(unflatten_theta(x, dims), gram, data)
                assert_summaries_close(out, expected, label, rtol=1e-12)


@pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
def test_fit_follows_the_per_block_loop(monkeypatch):
    # The vectorized steps round differently from the loops (reduceat sums
    # against BLAS dot products, one block-diagonal product against one per
    # block), and SqS3 steps of up to alpha^2 ~ 1e4 amplify that: at eps
    # 1e-3 theta agrees to about 1e-10 of its largest coordinate (worst
    # 5.4e-11). Theta is compared on that scale, as the steps are above: a
    # coordinate of size 1e-3 carries the same absolute rounding, which
    # element-wise reads up to 7e-10, or 2e-9 for other start bits. A
    # trajectory that comes near the variance floor follows its few-digit
    # variance instead, and at eps 1e-8 near-tied accept/reject tests can
    # go either way; both are compared step by step above. At eps 1e-8 the
    # fits stop at the same maximum.
    lows = []

    def recording(projection, summary):
        theta = update(projection, summary)
        lows.append(min(theta.sigma2))
        return theta

    update = dense_oracle.loop_update_theta
    monkeypatch.setattr(dense_oracle, "loop_update_theta", recording)
    compared = 0
    for label, data, dims, epsilon in loop_grid():
        lows.clear()
        config = EMConfig(epsilon=epsilon)
        fast, loop = fit(data, dims, config), dense_oracle.loop_fit(data, dims, config)
        if min(lows) < 1e-9:
            continue
        compared += 1
        if epsilon > 1e-8:
            assert ((fast.iterations, fast.accepted, fast.rejected)
                    == (loop.iterations, loop.accepted, loop.rejected)), label
            np.testing.assert_allclose(fast.trace[:, 1], loop.trace[:, 1], rtol=1e-12, atol=0,
                                       err_msg=label)
            rtol = 1e-9
        else:
            assert fast.trace[-1, 1] == pytest.approx(loop.trace[-1, 1], rel=1e-12, abs=0), label
            rtol = 1e-6
        fast_x, loop_x = flatten_theta(fast.theta), flatten_theta(loop.theta)
        assert np.abs(fast_x - loop_x).max() <= rtol * np.abs(loop_x).max(), label
    assert compared >= 15


def test_gram_score_matches_the_nrow_oracle():
    # at the parameters the law was computed at and at its M-step update,
    # relative to max(1, |score|); the measured worst is 5.3e-13
    worst = 0.0
    for seed in range(200):
        data, _, theta, dims = random_instance(seed)
        projection = project_covariates(data)
        law = conditional_law(theta, data)
        summary = dense_oracle.summary_from_law(law, projection)
        for x in (flatten_theta(theta), update_theta(projection, summary)):
            exact = likelihood_oracle.expected_score(unflatten_theta(x, dims), law, data)
            gram = expected_score(x, summary, projection)
            worst = max(worst, np.abs(gram - exact).max() / max(1.0, np.abs(exact).max()))
    assert worst < 1.5e-12


def test_gram_score_is_the_central_difference_of_the_gram_loglik(monkeypatch):
    # Fisher's identity on the Gram path alone: at every unfloored fit of
    # seeds 0-39 the score under the law at x is the gradient of
    # gram_summary's loglik; the measured worst is 1.5e-7 of max(1, |score|)
    fits = []
    for seed in range(40):
        data, _, _, dims = random_instance(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)   # a floored variance
            try:
                fits.append((data, flatten_theta(fit(data, dims, EMConfig()).theta)))
            except RuntimeWarning:
                continue
    assert len(fits) >= 10
    gram_only(monkeypatch)
    for data, x in fits:
        projection = project_covariates(data)
        score = expected_score(x, gram_summary(x, projection), projection)
        numeric = np.empty_like(x)
        for k in range(x.size):
            step = 1e-6 * max(1.0, abs(x[k]))
            plus, minus = x.copy(), x.copy()
            plus[k] += step
            minus[k] -= step
            numeric[k] = (gram_summary(plus, projection).loglik
                          - gram_summary(minus, projection).loglik) / (2 * step)
        assert np.abs(score - numeric).max() <= 1e-6 * max(1.0, np.abs(score).max())
