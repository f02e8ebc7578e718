"""The projection's layout maps, built once per block-width layout, against
the per-fit statements they replace (``dense_oracle.uncached_projection``).

The maps are shared by every fit of a layout, so they must be read-only,
depend on every width, and be built only on a layout's first fit."""

import dataclasses
import functools

import numpy as np
import pytest

from factorem import Dataset, EMConfig, SimConfig, fit, mstep, simulate_dataset
from factorem.io import load_dataset, write_dataset
from factorem.mstep import _layout_maps, project_covariates

import dense_oracle
from conftest import random_instance, reference_dims


def assert_same_projection(data):
    projection, expected = project_covariates(data), dense_oracle.uncached_projection(data)
    for field in dataclasses.fields(expected):
        got, want = (value if isinstance(value, tuple) else (value,)
                     for value in (getattr(projection, field.name), getattr(expected, field.name)))
        assert len(got) == len(want), field.name
        for a, b in zip(got, want):
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
            else:
                assert a is b, field.name


def test_every_field_is_the_uncached_pass_bit_for_bit():
    for seed in range(200):
        assert_same_projection(random_instance(seed)[0])


def test_an_intercept_design_and_a_categorical_covariate(tmp_path):
    data, _, _ = simulate_dataset(SimConfig(dims=reference_dims(n=60, q=4), seed=3,
                                            intercept=True))
    assert_same_projection(data)
    # T1 as a three-level categorical: an intercept and two indicator columns
    write_dataset(simulate_dataset(SimConfig(dims=reference_dims(n=60, q=4), seed=1))[0],
                  tmp_path)
    levels = ["clay", "loam", "sand"]
    (tmp_path / "T1.csv").write_text(
        "soil\n" + "".join(f"{levels[i % 3]}\n" for i in range(60)))
    categorical, columns = load_dataset(tmp_path / "manifest.json")
    assert len(columns["t"][1]) == 3 and categorical.t[1].shape[1] == 3
    assert_same_projection(categorical)


def test_the_cached_maps_are_read_only():
    projection = project_covariates(random_instance(1)[0])
    maps = [projection.block, projection.own, projection.widths, *projection.starts,
            *projection.d_at]
    for array in maps:
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1
    # what the data sets stays the fit's own
    assert all(getattr(projection, name).flags.writeable
               for name in ("g", "mean", "cells", "floor", "stacked_coef", "coef_at_d"))


def test_layouts_differing_in_one_r_m_get_their_own_maps():
    rng = np.random.default_rng(0)
    z = tuple(rng.normal(size=(30, 2)) for _ in range(3))
    t = [rng.normal(size=(30, 2)) for _ in range(3)]
    wide = project_covariates(Dataset(z=z, t=tuple(t)))
    t[2] = t[2][:, :1]
    narrow = project_covariates(Dataset(z=z, t=tuple(t)))
    assert wide.block.size == narrow.block.size + 1
    assert wide.own is not narrow.own and wide.d_at[0].size == narrow.d_at[0].size + 2
    assert_same_projection(Dataset(z=z, t=tuple(t)))


def test_a_second_fit_of_a_layout_builds_no_maps(monkeypatch):
    # a cold cache for this test only: each fit below asks once, and only
    # the first fit of the (400, 5) layout builds
    monkeypatch.setattr(mstep, "_layout_maps", functools.cache(_layout_maps.__wrapped__))
    dims = reference_dims(n=400, q=5)
    for seed in (1, 2):
        data, _, _ = simulate_dataset(SimConfig(dims=dims, seed=seed))
        fit(data, dims, EMConfig())
    info = mstep._layout_maps.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    first = project_covariates(data)
    assert first.own is project_covariates(data).own
