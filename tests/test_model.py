import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorem import Dataset, Dimensions, Theta, flatten_theta
from factorem.model import count_parameters, subset_units, theta_names, unflatten_theta
from factorem.errors import DataError

from conftest import reference_dims, random_dims, random_theta


class TestCountParameters:
    def test_reference_design_isotropic(self):
        assert count_parameters(reference_dims()) == 365

    def test_smallest_model(self):
        dims = Dimensions(n=1, p=1, q_y=1, q_m=(1,), r_t=1, r_m=(1,))
        assert count_parameters(dims) == 7

    def test_two_block_isotropic_reduction(self):
        # for p=2 the isotropic count collapses to 5 + sum q(r+1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            dims = random_dims(rng)
            if dims.p != 2:
                continue
            expected = (
                5
                + dims.q_y * (dims.r_t + 1)
                + sum(q * (r + 1) for q, r in zip(dims.q_m, dims.r_m))
            )
            assert count_parameters(dims) == expected


class TestFlatten:
    def test_reference_length(self):
        rng = np.random.default_rng(1)
        theta = random_theta(reference_dims(), rng)
        assert flatten_theta(theta).shape == (365,)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        theta = random_theta(dims, rng)
        vector = flatten_theta(theta)
        back = unflatten_theta(vector, dims)
        np.testing.assert_array_equal(flatten_theta(back), vector)

    def test_zero_theta_has_unit_variances_only(self):
        dims = Dimensions(n=1, p=2, q_y=3, q_m=(2, 2), r_t=2, r_m=(1, 1))
        theta = Theta(
            coef=(np.zeros((2, 3)), np.zeros((1, 2)), np.zeros((1, 2))),
            loading=(np.zeros(3), np.zeros(2), np.zeros(2)),
            c=np.zeros(2),
            sigma2=(1.0, 1.0, 1.0),
        )
        vector = flatten_theta(theta)
        assert int(np.sum(vector == 1.0)) == dims.p + 1
        assert int(np.sum(vector == 0.0)) == vector.size - (dims.p + 1)

    def test_length_mismatch_rejected(self):
        dims = Dimensions(n=1, p=1, q_y=1, q_m=(1,), r_t=1, r_m=(1,))
        with pytest.raises(DataError):
            unflatten_theta(np.zeros(8), dims)

    def test_documented_ordering(self):
        dims = Dimensions(n=1, p=1, q_y=2, q_m=(1,), r_t=1, r_m=(1,))
        theta = Theta(
            coef=([[1.0, 2.0]], [[3.0]]), loading=([4.0, 5.0], [6.0]),
            c=[7.0], sigma2=(8.0, 9.0),
        )
        np.testing.assert_array_equal(
            flatten_theta(theta), [1, 2, 3, 4, 5, 6, 7, 8, 9]
        )

    def test_names_align_with_ordering(self):
        dims = reference_dims()
        names = theta_names(dims)
        assert len(names) == 365
        assert names[0] == "D[1,1]"
        assert names[40] == "D[2,1]"
        assert names[240] == "b[1]"
        assert names[-4] == "c2"
        assert names[-3] == "sigma2_Y"
        assert names[-1] == "sigma2_2"

    def test_names_follow_the_documented_ordering_on_random_designs(self):
        rng = np.random.default_rng(7)
        seen_p = set()
        for _ in range(100):
            dims = random_dims(rng)
            seen_p.add(dims.p)
            expected = [
                f"D[{r + 1},{j + 1}]" for r in range(dims.r_t) for j in range(dims.q_y)
            ]
            for m, (q, r_w) in enumerate(zip(dims.q_m, dims.r_m), start=1):
                expected += [
                    f"D{m}[{r + 1},{j + 1}]" for r in range(r_w) for j in range(q)
                ]
            expected += [f"b[{j + 1}]" for j in range(dims.q_y)]
            for m, q in enumerate(dims.q_m, start=1):
                expected += [f"a{m}[{j + 1}]" for j in range(q)]
            expected += [f"c{m}" for m in range(1, dims.p + 1)]
            expected.append("sigma2_Y")
            expected += [f"sigma2_{m}" for m in range(1, dims.p + 1)]

            names = theta_names(dims)
            assert names == expected
            assert len(set(names)) == len(names)
            size = flatten_theta(random_theta(dims, rng)).size
            assert len(names) == count_parameters(dims) == size
        assert seen_p == {1, 2, 3}


class TestValidation:
    def test_fractional_width_rejected(self):
        # it used to be truncated to (5, 5)
        with pytest.raises(DataError, match=r"q_m must be an integer, got 5\.7"):
            Dimensions(n=10, p=2, q_y=5, q_m=(5.7, 5), r_t=1, r_m=(1, 1))

    def test_dimension_invariants(self):
        with pytest.raises(DataError):
            Dimensions(n=0, p=1, q_y=1, q_m=(1,), r_t=1, r_m=(1,))
        with pytest.raises(DataError):
            Dimensions(n=1, p=0, q_y=1, q_m=(), r_t=1, r_m=())
        with pytest.raises(DataError):
            Dimensions(n=1, p=2, q_y=1, q_m=(1,), r_t=1, r_m=(1, 1))

    @pytest.mark.parametrize("build, message", [
        (lambda: Dimensions(n=3, p=1, q_y=0, q_m=(1,), r_t=1, r_m=(1,)),
         "all block widths must be >= 1"),
        (lambda: Dataset(z=(np.zeros(3), np.zeros((3, 1))), t=(np.zeros((3, 1)),) * 2),
         "block Y must be a 2-D matrix, got ndim=1"),
        (lambda: Dataset(z=(np.zeros((3, 1)),) * 3, t=(np.zeros((3, 1)),) * 2),
         "2 explanatory blocks but 1 covariate blocks"),
        (lambda: Dataset(z=(np.zeros((3, 1)),), t=(np.zeros((3, 1)),)),
         "need at least one explanatory block"),
        (lambda: Theta(coef=(np.zeros((1, 1)),) * 2, loading=(np.zeros(1),) * 2,
                       c=np.zeros(2), sigma2=(1.0, 1.0)),
         "inconsistent block count"),
        (lambda: Theta(coef=(np.zeros((1, 2)), np.zeros((1, 1))),
                       loading=(np.zeros(1),) * 2, c=np.zeros(1), sigma2=(1.0, 1.0)),
         r"coef\[0\] \(1, 2\) and loading\[0\] \(1,\) disagree on width"),
    ], ids=["zero-width", "1-d-block", "z-t-count", "no-x-block", "theta-blocks",
            "theta-width"])
    def test_malformed_blocks_rejected(self, build, message):
        with pytest.raises(DataError, match=message):
            build()

    def test_row_count_mismatch_names_blocks(self):
        with pytest.raises(DataError, match="X1"):
            Dataset(
                z=(np.zeros((4, 2)), np.zeros((5, 2))),
                t=(np.zeros((4, 1)), np.zeros((4, 1))),
            )

    def test_non_finite_rejected(self):
        y = np.zeros((3, 2))
        y[0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            Dataset(z=(y, np.zeros((3, 2))), t=(np.zeros((3, 1)), np.zeros((3, 1))))

    def test_intercept_flag_enforced(self):
        z = (np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(DataError, match="T1"):
            Dataset(z=z, t=(np.ones((3, 2)), np.zeros((3, 1))), intercept=True)
        Dataset(z=z, t=(np.ones((3, 2)), np.ones((3, 1))), intercept=True)

    def test_negative_variance_rejected(self):
        with pytest.raises(DataError):
            Theta(coef=(np.zeros((1, 1)),) * 2, loading=(np.zeros(1),) * 2,
                  c=np.zeros(1), sigma2=(-1.0, 1.0))


def test_subset_units_keeps_order():
    rng = np.random.default_rng(5)
    data = Dataset(
        z=(rng.normal(size=(6, 2)), rng.normal(size=(6, 3))),
        t=(rng.normal(size=(6, 1)), rng.normal(size=(6, 2))),
    )
    sub = subset_units(data, np.array([4, 1]))
    np.testing.assert_array_equal(sub.z[0], data.z[0][[4, 1]])
    np.testing.assert_array_equal(sub.z[1], data.z[1][[4, 1]])
    assert sub.n == 2
