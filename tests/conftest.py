"""Shared builders for randomized model instances and the scalar toy."""

import numpy as np

from factorem import Dimensions, SimConfig, Theta, simulate_dataset


def random_dims(rng, n_range=(8, 40), max_p=3, max_q=4, max_r=3) -> Dimensions:
    p = int(rng.integers(1, max_p + 1))
    return Dimensions(
        n=int(rng.integers(*n_range)),
        p=p,
        q_y=int(rng.integers(1, max_q + 1)),
        q_m=tuple(int(rng.integers(1, max_q + 1)) for _ in range(p)),
        r_t=int(rng.integers(1, max_r + 1)),
        r_m=tuple(int(rng.integers(1, max_r + 1)) for _ in range(p)),
    )


def random_theta(dims: Dimensions, rng) -> Theta:
    return Theta(
        coef=tuple(rng.normal(size=shape) for shape in zip(dims.r, dims.q)),
        loading=tuple(rng.normal(size=q) + 0.5 for q in dims.q),
        c=rng.normal(size=dims.p),
        sigma2=(
            float(rng.uniform(0.5, 2.0)),
            *(float(s) for s in rng.uniform(0.5, 2.0, size=dims.p)),
        ),
    )


def random_instance(seed, dims=None):
    """Simulated dataset, its (n, p+1) true latents h, and the random
    parameter draw behind it."""
    rng = np.random.default_rng(seed)
    if dims is None:
        dims = random_dims(rng)
    theta = random_theta(dims, rng)
    data, h, _ = simulate_dataset(SimConfig(dims=dims, seed=seed + 1, theta=theta))
    return data, h, theta, dims


def scalar_toy_theta() -> Theta:
    """p=2 with one variable per block: every loading 1, c=(1,1), unit noise."""
    return Theta(
        coef=(np.zeros((1, 1)),) * 3,
        loading=(np.ones(1),) * 3,
        c=np.array([1.0, 1.0]),
        sigma2=(1.0, 1.0, 1.0),
    )


def reference_dims(n=400, q=40) -> Dimensions:
    return Dimensions(n=n, p=2, q_y=q, q_m=(q, q), r_t=2, r_m=(2, 2))
