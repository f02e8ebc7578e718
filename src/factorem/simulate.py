"""Synthetic data generation for replication and sensitivity studies.

The reference design draws every factor, disturbance and noise entry as
standard normal, with coefficient matrices filled row-wise with
1, 2, 3, ... so every true parameter is a known nonzero integer. One
seed drives three independent sub-streams (factors, noise, covariates),
so each stream is reproducible on its own.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .model import Dataset, Dimensions, Theta, check_theta_shapes

__all__ = ["SimConfig", "reference_theta", "simulate_dataset"]


@dataclass(frozen=True)
class SimConfig:
    """Design of one synthetic dataset.

    seed : root of the three random sub-streams; DataError if negative
    theta : generating parameters; None selects the integer-sequence
        scheme of ``reference_theta``. Raises DataError naming the block
        where a given theta does not fit ``dims``.
    intercept : False draws every covariate entry standard normal (the
        replication default); True fixes the first covariate column of
        every block to the constant 1
    """

    dims: Dimensions
    seed: int = 0
    theta: Theta | None = None
    intercept: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.theta is not None:
            check_theta_shapes(self.theta, list(zip(self.dims.r, self.dims.q)), "dims")


def reference_theta(dims: Dimensions) -> Theta:
    """Integer-sequence parameters: D row-wise 1..r*q, loadings 1..q,
    unit structural coefficients and unit noise variances."""
    return Theta(
        coef=[np.arange(1.0, r * q + 1.0).reshape(r, q) for r, q in zip(dims.r, dims.q)],
        loading=[np.arange(1.0, q + 1.0) for q in dims.q],
        c=np.ones(dims.p),
        sigma2=[1.0] * (dims.p + 1),
    )


def simulate_dataset(config: SimConfig) -> tuple[Dataset, np.ndarray, Theta]:
    """Draw one dataset plus the latent factors and parameters behind it.

    Returns (data, h, theta): h is the (n, p+1) array of true latents,
    g in column 0 and f^m in column m, the layout of ``ConditionalLaw.m``.
    """
    dims = config.dims
    theta = config.theta if config.theta is not None else reference_theta(dims)
    n, p = dims.n, dims.p

    seq = np.random.SeedSequence(config.seed)
    rng_factors, rng_noise, rng_cov = (
        np.random.default_rng(child) for child in seq.spawn(3)
    )

    f = rng_factors.standard_normal((p, n))
    disturbance = rng_factors.standard_normal(n)
    h = np.column_stack([theta.c @ f + disturbance, f.T])

    def covariates(r):
        t = rng_cov.standard_normal((n, r))
        if config.intercept:
            t[:, 0] = 1.0
        return t

    t = [covariates(r) for r in dims.r]
    z = []
    for k, (q, factor) in enumerate(zip(dims.q, h.T)):
        zk = t[k] @ theta.coef[k] + np.outer(factor, theta.loading[k])
        zk += np.sqrt(theta.sigma2[k]) * rng_noise.standard_normal((n, q))
        z.append(zk)

    data = Dataset(z=tuple(z), t=tuple(t), intercept=config.intercept)
    return data, h, theta
