"""Synthetic data generation for replication and sensitivity studies.

The reference design draws every factor, disturbance and noise entry as
standard normal, with coefficient matrices filled row-wise with
1, 2, 3, ... so every true parameter is a known nonzero integer. One
seed drives three independent sub-streams (factors, noise, covariates),
so each stream is reproducible on its own.
"""

from dataclasses import dataclass

import numpy as np

from .model import Dataset, Dimensions, Latents, Theta

__all__ = ["SimConfig", "reference_theta", "simulate_dataset"]

T_MODES = ("all_gaussian", "intercept_plus_gaussian")


@dataclass(frozen=True)
class SimConfig:
    """Design of one synthetic dataset.

    theta : generating parameters; None selects the integer-sequence
        scheme of ``reference_theta``
    t_mode : "all_gaussian" draws every covariate entry standard normal
        (the replication default); "intercept_plus_gaussian" fixes the
        first covariate column to the constant 1
    """

    dims: Dimensions
    seed: int = 0
    theta: Theta | None = None
    t_mode: str = "all_gaussian"

    def __post_init__(self):
        if self.t_mode not in T_MODES:
            raise ValueError(f"t_mode must be one of {T_MODES}, got {self.t_mode!r}")


def reference_theta(dims: Dimensions) -> Theta:
    """Integer-sequence parameters: D row-wise 1..r*q, loadings 1..q,
    unit structural coefficients and unit noise variances."""
    shapes = list(zip((dims.r_t, *dims.r_m), (dims.q_y, *dims.q_m)))
    return Theta(
        coef=[np.arange(1.0, r * q + 1.0).reshape(r, q) for r, q in shapes],
        loading=[np.arange(1.0, q + 1.0) for _, q in shapes],
        c=np.ones(dims.p),
        sigma2=[1.0] * (dims.p + 1),
    )


def simulate_dataset(config: SimConfig) -> tuple[Dataset, Latents, Theta]:
    """Draw one dataset plus the latent factors and parameters behind it."""
    dims = config.dims
    theta = config.theta if config.theta is not None else reference_theta(dims)
    n, p = dims.n, dims.p

    seq = np.random.SeedSequence(config.seed)
    rng_factors, rng_noise, rng_cov = (
        np.random.default_rng(child) for child in seq.spawn(3)
    )

    f = rng_factors.standard_normal((p, n))
    disturbance = rng_factors.standard_normal(n)
    g = theta.c @ f + disturbance

    def covariates(r):
        t = rng_cov.standard_normal((n, r))
        if config.t_mode == "intercept_plus_gaussian":
            t[:, 0] = 1.0
        return t

    t = [covariates(r) for r in (dims.r_t, *dims.r_m)]
    z = []
    for k, (q, factor) in enumerate(zip((dims.q_y, *dims.q_m), (g, *f))):
        zk = t[k] @ theta.coef[k] + np.outer(factor, theta.loading[k])
        zk += np.sqrt(theta.sigma2[k]) * rng_noise.standard_normal((n, q))
        z.append(zk)

    data = Dataset(
        y=z[0], x=tuple(z[1:]), t=t[0], t_m=tuple(t[1:]),
        intercept=config.t_mode == "intercept_plus_gaussian",
    )
    return data, Latents(g=g, f=f), theta
