"""Core model types: dimensions, data blocks, parameters, latent factors.

The model links one dependent block of observed variables Y to p
explanatory blocks X^1..X^p through latent factors:

    Y   = T D     + g b'      + noise        (dependent measurement)
    X^m = T^m D^m + f^m a^m'  + noise        (explanatory measurements)
    g   = f^1 c[0] + ... + f^p c[p-1] + e    (structural equation, Var(e)=1)

All factors f^m are standard normal across units; block noise is isotropic
(variance sigma2_y for Y, sigma2_m[m] for X^m).

``Theta`` stores the coefficient matrices, loadings and noise variances
block by block, Y first, so the canonical parameter vector
(``flatten_theta``) is its fields in order:

    D (row-major), D^1..D^p (row-major), b, a^1..a^p, c, sigma2_y,
    sigma2_m[0..p-1]

``_layout`` declares it once; it is the ordering used by the stopping
rule, serialized parameter tables, and every cross-fit comparison.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Dimensions",
    "Dataset",
    "Theta",
    "Latents",
    "count_parameters",
    "flatten_theta",
    "unflatten_theta",
    "theta_names",
    "subset_units",
]


@dataclass(frozen=True)
class Dimensions:
    """Block sizes; the shape contract for everything else.

    n : number of units (rows of every data block)
    p : number of explanatory blocks
    q_y : width of the dependent block Y
    q_m : widths of the explanatory blocks X^1..X^p
    r_t : width of the covariate block T attached to Y
    r_m : widths of the covariate blocks T^1..T^p
    """

    n: int
    p: int
    q_y: int
    q_m: tuple[int, ...]
    r_t: int
    r_m: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q_m", tuple(int(q) for q in self.q_m))
        object.__setattr__(self, "r_m", tuple(int(r) for r in self.r_m))
        if self.n < 1:
            raise DataError(f"need at least one unit, got n={self.n}")
        if self.p < 1:
            raise DataError(f"need at least one explanatory block, got p={self.p}")
        if len(self.q_m) != self.p or len(self.r_m) != self.p:
            raise DataError(
                f"q_m and r_m must list {self.p} widths, got "
                f"{len(self.q_m)} and {len(self.r_m)}"
            )
        widths = (self.q_y, self.r_t, *self.q_m, *self.r_m)
        if any(w < 1 for w in widths):
            raise DataError(f"all block widths must be >= 1, got {widths}")

    @property
    def q_total(self) -> int:
        """Total width of the stacked observation vector."""
        return self.q_y + sum(self.q_m)


def _as_matrix(arr, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.ndim != 2:
        raise DataError(f"block {name} must be a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DataError(f"block {name} contains non-finite entries")
    return a


@dataclass
class Dataset:
    """Observed blocks and their covariates, one row per unit.

    y : (n, q_y) dependent block
    x : p explanatory blocks, x[m] of shape (n, q_m[m])
    t : (n, r_t) covariates for y
    t_m : p covariate blocks, t_m[m] of shape (n, r_m[m])
    intercept : when True, column 0 of t and of every t_m must be the
        constant 1 (validated at construction)

    Treated as immutable after construction; safe to share across workers.
    """

    y: np.ndarray
    x: tuple[np.ndarray, ...]
    t: np.ndarray
    t_m: tuple[np.ndarray, ...]
    intercept: bool = False

    def __post_init__(self):
        self.y = _as_matrix(self.y, "Y")
        self.t = _as_matrix(self.t, "T")
        self.x = tuple(_as_matrix(xm, f"X{m + 1}") for m, xm in enumerate(self.x))
        self.t_m = tuple(_as_matrix(tm, f"T{m + 1}") for m, tm in enumerate(self.t_m))
        if len(self.x) != len(self.t_m):
            raise DataError(
                f"{len(self.x)} explanatory blocks but {len(self.t_m)} covariate blocks"
            )
        if not self.x:
            raise DataError("need at least one explanatory block")
        n = self.y.shape[0]
        for name, block in self._named_blocks():
            if block.shape[0] != n:
                raise DataError(
                    f"row count mismatch: Y has {n} rows but {name} has {block.shape[0]}"
                )
        if self.intercept:
            for name, block in [("T", self.t)] + [
                (f"T{m + 1}", tm) for m, tm in enumerate(self.t_m)
            ]:
                if not np.array_equal(block[:, 0], np.ones(n)):
                    raise DataError(
                        f"intercept flag set but column 1 of {name} is not constant 1"
                    )

    def _named_blocks(self):
        yield "T", self.t
        for m, xm in enumerate(self.x):
            yield f"X{m + 1}", xm
        for m, tm in enumerate(self.t_m):
            yield f"T{m + 1}", tm

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return len(self.x)

    def dimensions(self) -> Dimensions:
        return Dimensions(
            n=self.n,
            p=self.p,
            q_y=self.y.shape[1],
            q_m=tuple(xm.shape[1] for xm in self.x),
            r_t=self.t.shape[1],
            r_m=tuple(tm.shape[1] for tm in self.t_m),
        )


def subset_units(data: Dataset, indices: np.ndarray) -> Dataset:
    """Dataset restricted to the given unit rows (in the given order)."""
    idx = np.asarray(indices)
    return Dataset(
        y=data.y[idx],
        x=tuple(xm[idx] for xm in data.x),
        t=data.t[idx],
        t_m=tuple(tm[idx] for tm in data.t_m),
        intercept=data.intercept,
    )


@dataclass
class Theta:
    """Full parameter set of the model, stored per measurement block:
    block 0 is Y, block m is X^m.

    coef : p+1 covariate coefficient matrices, D of shape (r_t, q_y)
        first, then D^m of shape (r_m[m], q_m[m])
    loading : p+1 loading vectors, b of shape (q_y,) first, then a^m
        of shape (q_m[m],)
    c : (p,) structural coefficients of g on f^1..f^p
    sigma2 : p+1 noise variances, sigma2_Y first, then sigma2_m

    Variances must be nonnegative; operations that need a nonsingular
    observation covariance reject zero variances themselves.
    """

    coef: tuple[np.ndarray, ...]
    loading: tuple[np.ndarray, ...]
    c: np.ndarray
    sigma2: tuple[float, ...]

    def __post_init__(self):
        self.coef = tuple(np.asarray(d, dtype=float) for d in self.coef)
        self.loading = tuple(np.asarray(lam, dtype=float) for lam in self.loading)
        self.c = np.asarray(self.c, dtype=float)
        self.sigma2 = tuple(float(s) for s in self.sigma2)
        blocks = len(self.c) + 1
        if not (len(self.coef) == len(self.loading) == len(self.sigma2) == blocks):
            raise DataError(
                "inconsistent block count across coef, loading, c, sigma2: "
                f"{len(self.coef)}, {len(self.loading)}, {blocks} (p+1), "
                f"{len(self.sigma2)}"
            )
        for k, (d, lam) in enumerate(zip(self.coef, self.loading)):
            if d.ndim != 2 or lam.ndim != 1 or d.shape[1] != lam.shape[0]:
                raise DataError(
                    f"coef[{k}] {d.shape} and loading[{k}] {lam.shape} "
                    "disagree on width"
                )
        if min(self.sigma2) < 0:
            raise DataError("noise variances must be nonnegative")

    @property
    def p(self) -> int:
        return len(self.c)


@dataclass
class Latents:
    """Per-unit latent factor values.

    g : (n,) dependent factor
    f : (p, n) explanatory factors, one row per block
    """

    g: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.f = np.atleast_2d(np.asarray(self.f, dtype=float))
        if self.f.shape[1] != self.g.shape[0]:
            raise DataError(
                f"factor length mismatch: g has {self.g.shape[0]} units, "
                f"f has {self.f.shape[1]}"
            )


def _layout(dims: Dimensions) -> list[tuple[str, tuple[int, ...]]]:
    """The canonical vector as (name, shape) parts, in order: the fields
    of ``Theta``, each block by block (Y first)."""
    ids = ["", *(str(m) for m in range(1, dims.p + 1))]
    shapes = list(zip((dims.r_t, *dims.r_m), (dims.q_y, *dims.q_m)))
    return (
        [(f"D{k}", shape) for k, shape in zip(ids, shapes)]
        + [(f"a{k}" if k else "b", (q,)) for k, (_, q) in zip(ids, shapes)]
        + [(f"c{k}", ()) for k in ids[1:]]
        + [(f"sigma2_{k or 'Y'}", ()) for k in ids]
    )


def count_parameters(dims: Dimensions) -> int:
    """Number of scalar parameters K: covariate coefficients, loadings,
    structural coefficients and one noise variance per block."""
    return sum(math.prod(shape) for _, shape in _layout(dims))


def flatten_parts(coef, loading, c, sigma2) -> np.ndarray:
    """Concatenate parameter-shaped components in the canonical order.

    Shared by ``flatten_theta`` and gradient flattening so that every
    K-vector in the package uses the same coordinate layout.
    """
    parts = [*coef, *loading, c, sigma2]
    return np.concatenate([np.asarray(part, dtype=float).ravel() for part in parts])


def flatten_theta(theta: Theta) -> np.ndarray:
    """Canonical K-vector of all scalar parameters (ordering in module doc)."""
    return flatten_parts(theta.coef, theta.loading, theta.c, theta.sigma2)


def unflatten_theta(vector: np.ndarray, dims: Dimensions) -> Theta:
    """Inverse of ``flatten_theta`` for the given dimensions."""
    v = np.asarray(vector, dtype=float)
    layout = _layout(dims)
    sizes = [math.prod(shape) for _, shape in layout]
    if v.ndim != 1 or v.shape[0] != sum(sizes):
        raise DataError(
            f"parameter vector has length {v.shape[0] if v.ndim == 1 else v.shape}, "
            f"expected {sum(sizes)} for these dimensions"
        )
    parts, pos = [], 0
    for (_, shape), size in zip(layout, sizes):
        parts.append(v[pos:pos + size].reshape(shape))
        pos += size
    k = dims.p + 1
    return Theta(coef=parts[:k], loading=parts[k:2 * k], c=parts[2 * k:-k],
                 sigma2=parts[-k:])


def theta_names(dims: Dimensions) -> list[str]:
    """Human-readable name of each coordinate of the canonical vector.

    Indices are 1-based to match conventional parameter tables.
    """
    return [
        name + (f"[{','.join(str(i + 1) for i in index)}]" if index else "")
        for name, shape in _layout(dims)
        for index in np.ndindex(*shape)
    ]
