"""Core model types: dimensions, data blocks, parameters, latent factors.

The model links one dependent block of observed variables Y to p
explanatory blocks X^1..X^p through latent factors:

    Y   = T D     + g b'      + noise        (dependent measurement)
    X^m = T^m D^m + f^m a^m'  + noise        (explanatory measurements)
    g   = f^1 c[0] + ... + f^p c[p-1] + e    (structural equation, Var(e)=1)

All factors f^m are standard normal across units; block noise is isotropic
(variance sigma2_y for Y, sigma2_m[m] for X^m).

The canonical parameter vector (``flatten_theta``) is frozen as:

    D (row-major), D^1..D^p (row-major), b, a^1..a^p, c, sigma2_y,
    sigma2_m[0..p-1]

and is the ordering used by the stopping rule, serialized parameter
tables, and every cross-fit comparison.
"""

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
    """Full parameter set of the model.

    d : (r_t, q_y) covariate coefficients for Y
    d_m : p matrices, d_m[m] of shape (r_m[m], q_m[m])
    b : (q_y,) loadings of Y on the dependent factor g
    a_m : p loading vectors, a_m[m] of shape (q_m[m],)
    c : (p,) structural coefficients of g on f^1..f^p
    sigma2_y : noise variance of the Y block
    sigma2_m : p noise variances of the X blocks

    Variances must be nonnegative; operations that need a nonsingular
    observation covariance reject zero variances themselves.
    """

    d: np.ndarray
    d_m: tuple[np.ndarray, ...]
    b: np.ndarray
    a_m: tuple[np.ndarray, ...]
    c: np.ndarray
    sigma2_y: float
    sigma2_m: tuple[float, ...]

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.d_m = tuple(np.asarray(dm, dtype=float) for dm in self.d_m)
        self.a_m = tuple(np.asarray(am, dtype=float) for am in self.a_m)
        self.sigma2_y = float(self.sigma2_y)
        self.sigma2_m = tuple(float(s) for s in self.sigma2_m)
        p = len(self.c)
        if not (len(self.d_m) == len(self.a_m) == len(self.sigma2_m) == p):
            raise DataError(
                "inconsistent block count across d_m, a_m, c, sigma2_m: "
                f"{len(self.d_m)}, {len(self.a_m)}, {p}, {len(self.sigma2_m)}"
            )
        if self.d.ndim != 2 or self.b.ndim != 1 or self.d.shape[1] != self.b.shape[0]:
            raise DataError(
                f"d {self.d.shape} and b {self.b.shape} disagree on the Y width"
            )
        for m, (dm, am) in enumerate(zip(self.d_m, self.a_m)):
            if dm.ndim != 2 or am.ndim != 1 or dm.shape[1] != am.shape[0]:
                raise DataError(
                    f"d_m[{m}] {dm.shape} and a_m[{m}] {am.shape} disagree on width"
                )
        if self.sigma2_y < 0 or any(s < 0 for s in self.sigma2_m):
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


def count_parameters(dims: Dimensions) -> int:
    """Number of scalar parameters K: covariate coefficients, loadings,
    structural coefficients and one noise variance per block."""
    return (
        dims.p
        + (dims.p + 1)
        + dims.q_y * (dims.r_t + 1)
        + sum(q * (r + 1) for q, r in zip(dims.q_m, dims.r_m))
    )


def flatten_parts(d, d_m, b, a_m, c, scalar_y, scalar_m) -> np.ndarray:
    """Concatenate parameter-shaped components in the canonical order.

    Shared by ``flatten_theta`` and gradient flattening so that every
    K-vector in the package uses the same coordinate layout.
    """
    parts = [np.asarray(d, dtype=float).ravel()]
    parts += [np.asarray(dm, dtype=float).ravel() for dm in d_m]
    parts.append(np.asarray(b, dtype=float))
    parts += [np.asarray(am, dtype=float) for am in a_m]
    parts.append(np.asarray(c, dtype=float))
    parts.append(np.asarray([scalar_y], dtype=float))
    parts.append(np.asarray(scalar_m, dtype=float))
    return np.concatenate(parts)


def flatten_theta(theta: Theta) -> np.ndarray:
    """Canonical K-vector of all scalar parameters (ordering in module doc)."""
    return flatten_parts(
        theta.d, theta.d_m, theta.b, theta.a_m, theta.c,
        theta.sigma2_y, theta.sigma2_m,
    )


def unflatten_theta(vector: np.ndarray, dims: Dimensions) -> Theta:
    """Inverse of ``flatten_theta`` for the given dimensions."""
    v = np.asarray(vector, dtype=float)
    expected = count_parameters(dims)
    if v.ndim != 1 or v.shape[0] != expected:
        raise DataError(
            f"parameter vector has length {v.shape[0] if v.ndim == 1 else v.shape}, "
            f"expected {expected} for these dimensions"
        )
    pos = 0

    def take(k):
        nonlocal pos
        out = v[pos:pos + k]
        pos += k
        return out

    d = take(dims.r_t * dims.q_y).reshape(dims.r_t, dims.q_y)
    d_m = tuple(
        take(r * q).reshape(r, q) for q, r in zip(dims.q_m, dims.r_m)
    )
    b = take(dims.q_y)
    a_m = tuple(take(q) for q in dims.q_m)
    c = take(dims.p)
    sigma2_y = take(1)[0]
    sigma2_m = tuple(take(dims.p))
    return Theta(d=d, d_m=d_m, b=b, a_m=a_m, c=c,
                 sigma2_y=sigma2_y, sigma2_m=sigma2_m)


def theta_names(dims: Dimensions) -> list[str]:
    """Human-readable name of each coordinate of the canonical vector.

    Indices are 1-based to match conventional parameter tables.
    """
    names = [
        f"D[{r + 1},{j + 1}]"
        for r in range(dims.r_t)
        for j in range(dims.q_y)
    ]
    for m, (q, r_w) in enumerate(zip(dims.q_m, dims.r_m), start=1):
        names += [
            f"D{m}[{r + 1},{j + 1}]" for r in range(r_w) for j in range(q)
        ]
    names += [f"b[{j + 1}]" for j in range(dims.q_y)]
    for m, q in enumerate(dims.q_m, start=1):
        names += [f"a{m}[{j + 1}]" for j in range(q)]
    names += [f"c{m}" for m in range(1, dims.p + 1)]
    names.append("sigma2_Y")
    names += [f"sigma2_{m}" for m in range(1, dims.p + 1)]
    return names
