"""Core model types: dimensions, data blocks, parameters.

The model links one dependent block of observed variables Y to p
explanatory blocks X^1..X^p through latent factors:

    Y   = T D     + g b'      + noise        (dependent measurement)
    X^m = T^m D^m + f^m a^m'  + noise        (explanatory measurements)
    g   = f^1 c[0] + ... + f^p c[p-1] + e    (structural equation, Var(e)=1)

All factors f^m are standard normal across units; block noise is isotropic
(variance sigma2_y for Y, sigma2_m[m] for X^m).

``Dataset`` stores the observed and covariate blocks, and ``Theta`` the
coefficient matrices, loadings and noise variances, block by block with
Y first; ``block_label`` names the blocks. The canonical parameter
vector (``flatten_theta``) is the fields of ``Theta`` in order:

    D (row-major), D^1..D^p (row-major), b, a^1..a^p, c, sigma2_y,
    sigma2_m[0..p-1]

``layout`` declares it once, ``flatten_theta``/``unflatten_theta`` pack
and split it, and the fit's E- and M-steps read it in place by field,
through ``mstep.Projection.fields``; it is the ordering used by the EM loop
and its stopping rule, serialized parameter tables, and every cross-fit
comparison.

Per-unit latents, simulated or estimated, are one (n, p+1) array h with
g in column 0 and f^m in column m, named by ``block_label("h", k)``.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "Dimensions",
    "Dataset",
    "Theta",
    "block_label",
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

    ``q`` and ``r`` list the same widths per block, Y (and T) first.
    """

    n: int
    p: int
    q_y: int
    q_m: tuple[int, ...]
    r_t: int
    r_m: tuple[int, ...]

    def __post_init__(self):
        for name in ("n", "p", "q_y", "r_t"):
            object.__setattr__(self, name, as_count(getattr(self, name), name, 1))
        for name in ("q_m", "r_m"):
            counts = tuple(as_count(w, name, 1) for w in getattr(self, name))
            object.__setattr__(self, name, counts)
        if len(self.q_m) != self.p or len(self.r_m) != self.p:
            raise DataError(
                f"q_m and r_m must list {self.p} widths, got "
                f"{len(self.q_m)} and {len(self.r_m)}"
            )

    @property
    def q(self) -> tuple[int, ...]:
        """Widths of the p+1 measurement blocks: Y, then X^1..X^p."""
        return (self.q_y, *self.q_m)

    @property
    def r(self) -> tuple[int, ...]:
        """Widths of the p+1 covariate blocks: T, then T^1..T^p."""
        return (self.r_t, *self.r_m)

    @property
    def q_total(self) -> int:
        """Total width of the stacked observation vector."""
        return sum(self.q)


def as_count(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; DataError naming ``name`` unless it is an
    integer (a bool is not) and at least ``minimum``, when one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DataError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _as_matrix(arr, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.ndim != 2:
        raise DataError(f"block {name} must be a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise DataError(f"block {name} contains non-finite entries; the first is "
                        f"{float(a[i, j])!r} at unit row {i + 1}, column {j + 1}")
    return a


@dataclass
class Dataset:
    """Observed blocks and their covariates, one row per unit, stored per
    measurement block like ``Theta``: block 0 is Y, block m is X^m.

    z : p+1 observed blocks, Y of shape (n, q_y) first, then X^m of
        shape (n, q_m[m])
    t : p+1 covariate blocks, T of shape (n, r_t) first, then T^m of
        shape (n, r_m[m])
    intercept : when True, column 0 of every covariate block must be the
        constant 1 (validated at construction)

    Its shape is built and checked at construction (``dimensions()``): no
    units, or a block without columns, is a DataError. Treated as immutable.
    """

    z: tuple[np.ndarray, ...]
    t: tuple[np.ndarray, ...]
    intercept: bool = False
    _dims: Dimensions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.z = tuple(_as_matrix(b, block_label("Z", k)) for k, b in enumerate(self.z))
        self.t = tuple(_as_matrix(b, block_label("T", k)) for k, b in enumerate(self.t))
        if len(self.z) != len(self.t):
            raise DataError(
                f"{len(self.z) - 1} explanatory blocks but {len(self.t) - 1} "
                "covariate blocks"
            )
        if len(self.z) < 2:
            raise DataError("need at least one explanatory block")
        n = self.n
        for k, (z, t) in enumerate(zip(self.z, self.t)):
            for name, block in ((block_label("Z", k), z), (block_label("T", k), t)):
                if block.shape[0] != n:
                    raise DataError(f"row count mismatch: Y has {n} rows but {name} "
                                    f"has {block.shape[0]}")
        q, r = ([b.shape[1] for b in blocks] for blocks in (self.z, self.t))
        self._dims = Dimensions(n=n, p=self.p, q_y=q[0], q_m=q[1:], r_t=r[0], r_m=r[1:])
        for k, t in enumerate(self.t):
            if self.intercept and not np.array_equal(t[:, 0], np.ones(n)):
                raise DataError(f"intercept flag set but column 1 of "
                                f"{block_label('T', k)} is not constant 1")

    @property
    def n(self) -> int:
        return self.z[0].shape[0]

    @property
    def p(self) -> int:
        return len(self.z) - 1

    def dimensions(self) -> Dimensions:
        """The blocks' shape, as built at construction."""
        return self._dims


def subset_units(data: Dataset, indices: np.ndarray) -> Dataset:
    """Dataset restricted to the given unit rows (in the given order)."""
    idx = np.asarray(indices)
    return Dataset(
        z=tuple(z[idx] for z in data.z),
        t=tuple(t[idx] for t in data.t),
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

    Entries must be finite (a DataError names the first part that is not)
    and variances nonnegative; operations that need a nonsingular
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
        if self.c.ndim != 1:
            raise DataError(f"c must be a vector, got shape {self.c.shape}")
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
        if not np.isfinite(flatten_theta(self)).all():    # one check; then find the part
            labels = [block_label(family, k) for family in ("D", "loading") for k in range(blocks)]
            labels += ["c", *(block_label("sigma2", k) for k in range(blocks))]
            for label, part in zip(labels, [*self.coef, *self.loading, self.c, *self.sigma2]):
                if not np.isfinite(part).all():
                    raise DataError(f"theta's {label} has a non-finite entry")
        if min(self.sigma2) < 0:
            raise DataError("noise variances must be nonnegative")

    @property
    def p(self) -> int:
        return len(self.c)


def check_theta_shapes(theta: Theta, dims: Dimensions, against: str) -> None:
    """DataError naming the block count, or the first block and shape,
    where ``theta`` disagrees with ``dims``, the ``Dimensions`` of ``against``."""
    if theta.p != dims.p:
        raise DataError(f"theta has {theta.p} explanatory blocks but {against} has {dims.p}")
    for k, (coef, shape) in enumerate(zip(theta.coef, zip(dims.r, dims.q))):
        if coef.shape != shape:
            raise DataError(f"theta block {block_label('D', k)} has shape {coef.shape} "
                            f"but {against} needs {shape}")


# (block 0, stem of block k >= 1) of each per-block family; block 0 is Y
_LABELS = {"Z": ("Y", "X"), "T": ("T", "T"), "D": ("D", "D"), "loading": ("b", "a"),
           "sigma2": ("sigma2_Y", "sigma2_"), "h": ("g", "f")}


def block_label(family: str, k: int) -> str:
    """Name of block k's member of ``family``: "Z" (Y, X1..), "T" (T,
    T1..), "D" (D, D1..), "loading" (b, a1..), "sigma2" (sigma2_Y,
    sigma2_1..) or "h" (the factors g, f1..)."""
    first, stem = _LABELS[family]
    return f"{stem}{k}" if k else first


@functools.cache
def layout(q: tuple[int, ...], r: tuple[int, ...]) -> tuple[tuple, list, dict]:
    """The canonical vector's layout for block widths q and r, shared read-only
    by their fits: its (name, shape, slice) parts, the fields of ``Theta`` in
    order, each block by block (Y first); each block's columns of [Z_0..Z_p,
    T_0..T_p]; and the maps of ``mstep.Projection``, ``fields`` cut as the parts."""
    k, nz = len(q), sum(q)
    groups = ([(block_label("D", j), shape) for j, shape in enumerate(zip(r, q))],
              [(block_label("loading", j), (width,)) for j, width in enumerate(q)],
              [(f"c{j}", ()) for j in range(1, k)],
              [(block_label("sigma2", j), ()) for j in range(k)])
    parts = [part for group in groups for part in group]
    edges = list(itertools.accumulate((math.prod(shape) for _, shape in parts), initial=0))
    cuts = [edges[i] for i in itertools.accumulate(map(len, groups), initial=0)]
    columns = list(itertools.accumulate(q + r, initial=0))
    block = np.repeat([*range(k), *range(k)], q + r)
    maps = dict(block=block, own=np.arange(columns[-1]) * k + block, widths=np.array(q),
                starts=(np.array(columns[:k]), np.array(columns[k:2 * k]) - nz),
                d_at=np.nonzero(block[nz:, None] == block[:nz]),  # each D row-major, as in parts
                fields=tuple(slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])))
    for array in (block, maps["own"], maps["widths"], *maps["starts"], *maps["d_at"]):
        array.flags.writeable = False
    return (tuple((*part, slice(lo, hi)) for part, lo, hi in zip(parts, edges, edges[1:])),
            [slice(lo, hi) for lo, hi in zip(columns, columns[1:])], maps)


def flatten_theta(theta: Theta) -> np.ndarray:
    """Canonical K-vector of all scalar parameters (ordering in module doc)."""
    parts = [*theta.coef, *theta.loading, theta.c, theta.sigma2]
    return np.concatenate([np.asarray(part, dtype=float).ravel() for part in parts])


def unflatten_theta(vector: np.ndarray, dims: Dimensions) -> Theta:
    """Inverse of ``flatten_theta`` for the given dimensions."""
    v = np.asarray(vector, dtype=float)
    parts = layout(dims.q, dims.r)[0]
    size = parts[-1][2].stop
    if v.ndim != 1 or v.shape[0] != size:
        raise DataError(
            f"parameter vector has length {v.shape[0] if v.ndim == 1 else v.shape}, "
            f"expected {size} for these dimensions"
        )
    parts = [v[cut].reshape(shape) for _, shape, cut in parts]
    k = dims.p + 1
    return Theta(parts[:k], parts[k:2 * k], np.array(parts[2 * k:-k]), parts[-k:])


def theta_names(dims: Dimensions) -> list[str]:
    """Human-readable name of each coordinate of the canonical vector.

    Indices are 1-based to match conventional parameter tables.
    """
    return [
        name + (f"[{','.join(str(i + 1) for i in index)}]" if index else "")
        for name, shape, _ in layout(dims.q, dims.r)[0]
        for index in np.ndindex(*shape)
    ]
