"""CSV/JSON ingestion and serialization.

All tabular output is CSV with a header row, UTF-8, '.' decimal
separator. Floats are written as ``repr`` (shortest round trip), one
streamed line per matrix row, so write -> load reproduces arrays exactly
and identical runs produce byte-identical files. Numeric blocks are
parsed by numpy's C reader, with the strict csv reader as fallback.

A dataset on disk is a set of block CSVs tied together by a manifest
(JSON) naming the role of each file:

    {"y": "Y.csv", "x": ["X1.csv", "X2.csv"],
     "t": "T.csv", "t_m": ["T1.csv", "T2.csv"], "intercept": false}

Covariate blocks may contain non-numeric (categorical) columns; these
are expanded into a leading intercept column plus one indicator per
level beyond the first, in order of first appearance. A column must be
wholly numeric or wholly non-numeric.
"""

import csv
import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .em import EMConfig, FitResult
from .errors import DataError
from .evaluate import ResampleSummary, StudySummary
from .model import Dataset, Dimensions, Latents, Theta, flatten_theta, theta_names
from .mstep import expected_score

__all__ = [
    "BlockManifest",
    "load_manifest",
    "load_dataset",
    "write_dataset",
    "write_fit",
    "write_study",
    "write_resample",
]


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_matrix(path: Path, header: list[str], matrix) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        # repr(float) is _fmt and never needs quoting; one row of floats at a time
        handle.writelines(",".join(map(repr, row.tolist())) + "\n"
                          for row in np.asarray(matrix, dtype=float))


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass
class BlockManifest:
    """Roles and file paths of the blocks making up one dataset.

    ``columns`` is filled in by ``load_dataset`` with the (possibly
    expanded) column names of every block.
    """

    y: str
    x: list[str]
    t: str
    t_m: list[str]
    intercept: bool = False
    base_dir: Path = field(default_factory=Path)
    columns: dict = field(default_factory=dict)

    def path(self, name: str) -> Path:
        return self.base_dir / name


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise DataError(f"manifest declares block role {key!r} twice")
        seen[key] = value
    return seen


def load_manifest(path) -> BlockManifest:
    """Read a manifest file; block paths resolve relative to it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"),
                         object_pairs_hook=_reject_duplicate_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    for key in ("y", "x", "t", "t_m"):
        if key not in raw:
            raise DataError(f"manifest {path} is missing block role {key!r}")
    for key in ("y", "t"):
        if not isinstance(raw[key], str):
            raise DataError(f"manifest {path}: role {key!r} must be one file name")
    for key in ("x", "t_m"):
        names = raw[key]
        if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
            raise DataError(
                f"manifest {path}: role {key!r} must be a list of file names"
            )
    if not isinstance(raw.get("intercept", False), bool):
        raise DataError(f"manifest {path}: role 'intercept' must be true or false")
    if len(raw["x"]) != len(raw["t_m"]):
        raise DataError(
            f"manifest lists {len(raw['x'])} X blocks but {len(raw['t_m'])} "
            "covariate blocks"
        )
    return BlockManifest(
        y=raw["y"],
        x=raw["x"],
        t=raw["t"],
        t_m=raw["t_m"],
        intercept=raw.get("intercept", False),
        base_dir=path.parent,
    )


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read block file {path}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header, body = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(
                f"{path}: ragged row {i + 2} has {len(row)} cells, expected {width}"
            )
    return header, body


def _numeric_block(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and values of a numeric block, parsed by numpy's C reader. Its
    array is kept only with one row per line (it skips blank lines and joins
    quoted line breaks) and one column per header cell; else the strict csv
    reader loads the same array or names the first bad cell."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            lines = sum(1 for _ in handle) - 1  # split as the csv module splits
            handle.seek(0)
            header = next(csv.reader(handle), [])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "Empty input file"
                values = np.loadtxt(handle, delimiter=",", comments=None,
                                    quotechar='"', ndmin=2)
        if lines > 0 and values.shape == (lines, len(header)):
            return header, values
    except (OSError, ValueError, csv.Error):
        pass
    header, body = _read_table(path)
    try:
        return header, np.array([[float(cell) for cell in row] for row in body])
    except ValueError:
        i, j = next((i, j) for i, row in enumerate(body)
                    for j, cell in enumerate(row) if not _is_number(cell))
        raise DataError(f"{path}: row {i + 2}, column {header[j]!r}: cell "
                        f"{body[i][j]!r} is non-numeric") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _covariate_block(path: Path) -> tuple[list[str], np.ndarray]:
    """Numeric covariates pass through; categorical columns expand to an
    intercept plus level indicators (reference level = first seen).

    A column mixing numeric and non-numeric (or blank) cells is an
    error, not a categorical with one level per distinct value.
    """
    header, body = _read_table(path)
    n = len(body)
    raw_cols = list(zip(*body))
    numeric, categorical = {}, {}
    for j, col in enumerate(raw_cols):
        is_number = [_is_number(cell) for cell in col]
        if all(is_number):
            numeric[j] = np.array([float(cell) for cell in col])
        elif any(is_number):
            i = is_number.index(False)
            raise DataError(
                f"{path}: row {i + 2}, column {header[j]!r}: cell {col[i]!r} is not "
                "numeric but other cells of the column are"
            )
        else:
            categorical[j] = list(dict.fromkeys(col))  # order of first appearance
    if not categorical:
        return header, np.column_stack([numeric[j] for j in range(len(raw_cols))])

    names = ["intercept"]
    columns = [np.ones(n)]
    for j, col in enumerate(raw_cols):
        if j in numeric:
            names.append(header[j])
            columns.append(numeric[j])
        else:
            for level in categorical[j][1:]:
                names.append(f"{header[j]}={level}")
                columns.append(np.array([1.0 if cell == level else 0.0 for cell in col]))
    return names, np.column_stack(columns)


def load_dataset(manifest: BlockManifest) -> tuple[Dataset, Dimensions]:
    """Load and validate all blocks named by the manifest."""
    declared = [manifest.y, manifest.t, *manifest.x, *manifest.t_m]
    for name in declared:
        if not manifest.path(name).is_file():
            raise DataError(f"declared block file {manifest.path(name)} does not exist")

    y_cols, y = _numeric_block(manifest.path(manifest.y))
    x_parts = [_numeric_block(manifest.path(name)) for name in manifest.x]
    t_cols, t = _covariate_block(manifest.path(manifest.t))
    tm_parts = [_covariate_block(manifest.path(name)) for name in manifest.t_m]
    x, t_m = [block for _, block in x_parts], [block for _, block in tm_parts]

    rows = {manifest.y: y.shape[0], manifest.t: t.shape[0]}
    rows.update({name: block.shape[0] for name, block in zip(manifest.x, x)})
    rows.update({name: block.shape[0] for name, block in zip(manifest.t_m, t_m)})
    counts = set(rows.values())
    if len(counts) > 1:
        detail = ", ".join(f"{name}: {count} rows" for name, count in rows.items())
        raise DataError(f"blocks disagree on the number of units ({detail})")

    data = Dataset(y=y, x=tuple(x), t=t, t_m=tuple(t_m), intercept=manifest.intercept)
    manifest.columns = {
        "y": y_cols, "x": [cols for cols, _ in x_parts],
        "t": t_cols, "t_m": [cols for cols, _ in tm_parts],
    }
    return data, data.dimensions()


def _default_columns(dims: Dimensions) -> dict:
    return {
        "y": [f"y{j + 1}" for j in range(dims.q_y)],
        "x": [[f"x{m + 1}_{j + 1}" for j in range(q)] for m, q in enumerate(dims.q_m)],
        "t": [f"t{j + 1}" for j in range(dims.r_t)],
        "t_m": [[f"t{m + 1}_{j + 1}" for j in range(r)] for m, r in enumerate(dims.r_m)],
    }


def write_dataset(
    data: Dataset,
    out_dir,
    latents: Latents | None = None,
    theta: Theta | None = None,
) -> BlockManifest:
    """Write block CSVs plus a manifest (and truth files when given).

    Values round-trip exactly through ``load_dataset``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dims = data.dimensions()
    cols = _default_columns(dims)

    _write_matrix(out / "Y.csv", cols["y"], data.y)
    _write_matrix(out / "T.csv", cols["t"], data.t)
    for m in range(dims.p):
        _write_matrix(out / f"X{m + 1}.csv", cols["x"][m], data.x[m])
        _write_matrix(out / f"T{m + 1}.csv", cols["t_m"][m], data.t_m[m])

    manifest = BlockManifest(
        y="Y.csv",
        x=[f"X{m + 1}.csv" for m in range(dims.p)],
        t="T.csv",
        t_m=[f"T{m + 1}.csv" for m in range(dims.p)],
        intercept=data.intercept,
        base_dir=out,
    )
    _write_json(out / "manifest.json", {
        "y": manifest.y, "x": manifest.x,
        "t": manifest.t, "t_m": manifest.t_m,
        "intercept": manifest.intercept,
    })

    if latents is not None:
        header = ["g"] + [f"f{m + 1}" for m in range(dims.p)]
        scores = np.column_stack([latents.g, latents.f.T])
        _write_matrix(out / "factors_true.csv", header, scores)
    if theta is not None:
        _write_csv(
            out / "theta_true.csv",
            ["name", "value"],
            zip(theta_names(dims), map(_fmt, flatten_theta(theta))),
        )
    return manifest


def write_fit(
    result: FitResult,
    out_dir,
    data: Dataset | None = None,
    config: EMConfig | None = None,
    columns: dict | None = None,
) -> None:
    """Serialize a fit: parameter table, factor scores, trace, report.

    ``data`` enables correlations.csv (each observed variable against
    its block's factor score) and the convergence certificate in
    report.json, the largest absolute observed-loglik gradient at the
    returned theta and the parameter it belongs to; ``config`` and
    ``columns`` enrich report.json and the variable names.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dims = result.dims
    cols = columns or _default_columns(dims)

    _write_csv(
        out / "parameters.csv",
        ["name", "value"],
        zip(theta_names(dims), map(_fmt, flatten_theta(result.theta))),
    )

    header = ["g"] + [f"f{m + 1}" for m in range(dims.p)]
    _write_matrix(out / "factors.csv", header, result.moments.m)

    _write_csv(
        out / "trace.csv",
        ["iteration", "relative_change", "observed_loglik"],
        (
            [str(i + 1), _fmt(change), _fmt(loglik)]
            for i, (change, loglik) in enumerate(result.trace)
        ),
    )

    report = {
        "dims": {
            "n": dims.n, "p": dims.p, "q_y": dims.q_y,
            "q_m": list(dims.q_m), "r_t": dims.r_t, "r_m": list(dims.r_m),
        },
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "extrapolations": {"accepted": result.accepted, "rejected": result.rejected},
        "parameter_names": theta_names(dims),
    }
    if data is not None:
        # Fisher's identity: the observed-loglik gradient at theta-hat
        score = np.abs(expected_score(result.theta, result.moments, data))
        k = int(np.argmax(score))
        report["max_abs_score"] = float(score[k])
        report["max_abs_score_parameter"] = theta_names(dims)[k]
    if config is not None:
        report["config"] = asdict(config)
    _write_json(out / "report.json", report)

    if data is not None:
        rows = []
        blocks = zip((data.y, *data.x), (cols["y"], *cols["x"]), result.moments.m.T)
        for k, (z, names, score) in enumerate(blocks):
            for j, name in enumerate(names):
                r = float(np.corrcoef(z[:, j], score)[0, 1])
                rows.append([f"X{k}" if k else "Y", name, _fmt(r)])
        _write_csv(out / "correlations.csv", ["block", "variable", "correlation"], rows)


def _summary_payload(summary: StudySummary) -> dict:
    dev_q = summary.deviation_quartiles()
    corr_q = summary.sq_corr_quartiles()
    return {
        "cell": summary.cell,
        "n": summary.dims.n,
        "q_y": summary.dims.q_y,
        "q_m": list(summary.dims.q_m),
        "replicates": summary.replicates,
        "converged": int(np.sum(summary.converged)),
        "failures": summary.failures,
        "deviation_quartiles": [float(v) for v in dev_q],
        "sq_corr_quartiles": [float(v) for v in corr_q],
        "c_estimates": [
            dict(zip(("mean", "lo95", "hi95"), summary.c_band(m)))
            for m in range(summary.c_hat.shape[1])
        ],
        "sigma2_y_estimate": dict(
            zip(("mean", "lo95", "hi95"), summary.sigma2_y_band())
        ),
    }


def write_study(summaries: list[StudySummary], out_dir) -> None:
    """Long-format per-replicate metrics plus a JSON summary per cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for summary in summaries:
        p = summary.sq_corr.shape[1] - 1
        for rep in range(summary.replicates):
            metrics = {
                "avg_abs_rel_deviation": summary.deviation_avg[rep],
                "sq_corr_g": summary.sq_corr[rep, 0],
                **{
                    f"sq_corr_f{m + 1}": summary.sq_corr[rep, m + 1]
                    for m in range(p)
                },
                **{
                    f"c{m + 1}_hat": summary.c_hat[rep, m] for m in range(p)
                },
                "sigma2_Y_hat": summary.sigma2_y_hat[rep],
                "iterations": float(summary.iterations[rep]),
                "converged": float(summary.converged[rep]),
            }
            rows += [
                [summary.cell, str(rep), name, _fmt(value)]
                for name, value in metrics.items()
            ]
    _write_csv(out / "metrics.csv", ["cell", "replicate", "metric", "value"], rows)
    _write_json(out / "summary.json", [_summary_payload(s) for s in summaries])


def write_resample(summary: ResampleSummary, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "resample.csv",
        ["sample", "param_mse", "param_corr", "factor_mse", "factor_corr"],
        (
            [str(s), _fmt(summary.param_mse[s]), _fmt(summary.param_corr[s]),
             _fmt(summary.factor_mse[s]), _fmt(summary.factor_corr[s])]
            for s in range(summary.k)
        ),
    )
    _write_json(out / "summary.json", {
        "k": summary.k,
        "sample_size": summary.sample_size,
        "failures": summary.failures,
        "param_mse_median": float(np.nanmedian(summary.param_mse)),
        "param_corr_median": float(np.nanmedian(summary.param_corr)),
        "factor_mse_median": float(np.nanmedian(summary.factor_mse)),
        "factor_corr_median": float(np.nanmedian(summary.factor_corr)),
    })
