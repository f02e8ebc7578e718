"""CSV/JSON ingestion and serialization.

All tabular output is CSV with a header row, UTF-8, '.' decimal
separator. Floats are written as ``repr`` (shortest round trip), one line
per matrix row, so write -> load reproduces arrays exactly and identical
runs produce byte-identical files. Float blocks are formatted in row
chunks in this process: a row whose every cell has 1e-4 <= |x| < 1e16 or
is zero takes orjson's digits, which are ``repr``'s in that band (both
write the shortest round-trip digits); any other row (NaN, +-inf, a cell
``repr`` writes with an exponent) is written by ``repr``.

A dataset on disk is a set of block CSVs tied together by a manifest
(JSON) naming the role of each file; ``load_dataset`` takes the manifest
or the directory holding it as manifest.json:

    {"y": "Y.csv", "x": ["X1.csv", "X2.csv"],
     "t": "T.csv", "t_m": ["T1.csv", "T2.csv"], "intercept": false}

One file may not fill two roles, and a UTF-8 byte-order mark opening
the manifest or a block is skipped. Every block body is parsed in row
chunks by orjson's correctly rounded JSON number reader, one row per
line. A block with any other byte after its header than digits, '.',
'e', 'E', '+', '-', ',', blanks and line breaks (a quote, ``nan``, a
letter), or with a blank, ragged or non-JSON row (``.5``, ``01``, ``1_5``),
goes to the strict csv reader, which loads the same array or names the
first bad cell. In that reader a covariate block may contain non-numeric
(categorical) columns; these are expanded into one indicator per level
beyond the first, in order of first appearance, after a leading intercept
column unless a numeric column of the block is all ones. A column must be
wholly numeric or wholly non-numeric, and a non-numeric column may hold
no blank cell.
"""

import contextlib
import csv
import itertools
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import orjson

from .em import FitResult
from .errors import DataError
from .evaluate import ResampleSummary, StudySummary
from .model import (
    Dataset, Dimensions, Theta, block_label, check_theta_shapes, flatten_theta, theta_names,
)

# orjson takes an 8 MB read buffer at its first loads() and keeps it. Taken
# here, at import, the C allocator maps it apart and its untouched pages stay
# out of RSS; taken after large frees it can land on resident heap pages
# (8 MB more peak RSS on the large-csv benchmark).
orjson.loads(b"0")

__all__ = [
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


# ~80 kB of text a chunk at 20 bytes a cell, under the C allocator's 128 kB
# mmap threshold: freed chunk buffers are reused, and formatting and parsing
# run no slower than in 2**16-cell chunks, which cost the large-csv benchmark
# ~3% more peak RSS
_CHUNK_CELLS = 1 << 12


def _format_rows(rows: np.ndarray) -> str:
    """CSV lines of a float matrix, each cell as ``repr`` writes it: orjson
    writes the same digits for a cell with 1e-4 <= |x| < 1e16 or x == 0, and
    ``repr`` writes each row that holds any other cell (NaN fails both)."""
    if not len(rows):
        return ""
    rows = np.ascontiguousarray(rows, dtype=float)
    size = np.abs(rows)
    plain = (((size >= 1e-4) & (size < 1e16)) | (rows == 0)).all(axis=1)
    lines = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    for i in np.flatnonzero(~plain):
        lines[i] = ",".join(map(repr, rows[i].tolist()))  # repr(float) is _fmt
    return "\n".join(lines) + "\n"


def _write_matrix(path: Path, header: list[str], matrix: np.ndarray) -> None:
    """Write ``matrix`` as CSV under ``header``, a line of floats per row,
    formatting the rows in chunks of about ``_CHUNK_CELLS`` cells."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        for chunk in np.array_split(matrix, max(1, -(-matrix.size // _CHUNK_CELLS))):
            handle.write(_format_rows(chunk))


def _write_parameters(path: Path, names: list[str], theta: Theta) -> None:
    """One row per coordinate of the parameter vector, named by ``names``."""
    _write_csv(path, ["name", "value"], zip(names, map(_fmt, flatten_theta(theta))))


def _write_json(path: Path, payload) -> None:
    # JSON has no NaN: every non-finite number is written as null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise DataError(f"manifest declares block role {key!r} twice")
        seen[key] = value
    return seen


def _read_manifest(path: Path) -> dict:
    """The manifest's JSON object, once every role has the right type."""
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"),
                         object_pairs_hook=_reject_duplicate_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"manifest {path} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {"y", "x", "t", "t_m", "intercept"})
    if unknown:
        raise DataError(f"manifest {path} has unknown keys {unknown}; the roles are "
                        "y, x, t, t_m and intercept")
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
    return raw


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read block file {path}: {exc}") from exc
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    if not rows[0]:
        raise DataError(f"{path}: header row is blank")
    header, body = rows[0], rows[1:]
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(
                f"{path}: ragged row {i + 2} has {len(row)} cells, expected {width}"
            )
    return header, body


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


_NUMERIC_BYTES = b"0123456789.eE+-, \t\n"
# a -0 cell or an exponent's e-0: the search starts from the literal -0
_MINUS_ZERO = re.compile(rb"-0(?![\d.eE])")


def _chunk_cells(chunk: bytes, width: int) -> np.ndarray | None:
    """The cells of the body lines ``chunk``, row after row, each line read by
    orjson as a JSON row of ``width`` numbers; None when a byte is not in
    ``_NUMERIC_BYTES`` or a line is no such row."""
    if chunk.translate(None, _NUMERIC_BYTES):
        return None
    try:
        rows = orjson.loads(b"[[" + chunk.replace(b"\n", b"],[") + b"]]")
        if set(map(len, rows)) != {width}:
            return None
        # float() refuses a null or a string, and the byte check keeps both out
        cells = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)
    except (ValueError, TypeError):
        return None
    # orjson reads the integer -0 as 0: cell i is the one after i commas (44) and line feeds (10)
    found = [] if cells.all() else [m.start() for m in _MINUS_ZERO.finditer(chunk)
                                    if chunk[m.start() - 1:m.start()] not in (b"e", b"E")]
    if found:
        text = np.frombuffer(chunk, np.uint8)
        cells[np.searchsorted(np.flatnonzero((text == 44) | (text == 10)), found)] = -0.0
    return cells


def _line_feeds(piece: bytes) -> bytes:
    """``piece`` with each line ending a line feed: a lone carriage return ends
    a line as in the csv module, so 1\\r,2 is two rows."""
    return piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in piece else piece


def _read_fast(path: Path) -> tuple[list[str], np.ndarray] | None:
    """Header and values of a numeric block read by orjson in row chunks of
    about ``_CHUNK_CELLS`` cells, one JSON row per line; None, for
    ``_read_strict`` to load or reject, when a body byte is not in
    ``_NUMERIC_BYTES`` or a line is blank, ragged or no list of JSON numbers.
    The file is read a chunk at a time, so no copy of it is held whole."""
    try:
        with open(path, "rb") as handle:
            # the header and the first row, or more lines if carriage returns end them
            first, _, rest = _line_feeds(handle.readline() + handle.readline()).partition(b"\n")
            # strict: a header whose record goes on past its first line is an error
            header = next(csv.reader([first.decode().removeprefix("\ufeff")], strict=True), [])
            if not header or not rest:
                return None
            # cut by the first row's bytes per cell; each chunk ends with a line
            step, arrays = max(1, _CHUNK_CELLS * len(rest) // len(header)), []
            chunk = rest + handle.read(step) + handle.readline()
            while chunk:
                cells = _chunk_cells(_line_feeds(chunk).removesuffix(b"\n"), len(header))
                if cells is None:
                    return None
                arrays.append(cells)
                chunk = handle.read(step) + handle.readline()
    except (OSError, ValueError, csv.Error):
        return None
    return header, np.concatenate(arrays).reshape(-1, len(header))


def _read_strict(path: Path, categorical: bool) -> tuple[list[str], np.ndarray]:
    """Header and values of one block by the strict csv reader.

    With ``categorical`` (covariate blocks) a wholly non-numeric column
    expands to level indicators (reference level = first seen), and the
    block gains a leading intercept unless a numeric column is all ones. A
    column mixing numeric and non-numeric (or blank) cells is an error, not
    a categorical with one level per distinct value, and so are a blank cell
    in a non-numeric column and a one-level column, which would vanish.
    """
    header, body = _read_table(path)
    with contextlib.suppress(ValueError):   # float() on every cell, in one call
        return header, np.array(body, dtype=float)
    is_number = np.array([[_is_number(cell) for cell in row] for row in body])
    blank = np.array([[not cell.strip() for cell in row] for row in body])
    bad = ~is_number & (is_number.any(axis=0) | blank) if categorical else ~is_number
    if bad.any():
        i, j = np.argwhere(bad)[0]
        what = ("is non-numeric" if not categorical else "is blank" if not is_number[:, j].any()
                else "is not numeric but other cells of the column are")
        raise DataError(f"{path}: row {i + 2}, column {header[j]!r}: cell "
                        f"{body[i][j]!r} {what}")

    names, columns = [], []
    for name, col, numeric in zip(header, zip(*body), is_number.all(axis=0)):
        if numeric:
            names.append(name)
            columns.append(np.array([float(cell) for cell in col]))
        else:
            levels = list(dict.fromkeys(col))  # order of first appearance
            if len(levels) == 1:
                raise DataError(f"{path}: column {name!r} has the one level {levels[0]!r}, "
                                "which leaves no indicator")
            for level in levels[1:]:
                names.append(f"{name}={level}")
                columns.append(np.array([1.0 if cell == level else 0.0 for cell in col]))
    # an indicator is never all ones: the first level has none
    if not any((column == 1.0).all() for column in columns):
        names, columns = ["intercept", *names], [np.ones(len(body)), *columns]
    return names, np.column_stack(columns)


def load_dataset(path) -> tuple[Dataset, dict]:
    """Load and validate the dataset at ``path``, a directory holding
    manifest.json or the manifest file itself; block files resolve relative
    to the manifest. Returns the dataset and the (possibly expanded) column
    names of every block, per block as in ``Dataset``:
    {"z": [Y names, X1 names, ..], "t": [T names, ..]}."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    raw = _read_manifest(path)
    z_names, t_names = [raw["y"], *raw["x"]], [raw["t"], *raw["t_m"]]
    roles = ["y", *(f"x[{i}]" for i in range(len(raw["x"]))),
             "t", *(f"t_m[{i}]" for i in range(len(raw["t_m"])))]
    owner = {}
    for role, name in zip(roles, z_names + t_names):
        block = path.parent / name
        same = owner.setdefault(block.resolve(), role)
        if same != role:
            raise DataError(f"manifest {path}: block file {block} fills two roles, "
                            f"{same!r} and {role!r}")
        if not block.is_file():
            raise DataError(f"declared block file {block} does not exist")

    files = [(path.parent / name, i >= len(z_names)) for i, name in enumerate(z_names + t_names)]
    columns, blocks = zip(*[_read_fast(block) or _read_strict(block, categorical)
                            for block, categorical in files])
    z, t = blocks[:len(z_names)], blocks[len(z_names):]
    rows = {name: block.shape[0] for name, block in zip(z_names + t_names, blocks)}
    if len(set(rows.values())) > 1:
        detail = ", ".join(f"{name}: {count} rows" for name, count in rows.items())
        raise DataError(f"blocks disagree on the number of units ({detail})")

    data = Dataset(z=z, t=t, intercept=raw.get("intercept", False))
    return data, {"z": list(columns[:len(z_names)]), "t": list(columns[len(z_names):])}


def _default_columns(dims: Dimensions) -> dict:
    """Column names per block: y1.., x1_1.., ... and t1.., t1_1.., ..."""
    def names(family, k, width):
        stem = block_label(family, k).lower() + ("_" if k else "")
        return [f"{stem}{j + 1}" for j in range(width)]
    return {"z": [names("Z", k, q) for k, q in enumerate(dims.q)],
            "t": [names("T", k, r) for k, r in enumerate(dims.r)]}


def _factor_header(p: int) -> list[str]:
    """Column names of an (n, p+1) latent array: g, f1..fp."""
    return [block_label("h", k) for k in range(p + 1)]


def write_dataset(
    data: Dataset,
    out_dir,
    latents: np.ndarray | None = None,
    theta: Theta | None = None,
) -> None:
    """Write block CSVs plus a manifest (and truth files when given).

    ``latents`` is the (n, p+1) array of true factors, written unchanged
    to factors_true.csv; a DataError names both shapes when it does not
    fit the data, and the block when ``theta`` does not. Values
    round-trip exactly through ``load_dataset``.
    """
    dims = data.dimensions()
    if theta is not None:
        check_theta_shapes(theta, dims, "the data")
    if latents is not None:
        latents = np.asarray(latents, dtype=float)
        if latents.shape != (dims.n, dims.p + 1):
            raise DataError(f"true latents have shape {latents.shape} but the data "
                            f"needs {(dims.n, dims.p + 1)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cols = _default_columns(dims)

    z_files = [f"{block_label('Z', k)}.csv" for k in range(dims.p + 1)]
    t_files = [f"{block_label('T', k)}.csv" for k in range(dims.p + 1)]
    for name, header, block in zip(z_files + t_files, cols["z"] + cols["t"], data.z + data.t):
        _write_matrix(out / name, header, block)
    if latents is not None:
        _write_matrix(out / "factors_true.csv", _factor_header(dims.p), latents)
    _write_json(out / "manifest.json", {
        "y": z_files[0], "x": z_files[1:], "t": t_files[0], "t_m": t_files[1:],
        "intercept": data.intercept,
    })

    if theta is not None:
        _write_parameters(out / "theta_true.csv", theta_names(dims), theta)


def write_fit(result: FitResult, out_dir, columns: dict | None = None) -> None:
    """Serialize a fit: parameter table, factor scores, trace, report and
    correlations.csv (each observed variable against its block's factor
    score).

    report.json holds the fit's ``EMConfig`` and its convergence
    certificate, the largest absolute observed-loglik gradient at the
    returned theta and the parameter it belongs to; the certificate and
    the correlations are ``result.account()``, so writing makes no pass
    over the data. ``columns``
    names the variables; a DataError says where ``columns["z"]`` disagrees
    with the fit.
    """
    dims = result.dims
    cols = columns or _default_columns(dims)
    widths = [len(names) for names in cols["z"]]
    if widths != list(dims.q):
        raise DataError(f"columns['z'] lists {widths} names per block but the "
                        f"blocks have {list(dims.q)} variables")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    names = theta_names(dims)
    _write_parameters(out / "parameters.csv", names, result.theta)

    _write_matrix(out / "factors.csv", _factor_header(dims.p), result.moments.m)

    _write_csv(
        out / "trace.csv",
        ["iteration", "relative_change", "observed_loglik"],
        (
            [str(i + 1), _fmt(change), _fmt(loglik)]
            for i, (change, loglik) in enumerate(result.trace)
        ),
    )

    score, corr = result.account()
    k = int(np.argmax(np.abs(score)))
    rows = ([block_label("Z", j), name] for j, header in enumerate(cols["z"]) for name in header)
    _write_csv(out / "correlations.csv", ["block", "variable", "correlation"],
               (row + [_fmt(r)] for row, r in zip(rows, corr)))
    _write_json(out / "report.json", {
        "dims": asdict(dims),
        "config": asdict(result.config),
        "converged": bool(result.converged),
        "iterations": result.iterations,
        "extrapolations": {"accepted": result.accepted, "rejected": result.rejected},
        "parameter_names": names,
        "max_abs_score": float(abs(score[k])),
        "max_abs_score_parameter": names[k],
    })


def _summary_payload(summary: StudySummary) -> dict:
    return {
        "cell": summary.cell,
        "n": summary.dims.n,
        "q_y": summary.dims.q_y,
        "q_m": list(summary.dims.q_m),
        "replicates": summary.replicates,
        "converged": int(np.sum(summary.converged)),
        "failures": summary.failures,
        "deviation_quartiles": summary.deviation_quartiles().tolist(),
        "sq_corr_quartiles": summary.sq_corr_quartiles().tolist(),
        "c_estimates": [
            dict(zip(("mean", "lo95", "hi95"), summary.mean_and_band(c_m)))
            for c_m in summary.c_hat.T
        ],
        "sigma2_y_estimate": dict(
            zip(("mean", "lo95", "hi95"), summary.mean_and_band(summary.sigma2_y_hat))
        ),
    }


def write_study(summaries: list[StudySummary], out_dir) -> None:
    """Long-format per-replicate metrics plus a JSON summary per cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for summary in summaries:
        p = summary.dims.p
        names = ["avg_abs_rel_deviation", *(f"sq_corr_{h}" for h in _factor_header(p)),
                 *(f"c{m + 1}_hat" for m in range(p)), "sigma2_Y_hat", "iterations", "converged"]
        table = np.column_stack([summary.deviation_avg, summary.sq_corr, summary.c_hat,
                                 summary.sigma2_y_hat, summary.iterations, summary.converged])
        rows += ([summary.cell, str(rep), name, _fmt(value)]
                 for rep, row in enumerate(table) for name, value in zip(names, row))
    _write_csv(out / "metrics.csv", ["cell", "replicate", "metric", "value"], rows)
    _write_json(out / "summary.json", [_summary_payload(s) for s in summaries])


def write_resample(summary: ResampleSummary, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ["param_mse", "param_corr", "factor_mse", "factor_corr"]
    table = np.column_stack([getattr(summary, name) for name in names])
    _write_csv(out / "resample.csv", ["sample", *names],
               ([str(s), *map(_fmt, row)] for s, row in enumerate(table)))
    _write_json(out / "summary.json", {
        "k": summary.k,
        "sample_size": summary.sample_size,
        "failures": summary.failures,
        **{f"{name}_median": value for name, value in summary.medians().items()},
    })
