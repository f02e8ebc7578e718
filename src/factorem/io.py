"""CSV/JSON ingestion and serialization.

All tabular output is CSV with a header row, UTF-8, '.' decimal
separator. Floats are written as ``repr`` (shortest round trip), one line
per matrix row, so write -> load reproduces arrays exactly and identical
runs produce byte-identical files. Float blocks are formatted and parsed
in row chunks, by one process per available CPU when a call has at least
``_POOL_CELLS`` cells and in this process otherwise; the chunks are
written in order, so the bytes do not depend on the CPU count.

A dataset on disk is a set of block CSVs tied together by a manifest
(JSON) naming the role of each file; ``load_dataset`` takes the manifest
or the directory holding it as manifest.json:

    {"y": "Y.csv", "x": ["X1.csv", "X2.csv"],
     "t": "T.csv", "t_m": ["T1.csv", "T2.csv"], "intercept": false}

One file may not fill two roles, and a UTF-8 byte-order mark opening
the manifest or a block is skipped. Every block is parsed by numpy's C
reader, with the strict csv reader as fallback. In that fallback a
covariate block may contain non-numeric (categorical) columns; these are
expanded into a leading intercept column plus one indicator per level
beyond the first, in order of first appearance. A column must be wholly
numeric or wholly non-numeric, and a non-numeric column may hold no blank
cell.
"""

import contextlib
import csv
import io
import itertools
import json
import multiprocessing.connection
import os
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .em import FitResult
from .errors import DataError
from .evaluate import ResampleSummary, StudySummary
from .model import (
    Dataset, Dimensions, Theta, block_label, check_theta_shapes, flatten_theta, theta_names,
)

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


# Starting and joining 2 fork workers takes ~8 ms; repr takes ~0.65-0.86 us
# and np.loadtxt ~0.4 us per cell, so halving 2**18 cells saves 50-110 ms.
_POOL_CELLS = 1 << 18
_CHUNK_CELLS = 1 << 16


def _serve(function, tasks: list, claimed, pipe) -> None:
    """Claim the next task until none is left, sending (index, result)."""
    while True:
        with claimed.get_lock():
            i = claimed.value
            claimed.value += 1
        if i >= len(tasks):
            return
        pipe.send((i, function(tasks[i])))


def _in_order(pipes: list, count: int):
    """The results of tasks 0..count-1, read from the workers' ``pipes`` as
    they arrive and yielded in task order."""
    pipes, early = list(pipes), {}
    for i in range(count):
        while i not in early:
            if not pipes:
                raise EOFError("a chunk worker died")
            for pipe in multiprocessing.connection.wait(pipes):
                try:
                    j, result = pipe.recv()
                    early[j] = result
                except EOFError:  # the worker has no task left, or died
                    pipes.remove(pipe)
        yield early.pop(i)


@contextlib.contextmanager
def _chunk_map(function, tasks: list, cells: int):
    """``function`` over ``tasks`` (chunks of ``cells`` cells in all), results
    in task order: in this process, or for a large call in min(CPUs, tasks)
    forked workers, each sending through its own pipe to this thread (a
    helper thread receiving them kept ~10 MB more RSS in its malloc arena).
    No worker outlives the block; one that dies raises EOFError."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if (cells < _POOL_CELLS or min(cpus, len(tasks)) < 2
            or "fork" not in multiprocessing.get_all_start_methods()):
        yield map(function, tasks)
        return
    context, workers = multiprocessing.get_context("fork"), []
    claimed = context.Value("q", 0)
    try:
        for _ in range(min(cpus, len(tasks))):
            receive, send = context.Pipe(duplex=False)
            worker = context.Process(target=_serve, args=(function, tasks, claimed, send))
            worker.start()
            send.close()
            workers.append((worker, receive))
        yield _in_order([receive for _, receive in workers], len(tasks))
    finally:
        for worker, receive in workers:
            worker.terminate()
            worker.join()
            receive.close()


def _format_rows(rows: np.ndarray) -> str:
    # repr(float) is _fmt and never needs quoting
    return "".join([",".join(map(repr, row)) + "\n" for row in rows.tolist()])


def _write_matrices(files: list[tuple[Path, list[str], np.ndarray]]) -> None:
    """Write each (path, header, matrix) as CSV, a line of floats per row;
    the rows of all matrices are formatted in chunks by one ``_chunk_map``."""
    matrices = [np.asarray(matrix, dtype=float) for _, _, matrix in files]
    chunks = [np.array_split(m, max(1, -(-m.size // _CHUNK_CELLS))) for m in matrices]
    tasks = list(itertools.chain.from_iterable(chunks))
    with _chunk_map(_format_rows, tasks, sum(m.size for m in matrices)) as texts:
        for (path, header, _), count in zip(files, map(len, chunks)):
            with open(path, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle, lineterminator="\n").writerow(header)
                handle.writelines(itertools.islice(texts, count))


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


def _parse_range(task: tuple[Path, int, int | None]) -> np.ndarray | None:
    """numpy's C reader on bytes [start, stop) of a block file, or to its end
    when stop is None; None when reading fails, or when a range that is not
    the last holds an odd number of quotes and so ends inside a quoted cell."""
    path, start, stop = task
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            text = handle.read(-1 if stop is None else stop - start).decode("utf-8")
        if stop is not None and text.count('"') % 2:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "Empty input file"
            return np.loadtxt(io.StringIO(text, newline=""), delimiter=",", comments=None,
                              quotechar='"', ndmin=2)
    except (OSError, ValueError):
        return None


def _body_ranges(path: Path) -> tuple[list[str], int, list[tuple]]:
    """Header, body line count and body byte ranges of a block file, the
    body cut after line feeds into ranges of about ``_CHUNK_CELLS`` cells."""
    with open(path, newline="", encoding="utf-8") as handle:
        lines = sum(1 for _ in handle) - 1  # split as the csv module splits
        handle.seek(0)
        first = handle.readline()
        # strict: a header whose record goes on past its first line is an error
        header = next(csv.reader([first.removeprefix("\ufeff")], strict=True), [])
        start, raw = len(first.encode()), handle.buffer
        size, pieces = raw.seek(0, os.SEEK_END), -(-lines * len(header) // _CHUNK_CELLS)
        # each cut follows the first line feed at or after its target
        cuts = sorted({raw.seek(start + (size - start) * i // pieces) + len(raw.readline())
                       for i in range(1, pieces)} - {size})
    return header, lines, [(path, a, b) for a, b in zip([start, *cuts], [*cuts, None])]


def _read_blocks(blocks: list[tuple[Path, bool]]) -> list[tuple[list[str], np.ndarray]]:
    """Header and values of each (path, categorical) block. numpy's C reader
    parses the body ranges of every block in one ``_chunk_map``, and a
    block's array is kept only with one row per line (the reader skips blank
    lines and joins quoted line breaks) and one column per header cell; else
    ``_read_strict`` loads the same array or names the first bad cell."""
    headers, arrays, owners, tasks = [], [], [], []
    for i, (path, _) in enumerate(blocks):
        try:
            header, lines, ranges = _body_ranges(path)
        except (OSError, ValueError, csv.Error):
            header, lines, ranges = [], 0, []
        headers.append(header)
        arrays.append(np.empty((max(lines, 0), len(header))))
        owners += [i] * len(ranges)
        tasks += ranges
    filled = [0] * len(blocks)
    with _chunk_map(_parse_range, tasks, sum(array.size for array in arrays)) as results:
        for i, values in zip(owners, results):
            array, row = arrays[i], filled[i]
            if (values is None or row < 0 or values.shape[1] != array.shape[1]
                    or row + len(values) > len(array)):
                filled[i] = -1  # a chunk that fails fails its block
                continue
            array[row:row + len(values)] = values
            filled[i] += len(values)
    return [(header, array) if 0 < len(array) == row else _read_strict(path, categorical)
            for (path, categorical), header, array, row in zip(blocks, headers, arrays, filled)]


def _read_strict(path: Path, categorical: bool) -> tuple[list[str], np.ndarray]:
    """Header and values of one block by the strict csv reader.

    With ``categorical`` (covariate blocks) a wholly non-numeric column
    expands to an intercept plus level indicators (reference level = first
    seen). A column mixing numeric and non-numeric (or blank) cells is an
    error, not a categorical with one level per distinct value, and so are a
    blank cell in a non-numeric column and a one-level column, which would vanish.
    """
    header, body = _read_table(path)
    is_number = np.array([[_is_number(cell) for cell in row] for row in body])
    blank = np.array([[not cell.strip() for cell in row] for row in body])
    bad = ~is_number & (is_number.any(axis=0) | blank) if categorical else ~is_number
    if bad.any():
        i, j = np.argwhere(bad)[0]
        what = ("is non-numeric" if not categorical else "is blank" if not is_number[:, j].any()
                else "is not numeric but other cells of the column are")
        raise DataError(f"{path}: row {i + 2}, column {header[j]!r}: cell "
                        f"{body[i][j]!r} {what}")
    if is_number.all():
        return header, np.array([[float(cell) for cell in row] for row in body])

    names, columns = ["intercept"], [np.ones(len(body))]
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

    columns, blocks = zip(*_read_blocks([(path.parent / name, i >= len(z_names))
                                         for i, name in enumerate(z_names + t_names)]))
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
        check_theta_shapes(theta, list(zip(dims.r, dims.q)), "the data")
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
    _write_matrices([(out / z_files[k], cols["z"][k], data.z[k]) for k in range(dims.p + 1)]
                    + [(out / t_files[k], cols["t"][k], data.t[k]) for k in range(dims.p + 1)]
                    + ([] if latents is None else
                       [(out / "factors_true.csv", _factor_header(dims.p), latents)]))
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
    over the data. ``columns`` names the variables; a DataError says
    where ``columns["z"]`` disagrees with the fit.
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

    _write_matrices([(out / "factors.csv", _factor_header(dims.p), result.moments.m)])

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
        "iterations": int(result.iterations),
        "extrapolations": {"accepted": result.accepted, "rejected": result.rejected},
        "parameter_names": names,
        "max_abs_score": float(abs(score[k])),
        "max_abs_score_parameter": names[k],
    })


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
        p = summary.sq_corr.shape[1] - 1
        for rep in range(summary.replicates):
            metrics = {
                "avg_abs_rel_deviation": summary.deviation_avg[rep],
                **{
                    f"sq_corr_{name}": summary.sq_corr[rep, k]
                    for k, name in enumerate(_factor_header(p))
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
        **{f"{name}_median": value for name, value in summary.medians().items()},
    })
