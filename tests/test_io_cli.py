import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import factorem
from factorem import (
    Dataset, EMConfig, SimConfig, canonicalize, fit, flatten_theta, observed_loglik,
    simulate_dataset,
)
from factorem.model import theta_names, unflatten_theta
from factorem import cli
from factorem.cli import main
from factorem import io as io_module
from factorem.errors import DataError
from factorem.evaluate import kfold_resample, replicate_study
from factorem.io import load_dataset, write_dataset, write_fit, write_resample, write_study

from conftest import random_dims, random_theta, reference_dims


def small_dataset(seed=0, n=40, q=4):
    dims = reference_dims(n=n, q=q)
    data, h, theta = simulate_dataset(SimConfig(dims=dims, seed=seed))
    return data, h, theta, dims


class TestDatasetRoundTrip:
    def test_values_reproduced_exactly(self, tmp_path):
        data, h, theta, dims = small_dataset()
        write_dataset(data, tmp_path, latents=h, theta=theta)
        loaded, columns = load_dataset(tmp_path / "manifest.json")
        assert loaded.dimensions() == dims
        for a, b in zip(loaded.z + loaded.t, data.z + data.t):
            np.testing.assert_array_equal(a, b)
        assert columns["z"][0] == [f"y{j+1}" for j in range(4)]

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # the mark opens the manifest, the numeric blocks (read by orjson)
        # and a categorical covariate block (read by the csv module)
        data, *_ = small_dataset(n=6)
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        write_dataset(data, plain)
        (plain / "T1.csv").write_text("soil\n" + "sand\nclay\n" * 3)
        shutil.copytree(plain, marked)
        for path in marked.iterdir():
            path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        (expected, expected_columns), (loaded, columns) = map(load_dataset, (plain, marked))
        assert columns == expected_columns
        assert columns["z"][0][0] == "y1" and columns["t"][1] == ["intercept", "soil=clay"]
        for a, b in zip(loaded.z + loaded.t, expected.z + expected.t):
            np.testing.assert_array_equal(a, b)

    def test_hand_written_blocks_smoke_load(self, tmp_path):
        def write(name, header, rows):
            (tmp_path / name).write_text(
                header + "\n" + "\n".join(rows) + "\n"
            )

        body = [f"{i}.5,{i}.25" for i in range(4)]
        write("Y.csv", "y1,y2", body)
        write("X1.csv", "u1,u2", body)
        write("X2.csv", "v1,v2", body)
        ones = ["1.0"] * 4
        write("T.csv", "const", ones)
        write("T1.csv", "const", ones)
        write("T2.csv", "const", ones)
        (tmp_path / "manifest.json").write_text(json.dumps({
            "y": "Y.csv", "x": ["X1.csv", "X2.csv"],
            "t": "T.csv", "t_m": ["T1.csv", "T2.csv"],
            "intercept": True,
        }))
        data, _ = load_dataset(tmp_path / "manifest.json")
        dims = data.dimensions()
        assert dims.n == 4 and dims.q_y == 2 and dims.q_m == (2, 2)
        assert dims.r_t == 1 and dims.r_m == (1, 1)
        assert data.intercept

    def test_missing_block_file(self, tmp_path):
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        (tmp_path / "X1.csv").unlink()
        with pytest.raises(DataError, match="X1.csv"):
            load_dataset(tmp_path / "manifest.json")

    def test_row_count_mismatch_names_blocks(self, tmp_path):
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        lines = (tmp_path / "Y.csv").read_text().splitlines()
        (tmp_path / "Y.csv").write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(DataError, match="Y.csv"):
            load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize("shape", [(40, 2), (39, 3)])
    def test_latents_that_do_not_fit_the_data_rejected(self, tmp_path, shape):
        data, h, _, _ = small_dataset()
        message = f"true latents have shape {shape} but the data needs (40, 3)"
        with pytest.raises(DataError, match=re.escape(message)):
            write_dataset(data, tmp_path, latents=h[:shape[0], :shape[1]])
        assert not (tmp_path / "factors_true.csv").exists()

    def test_duplicate_role_rejected(self, tmp_path):
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        (tmp_path / "manifest.json").write_text(
            '{"y": "Y.csv", "y": "Y.csv", "x": ["X1.csv", "X2.csv"],'
            ' "t": "T.csv", "t_m": ["T1.csv", "T2.csv"]}'
        )
        with pytest.raises(DataError, match="twice"):
            load_dataset(tmp_path / "manifest.json")

    def test_ragged_row_rejected(self, tmp_path):
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        with open(tmp_path / "Y.csv", "a") as handle:
            handle.write("1.0,2.0\n")
        with pytest.raises(DataError, match="ragged"):
            load_dataset(tmp_path / "manifest.json")

    def test_non_numeric_observation_rejected(self, tmp_path):
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        path = tmp_path / "X1.csv"
        content = path.read_text().replace("\n", "\n", 1)
        lines = content.splitlines()
        cells = lines[1].split(",")
        cells[0] = "oops"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_dataset(tmp_path / "manifest.json")


def strict_numeric(path):
    """The csv-module reader the orjson-parsed numeric block must agree with."""
    header, body = io_module._read_table(path)
    return header, np.array([[float(cell) for cell in row] for row in body])


def read_block(path, categorical):
    """Header and values of one block as ``load_dataset`` reads it."""
    return io_module._read_fast(path) or io_module._read_strict(path, categorical)


@pytest.mark.filterwarnings("ignore:sigma2_.* floored:RuntimeWarning")
def test_every_latent_array_is_n_by_p_plus_1_with_g_first(tmp_path):
    # h, the fitted scores and both factor files share one layout:
    # column 0 is g, column m is f^m
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dims = random_dims(rng)
        theta = random_theta(dims, rng)
        data, h, _ = simulate_dataset(SimConfig(dims=dims, seed=seed, theta=theta))
        shape = (dims.n, dims.p + 1)
        header = ["g"] + [f"f{m}" for m in range(1, dims.p + 1)]
        assert h.shape == shape
        # without noise, block k is its covariate mean plus column k of h
        silent = replace(theta, sigma2=(0.0,) * (dims.p + 1))
        clean, h_clean, _ = simulate_dataset(SimConfig(dims=dims, seed=seed, theta=silent))
        np.testing.assert_array_equal(h_clean, h)
        for k in range(dims.p + 1):
            np.testing.assert_array_equal(
                clean.z[k], data.t[k] @ theta.coef[k] + np.outer(h[:, k], theta.loading[k])
            )

        result = fit(data, dims, EMConfig(epsilon=1e-2))
        assert result.moments.m.shape == shape
        out = tmp_path / str(seed)
        write_dataset(data, out / "data", latents=h)
        write_fit(result, out / "fit")
        for path, expected in ((out / "data" / "factors_true.csv", h),
                               (out / "fit" / "factors.csv", result.moments.m)):
            assert path.read_text().splitlines()[0].split(",") == header
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            np.testing.assert_array_equal(values, expected)


def reference_bytes(tmp_path, header, matrix):
    """The bytes of ``matrix`` as the csv writer writes ``_fmt`` of each cell."""
    path = tmp_path / "reference.csv"
    io_module._write_csv(path, header, ([io_module._fmt(v) for v in row] for row in matrix))
    return path.read_bytes()


class TestFastCsvPaths:
    """The orjson writer and reader against the csv-module code they
    replace."""

    def test_writer_bytes_match_the_csv_writer(self, tmp_path):
        values = [-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308,
                  np.inf, -np.inf, np.nan, 0.1, -2.5, 123456789.0]
        matrix = np.array([values, values[::-1]])
        header = [f"c{j}" for j in range(len(values))]
        io_module._write_matrices([(tmp_path / "fast.csv", header, matrix)])
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == reference_bytes(tmp_path, header, matrix)
        assert written.splitlines()[1].split(b",")[:8] == [
            b"-0.0", b"1e-05", b"1e+16", b"5e-324", b"1.7976931348623157e+308",
            b"inf", b"-inf", b"nan",
        ]

    def test_written_dataset_matches_the_csv_writer(self, tmp_path):
        data, h, theta, dims = small_dataset(seed=3, n=50, q=6)
        write_dataset(data, tmp_path / "data", latents=h, theta=theta)
        cols = io_module._default_columns(dims)
        blocks = [("Y.csv", cols["z"][0], data.z[0]), ("T.csv", cols["t"][0], data.t[0])]
        for m in range(dims.p):
            blocks += [(f"X{m + 1}.csv", cols["z"][m + 1], data.z[m + 1]),
                       (f"T{m + 1}.csv", cols["t"][m + 1], data.t[m + 1])]
        blocks.append(("factors_true.csv", ["g", "f1", "f2"], h))
        for name, header, matrix in blocks:
            assert (tmp_path / "data" / name).read_bytes() == \
                reference_bytes(tmp_path, header, matrix), name

    @pytest.mark.parametrize("text, fast", [
        ("a,b\n1.5,-2\n3e-3,4\n", True),
        ('a,b\n"1.5","-2"\n3e-3,"4"\n', False),     # a quote is no JSON number
        ('"a","b"\n1.5,-2\n3e-3,4\n', True),
        ("a,b\n 1.5 ,\t-2\n3e-3 , 4\n", True),
        ("a,b\r\n1.5,-2\r\n3e-3,4\r\n", True),
        ("a,b\r1.5,-2\r3e-3,4\r", True),
        ("a,b\n1.5,-2\n3e-3,4", True),
        ("a\n1.5\n-2\n", True),
        ("a,b,c\n1.5,-2,nan\n", False),          # nor are nan, inf and 1e400
        ("a,b\ninf,-inf\n1e400,5e-324\n", False),
    ])
    def test_reader_fast_path_agrees_with_the_csv_reader(
            self, tmp_path, monkeypatch, text, fast):
        path = tmp_path / "block.csv"
        path.write_bytes(text.encode())
        header, expected = strict_numeric(path)

        def no_fallback(path):
            raise AssertionError("fell back to the csv reader")

        if fast:
            monkeypatch.setattr(io_module, "_read_table", no_fallback)
        for categorical in (False, True):   # observation and covariate blocks
            got_header, values = read_block(path, categorical)
            assert got_header == header
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text, expected", [
        ("a,b\n1_5,2\n", [[15.0, 2.0]]),       # JSON has no underscores
        ("a,b\n1,2\r3,4\n", [[1.0, 2.0], [3.0, 4.0]]),   # bare carriage return
        ('a,b\n"1\n",2\n', [[1.0, 2.0]]),      # quoted line break in a cell
        ('a,b\n"1\r",2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),
        ('"a\nx",b\n1,2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),   # ... in the header
    ])
    def test_reader_fallback_loads_what_the_csv_reader_accepts(
            self, tmp_path, text, expected):
        path = tmp_path / "block.csv"
        path.write_bytes(text.encode())
        strict_header, strict_values = strict_numeric(path)
        for categorical in (False, True):   # observation and covariate blocks
            header, values = read_block(path, categorical)
            assert header == strict_header
            np.testing.assert_array_equal(values, expected)
            assert values.tobytes() == strict_values.tobytes()

    @pytest.mark.parametrize("text, match", [
        ("a,b\n1,2\n\n3,4\n", "ragged row 3 has 0 cells"),
        ("a,b\n1,2\n3,4\n\n", "ragged row 4 has 0 cells"),
        ("a,b\n1,2\n\n", "ragged row 3 has 0 cells"),
        ("a,b\n1,2,3\n4,5,6\n", "ragged row 2 has 3 cells"),
        ("a,b\n1,2\n3\n", "ragged row 3 has 1 cells"),
        ("a,b\n1,2\n3,4\r", None),
        ("a,b\n", "need a header row and at least one data row"),
        ("a,b", "need a header row and at least one data row"),
        ("", "need a header row and at least one data row"),
        ("a,b\n1,2\n3,\n", r"row 3, column 'b': cell '' is non-numeric"),
        ("a,b\n1,2\noops,4\n", r"row 3, column 'a': cell 'oops' is non-numeric"),
        ("a,b\n1,2\n\"1,5\",4\n", r"row 3, column 'a': cell '1,5' is non-numeric"),
    ])
    def test_reader_rejections_unchanged_and_silent(self, tmp_path, text, match):
        path = tmp_path / "block.csv"
        path.write_bytes(text.encode())
        if match is None:     # a trailing bare carriage return is one more line
            header, values = read_block(path, categorical=False)
            np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=match):
                read_block(path, categorical=False)

    @pytest.mark.parametrize("name", ["Y.csv", "T1.csv"])
    def test_undecodable_block_is_a_data_error(self, tmp_path, name):
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xe9", 1))
        with pytest.raises(DataError,
                           match=rf"cannot read block file .*{name}: 'utf-8'"):
            load_dataset(tmp_path / "manifest.json")

    def test_non_numeric_cell_named_through_load_dataset(self, tmp_path):
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        path = tmp_path / "X1.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(["oops"] + lines[1].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=(
                r"X1\.csv: row 2, column 'x1_1': cell 'oops' is non-numeric")):
            load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize("cell, value", [("nan", "nan"), ("1e400", "inf")])
    def test_non_finite_cell_named_through_load_dataset(self, tmp_path, cell, value):
        # the strict reader parses both as floats; the block check names the cell
        data, *_ = small_dataset()
        write_dataset(data, tmp_path)
        path = tmp_path / "X1.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        lines[3] = ",".join(cells[:1] + [cell] + cells[2:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=(
                rf"block X1 contains non-finite entries; the first is {value} "
                r"at unit row 3, column 2$")):
            load_dataset(tmp_path / "manifest.json")


class TestChunkedCsvPaths:
    """Blocks cut into row chunks, written and read in small chunks against
    the same calls in one chunk."""

    def test_written_bytes_do_not_depend_on_the_chunks(self, tmp_path, monkeypatch):
        data, h, theta, dims = small_dataset(seed=2, n=23, q=5)
        data.z[0][:4, 0] = [-0.0, 1e-05, 1e16, 5e-324]
        digests = []
        # 16 cells: 3 rows of 5 or 8 of 2 per chunk, and 23 is neither's multiple
        for chunk_cells in (io_module._CHUNK_CELLS, 16):
            out = tmp_path / str(chunk_cells)
            with monkeypatch.context() as patch:
                patch.setattr(io_module, "_CHUNK_CELLS", chunk_cells)
                write_dataset(data, out, latents=h, theta=theta)
            digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in sorted(out.iterdir())})
        assert len(digests[0]) == 9
        assert digests[1] == digests[0]
        y = (tmp_path / "16" / "Y.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in y[1:5]] == ["-0.0", "1e-05", "1e+16", "5e-324"]

    def test_a_block_with_more_chunks_than_rows(self, tmp_path):
        # 20,000 cells make 5 chunks of a 2-row block, 3 of them empty; row 0
        # takes orjson's digits, row 1 (cells with exponents) repr's
        rng = np.random.default_rng(5)
        wide = rng.normal(size=(2, 10_000))
        wide[1] *= 10.0 ** rng.integers(-6, 18, size=10_000)
        assert len(np.array_split(wide, -(-wide.size // io_module._CHUNK_CELLS))[-1]) == 0
        data = Dataset(z=(wide, np.ones((2, 1))), t=(np.ones((2, 1)),) * 2)
        write_dataset(data, tmp_path / "data")
        header = io_module._default_columns(data.dimensions())["z"][0]
        assert (tmp_path / "data" / "Y.csv").read_bytes() == \
            reference_bytes(tmp_path, header, wide)
        assert np.array_equal(load_dataset(tmp_path / "data")[0].z[0], wide)

    @pytest.mark.parametrize("text, expected", [
        ("a,b\r\n1.5,-2\r\n3e-3,4\r\n5,6\r\n", [[1.5, -2.0], [3e-3, 4.0], [5.0, 6.0]]),
        ("\ufeffa,b\n1,2\n3,4\n5,6\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ("a,b\n1,2\n3,4\n5,6", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ("a,b\n1,2\n\n3,4\n", "ragged row 3 has 0 cells"),
        ('a,b\n1,2\n"3\n",4\n5,6\n', [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ("a,b\n1_5,2\n3,4\n5,6\n", [[15.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ('a,b\n1,"2\n"3",4\n', "ragged row 2 has 3 cells"),  # each line alone parses
        ('"a\n1\n2\n', "need a header row"),      # so does the body of a one-line header
        ("a,b\n1,2\n3,4\n5,oops\n", r"row 4, column 'b': cell 'oops' is no"),
    ], ids=["crlf", "bom", "no-final-newline", "blank-line", "quoted-break-over-a-cut",
            "underscore", "quote-closed-over-a-cut", "header-over-a-line",
            "non-numeric-in-last-chunk"])
    def test_reader_agrees_with_one_chunk(self, tmp_path, monkeypatch, text, expected):
        path = tmp_path / "block.csv"
        path.write_bytes(text.encode())
        for categorical in (False, True):
            if isinstance(expected, str):
                with pytest.raises(DataError) as reference:
                    read_block(path, categorical)
                assert re.search(expected, str(reference.value))
            else:
                reference = read_block(path, categorical)
                np.testing.assert_array_equal(reference[1], expected)
            with monkeypatch.context() as patch:
                # 1 cell: every line of the body is a chunk of its own
                patch.setattr(io_module, "_CHUNK_CELLS", 1)
                if isinstance(expected, str):
                    with pytest.raises(DataError) as chunked:
                        read_block(path, categorical)
                    assert str(chunked.value) == str(reference.value)
                else:
                    header, values = read_block(path, categorical)
                    assert header == reference[0] == ["a", "b"]
                    assert values.tobytes() == reference[1].tobytes()


def band_edges():
    """Each edge of the band where orjson writes the cells, and its neighbor."""
    return [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0), 9999999999999998.0,
            0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf]


class TestOrjsonKernels:
    """orjson's formatter and parser against ``repr``, the csv writer and the
    csv reader, on random bit patterns and on the edge cases of each."""

    def test_writer_bytes_equal_repr_on_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 1 << 64, size=(2, 60_000), dtype=np.uint64, endpoint=False)
        # half the patterns over every exponent, half inside orjson's band
        exponent = rng.integers(1023 - 14, 1023 + 54, size=60_000).astype(np.uint64)
        bits[1] = bits[1] & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
        edges = np.array(band_edges())
        values = np.concatenate([bits.view(np.float64).ravel(), edges, -edges])
        matrix = values[:len(values) // 10 * 10].reshape(-1, 10)
        # rows of edges alone, and edges mixed into rows inside the band
        inside = np.abs(matrix[len(matrix) // 2:len(matrix) // 2 + len(edges)])
        inside[:, 3] = edges
        matrix = np.vstack([matrix, inside, np.tile(edges[:10], (3, 1)), -edges[:10]])
        header = [f"c{j}" for j in range(10)]
        io_module._write_matrices([(tmp_path / "fast.csv", header, matrix)])
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == reference_bytes(tmp_path, header, matrix)
        assert written.splitlines()[-2] == (b"0.0001,9.999999999999999e-05,1e+16,"
                                            b"9999999999999998.0,9999999999999998.0,"
                                            b"0.0,-0.0,5e-324,nan,inf")

    def test_written_cells_round_trip_through_the_reader(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-6, 18, size=(300, 7))
        matrix[::7, 2] = -0.0
        io_module._write_matrices([(tmp_path / "m.csv", list("abcdefg"), matrix)])
        assert io_module._read_fast(tmp_path / "m.csv") is not None
        header, values = read_block(tmp_path / "m.csv", False)
        assert values.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("cells, expected, fast", [
        ("-0,1", [[-0.0, 1.0]], True),          # orjson reads the integer -0 as 0
        ("-0,-0\n0,1e-0", [[-0.0, -0.0], [0.0, 1.0]], True),
        # zero cells beside every token that holds -0 but one: the integer -0
        ("-0,1e-0\n-0.5,0\n1e-05,-0\n0,1E-0\n-0e5,-0.0\n-0, -0 ",
         [[-0.0, 1.0], [-0.5, 0.0], [1e-05, -0.0], [0.0, 1.0], [-0.0, -0.0], [-0.0, -0.0]],
         True),
        ("1e400,1", [[np.inf, 1.0]], False),   # orjson refuses an infinite number
        ("true,1", "row 2, column 'a': cell 'true' is non-numeric", False),
        ("null,1", "row 2, column 'a': cell 'null' is non-numeric", False),
        ("01.5,1", [[1.5, 1.0]], False),
        (".5,1", [[0.5, 1.0]], False),
        ("nan,1", [[np.nan, 1.0]], False),
        ('"2.5",1', [[2.5, 1.0]], False),
        ("1 , 2", [[1.0, 2.0]], True),
        ("1\r,2", "ragged row 2 has 1 cells, expected 2", False),   # not the JSON [1, 2]
        ("9223372036854775809,1", [[9.223372036854776e18, 1.0]], True),
        # halfway between two doubles: ties to the even one, up and down
        ("18446744073709557760,1", [[18446744073709559808.0, 1.0]], True),
        ("1844674407370955366.4e1,1", [[18446744073709551616.0, 1.0]], True),
    ], ids=["minus-zero", "minus-zero-rows", "minus-zero-mixed", "1e400", "true", "null",
            "01.5", ".5", "nan", "quoted", "blanks", "lone-carriage-return", "above-2**63",
            "halfway-up", "halfway-down"])
    def test_reader_gives_the_csv_readers_array_or_error(
            self, tmp_path, monkeypatch, cells, expected, fast):
        path = tmp_path / "block.csv"
        path.write_bytes(f"a,b\n{cells}\n".encode())
        assert (io_module._read_fast(path) is not None) == fast
        for chunk_cells in (1, io_module._CHUNK_CELLS):
            with monkeypatch.context() as patch:
                patch.setattr(io_module, "_CHUNK_CELLS", chunk_cells)
                if isinstance(expected, str):
                    with pytest.raises(DataError, match=re.escape(expected)):
                        read_block(path, False)
                    continue
                header, values = read_block(path, False)
            assert header == ["a", "b"]
            assert values.tobytes() == np.array(expected).tobytes()
            assert values.tobytes() == strict_numeric(path)[1].tobytes()

    def test_minus_zero_cells_are_patched_after_one_parse(self, tmp_path, monkeypatch):
        # integer -0 cells at the first and last cell, down a column, beside
        # spaces and beside the decoys 1e-0, -0.5 and 0, in a one-chunk block
        rows = [[repr(float(v)) for v in row]
                for row in np.random.default_rng(3).normal(size=(60, 5)).round(2)]
        for i, j in [(0, 0), (59, 4), *((i, 2) for i in range(0, 60, 3))]:
            rows[i][j] = "-0"
        rows[7][1], rows[7][3], rows[8][0], rows[8][4] = " -0 ", "1e-0", "-0.5", "0"
        path = tmp_path / "block.csv"
        path.write_text("a,b,c,d,e\n" + "\n".join(",".join(row) for row in rows) + "\n")
        calls = []

        def counting(text):
            calls.append(text)
            return loads(text)

        loads = io_module.orjson.loads
        monkeypatch.setattr(io_module.orjson, "loads", counting)
        _, values = io_module._read_fast(path)
        assert len(calls) == 1
        expected = strict_numeric(path)[1]
        assert values.tobytes() == expected.tobytes()
        negative_zeros = sum(cell.strip() in ("-0", "-0.0") for row in rows for cell in row)
        assert np.signbit(values[values == 0]).sum() == negative_zeros >= 23

    @pytest.mark.parametrize("text, expected", [
        ("quoted", None),
        ("a,b\ninf,1_5\n-Infinity, 2.5 \nnan,1e400\n+.5,\u0661\u0662\n",
         [[np.inf, 15.0], [-np.inf, 2.5], [np.nan, np.inf], [0.5, 12.0]]),
        ("a,b\n1,2\n3,x\n", "row 3, column 'b': cell 'x' is non-numeric"),
        ("a,b\n1,2\n3, \n", "row 3, column 'b': cell ' ' is non-numeric"),
        ("kind,depth\nb,1.5\na,2.5\nb,1_5\n",
         (["intercept", "kind=a", "depth"], [[1, 0, 1.5], [1, 1, 2.5], [1, 0, 15.0]])),
    ], ids=["quoted", "inf-and-underscores", "non-numeric", "blank", "categorical"])
    def test_the_strict_reader_parses_a_block_of_numbers_in_one_call(
            self, tmp_path, monkeypatch, text, expected):
        # a block orjson refuses is read by the csv module; numpy's one call
        # applies float() to every cell, as the per-cell parse did, and the
        # per-cell checks run only for a block with a cell that is no number
        path = tmp_path / "block.csv"
        if text == "quoted":
            values = np.random.default_rng(0).normal(size=(30, 4)) * 1e-7
            text = "a,b,c,d\n" + "".join(",".join(f'"{v!r}"' for v in row) + "\n"
                                         for row in values.tolist())
            expected = values.tolist()
        path.write_text(text, encoding="utf-8")
        checked = []

        def is_number(cell):
            checked.append(cell)
            return strict_is_number(cell)

        strict_is_number = io_module._is_number
        monkeypatch.setattr(io_module, "_is_number", is_number)
        categorical = isinstance(expected, tuple)
        if isinstance(expected, str):
            with pytest.raises(DataError, match=re.escape(f"{path}: {expected}")):
                read_block(path, False)
            return
        header, values = read_block(path, categorical)
        if categorical:
            assert checked and header == expected[0]
            assert values.tobytes() == np.array(expected[1], dtype=float).tobytes()
            return
        assert not checked and header == strict_numeric(path)[0]
        assert values.tobytes() == np.array(expected).tobytes()
        assert values.tobytes() == strict_numeric(path)[1].tobytes()


class TestCategoricalCovariates:
    def make_blocks(self, tmp_path, t_rows, t_header="geo"):
        data, *_ = small_dataset(n=len(t_rows))
        write_dataset(data, tmp_path)
        (tmp_path / "T.csv").write_text(
            t_header + "\n" + "\n".join(t_rows) + "\n"
        )
        return tmp_path / "manifest.json"

    def test_five_level_factor_expands_to_five_columns(self, tmp_path):
        levels = ["schist", "alluvium", "schist", "granite", "sand", "quartzite"]
        rows = levels + levels[:2]
        manifest = self.make_blocks(tmp_path, rows)
        data, columns = load_dataset(manifest)
        assert data.dimensions().r_t == 5
        np.testing.assert_array_equal(data.t[0][:, 0], np.ones(len(rows)))
        names = columns["t"][0]
        assert names[0] == "intercept"
        assert names[1:] == [
            "geo=alluvium", "geo=granite", "geo=sand", "geo=quartzite"
        ]
        # reference level rows have all indicators zero
        np.testing.assert_array_equal(data.t[0][0, 1:], np.zeros(4))
        assert data.t[0][1, 1] == 1.0

    @pytest.mark.parametrize("cell", ["", "n/a"])
    def test_partly_numeric_column_rejected(self, tmp_path, cell):
        # a stray cell in a numeric column must not turn it into a
        # categorical with one level per distinct value
        data, *_ = small_dataset(n=60)
        write_dataset(data, tmp_path)
        path = tmp_path / "T1.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[0] = cell
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"T1\.csv: row 6, column 't1_1'"):
            load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize("case", ["wholly blank column", "blank among levels"])
    def test_blank_cell_of_a_non_numeric_column_rejected(self, tmp_path, case):
        # a blank cell is a missing value, not a level: a blank column must
        # not vanish into an intercept, nor '' become a reference level
        if case == "wholly blank column":
            data, *_ = small_dataset(n=60)
            write_dataset(data, tmp_path)
            path = tmp_path / "T1.csv"
            header, *lines = path.read_text().splitlines()
            path.write_text("\n".join([header, *(line.rsplit(",", 1)[0] + "," for line in lines)])
                            + "\n")
            where = r"T1\.csv: row 2, column 't1_2'"
        else:
            self.make_blocks(tmp_path, ["a,1.5", "b,2.5", ",3.5", "a,4.5"], t_header="kind,depth")
            where = r"T\.csv: row 4, column 'kind'"
        with pytest.raises(DataError, match=where + ": cell '' is blank$"):
            load_dataset(tmp_path / "manifest.json")

    def test_single_level_column_rejected(self, tmp_path, capsys):
        # a one-level categorical has no indicator: it must not vanish
        # into an intercept the manifest never asked for
        data, *_ = small_dataset(n=60)
        write_dataset(data, tmp_path)
        path = tmp_path / "T1.csv"
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header + ",soil", *(line + ",sand" for line in lines)]) + "\n")
        message = r"T1\.csv: column 'soil' has the one level 'sand', which leaves no indicator$"
        with pytest.raises(DataError, match=message):
            load_dataset(tmp_path)
        assert main(["fit", "--data", str(tmp_path), "--out", str(tmp_path / "fit")]) == 2
        assert "column 'soil' has the one level 'sand'" in capsys.readouterr().err

    def test_a_column_of_ones_stands_for_the_intercept(self, tmp_path):
        # a second intercept beside the block's own column of ones made the
        # block singular, so the fit exited 2
        assert main(["simulate", "--n", "60", "--q", "4", "--seed", "1", "--intercept",
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "T1.csv"
        header, *lines = path.read_text().splitlines()
        soil = itertools.cycle(["sand", "clay", "loam"])
        path.write_text("\n".join([header + ",soil", *(f"{line},{next(soil)}" for line in lines)])
                        + "\n")
        data, columns = load_dataset(tmp_path)
        assert columns["t"][1] == ["t1_1", "t1_2", "soil=clay", "soil=loam"]
        assert data.intercept and data.t[1].shape == (60, 4)
        assert main(["fit", "--data", str(tmp_path), "--out", str(tmp_path / "fit")]) == 0

    def test_mixed_numeric_and_categorical(self, tmp_path):
        rows = ["a,1.5", "b,2.5", "a,3.5", "c,4.5"]
        manifest = self.make_blocks(tmp_path, rows, t_header="kind,depth")
        data, columns = load_dataset(manifest)
        assert data.dimensions().r_t == 4  # intercept + 2 indicators + depth
        assert columns["t"][0] == [
            "intercept", "kind=b", "kind=c", "depth"
        ]
        np.testing.assert_array_equal(data.t[0][:, 3], [1.5, 2.5, 3.5, 4.5])
        np.testing.assert_array_equal(data.t[0][:, 1], [0.0, 1.0, 0.0, 0.0])


class TestWriteFit:
    def test_output_files(self, tmp_path):
        data, _, _, dims = small_dataset(seed=1)
        config = EMConfig(epsilon=1e-2)
        result = canonicalize(fit(data, dims, config))
        write_fit(result, tmp_path)

        k = len(theta_names(dims))
        parameters = (tmp_path / "parameters.csv").read_text().splitlines()
        assert len(parameters) == 1 + k
        factors = (tmp_path / "factors.csv").read_text().splitlines()
        assert factors[0] == "g,f1,f2"
        assert len(factors) == 1 + dims.n

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["iterations"] == result.iterations
        assert report["config"] == {
            "epsilon": 1e-2, "max_iter": 500,
        }
        assert len(report["parameter_names"]) == k
        assert report["extrapolations"] == {
            "accepted": result.accepted, "rejected": result.rejected,
        }
        assert report["max_abs_score_parameter"] in report["parameter_names"]

        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + result.iterations

        correlations = (tmp_path / "correlations.csv").read_text().splitlines()
        assert len(correlations) == 1 + dims.q_total
        assert correlations[1].startswith("Y,y1,")

    def test_written_floats_round_trip(self, tmp_path):
        data, _, _, dims = small_dataset(seed=2)
        config = EMConfig(epsilon=1e-2)
        result = canonicalize(fit(data, dims, config))
        write_fit(result, tmp_path)
        assert "max_abs_score" in json.loads((tmp_path / "report.json").read_text())
        rows = (tmp_path / "factors.csv").read_text().splitlines()[1:]
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        np.testing.assert_array_equal(values, result.moments.m)

    def test_certificate_is_the_observed_loglik_gradient(self, tmp_path):
        # Fisher's identity: the expected score at theta-hat under the law
        # at theta-hat is the gradient of the observed log-likelihood
        data, _, _, dims = small_dataset(seed=3)
        names = theta_names(dims)
        certificates = []
        for epsilon in (1e-2, 1e-8):
            result = canonicalize(fit(data, dims, EMConfig(epsilon=epsilon)))
            write_fit(result, tmp_path)
            report = json.loads((tmp_path / "report.json").read_text())
            k = names.index(report["max_abs_score_parameter"])
            vec, step = flatten_theta(result.theta), 1e-6
            plus, minus = vec.copy(), vec.copy()
            plus[k] += step
            minus[k] -= step
            numeric = (
                observed_loglik(unflatten_theta(plus, dims), data).value
                - observed_loglik(unflatten_theta(minus, dims), data).value
            ) / (2 * step)
            assert report["max_abs_score"] == pytest.approx(abs(numeric), rel=1e-4, abs=1e-4)
            certificates.append(report["max_abs_score"])
        assert certificates[1] < 1e-3 * certificates[0]


@pytest.mark.parametrize("case, message", [
    ("theta_blocks", "theta has 1 explanatory blocks but the data has 2"),
    ("theta_width", "theta block D has shape (2, 4) but the data needs (2, 3)"),
    ("fit_columns", "columns['z'] lists [1, 1, 1] names per block but the blocks "
                    "have [3, 3, 3] variables"),
], ids=["theta_blocks", "theta_width", "fit_columns"])
def test_writers_check_their_inputs_against_the_data(tmp_path, case, message):
    # each case used to write a truncated table or end in a numpy error
    data, _, _, dims = small_dataset(q=3)
    out = tmp_path / "out"
    if case.startswith("theta"):
        other = (replace(dims, p=1, q_m=(3,), r_m=(2,)) if case == "theta_blocks"
                 else replace(dims, q_y=4))
        theta = simulate_dataset(SimConfig(dims=other, seed=0))[2]
        with pytest.raises(DataError, match=re.escape(message)):
            write_dataset(data, out, theta=theta)
    else:
        result = fit(data, dims, EMConfig())
        columns = {"z": [["v"]] * 3, "t": [["w"]] * 3}
        with pytest.raises(DataError, match=re.escape(message)):
            write_fit(result, out, columns=columns)
    assert not out.exists()


@pytest.mark.parametrize("writer", ["fit", "study", "resample"])
def test_numpy_scalar_inputs_write_the_bytes_of_python_scalars(tmp_path, writer):
    # the validators accept numpy scalars, which the JSON writers cannot
    # serialize; 0.5 is exact in float32
    data, _, _, dims = small_dataset(seed=1, n=60)
    written = []
    for number, count in ((float, int), (np.float32, np.int64)):
        out = tmp_path / number.__name__
        config = EMConfig(epsilon=number(0.5), max_iter=count(50))
        if writer == "fit":
            write_fit(fit(data, dims, config), out)
        elif writer == "study":
            write_study([replicate_study(SimConfig(dims=dims, seed=1), config, count(2))], out)
        else:
            write_resample(kfold_resample(data, config, k=count(2), sample_size=count(40)), out)
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert written[1] == written[0]


class TestCli:
    def test_simulate_fit_pipeline(self, tmp_path):
        data_dir = tmp_path / "data"
        fit_dir = tmp_path / "fit"
        assert main(["simulate", "--n", "60", "--q", "5", "--p", "2",
                     "--r", "2", "--seed", "1", "--out", str(data_dir)]) == 0
        assert main(["fit", "--data", str(data_dir), "--out", str(fit_dir),
                     "--epsilon", "1e-2"]) == 0
        report = json.loads((fit_dir / "report.json").read_text())
        assert report["converged"] is True

    @pytest.mark.parametrize("command", ["replicate", "sensitivity", "resample"])
    def test_study_outputs_are_byte_identical(self, tmp_path, command):
        # sensitivity runs two cells, vary_n:n=40 and vary_q:q=4
        data_dir, out_a, out_b = tmp_path / "data", tmp_path / "a", tmp_path / "b"
        design = {"replicate": ["--n", "60", "--q", "5", "--replicates", "3"],
                  "sensitivity": ["--n", "60", "--q", "5", "--n-values", "40",
                                  "--q-values", "4", "--replicates", "2"],
                  "resample": ["--data", str(data_dir), "--k", "3"]}[command]
        if command == "resample":
            assert main(["simulate", "--n", "60", "--q", "5", "--seed", "7",
                         "--out", str(data_dir)]) == 0
        args = [command, *design, "--seed", "7", "--epsilon", "1e-2"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        names = sorted(path.name for path in out_a.iterdir())
        assert len(names) == 2 and names == sorted(path.name for path in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_usage_errors_exit_one(self):
        assert main([]) == 1
        assert main(["fit"]) == 1
        assert main(["bogus"]) == 1
        assert main(["sensitivity", "--n-values", "abc", "--out", "unused"]) == 1

    @pytest.mark.parametrize("flag", [["--jitter"], ["--seed", "1"]])
    def test_fit_has_no_jitter_or_seed_flag(self, tmp_path, flag):
        assert main(["fit", "--data", str(tmp_path), "--out", str(tmp_path / "f")]
                    + flag) == 1

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "30", "--q", "3", "--seed", "0",
              "--out", str(data_dir)])
        lines = (data_dir / "Y.csv").read_text().splitlines()
        (data_dir / "Y.csv").write_text("\n".join(lines[:-3]) + "\n")
        code = main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "f")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["explained", "constant", "constant 0.1"])
    def test_observed_column_without_residual_variance_exits_two(
            self, tmp_path, capsys, column):
        # a column its own covariates explain exactly, or a constant one,
        # leaves the factor nothing to load on: named, not fitted (0.1 is
        # not a binary fraction, so its centered column is rounding, not 0)
        data, _, _, dims = small_dataset(n=60, q=4)
        t1 = data.t[1]
        x1 = data.z[1].copy()
        x1[:, 2] = {"explained": 2.5 * t1[:, 0] - t1[:, 1], "constant": 3.0,
                    "constant 0.1": 0.1}[column]
        data = replace(data, z=(data.z[0], x1, *data.z[2:]))
        message = "column 3 of X1 has zero variance"
        with pytest.raises(DataError, match=message):
            fit(data, dims, EMConfig())
        write_dataset(data, tmp_path / "data")
        assert main(["fit", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "f")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-6, 1e-9])
    def test_a_column_in_small_units_fits(self, scale):
        # each column is judged against its own size, so a change of units
        # does not decide whether it has variance
        data, _, _, dims = small_dataset(n=60, q=4)
        x1 = data.z[1].copy()
        x1[:, 2] *= scale
        assert fit(replace(data, z=(data.z[0], x1, *data.z[2:])), dims, EMConfig()).converged

    def test_blank_covariate_header_exits_two(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "30", "--q", "3", "--seed", "0",
              "--out", str(data_dir)])
        (data_dir / "T.csv").write_text("\n" * 31)
        assert main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "f")]) == 2
        assert f"{data_dir / 'T.csv'}: header row is blank" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "replicate", "sensitivity", "resample"])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "30", "--q", "3", "--seed", "0", "--out", str(data_dir)])
        capsys.readouterr()
        design = (["--data", str(data_dir)] if command == "resample"
                  else ["--n", "30", "--q", "3"])
        argv = [command, *design, "--seed", "-1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert "Traceback" not in err

    def test_sensitivity_command(self, tmp_path):
        out = tmp_path / "sens"
        assert main(["sensitivity", "--n", "60", "--q", "4",
                     "--n-values", "40,60", "--q-values", "",
                     "--replicates", "2", "--seed", "3",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 2
        assert (out / "metrics.csv").exists()

    def test_resample_command(self, tmp_path):
        data_dir = tmp_path / "data"
        out = tmp_path / "res"
        main(["simulate", "--n", "60", "--q", "4", "--seed", "2",
              "--out", str(data_dir)])
        assert main(["resample", "--data", str(data_dir), "--k", "3",
                     "--sample-size", "30", "--seed", "5",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k"] == 3
        assert 0.0 <= summary["param_corr_median"] <= 1.0

    @pytest.mark.parametrize("command", ["fit", "resample"])
    def test_data_takes_the_manifest_file_or_its_directory(self, tmp_path, command):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "60", "--q", "4", "--seed", "2", "--out", str(data_dir)])
        flags = (["--epsilon", "1e-2"] if command == "fit"
                 else ["--k", "3", "--sample-size", "30", "--seed", "5"])
        outputs = []
        for data in (data_dir, data_dir / "manifest.json"):
            out = tmp_path / f"out_{data.name}"
            assert main([command, "--data", str(data), *flags, "--out", str(out)]) == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("role, value", [
        ("y", ["Y.csv"]),
        ("t", 3),
        ("x", "X1.csv"),
        ("t_m", ["T1.csv", 2]),
        ("intercept", "no"),
    ])
    def test_manifest_role_of_the_wrong_type_exits_two(
        self, tmp_path, capsys, role, value
    ):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "30", "--q", "3", "--seed", "0",
              "--out", str(data_dir)])
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest[role] = value
        (data_dir / "manifest.json").write_text(json.dumps(manifest))
        assert main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and f"role {role!r}" in err

    @pytest.mark.parametrize("text, message", [
        ('{"y": "Y.csv", ', "cannot read manifest"),
        ('{"y": "Y.csv", "t": "T.csv", "t_m": ["T1.csv"]}', "is missing block role 'x'"),
        ('{"y": "Y.csv", "x": ["X1.csv", "X2.csv"], "t": "T.csv", "t_m": ["T1.csv"]}',
         "manifest lists 2 X blocks but 1 covariate blocks"),
        ('"y x t t_m"', "must be a JSON object, got str"),
        ("[1, 2]", "must be a JSON object, got list"),
        ('{"y": "Y.csv", "x": ["X1.csv"], "t": "T.csv", "t_m": ["T1.csv"], "intercpt": true}',
         "has unknown keys ['intercpt']"),
        ('{"y": "Y.csv", "x": ["Y.csv", "X2.csv"], "t": "T.csv", "t_m": ["T1.csv", "T2.csv"]}',
         "Y.csv fills two roles, 'y' and 'x[0]'"),
        ('{"y": "Y.csv", "x": ["X1.csv", "X2.csv"], "t": "Y.csv", "t_m": ["T1.csv", "T2.csv"]}',
         "Y.csv fills two roles, 'y' and 't'"),
        ('{"y": "Y.csv", "x": ["X1.csv", "X2.csv"], "t": "T.csv", "t_m": ["T1.csv", "./T1.csv"]}',
         "T1.csv fills two roles, 't_m[0]' and 't_m[1]'"),
    ])
    def test_malformed_manifest_exits_two(self, tmp_path, capsys, text, message):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "30", "--q", "3", "--seed", "0",
              "--out", str(data_dir)])
        (data_dir / "manifest.json").write_text(text)
        assert main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "f")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replicate", "sensitivity", "resample",
                                         "replicate-scoring", "resample-full"])
    def test_study_whose_every_fit_fails_writes_strict_json_and_exits_two(
        self, tmp_path, capsys, command
    ):
        # n = 2 units cannot carry r = 2 covariates: every fit fails; with r = 1
        # the fits succeed and their scoring fails (a correlation needs 3 units);
        # a two-unit dataset fails resample's full-data fit, every row's reference
        def reject(token):
            raise ValueError(f"summary.json holds the non-JSON token {token}")

        data_dir = tmp_path / "data"
        tiny_dir = tmp_path / "tiny"
        main(["simulate", "--n", "20", "--q", "3", "--seed", "0", "--out", str(data_dir)])
        main(["simulate", "--n", "2", "--q", "3", "--r", "2", "--out", str(tiny_dir)])
        argv = {
            "replicate": ["replicate", "--n", "2", "--q", "3", "--replicates", "2"],
            "sensitivity": ["sensitivity", "--n", "2", "--q", "3", "--n-values", "2",
                            "--q-values", "", "--replicates", "2"],
            "resample": ["resample", "--data", str(data_dir), "--k", "2",
                         "--sample-size", "2"],
            "replicate-scoring": ["replicate", "--n", "2", "--q", "2", "--r", "1", "--p", "1",
                                  "--replicates", "2"],
            "resample-full": ["resample", "--data", str(tiny_dir), "--k", "2",
                              "--sample-size", "2"],
        }[command]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error" if command != "replicate-scoring" else "ignore")
            assert main(argv + ["--out", str(out)]) == 2
        first = {"replicate-scoring": "replicate 0: correlation needs at least 3 units",
                 "resample-full": "sample 0: full-data fit failed: covariate projection "
                                  "needs more units than covariates"}.get(command, "")
        assert f"error: all 2 fits failed; the first: {first}" in capsys.readouterr().err
        assert len(list(out.iterdir())) == 2
        text = (out / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert "null" in text and (summary["failures"] if command.startswith("resample")
                                   else summary[0]["failures"])

    @pytest.mark.parametrize("argv, code", [
        (["sensitivity", "--n", "40", "--q", "3", "--r", "5", "--n-values", "5,40",
          "--q-values", "", "--replicates", "2"], 0),
        (["replicate", "--n", "4", "--q", "3", "--r", "5", "--replicates", "2"], 2),
    ], ids=["sensitivity", "replicate"])
    def test_a_cell_whose_every_fit_failed_summarizes_without_warnings(
        self, tmp_path, argv, code
    ):
        # n = 4 or 5 units cannot carry r = 5 covariates: that cell has no fit
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == code
        failed = json.loads((out / "summary.json").read_text())[0]
        assert failed["failures"] and failed["converged"] == 0
        assert failed["deviation_quartiles"] == failed["sq_corr_quartiles"] == [None] * 3
        bands = [*failed["c_estimates"], failed["sigma2_y_estimate"]]
        assert all(band == dict.fromkeys(("mean", "lo95", "hi95")) for band in bands)

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--max-iter", "0"], "max_iter must be >= 1, got 0"),
        (["resample", "--epsilon", "0"], "epsilon must be positive and finite, got 0.0"),
    ], ids=["fit", "resample"])
    def test_the_config_is_checked_before_the_data_is_read(
        self, tmp_path, capsys, argv, message
    ):
        missing = tmp_path / "missing"
        assert main([*argv, "--data", str(missing), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_resample_sample_size_zero_exits_two(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "30", "--q", "3", "--seed", "0",
              "--out", str(data_dir)])
        assert main(["resample", "--data", str(data_dir), "--sample-size", "0",
                     "--out", str(tmp_path / "res")]) == 2
        assert "sample_size must be in [2, 30], got 0" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the cached parser gives each call the exit code and output of a fresh one
        data, fitted = str(tmp_path / "data"), str(tmp_path / "fit")
        calls = [["simulate", "--n", "40", "--q", "3", "--seed", "1", "--out", data],
                 ["fit", "--data", data, "--out", fitted, "--epsilon", "1e-2"],
                 ["fit", "--data", data], ["--help"]]
        outputs = []
        for _ in range(2):
            outputs.append([(main(args), capsys.readouterr()) for args in calls])
        assert [code for code, _ in outputs[0]] == [0, 0, 1, 0]
        assert outputs[1] == outputs[0]
        out, err = outputs[0][2][1]
        assert not out and "the following arguments are required: --out" in err
        assert outputs[0][3][1].out == cli.build_parser.__wrapped__().format_help()
        assert outputs[0][0][1].out == f"wrote 40x9 dataset to {data}\n"
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("args, code", [
        (["--help"], 0), ([], 1), (["fit", "--data", "missing", "--out", "out"], 2),
    ], ids=["help", "no_command", "missing_data"])
    def test_the_console_module_keeps_the_exit_codes(self, tmp_path, args, code):
        src = str(Path(factorem.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "factorem.cli", *args], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == code
        assert run.stderr.startswith("error:") == (code == 2)
