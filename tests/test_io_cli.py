import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from factorem import (
    EMConfig, SimConfig, canonicalize, fit, flatten_theta, observed_loglik,
    simulate_dataset,
)
from factorem.model import subset_units, theta_names, unflatten_theta
from factorem.cli import main
from factorem import io as io_module
from factorem.errors import DataError
from factorem.io import load_dataset, write_dataset, write_fit

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
    """The csv-module reader the C-parsed numeric block must agree with."""
    header, body = io_module._read_table(path)
    return header, np.array([[float(cell) for cell in row] for row in body])


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


class TestFastCsvPaths:
    """The row-streaming writer and the C-parsed reader against the
    csv-module code they replace."""

    def reference_bytes(self, tmp_path, header, matrix):
        path = tmp_path / "reference.csv"
        io_module._write_csv(path, header, ([io_module._fmt(v) for v in row]
                                            for row in matrix))
        return path.read_bytes()

    def test_writer_bytes_match_the_csv_writer(self, tmp_path):
        values = [-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308,
                  np.inf, -np.inf, np.nan, 0.1, -2.5, 123456789.0]
        matrix = np.array([values, values[::-1]])
        header = [f"c{j}" for j in range(len(values))]
        io_module._write_matrix(tmp_path / "fast.csv", header, matrix)
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == self.reference_bytes(tmp_path, header, matrix)
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
                self.reference_bytes(tmp_path, header, matrix), name

    @pytest.mark.parametrize("text", [
        "a,b\n1.5,-2\n3e-3,4\n",
        'a,b\n"1.5","-2"\n3e-3,"4"\n',
        '"a","b"\n1.5,-2\n3e-3,4\n',
        "a,b\n 1.5 ,\t-2\n3e-3 , 4\n",
        "a,b\r\n1.5,-2\r\n3e-3,4\r\n",
        "a,b\n1.5,-2\n3e-3,4",
        "a\n1.5\n-2\n",
        "a,b,c\n1.5,-2,nan\n",
        "a,b\ninf,-inf\n1e400,5e-324\n",
    ])
    def test_reader_fast_path_agrees_with_the_csv_reader(
            self, tmp_path, monkeypatch, text):
        path = tmp_path / "block.csv"
        path.write_bytes(text.encode())
        header, expected = strict_numeric(path)

        def no_fallback(path):
            raise AssertionError("fell back to the csv reader")

        monkeypatch.setattr(io_module, "_read_table", no_fallback)
        for categorical in (False, True):   # observation and covariate blocks
            got_header, values = io_module._read_block(path, categorical)
            assert got_header == header
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text, expected", [
        ("a,b\n1_5,2\n", [[15.0, 2.0]]),       # np.loadtxt rejects underscores
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
            header, values = io_module._read_block(path, categorical)
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
            header, values = io_module._read_block(path, categorical=False)
            np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=match):
                io_module._read_block(path, categorical=False)

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
        write_fit(result, tmp_path, data=data, config=config)

        from factorem.model import count_parameters

        k = count_parameters(dims)
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
        write_fit(result, tmp_path, config=config)
        assert "max_abs_score" not in json.loads((tmp_path / "report.json").read_text())
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
            write_fit(result, tmp_path, data=data)
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
    ("fit_data", "dims.n=30 disagrees with the data (40)"),
    ("fit_columns", "columns['z'] lists [1, 1, 1] names per block but the blocks "
                    "have [3, 3, 3] variables"),
], ids=["theta_blocks", "theta_width", "fit_data", "fit_columns"])
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
        fitted = subset_units(data, np.arange(30)) if case == "fit_data" else data
        result = fit(fitted, fitted.dimensions(), EMConfig())
        columns = {"z": [["v"]] * 3, "t": [["w"]] * 3} if case == "fit_columns" else None
        with pytest.raises(DataError, match=re.escape(message)):
            write_fit(result, out, data=data, columns=columns)
    assert not out.exists()


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

    def test_replicate_outputs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["replicate", "--n", "60", "--q", "5", "--replicates", "3",
                "--seed", "7", "--epsilon", "1e-2"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("metrics.csv", "summary.json"):
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

    @pytest.mark.parametrize("column", ["explained", "constant"])
    def test_observed_column_without_residual_variance_exits_two(
            self, tmp_path, capsys, column):
        # a column its own covariates explain exactly, or a constant one,
        # leaves the factor nothing to load on: named, not fitted
        data, _, _, dims = small_dataset(n=60, q=4)
        t1 = data.t[1]
        x1 = data.z[1].copy()
        x1[:, 2] = 2.5 * t1[:, 0] - t1[:, 1] if column == "explained" else 3.0
        data = replace(data, z=(data.z[0], x1, *data.z[2:]))
        message = "column 3 of X1 has zero variance"
        with pytest.raises(DataError, match=message):
            fit(data, dims, EMConfig())
        write_dataset(data, tmp_path / "data")
        assert main(["fit", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "f")]) == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["replicate", "sensitivity", "resample"])
    def test_study_whose_every_fit_fails_writes_strict_json_and_exits_two(
        self, tmp_path, capsys, command
    ):
        # n = 2 units cannot carry r = 2 covariates: every fit fails
        def reject(token):
            raise ValueError(f"summary.json holds the non-JSON token {token}")

        data_dir = tmp_path / "data"
        main(["simulate", "--n", "20", "--q", "3", "--seed", "0", "--out", str(data_dir)])
        argv = {
            "replicate": ["replicate", "--n", "2", "--q", "3", "--replicates", "2"],
            "sensitivity": ["sensitivity", "--n", "2", "--q", "3", "--n-values", "2",
                            "--q-values", "", "--replicates", "2"],
            "resample": ["resample", "--data", str(data_dir), "--k", "2",
                         "--sample-size", "2"],
        }[command]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)     # all-NaN medians
            assert main(argv + ["--out", str(out)]) == 2
        assert "error: all 2 fits failed; the first: " in capsys.readouterr().err
        text = (out / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert "null" in text and (summary["failures"] if command == "resample"
                                   else summary[0]["failures"])

    def test_resample_sample_size_zero_exits_two(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["simulate", "--n", "30", "--q", "3", "--seed", "0",
              "--out", str(data_dir)])
        assert main(["resample", "--data", str(data_dir), "--sample-size", "0",
                     "--out", str(tmp_path / "res")]) == 2
        assert "sample_size must be in [2, 30], got 0" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
